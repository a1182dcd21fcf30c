import numpy as np
import pytest

from flowlin import catalog
from flowlin.catalog import UnknownEntry
from flowlin.embed import verify_linearization
from flowlin.flows import evolve, sample_trajectory
from flowlin.linalg import worst

EMBEDDED = [
    "quasiperiodic_torus_1",
    "quasiperiodic_torus_2",
    "quasiperiodic_torus_3",
    "sphere_rotation",
    "klein_bottle",
    "projective_plane",
    "product_attractor",
    "log_radial",
]


def test_roster_and_verdicts():
    assert catalog.names() == EMBEDDED[:6] + ["product_attractor", "annulus_cubic",
                                              "log_radial", "saddle_plane"]
    assert catalog.get("annulus_cubic").expected_verdict.kind == "not_linearizable"
    assert "asymptotic phase" in catalog.get("annulus_cubic").expected_verdict.reason
    for name in EMBEDDED:
        assert catalog.get(name).expected_verdict.kind == "linearizable_smooth"


def test_exact_embedding_roster_matches():
    with_embedding = [n for n in catalog.names() if catalog.get(n).exact_embedding is not None]
    assert with_embedding == EMBEDDED


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        catalog.get("lorenz")


def test_all_exact_embeddings_linearize():
    # per-entry bounds: inclusions of already-linear flows stay at rounding,
    # trigonometric identities a little above it
    bounds = {"sphere_rotation": 1e-12, "klein_bottle": 1e-9, "projective_plane": 1e-9}
    for name in EMBEDDED:
        entry = catalog.get(name)
        grid = (entry.sample_states(np.random.default_rng(0), 20), catalog.STANDARD_TIMES)
        residual = verify_linearization(entry.exact_embedding, entry.system, grid)
        assert residual <= bounds.get(name, 1e-8), f"{name}: {residual}"


# sample count and largest accepted violation of the torus-action axioms
ACTION_SAMPLES = 500
ACTION_TOL = 1e-9


def action_violations(entry):
    """Largest violations of identity, additivity and flow = action along omega."""
    rng = np.random.default_rng(1)
    act, omega, chart = entry.action.action, entry.action.omega, entry.system.chart
    xs = entry.sample_states(rng, ACTION_SAMPLES)
    hs = rng.random((ACTION_SAMPLES, len(omega)))
    hs2 = rng.random((ACTION_SAMPLES, len(omega)))
    ts = rng.uniform(-10.0, 10.0, ACTION_SAMPLES)
    ident = chart.distances(act(np.zeros_like(hs), xs), xs)
    add = chart.distances(act(np.mod(hs + hs2, 1.0), xs), act(hs, act(hs2, xs)))
    along = np.mod(np.multiply.outer(ts, omega), 1.0)
    match = chart.distances(evolve(entry.system, xs, ts), act(along, xs))
    return worst(ident), worst(add), worst(match)


def test_action_invariants():
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.action is None:
            continue
        violations = action_violations(entry)
        assert all(v <= ACTION_TOL for v in violations), f"{name}: {violations}"


def test_missing_action_and_embedding():
    assert catalog.get("product_attractor").action is None
    assert catalog.get("annulus_cubic").exact_embedding is None


# --- Klein bottle quotient geometry -------------------------------------------


def test_klein_identified_pairs_map_to_equal_images():
    entry = catalog.get("klein_bottle")
    F = entry.exact_embedding.F
    rng = np.random.default_rng(8)
    for _ in range(500):
        x = rng.random(2)
        y = np.array([(x[0] + 0.5) % 1.0, (-x[1]) % 1.0])
        # identification arithmetic costs a few ulps; the images agree to
        # rounding, far below the separation scale of distinct points
        assert np.linalg.norm(F(x) - F(y)) <= 1e-12


def test_klein_separates_quotient_points():
    entry = catalog.get("klein_bottle")
    F = entry.exact_embedding.F
    chart = entry.system.chart
    rng = np.random.default_rng(9)
    worst_ratio = np.inf
    for _ in range(10_000):
        x, y = rng.random(2), rng.random(2)
        d = chart.distance(x, y)
        if d < 1e-3:
            continue
        image_gap = np.linalg.norm(F(x) - F(y))
        assert image_gap > 0.0
        worst_ratio = min(worst_ratio, image_gap / d)
    assert worst_ratio > 0.1


def test_projective_plane_antipodal_exact_and_separating():
    entry = catalog.get("projective_plane")
    F = entry.exact_embedding.F
    rng = np.random.default_rng(10)
    for _ in range(500):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        np.testing.assert_array_equal(F(x), F(-x))
    for _ in range(2000):
        x, y = rng.normal(size=3), rng.normal(size=3)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        if min(np.linalg.norm(x - y), np.linalg.norm(x + y)) > 1e-3:
            assert np.linalg.norm(F(x) - F(y)) > 0.0


# --- exact phase and Lyapunov data ----------------------------------------------


def test_log_radial_phase_commutes_with_flow():
    entry = catalog.get("log_radial")
    P = entry.exact_phase
    sys = entry.system
    rng = np.random.default_rng(11)
    worst = 0.0
    for x in entry.sample_states(rng, 100):
        for t in (0.1, 1.0, 2.0, 5.0):
            lhs = P(evolve(sys, x, t))
            rhs = evolve(sys, P(x), t)
            worst = max(worst, sys.chart.distance(lhs, rhs))
    assert worst <= 1e-10


def test_lyapunov_invariants():
    for name in ("log_radial", "product_attractor"):
        entry = catalog.get(name)
        lyap = entry.lyapunov
        for a in entry.attractor.cloud[:50]:
            assert lyap.V(a) <= 1e-12
        rng = np.random.default_rng(12)
        for x in entry.sample_states(rng, 20):
            vals = [lyap.V(evolve(entry.system, x, t)) for t in (0.0, 0.5, 1.0, 2.0)]
            assert all(b < a or a < 1e-12 for a, b in zip(vals, vals[1:]))
        # level-set embedding lands on the unit sphere
        for x in entry.sample_states(rng, 20):
            from flowlin.embed import impact_time

            tau = impact_time(entry.system, lyap.V, lyap.level, x)
            hit = evolve(entry.system, x, tau)
            assert abs(np.linalg.norm(lyap.level_set_embedding(hit)) - 1.0) <= 1e-12


def test_annulus_closed_form_matches_integration():
    entry = catalog.get("annulus_cubic")
    rng = np.random.default_rng(13)
    worst = 0.0
    for x in entry.sample_states(rng, 15):
        grid = np.linspace(0.0, 10.0, 6)
        traj = sample_trajectory(entry.ode_system, x, grid)
        for t, state in zip(grid, traj.states):
            worst = max(worst, entry.system.chart.distance(state, evolve(entry.system, x, float(t))))
    assert worst <= 1e-7


def test_sphere_equilibria():
    entry = catalog.get("sphere_rotation")
    assert [eq.index for eq in entry.equilibria] == [1, 1]
    locs = [eq.location for eq in entry.equilibria]
    assert (0.0, 0.0, 1.0) in locs and (0.0, 0.0, -1.0) in locs


def test_product_attractor_phase_is_projection():
    entry = catalog.get("product_attractor")
    x = np.array([0.6, 0.8, 0.0, 1.5])
    np.testing.assert_array_equal(entry.exact_phase(x), [0.6, 0.8, 0.0, 0.0])


def test_attractor_models_well_formed():
    for name in ("log_radial", "annulus_cubic", "product_attractor"):
        entry = catalog.get(name)
        model = entry.attractor
        assert len(model.cloud) >= 200
        for a in model.cloud[:20]:
            assert entry.system.chart.distance(model.nearest_point(a), a) <= 1e-12
            moved = evolve(model.restricted_flow, a, 0.7)
            assert entry.system.chart.distance(model.nearest_point(moved), moved) <= 1e-10
