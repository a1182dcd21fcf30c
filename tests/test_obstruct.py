import numpy as np
import pytest

from flowlin import InvalidInput, catalog
from flowlin.embed import verify_linearization
from flowlin.obstruct import (
    CERTIFIED,
    NO_OBSTRUCTION,
    NOT_LINEARIZABLE,
    DimensionMismatch,
    InconsistentFacts,
    SystemFacts,
    WindingUnresolved,
    ZeroOnCircle,
    hopf_index_2d,
    quasiperiodic_factor_certificate,
    smooth_linearizability_verdict,
)

# planar test fields, all vectorized over (N, 2) points
rotation = lambda p: np.column_stack([-p[:, 1], p[:, 0]])
saddle = lambda p: np.column_stack([p[:, 0], -p[:, 1]])
node = lambda p: p.copy()
dipole = lambda p: np.column_stack([p[:, 0] ** 2 - p[:, 1] ** 2, 2 * p[:, 0] * p[:, 1]])

FIELDS = {"rotation": (rotation, 1), "saddle": (saddle, -1), "node": (node, 1), "dipole": (dipole, 2)}


def winding_oracle(field, radius, n=10_000):
    """Brute-force degree of field/|field| on the circle at 10^4 samples."""
    phi = np.linspace(0.0, 2.0 * np.pi, n + 1)
    pts = radius * np.column_stack([np.cos(phi), np.sin(phi)])
    vals = field(pts)
    ang = np.unwrap(np.arctan2(vals[:, 1], vals[:, 0]))
    return int(round((ang[-1] - ang[0]) / (2.0 * np.pi)))


def test_index_matches_oracle():
    for name, (field, expected) in FIELDS.items():
        assert winding_oracle(field, 1.0) == expected, name
        report = hopf_index_2d(field, (0.0, 0.0), 1.0, 256)
        assert report.index == expected, name


def test_index_stable_under_radius_halving():
    for field, expected in FIELDS.values():
        for radius in (1.0, 0.5, 0.25):
            assert hopf_index_2d(field, (0.0, 0.0), radius, 128).index == expected


def test_zero_on_circle_detected():
    # the circle of radius 1 around (1, 0) passes through the equilibrium
    with pytest.raises(ZeroOnCircle):
        hopf_index_2d(node, (1.0, 0.0), 1.0, 256)


def test_minimum_sample_count():
    with pytest.raises(ValueError):
        hopf_index_2d(rotation, (0.0, 0.0), 1.0, 32)


def test_sample_count_above_the_cap_is_refused_before_sampling(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sampled the circle")

    monkeypatch.setattr(np, "linspace", never)
    with pytest.raises(InvalidInput, match=r"must lie in \[64, 1048576\], got 1048577$"):
        hopf_index_2d(never, (0.0, 0.0), 1.0, 2**20 + 1)


def test_aliasing_beyond_sample_cap_rejected():
    # winding (2^20 - 1)/3 = 0b0101...01 keeps the wrapped angle step near
    # 2 pi / 3 at every dyadic sample count, so doubling never resolves it
    k = (2**20 - 1) // 3

    def monster(p):
        phi = k * np.arctan2(p[:, 1], p[:, 0])
        return np.column_stack([np.cos(phi), np.sin(phi)])

    with pytest.raises(WindingUnresolved):
        hopf_index_2d(monster, (0.0, 0.0), 1.0, 64)


def test_sphere_pole_indices_sum_to_euler_characteristic():
    entry = catalog.get("sphere_rotation")
    total = 0
    for eq in entry.equilibria:
        total += hopf_index_2d(eq.planar_field, (0.0, 0.0), 0.5, 256).index
    assert total == 2  # chi(S^2)


def test_report_carries_circle_diagnostics():
    report = hopf_index_2d(rotation, (0.0, 0.0), 2.0, 256)
    assert report.min_field_norm_on_circle == pytest.approx(2.0, rel=1e-6)
    assert report.winding_samples >= 256


# --- verdict engine ----------------------------------------------------------------

from verdict_fixtures import VERDICT_TABLE  # noqa: E402  (shared with acceptance)


def test_verdict_fixture_table():
    hits = 0
    for facts, expected, rule in VERDICT_TABLE:
        verdict = smooth_linearizability_verdict(facts)
        assert verdict.conclusion == expected, facts
        if rule is not None:
            assert verdict.reason.startswith(rule), (facts, verdict.reason)
        hits += 1
    assert hits == 12


def test_verdict_never_certifies():
    for facts, _, _ in VERDICT_TABLE:
        assert smooth_linearizability_verdict(facts).conclusion != CERTIFIED


def test_verdict_monotone_under_added_facts():
    base = SystemFacts(dim=2, equilibrium_indices=(-1,), equilibria_complete=False)
    assert smooth_linearizability_verdict(base).conclusion == NOT_LINEARIZABLE
    richer = SystemFacts(dim=2, equilibrium_indices=(-1,), equilibria_complete=False,
                         surface_type="sphere")
    assert smooth_linearizability_verdict(richer).conclusion == NOT_LINEARIZABLE


def test_inconsistent_facts_rejected():
    with pytest.raises(InconsistentFacts):
        smooth_linearizability_verdict(SystemFacts(dim=3, surface_type="sphere"))
    with pytest.raises(InconsistentFacts):
        smooth_linearizability_verdict(
            SystemFacts(dim=2, surface_type="sphere", euler_characteristic=1)
        )
    with pytest.raises(InconsistentFacts):
        # complete zero list must satisfy Poincare-Hopf: sum of indices = chi
        smooth_linearizability_verdict(
            SystemFacts(dim=2, equilibrium_indices=(1,), euler_characteristic=2)
        )


# --- quasiperiodic factor certificate -------------------------------------------------


def test_certificate_granted_for_torus_2():
    entry = catalog.get("quasiperiodic_torus_2")
    verdict = quasiperiodic_factor_certificate(
        entry.system, lambda x: np.asarray(x, float), (1.0, np.sqrt(2.0)), 50,
        n_samples=150, tol=1e-9, rng=np.random.default_rng(40),
    )
    assert verdict.conclusion == CERTIFIED
    assert verdict.witness["max_coeff"] == 50


def test_certificate_refused_for_rational_frequencies():
    entry = catalog.get("quasiperiodic_torus_2")
    verdict = quasiperiodic_factor_certificate(
        entry.system, lambda x: np.asarray(x, float), (1.0, 2.0), 50,
        n_samples=150, rng=np.random.default_rng(41),
    )
    assert verdict.conclusion == NO_OBSTRUCTION
    assert "(2, -1)" in verdict.reason


def test_certificate_refused_for_wrong_factor_map():
    entry = catalog.get("quasiperiodic_torus_2")
    # squaring the angles breaks the equivariance residual
    verdict = quasiperiodic_factor_certificate(
        entry.system, lambda x: np.mod(np.asarray(x, float) ** 2, 1.0),
        (1.0, np.sqrt(2.0)), 50, n_samples=150, rng=np.random.default_rng(42),
    )
    assert verdict.conclusion == NO_OBSTRUCTION
    assert "residual" in verdict.reason


def test_certificate_dimension_mismatch():
    entry = catalog.get("sphere_rotation")
    with pytest.raises(DimensionMismatch):
        quasiperiodic_factor_certificate(
            entry.system, lambda x: np.asarray(x, float), (1.0, np.sqrt(2.0)), 50,
            rng=np.random.default_rng(0),
        )


def test_certified_system_passes_standard_embedding_residual():
    # soundness at desk scale: the granted certificate implies the standard
    # angle-to-circles embedding linearizes within 1e-8
    entry = catalog.get("quasiperiodic_torus_2")
    grid = (entry.sample_states(np.random.default_rng(0), 20), catalog.STANDARD_TIMES)
    assert verify_linearization(entry.exact_embedding, entry.system, grid) <= 1e-8
