"""State batches: every batched path agrees bit for bit with one state at a time."""

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlin import InvalidInput, catalog, edmd, embed
from flowlin.embed import BracketFailure, OnAttractor, impact_time
from flowlin.flows import (
    MAX_TIME,
    ChartDescriptor,
    FlowSystem,
    TimeOutOfDomain,
    euclidean,
    evolve,
)
from flowlin.integrate import IntegrationFailure, integrate
from flowlin.obstruct import hopf_index_2d, quasiperiodic_factor_certificate
from flowlin.phase import AttractorModel, verify_phase_properties

CLOSED_FORMS = [name for name in catalog.names() if catalog.get(name).system.closed_form]
ODE_TWINS = [name for name in catalog.names() if catalog.get(name).ode_system]
BASINS = ("log_radial", "product_attractor")


@pytest.fixture(scope="module")
def built():
    """Topological and smooth built embeddings, keyed by (system, mode)."""
    out = {}
    for name in BASINS:
        entry = catalog.get(name)
        validation = entry.sample_states(np.random.default_rng(0), 40)
        out[name, "topological"] = embed.build_topological_embedding(
            entry.system, entry.attractor, entry.exact_phase,
            entry.attractor_embedding, entry.lyapunov, validation,
        )
    entry = catalog.get("log_radial")
    out["log_radial", "smooth"] = embed.build_smooth_embedding(
        entry.system, entry.attractor, entry.exact_phase, entry.attractor_embedding,
        entry.transverse, entry.lyapunov.V, entry.lyapunov.level,
        entry.sample_states(np.random.default_rng(0), 40),
    )
    return out


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(CLOSED_FORMS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
)
def test_batched_evolve_matches_each_row(name, seed, n):
    sys = catalog.get(name).system
    rng = np.random.default_rng(seed)
    X = catalog.get(name).sample_states(rng, n)
    t = rng.uniform(-2.0, 3.0, n)
    t[rng.random(n) < 0.3] = 0.0
    # keep every row inside its domain of definition
    t = np.where(t == 0.0, 0.0, np.maximum(t, sys.t_min(X) + 0.5))
    batch = evolve(sys, X, t)
    assert batch.shape == X.shape
    for i in range(n):
        np.testing.assert_array_equal(batch[i], evolve(sys, X[i], t[i]))
    zero = t == 0.0
    np.testing.assert_array_equal(batch[zero], sys.chart.wrap(X[zero]))


@pytest.mark.parametrize(
    "name", [name for name in catalog.names() if catalog.get(name).exact_embedding]
)
def test_exact_embedding_batch_matches_each_row(name):
    entry = catalog.get(name)
    X = entry.sample_states(np.random.default_rng(11), 30)
    F = entry.exact_embedding.F
    images = F(X)
    for i in range(len(X)):
        np.testing.assert_array_equal(images[i], F(X[i]))


@pytest.mark.parametrize("key", [(n, "topological") for n in BASINS] + [("log_radial", "smooth")])
def test_built_embedding_batch_matches_each_row(built, key):
    entry = catalog.get(key[0])
    F = built[key].F
    X = entry.sample_states(np.random.default_rng(12), 30)
    # an on-attractor row takes the attractor branch inside the same batch
    X[0] = entry.attractor.cloud[3]
    images = F(X)
    for i in range(len(X)):
        np.testing.assert_array_equal(images[i], F(X[i]))
    # any leading shape: the finite-difference Jacobian passes (N, 2 dim, dim)
    np.testing.assert_array_equal(F(X.reshape(5, 6, -1)), images.reshape(5, 6, -1))


def _verify_batch(entry) -> np.ndarray:
    """States, their flowed copies and their Jacobian probes, as one evidence pass joins them."""
    states = entry.sample_states(np.random.default_rng(17), 20)
    flowed = embed._flowed(entry.system, states, [0.0, 0.1, 1.0, 10.0])
    probes = embed._fd_probes(states).reshape(-1, states.shape[-1])
    return np.concatenate([states, flowed, probes])


@settings(max_examples=20, deadline=None)
@given(
    key=st.sampled_from([(n, "topological") for n in BASINS] + [("log_radial", "smooth")]),
    cuts=st.lists(st.integers(0, 10**6), max_size=4),
)
def test_built_embedding_rows_do_not_depend_on_the_batch_split(built, key, cuts):
    # the evidence pass gets the same bytes from one F call as from one per part
    X = _verify_batch(catalog.get(key[0]))
    F = built[key].F
    bounds = [0, *sorted(c % (len(X) + 1) for c in cuts), len(X)]
    parts = [F(X[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
    np.testing.assert_array_equal(np.concatenate(parts), F(X))


def test_quality_flags_a_map_that_reads_the_whole_batch():
    entry = catalog.get("log_radial")
    F, B = entry.exact_embedding.F, entry.exact_embedding.B
    X = entry.sample_states(np.random.default_rng(16), 20)
    # written for one state: on a batch the norm runs over every row
    whole = embed.EmbeddingCandidate(lambda x: F(x) * np.linalg.norm(x), B)
    report = embed.verify_embedding_quality(whole, entry.system, X, ())
    # so the batch_agreement check of `verify` and `build` fails
    assert report.batch_disagreement > embed.BATCH_TOL
    report = embed.verify_embedding_quality(entry.exact_embedding, entry.system, X, ())
    assert report.batch_disagreement == 0.0


@pytest.mark.parametrize("name", BASINS)
def test_impact_time_batch_matches_each_row(name):
    entry = catalog.get(name)
    V, c = entry.lyapunov.V, entry.lyapunov.level
    X = entry.sample_states(np.random.default_rng(13), 50)
    taus = impact_time(entry.system, V, c, X)
    assert taus.shape == (50,)
    for i in range(len(X)):
        tau = impact_time(entry.system, V, c, X[i])
        assert isinstance(tau, float) and tau == taus[i]


def test_impact_time_nan_row_is_a_bracket_failure():
    entry = catalog.get("log_radial")
    X = entry.sample_states(np.random.default_rng(14), 5)
    X[2, 0] = np.nan
    # a NaN row brackets no crossing, so the search fails before any solve
    with pytest.raises(BracketFailure, match=r"^no crossing of level 1.0 within tau >= -100.0$"):
        impact_time(entry.system, entry.lyapunov.V, 1.0, X)


def test_impact_time_on_attractor_row_raises():
    entry = catalog.get("log_radial")
    X = entry.sample_states(np.random.default_rng(15), 5)
    X[3] = [1.0, 0.3]
    with pytest.raises(OnAttractor):
        impact_time(entry.system, entry.lyapunov.V, 1.0, X)


def test_row_below_domain_bound_names_its_time_and_bound():
    sys = catalog.get("annulus_cubic").system
    X = np.array([[2.0, 0.0], [0.5, 1.0], [1.5, 2.0]])
    bound = sys.t_min(X)  # -0.5, -1.5, -2
    t = np.array([0.3, -1.75, 0.2])
    with pytest.raises(TimeOutOfDomain) as err:
        evolve(sys, X, t)
    assert "row 1" in str(err.value)
    assert f"t = {t[1]:.6g}" in str(err.value)
    assert f"bound {bound[1]:.6g}" in str(err.value)


def test_batched_impact_time_evolve_budget(monkeypatch):
    calls = []

    def counting_evolve(*args):
        calls.append(None)
        return evolve(*args)

    monkeypatch.setattr(embed, "evolve", counting_evolve)
    entry = catalog.get("log_radial")
    X = entry.sample_states(np.random.default_rng(40), 200)
    impact_time(entry.system, entry.lyapunov.V, entry.lyapunov.level, X)
    assert len(calls) <= 40


class _SolverReached(Exception):
    pass


def test_impact_time_searches_both_directions_in_one_loop(monkeypatch):
    entry = catalog.get("product_attractor")
    V, c = entry.lyapunov.V, entry.lyapunov.level
    X = entry.sample_states(np.random.default_rng(40), 200)
    calls, brackets = [], []

    def counting_evolve(*args):
        calls.append(None)
        return evolve(*args)

    def solver(f, *bracket):
        brackets.append(np.array(bracket))
        raise _SolverReached

    monkeypatch.setattr(embed, "evolve", counting_evolve)
    monkeypatch.setattr(embed, "_chandrupatla", solver)

    def search(rows):
        """Evolve calls made before the solver starts, and the bracket it gets."""
        calls.clear()
        with pytest.raises(_SolverReached):
            impact_time(entry.system, V, c, rows)
        return len(calls), brackets[-1]

    forward = np.asarray(V(X)) > c
    assert 0 < forward.sum() < len(X)
    fwd_calls, fwd_bracket = search(X[forward])
    bwd_calls, bwd_bracket = search(X[~forward])
    both_calls, bracket = search(X)
    # one evolve for g at tau = 0, then one per round of the longer side
    assert both_calls == 1 + max(fwd_calls - 1, bwd_calls - 1)
    assert both_calls < fwd_calls + bwd_calls - 1
    np.testing.assert_array_equal(bracket[:, forward], fwd_bracket)
    np.testing.assert_array_equal(bracket[:, ~forward], bwd_bracket)


def _snapshots_pair_by_pair(sys, initial_states, step, count):
    """Reference: one evolve call per pair, trajectory after trajectory."""
    per_state = int(np.ceil(count / len(initial_states)))
    xs, ys = [], []
    for x0 in initial_states:
        x = np.asarray(x0, float)
        for _ in range(per_state):
            if len(xs) == count:
                break
            x_next = evolve(sys, x, step)
            xs.append(x)
            ys.append(x_next)
            x = x_next
    return np.array(xs), np.array(ys)


@pytest.mark.parametrize("count", [40, 37, 23])
@pytest.mark.parametrize("name", ["annulus_cubic", "klein_bottle"])
def test_lockstep_snapshots_match_pair_by_pair_loop(name, count):
    entry = catalog.get(name)
    starts = entry.sample_states(np.random.default_rng(16), 8)
    snaps = edmd.collect_snapshots(entry.system, starts, 0.1, count)
    X, Y = _snapshots_pair_by_pair(entry.system, starts, 0.1, count)
    np.testing.assert_array_equal(snaps.X, X)
    np.testing.assert_array_equal(snaps.Y, Y)


def test_lockstep_ode_snapshots_match_pair_by_pair_loop():
    entry = catalog.get("annulus_cubic")
    starts = entry.sample_states(np.random.default_rng(18), 5)
    snaps = edmd.collect_snapshots(entry.ode_system, starts, 0.1, 23)
    X, Y = _snapshots_pair_by_pair(entry.ode_system, starts, 0.1, 23)
    np.testing.assert_array_equal(snaps.X, X)
    np.testing.assert_array_equal(snaps.Y, Y)


# --- vector fields and the batched integrator --------------------------------------

# the vector fields written on one (2,) state array, as a reference
SINGLE_STATE_FIELDS = {
    "annulus_cubic": lambda x: np.array([-((x[0] - 1.0) ** 3), x[0]]),
    "log_radial": lambda x: np.array([-x[0] * np.log(x[0]), 1.0 + np.log(x[0])]),
    "saddle_plane": lambda x: np.array([x[0], -x[1]]),
}


def _mixed_times(sys, X, rng):
    """Forward, backward and zero times, every row inside its domain."""
    t = rng.uniform(-1.5, 2.5, len(X))
    t[::4] = 0.0
    return np.where(t == 0.0, 0.0, np.maximum(t, sys.t_min(X) + 0.25))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", ODE_TWINS)
def test_batch_field_matches_single_state_field(name):
    field = catalog.get(name).ode_system.vector_field
    rng = np.random.default_rng(19)
    # catalog samples, states far off them, where r - 1 is large, and edge states:
    # r = 1e150 (annulus: -inf in both forms), r = 1 exactly and theta = -0.0
    X = np.concatenate([
        catalog.get(name).sample_states(rng, 300), rng.uniform(0.01, 50.0, (300, 2)),
        [[1e150, 0.5], [1.0, 2.0], [0.7, -0.0]],
    ])
    with np.errstate(over="ignore"):
        reference = np.array([SINGLE_STATE_FIELDS[name](x) for x in X])
        # a batch's coordinates are the rows of one (dim, N) array, one state's are floats
        batch = np.array(field(np.ascontiguousarray(X.T)))
        single = [list(map(float, field(x))) for x in X.tolist()]
    np.testing.assert_array_equal(_bits(batch.T), _bits(reference))
    np.testing.assert_array_equal(_bits(single), _bits(reference))


@pytest.mark.parametrize("name", ODE_TWINS)
def test_field_returning_the_wrong_coordinate_count_is_refused(name):
    field = catalog.get(name).ode_system.vector_field
    X = catalog.get(name).sample_states(np.random.default_rng(25), 3)
    short, long = (lambda x: field(x)[:1]), (lambda x: (*field(x), x[0]))
    for f, n in ((short, 1), (long, 3)):
        with pytest.raises(InvalidInput, match=rf"^vector field returned shape \({n},\) "
                                               r"for coordinates \(2,\)$"):
            integrate(f, X[0], 0.0, 1.0)
        with pytest.raises(InvalidInput, match=rf"^vector field returned shape \({n}, 3\) "
                                               r"for coordinates \(2, 3\)$"):
            integrate(f, X, 0.0, 1.0)
    with pytest.raises(InvalidInput, match="vector field returned"):
        evolve(FlowSystem("short", catalog.get(name).ode_system.chart, vector_field=short), X, 1.0)


@pytest.mark.parametrize("name", ODE_TWINS)
def test_ode_batch_matches_each_row(name):
    sys = catalog.get(name).ode_system
    rng = np.random.default_rng(20)
    X = catalog.get(name).sample_states(rng, 16)
    t = _mixed_times(sys, X, rng)
    assert (t < 0).any() and (t > 0).any() and (t == 0).any()
    batch = evolve(sys, X, t)
    for i in range(len(X)):
        np.testing.assert_array_equal(batch[i], evolve(sys, X[i], float(t[i])))
    np.testing.assert_array_equal(batch[t == 0.0], sys.chart.wrap(X[t == 0.0]))
    assert evolve(sys, X[:0], t[:0]).shape == (0, 2)


@pytest.mark.parametrize("name", ODE_TWINS)
def test_batch_dense_output_matches_each_row(name):
    sys = catalog.get(name).ode_system
    rng = np.random.default_rng(21)
    X = catalog.get(name).sample_states(rng, 8)
    t = _mixed_times(sys, X, rng)
    dense = integrate(sys.vector_field, X, 0.0, t)
    solo = [integrate(sys.vector_field, x, 0.0, ti) for x, ti in zip(X, t)]
    assert len(dense.coeffs) == sum(len(d.coeffs) for d in solo)
    # a step boundary of each row, then inside steps, at the end and past either end
    edges = np.array([d.t_lo[len(d.t_lo) // 2] if len(d.t_lo) else 0.0 for d in solo])
    for times in [edges] + [frac * t for frac in (0.37, 0.5, 1.0, 1.2, -0.1)]:
        states = dense(times)
        for i, d in enumerate(solo):
            np.testing.assert_array_equal(states[i], d(times[i]))


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(ODE_TWINS),
    seed=st.integers(0, 2**32 - 1),
    # per row: 0 is t = 0, above 0 forward up to t = 2, below 0 backward up to
    # 90% of the way to the domain bound (at most t = -1.5)
    reach=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), min_size=1, max_size=6),
    cuts=st.sets(st.integers(1, 5)),
    frac=st.floats(-0.25, 1.25),
)
def test_ode_rows_repeat_their_solo_runs_bit_for_bit(name, seed, reach, cuts, frac):
    sys = catalog.get(name).ode_system
    X = catalog.get(name).sample_states(np.random.default_rng(seed), len(reach))
    reach = np.array(reach)
    t = np.where(reach > 0.0, 2.0 * reach, reach * np.minimum(1.5, -0.9 * sys.t_min(X)))
    solo_dense = [integrate(sys.vector_field, x, 0.0, ti) for x, ti in zip(X, t)]
    solo = [evolve(sys, x, float(ti)) for x, ti in zip(X, t)]
    # the batch cut into consecutive groups, each integrated as one batch
    for rows in np.split(np.arange(len(X)), sorted(c for c in cuts if c < len(X))):
        batch = evolve(sys, X[rows], t[rows])
        states = integrate(sys.vector_field, X[rows], 0.0, t[rows])(frac * t[rows])
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(batch[i], solo[row])
            np.testing.assert_array_equal(states[i], solo_dense[row](frac * t[row]))


@pytest.mark.parametrize(
    "field", [lambda x: (1.0, -x[1]), lambda x: (x[1], 0.5)], ids=["first", "second"]
)
def test_field_with_a_constant_coordinate_integrates_a_batch(field):
    # a constant coordinate fills its row; each row still repeats its solo run
    sys = FlowSystem("constant", euclidean(2), vector_field=field)
    X = np.array([[0.0, 1.0], [0.5, -2.0], [3.0, 0.25]])
    t = np.array([1.0, 2.5, -0.75])
    batch = evolve(sys, X, t)
    dense = integrate(field, X[:1], 0.0, 1.0)(0.5)
    for i in range(len(X)):
        np.testing.assert_array_equal(batch[i], evolve(sys, X[i], float(t[i])))
    np.testing.assert_array_equal(dense[0], integrate(field, X[0], 0.0, 1.0)(0.5))


def test_field_of_constants_integrates_a_batch():
    # no coordinate is an (N,) row: each constant fills its row
    field = lambda x: (1.0, 0.5)  # noqa: E731
    X = np.array([[0.0, 1.0], [0.5, -2.0], [3.0, 0.25]])
    dense = integrate(field, X, 0.0, 1.0)
    for i, x in enumerate(X):
        solo = integrate(field, x, 0.0, 1.0)
        np.testing.assert_array_equal(dense(1.0)[i], solo(1.0))
        np.testing.assert_array_equal(dense(0.3)[i], solo(0.3))
    sys = FlowSystem("constant", euclidean(2), vector_field=field)
    t = np.array([1.0, 2.5, -0.75])
    batch = evolve(sys, X, t)
    for i in range(len(X)):
        np.testing.assert_array_equal(batch[i], evolve(sys, X[i], float(t[i])))


def test_field_coordinate_of_another_length_is_refused():
    X = np.zeros((3, 2))
    for field in (lambda x: (1.0, x[1][:2]), lambda x: (x[0], x[1][:2])):
        with pytest.raises(InvalidInput, match="must be a constant or 3 rows"):
            integrate(field, X, 0.0, 1.0)


def _blowup():
    # dx/dt = x^2 leaves every bound at t = 1 / x0
    return FlowSystem("blowup", euclidean(1), vector_field=lambda x: (x[0] * x[0],))


def test_blowup_row_raises_naming_its_row():
    sys = _blowup()
    X = np.array([[0.1], [0.2], [1.0], [0.3]])
    with pytest.raises(IntegrationFailure) as solo:
        evolve(sys, X[2], 2.0)
    with pytest.raises(IntegrationFailure) as batch:
        evolve(sys, X, 2.0)
    assert str(batch.value) == f"{solo.value} (row 2)"


def test_max_steps_counts_per_row(monkeypatch):
    # from 0.01 a row takes 5, 5, 13 and 2 steps to t = 20, -20, 50 and 2, and 49 to t = 90
    monkeypatch.setattr("flowlin.integrate.MAX_STEPS", 13)
    sys = _blowup()
    X = np.full((4, 1), 0.01)
    t = np.array([20.0, -20.0, 50.0, 2.0])
    dense = integrate(sys.vector_field, X, 0.0, t)
    assert len(dense.coeffs) > 13  # accepted steps of all rows together
    out = evolve(sys, X, t)
    assert np.all(np.isfinite(out))
    np.testing.assert_array_equal(out, dense(t))
    with pytest.raises(IntegrationFailure, match=r"^exceeded 13 steps \(row 2\)$"):
        evolve(sys, X, np.array([20.0, -20.0, 90.0, 2.0]))


@pytest.mark.parametrize("t_end", [np.nan, np.inf, -np.inf])
def test_non_finite_end_time_raises_naming_its_row(t_end):
    # the closed form and its vector-field twin raise the same error
    entry = catalog.get("log_radial")
    X = np.array([[1.5, 0.3], [0.8, 2.0], [2.0, 0.0]])
    for sys in (entry.system, entry.ode_system):
        with pytest.raises(IntegrationFailure, match=r"^end time -?(nan|inf) is not finite$"):
            evolve(sys, X[0], t_end)
        with pytest.raises(IntegrationFailure, match=r" is not finite \(row 1\)$"):
            evolve(sys, X, np.array([1.0, t_end, 0.0]))


def test_time_beyond_the_bound_raises_naming_it_and_its_row():
    # the closed form and its vector-field twin reject it before any flow call
    entry = catalog.get("log_radial")
    X = np.array([[1.5, 0.3], [0.8, 2.0], [2.0, 0.0]])
    beyond = np.nextafter(MAX_TIME, np.inf)
    for sys in (entry.system, entry.ode_system):
        with pytest.raises(TimeOutOfDomain, match=r"beyond time bound 2\*\*52$"):
            evolve(sys, X[0], beyond)
        with pytest.raises(TimeOutOfDomain, match=r"beyond time bound 2\*\*52 \(row 1\)$"):
            evolve(sys, X, np.array([1.0, -beyond, 0.0]))
    # the bound itself is a time a flow takes
    torus = catalog.get("quasiperiodic_torus_2").system
    assert np.all(np.isfinite(evolve(torus, np.array([0.1, 0.2]), MAX_TIME)))


def _fourier_reference(chart, degree, x):
    """Reference: the harmonics of one state, one scalar term at a time."""
    out = []
    for i, period in enumerate(chart.wraps):
        if period is not None:
            for k in range(1, degree + 1):
                rate = 2.0 * np.pi * k / period
                out += [np.cos(rate * x[i]), np.sin(rate * x[i])]
    return out


def _monomial_reference(powers, x):
    """Reference: one monomial of one state at a time."""
    return [np.prod(x ** np.array(p)) for p in powers]


@pytest.mark.parametrize("name", ["klein_bottle", "quasiperiodic_torus_3", "annulus_cubic"])
def test_fourier_dictionary_batch_matches_each_row(name):
    entry = catalog.get(name)
    d = edmd.fourier_dictionary(entry.system.chart, 3)
    X = entry.sample_states(np.random.default_rng(17), 40)
    P = d.matrix(X)
    assert P.shape == (40, d.size)
    for i in range(len(X)):
        np.testing.assert_array_equal(P[i], d.evaluate(X[i]))
        np.testing.assert_array_equal(P[i], _fourier_reference(entry.system.chart, 3, X[i]))


@pytest.mark.parametrize("name", ["annulus_cubic", "sphere_rotation"])
def test_monomial_dictionary_batch_matches_each_row(name):
    entry = catalog.get(name)
    dim = entry.system.chart.dim
    d = edmd.monomial_dictionary(dim, 3)
    powers = sorted(
        (p for p in product(range(4), repeat=dim) if sum(p) <= 3), key=lambda p: (sum(p), p)
    )
    X = entry.sample_states(np.random.default_rng(18), 40)
    P = d.matrix(X)
    assert P.shape == (40, d.size) == (40, len(powers))
    for i in range(len(X)):
        np.testing.assert_array_equal(P[i], d.evaluate(X[i]))
        np.testing.assert_array_equal(P[i], _monomial_reference(powers, X[i]))


@pytest.mark.parametrize(
    "name, key", [("annulus_cubic", "polar_fourier_5"), ("log_radial", "exact_lift")]
)
def test_catalog_custom_dictionary_batch_matches_each_row(name, key):
    entry = catalog.get(name)
    labels, F = entry.custom_observables[key]
    d = edmd.custom_dictionary(F, labels)
    X = entry.sample_states(np.random.default_rng(19), 40)
    P = d.matrix(X)
    assert P.shape == (40, len(labels))
    for i in range(len(X)):
        np.testing.assert_array_equal(P[i], d.evaluate(X[i]))


def test_equilibrium_row_integrates_on_both_paths():
    # f(x0) = 0 puts 0 / 0 in the initial step's size ratio: Python floats raise
    # on it where numpy warns, so the ratio is guarded on both paths
    sys = catalog.get("saddle_plane").ode_system
    X = np.array([[0.0, 0.0], [1.0, 2.0]])
    batch = integrate(sys.vector_field, X, 0.0, 1.0)(1.0)
    np.testing.assert_array_equal(batch[0], [0.0, 0.0])
    for x, row in zip(X, batch):
        np.testing.assert_array_equal(integrate(sys.vector_field, x, 0.0, 1.0)(1.0), row)


# --- the batch-convention gate --------------------------------------------------
#
# Every caller-supplied map the evidence layer evaluates must give one row of
# the stated width per state.  Two ways to break that: a map written for one
# state, which reads the first row of a batch, and a map of the wrong width.


def _one_state(f):
    return lambda x: f(np.asarray(x)[0])


def _too_wide(f):
    return lambda x: np.concatenate([f(x), f(x)[..., :1]], axis=-1)


BAD_MAPS = [pytest.param(_one_state, id="one_state"), pytest.param(_too_wide, id="too_wide")]
GATE = "mapped states of shape .* it must act row-wise on batches"


def _log_radial_states(n=5):
    return catalog.get("log_radial").sample_states(np.random.default_rng(0), n)


def _bad_exact_embedding(bad):
    exact = catalog.get("log_radial").exact_embedding
    return embed.EmbeddingCandidate(bad(exact.F), exact.B)


@pytest.mark.parametrize("bad", BAD_MAPS)
def test_gate_refuses_a_chart_identification(bad):
    g = catalog.get("klein_bottle").system.chart.identifications[0]
    chart = ChartDescriptor("torus_angles", (1.0, 1.0), (bad(g),))
    with pytest.raises(InvalidInput, match=f"^torus_angles: identification {GATE}$"):
        chart.distances([0.1, 0.2], [[0.3, 0.4], [0.5, 0.6]])


def test_gate_refuses_an_identification_that_drops_a_coordinate():
    chart = ChartDescriptor("torus_angles", (1.0, 1.0), (lambda x: x[..., :1],))
    message = r"^torus_angles: identification mapped states of shape \(1, 2\) to shape \(1, 1\)"
    with pytest.raises(InvalidInput, match=message + r", expected \(1, 2\);"):
        chart.orbit([[0.1, 0.2]])


@pytest.mark.parametrize("bad", BAD_MAPS)
def test_gate_refuses_a_dictionary(bad):
    d = edmd.monomial_dictionary(2, 2)
    with pytest.raises(InvalidInput, match=f"^monomial dictionary {GATE}$"):
        edmd.Dictionary(d.kind, bad(d.evaluate), d.labels).matrix(_log_radial_states())


@pytest.mark.parametrize("bad", BAD_MAPS)
def test_gate_refuses_an_embedding_in_verify_linearization(bad):
    sys = catalog.get("log_radial").system
    with pytest.raises(InvalidInput, match=f"^embedding F {GATE}$"):
        embed.verify_linearization(_bad_exact_embedding(bad), sys, (_log_radial_states(), [0.1]))


@pytest.mark.parametrize(
    "bad",
    # the last map is right on a batch and wrong only on the lone first state
    [*BAD_MAPS, pytest.param(lambda f: lambda x: f(np.atleast_2d(x)), id="lone_state_as_batch")],
)
def test_gate_refuses_an_embedding_in_verify_embedding_quality(bad):
    sys = catalog.get("log_radial").system
    cand = _bad_exact_embedding(bad)
    with pytest.raises(InvalidInput, match=f"^embedding F {GATE}$"):
        embed.verify_embedding_quality(cand, sys, _log_radial_states(), [0.1])


@pytest.mark.parametrize("bad", BAD_MAPS)
def test_gate_refuses_a_phase_map(bad):
    entry = catalog.get("log_radial")
    with pytest.raises(InvalidInput, match=f"^phase map P {GATE}$"):
        verify_phase_properties(entry.system, bad(entry.exact_phase), _log_radial_states(),
                                entry.attractor.cloud[:10], (0.0, 1.0), 1e-8)


@pytest.mark.parametrize("bad", BAD_MAPS)
def test_gate_refuses_an_exact_projector(bad):
    attractor = catalog.get("log_radial").attractor
    model = AttractorModel(attractor.cloud, attractor.restricted_flow,
                           bad(attractor.exact_projector))
    with pytest.raises(InvalidInput, match=f"^exact projector {GATE}$"):
        model.nearest_point(_log_radial_states())


@pytest.mark.parametrize("bad", BAD_MAPS)
def test_gate_refuses_a_level_set_embedding(bad):
    entry = catalog.get("log_radial")
    lyap = dataclasses.replace(entry.lyapunov,
                               level_set_embedding=bad(entry.lyapunov.level_set_embedding))
    with pytest.raises(InvalidInput, match=f"^level-set embedding F1 {GATE}$"):
        embed.build_topological_embedding(entry.system, entry.attractor, entry.exact_phase,
                                          entry.attractor_embedding, lyap, _log_radial_states(40))


@pytest.mark.parametrize("bad", BAD_MAPS)
def test_gate_refuses_a_factor_map(bad):
    sys = catalog.get("quasiperiodic_torus_2").system
    Fmap = bad(lambda x: np.asarray(x, float))
    with pytest.raises(InvalidInput, match=f"^factor map Fmap {GATE}$"):
        quasiperiodic_factor_certificate(sys, Fmap, [1.0, np.sqrt(2.0)], 10,
                                         rng=np.random.default_rng(0))


@pytest.mark.parametrize("bad", BAD_MAPS)
def test_gate_refuses_a_planar_field(bad):
    def field(p):  # a rotation read as p[..., i], so it also takes one point
        return np.stack([-p[..., 1], p[..., 0]], axis=-1)

    with pytest.raises(InvalidInput, match=f"^planar field {GATE}$"):
        hopf_index_2d(bad(field), (0.0, 0.0), 0.5, 256)
