import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlin import InvalidInput, catalog
from flowlin.embed import impact_time
from flowlin.flows import (
    FlowSystem,
    IntegrationFailure,
    TimeOutOfDomain,
    Trajectory,
    check_group_law,
    euclidean,
    evolve,
    export_trajectory_csv,
    polar_annulus,
    product,
    sample_trajectory,
    torus_angles,
)
from flowlin.integrate import _rk_step
from flowlin.phase import GeometricSchedule, estimate_phase

TWO_PI = 2.0 * np.pi


# --- charts ---------------------------------------------------------------------


def test_wrap_canonical_domains():
    chart = torus_angles(2)
    np.testing.assert_allclose(chart.wrap(np.array([1.25, -0.25])), [0.25, 0.75])
    annulus = polar_annulus()
    wrapped = annulus.wrap(np.array([2.0, TWO_PI + 1.0]))
    assert wrapped[0] == 2.0 and 0 <= wrapped[1] < TWO_PI


def test_torus_distance_min_over_wraps():
    chart = torus_angles(1)
    assert chart.distance([0.05], [0.95]) == pytest.approx(0.1)


def test_product_chart_root_sum_square():
    chart = product(euclidean(1), torus_angles(1))
    d = chart.distance([0.0, 0.1], [3.0, 0.9])
    assert d == pytest.approx(np.hypot(3.0, 0.2))


def test_product_chart_keeps_positive_coordinates_at_their_offsets():
    assert polar_annulus().positive == (0,)
    chart = product(euclidean(3), polar_annulus(), torus_angles(1), polar_annulus())
    assert chart.positive == (3, 6)


def test_quotient_identification_distance():
    chart = catalog.get("klein_bottle").system.chart
    x = np.array([0.2, 0.3])
    y = np.array([(0.2 + 0.5) % 1.0, (-0.3) % 1.0])
    assert chart.distance(x, y) <= 1e-12


# --- evolve ----------------------------------------------------------------------


def test_time_zero_is_identity_bitwise():
    for name in catalog.names():
        entry = catalog.get(name)
        x = entry.sample_states(np.random.default_rng(0), 1)[0]
        np.testing.assert_array_equal(evolve(entry.system, x, 0.0), entry.system.chart.wrap(x))


@pytest.mark.parametrize("state", [[1.0, 0.0, 5.0], [1.0]])
def test_state_with_the_wrong_number_of_coordinates_is_refused(state):
    # a closed form would read x[..., 0] and x[..., 1] and drop or lose the rest
    log_radial, torus = catalog.get("log_radial"), catalog.get("quasiperiodic_torus_2")
    for sys in (log_radial.system, log_radial.ode_system, torus.system):
        wrong = rf"^{sys.name}: a state of the {sys.chart.kind} chart has 2 coordinates"
        for t in (0.5, 0.0):
            with pytest.raises(InvalidInput, match=rf"{wrong}, got shape \({len(state)},\)$"):
                evolve(sys, state, t)
            with pytest.raises(InvalidInput, match=rf"{wrong}, got shape \(2, {len(state)}\)$"):
                evolve(sys, [state, state], t)
        with pytest.raises(InvalidInput, match=wrong):
            sample_trajectory(sys, state, [0.0, 0.5, 1.0])
    V = log_radial.lyapunov.V
    for x in (state, [state]):
        with pytest.raises(InvalidInput, match="^log_radial: a state of the polar_annulus"):
            impact_time(log_radial.system, V, 0.5, x)
    with pytest.raises(InvalidInput, match="2 coordinates"):
        estimate_phase(log_radial.system, log_radial.attractor, state, GeometricSchedule(1, 2, 8))


@pytest.mark.parametrize("twin", ["system", "ode_system"])
def test_times_that_do_not_fit_the_states_are_refused(twin):
    sys = getattr(catalog.get("log_radial"), twin)
    with pytest.raises(InvalidInput, match=r"times of shape \(2,\) do not fit states of "
                                           r"shape \(3, 2\)$"):
        evolve(sys, np.ones((3, 2)), [0.1, 0.2])


@pytest.mark.parametrize("twin", ["system", "ode_system"])
def test_trajectory_starts_at_one_state(twin):
    sys = getattr(catalog.get("log_radial"), twin)
    with pytest.raises(InvalidInput, match=r"one state, got shape \(1, 2\)$"):
        sample_trajectory(sys, [[1.5, 0.3]], [0.0, 0.5])


def test_annulus_closed_form_value():
    sys = catalog.get("annulus_cubic").system
    out = evolve(sys, [2.0, 0.0], 4.0)
    # dr/dt = -(r-1)^3 integrates to r = 1 + (2t + (r0-1)^-2)^-1/2 above the cycle
    np.testing.assert_allclose(out, [4.0 / 3.0, 6.0], rtol=1e-14)


def test_annulus_on_cycle_rotates_at_unit_speed():
    sys = catalog.get("annulus_cubic").system
    out = evolve(sys, [1.0, 0.5], 2.0)
    np.testing.assert_allclose(out, [1.0, 2.5], rtol=1e-14)


def test_annulus_backward_domain_enforced():
    sys = catalog.get("annulus_cubic").system
    # from r = 2 the backward trajectory blows up at t = -1/2
    with pytest.raises(TimeOutOfDomain):
        evolve(sys, [2.0, 0.0], -0.6)
    evolve(sys, [2.0, 0.0], -0.4)  # still inside the domain


@pytest.mark.filterwarnings("error")  # as under python -W error: no log of r runs first
@pytest.mark.parametrize("r", [-2.0, 0.0])
def test_start_off_the_punctured_plane_is_refused(r):
    # the polar annulus chart keeps r > 0, at t = 0 too; a NaN row is left to the flow
    off = rf"coordinate x1 of the polar_annulus chart must be > 0, got {r:g}"
    for name in ("annulus_cubic", "log_radial"):
        entry = catalog.get(name)
        for sys in (entry.system, entry.ode_system):
            for t in (1.0, 0.0):
                with pytest.raises(InvalidInput, match=rf"^{sys.name}: {off}$"):
                    evolve(sys, [r, 0.0], t)
                with pytest.raises(InvalidInput, match=rf"^{sys.name}: {off} \(row 1\)$"):
                    evolve(sys, [[1.5, 0.0], [r, 0.0]], t)
            with pytest.raises(InvalidInput, match=off):
                sample_trajectory(sys, [r, 0.0], [0.0, 0.5, 1.0])
        assert np.isnan(evolve(entry.system, [np.nan, 0.0], 1.0)).all()
    annulus = catalog.get("annulus_cubic")
    with pytest.raises(InvalidInput, match=off):
        estimate_phase(annulus.system, annulus.attractor, [r, 0.0], GeometricSchedule(1, 2, 8))
    log_radial = catalog.get("log_radial")
    with pytest.raises(InvalidInput, match=rf"^log_radial: {off}$"):
        impact_time(log_radial.system, log_radial.lyapunov.V, 0.5, [r, 0.0])
    with pytest.raises(InvalidInput, match=rf"^log_radial: {off} \(row 0\)$"):
        impact_time(log_radial.system, log_radial.lyapunov.V, 0.5, [[r, 0.0]])


def test_log_radial_radial_decay_oracle():
    # closed-form oracle: ln r evolves as v0 * exp(-t)
    sys = catalog.get("log_radial").system
    rng = np.random.default_rng(5)
    for _ in range(10):
        r0 = float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(0.0, 5.0))
        out = evolve(sys, [r0, 0.0], t)
        assert out[0] == pytest.approx(np.exp(np.log(r0) * np.exp(-t)), rel=1e-13)


# --- trajectories ----------------------------------------------------------------


def test_single_point_grid():
    sys = catalog.get("quasiperiodic_torus_2").system
    traj = sample_trajectory(sys, [0.3, 0.4], [0.0])
    assert traj.times.shape == (1,)
    np.testing.assert_allclose(traj.states[0], [0.3, 0.4])


def test_torus_trajectory_angle_advance():
    sys = catalog.get("quasiperiodic_torus_2").system
    traj = sample_trajectory(sys, [0.0, 0.0], [0.0, 1.0])
    np.testing.assert_allclose(traj.states[0], [0.0, 0.0])
    np.testing.assert_allclose(traj.states[1], [0.0, np.sqrt(2.0) - 1.0], atol=1e-15)


def test_log_radial_grid_second_state():
    entry = catalog.get("log_radial")
    traj = sample_trajectory(entry.system, [np.e**2, 0.0], [0.0, np.log(2.0)])
    assert traj.states[1][0] == pytest.approx(np.e, rel=1e-14)


def test_dense_output_matches_pointwise_evolve():
    entry = catalog.get("log_radial")
    grid = np.linspace(0.0, 5.0, 11)
    traj = sample_trajectory(entry.ode_system, [1.7, 0.3], grid)
    for t, state in zip(grid, traj.states):
        exact = evolve(entry.system, [1.7, 0.3], float(t))
        assert entry.system.chart.distance(state, exact) <= 1e-8


def test_dense_output_backward_times():
    entry = catalog.get("log_radial")
    grid = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0])
    traj = sample_trajectory(entry.ode_system, [1.2, 0.4], grid)
    for t, state in zip(grid, traj.states):
        exact = evolve(entry.system, [1.2, 0.4], float(t))
        assert entry.system.chart.distance(state, exact) <= 1e-8


@pytest.mark.parametrize("twin", ["system", "ode_system"])
def test_sample_trajectory_rejects_a_nan_time(twin):
    sys = getattr(catalog.get("log_radial"), twin)
    with pytest.raises(ValueError, match="times must be finite"):
        sample_trajectory(sys, [1.5, 0.3], [0.0, np.nan, 1.0])


@pytest.mark.parametrize("grid", [[0.0, 10.0, 5.0], [0.0, 1.0, 1.0], [-0.2, -0.5]])
@pytest.mark.parametrize("twin", ["system", "ode_system"])
def test_sample_trajectory_rejects_an_unordered_grid_before_any_flow_call(twin, grid):
    sys = getattr(catalog.get("log_radial"), twin)
    calls = []

    def counted(flow):
        def call(*args):
            calls.append(args)
            return flow(*args)

        return call

    role = "closed_form" if sys.closed_form is not None else "vector_field"
    counting = dataclasses.replace(sys, **{role: counted(getattr(sys, role))})
    with pytest.raises(ValueError, match="^times must be strictly increasing$"):
        sample_trajectory(counting, [1.5, 0.3], grid)
    assert calls == []
    sample_trajectory(counting, [1.5, 0.3], sorted(set(grid)))  # the wrapper does count
    assert calls


@pytest.mark.parametrize("twin", ["system", "ode_system"])
def test_backward_grid_past_the_domain_bound_names_its_row(twin):
    sys = getattr(catalog.get("annulus_cubic"), twin)
    # from r = 2 the domain bound is t = -1/2
    message = r"^annulus_cubic(_ode)?: t = -0.6 at or below domain bound -0.5 \(row 0\)$"
    with pytest.raises(TimeOutOfDomain, match=message):
        sample_trajectory(sys, [2.0, 0.0], [-0.6, -0.4, 0.0, 1.0])


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([[0.0], [np.nan]]))


@pytest.mark.parametrize("shape", [(2,), (2, 2, 2), (3, 2)])
def test_trajectory_states_are_one_row_per_time(shape):
    # the CSV export writes one row per time and one column per coordinate
    with pytest.raises(InvalidInput, match=r"do not match: \(2,\), "):
        Trajectory(np.array([0.0, 1.0]), np.zeros(shape))


# --- group law -------------------------------------------------------------------


def test_group_law_closed_forms():
    rng = np.random.default_rng(2)
    # backward times for log_radial are capped: ln r grows like e^{-t} and
    # overflows exp well before the flow stops being defined
    windows = {
        "quasiperiodic_torus_2": 5.0,
        "sphere_rotation": 5.0,
        "klein_bottle": 5.0,
        "log_radial": 2.0,
    }
    for name, half_width in windows.items():
        entry = catalog.get(name)
        xs = entry.sample_states(rng, 100)
        samples = [
            (x, float(rng.uniform(-half_width, half_width)), float(rng.uniform(-half_width, half_width)))
            for x in xs
        ]
        report = check_group_law(entry.system, samples, tol=1e-9)
        assert report.passed, f"{name}: max violation {report.max_violation}"


def test_group_law_forward_only_annulus():
    rng = np.random.default_rng(3)
    entry = catalog.get("annulus_cubic")
    xs = entry.sample_states(rng, 50)
    samples = [(x, float(rng.uniform(0, 5)), float(rng.uniform(0, 5))) for x in xs]
    report = check_group_law(entry.system, samples, tol=1e-9)
    assert report.passed


def test_group_law_integrated_log_radial():
    rng = np.random.default_rng(4)
    entry = catalog.get("log_radial")
    xs = entry.sample_states(rng, 10)
    samples = [(x, float(rng.uniform(0, 2)), float(rng.uniform(0, 2))) for x in xs]
    report = check_group_law(entry.ode_system, samples, tol=1e-6)
    assert report.passed


# every closed form and every ODE twin, with the bound their group-law checks use
GROUP_LAW_CASES = [(name, "system", 1e-9) for name in catalog.names()] + [
    (name, "ode_system", 1e-7) for name in catalog.names() if catalog.get(name).ode_system
]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(GROUP_LAW_CASES), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_group_law_property(case, seed, n):
    name, twin, tol = case
    entry = catalog.get(name)
    sys = getattr(entry, twin)
    rng = np.random.default_rng(seed)
    xs = entry.sample_states(rng, n)
    # flows with a domain bound run forward; backward times stay short, so
    # states stay at the scale the absolute bound is meant for
    low = 0.0 if np.isfinite(sys.t_min(xs)).any() else -0.5
    times = rng.uniform(low, 1.5, (n, 2))
    report = check_group_law(sys, [(x, s, t) for x, (s, t) in zip(xs, times)], tol)
    assert report.n_checked == n and not report.failures
    assert report.passed, f"{sys.name}: max violation {report.max_violation}"


@pytest.mark.parametrize("twin", ["system", "ode_system"])
def test_group_law_batch_keeps_each_failure(twin):
    entry = catalog.get("annulus_cubic")
    sys = getattr(entry, twin)
    xs = entry.sample_states(np.random.default_rng(7), 9)
    samples = [(x, 0.4, 0.3) for x in xs]
    samples[5] = (np.array([2.0, 0.0]), -0.7, 0.0)  # below its domain bound -0.5
    report = check_group_law(sys, samples, tol=1e-7)
    assert report.n_checked == 8
    assert [idx for idx, _ in report.failures] == [5]
    with pytest.raises(TimeOutOfDomain) as err:
        evolve(sys, samples[5][0], -0.7)
    assert report.failures[0][1] == repr(err.value)
    assert report.max_violation <= 1e-7 and not report.passed


def test_group_law_after_a_failure_keeps_the_batch_violations():
    # the samples that pass run on their own once the batch fails; their
    # violations are the bits the batch gives them
    entry = catalog.get("saddle_plane")
    xs = entry.sample_states(np.random.default_rng(3), 6)
    times = np.random.default_rng(4).uniform(-1.0, 1.0, (6, 2))
    samples = [(x, s, t) for x, (s, t) in zip(xs, times)]
    clean = check_group_law(entry.ode_system, samples, tol=1e-7)
    bad = (xs[0], 2.0**60, 0.0)  # beyond MAX_TIME
    report = check_group_law(entry.ode_system, [*samples[:2], bad, *samples[2:]], tol=1e-7)
    assert [idx for idx, _ in report.failures] == [2] and report.n_checked == 6
    assert report.max_violation == clean.max_violation


def test_group_law_zero_times_exact():
    entry = catalog.get("sphere_rotation")
    x = entry.sample_states(np.random.default_rng(0), 1)[0]
    report = check_group_law(entry.system, [(x, 0.0, 0.0)], tol=0.0)
    assert report.passed


def test_group_law_without_samples_fails():
    report = check_group_law(catalog.get("sphere_rotation").system, [], tol=1e-9)
    assert report.n_checked == 0 and np.isnan(report.max_violation)
    assert not report.passed


def test_group_law_fails_on_nan_closed_form():
    # a closed form that returns NaN past t = 1 leaves no finite evidence
    def closed_form(t, x):
        t = np.asarray(t)[..., None]
        return np.where(t > 1.0, np.nan, np.asarray(x, float) + t)

    sys = FlowSystem("nan_shift", euclidean(2), closed_form=closed_form)
    samples = [([0.0, 0.0], 0.2, 0.3), ([1.0, 2.0], 0.9, 0.6)]
    report = check_group_law(sys, samples, tol=1e-9)
    assert report.n_checked == 2 and not report.passed


def test_group_law_collects_domain_failures():
    entry = catalog.get("annulus_cubic")
    report = check_group_law(entry.system, [([2.0, 0.0], -0.7, 0.0)], tol=1e-9)
    assert report.failures and not report.passed


# --- integrator ------------------------------------------------------------------


def test_rk_step_halving_reduces_error_by_the_order():
    # fifth-order steps: halving a fixed step shrinks the global error by about
    # 2^5 (87x on this orbit), so the tableau is checked without the controller
    entry = catalog.get("log_radial")
    f = entry.ode_system.vector_field
    x0 = np.array([2.0, 0.0])
    exact = evolve(entry.system, x0, 5.0)

    def coords_field(x):  # the field on a coordinate list, as integrate steps one state
        return list(map(float, f(x)))

    def max_err(h):
        x = x0.tolist()
        for _ in range(round(5.0 / h)):
            x = _rk_step(coords_field, x, h, coords_field(x))[0]
        return entry.system.chart.distance(entry.system.chart.wrap(np.array(x)), exact)

    assert max_err(0.1) / max_err(0.05) >= 32.0


# Dormand & Prince (1980) from exact fractions: the nonzero (stage, weight) terms of
# stages 1 to 6, the last row being the fifth-order weights, and the fourth-order weights
_DP_A = (
    ((0, Fraction(1, 5)),),
    ((0, Fraction(3, 40)), (1, Fraction(9, 40))),
    ((0, Fraction(44, 45)), (1, Fraction(-56, 15)), (2, Fraction(32, 9))),
    ((0, Fraction(19372, 6561)), (1, Fraction(-25360, 2187)), (2, Fraction(64448, 6561)),
     (3, Fraction(-212, 729))),
    ((0, Fraction(9017, 3168)), (1, Fraction(-355, 33)), (2, Fraction(46732, 5247)),
     (3, Fraction(49, 176)), (4, Fraction(-5103, 18656))),
    ((0, Fraction(35, 384)), (2, Fraction(500, 1113)), (3, Fraction(125, 192)),
     (4, Fraction(-2187, 6784)), (5, Fraction(11, 84))),
)
_DP_B4 = (Fraction(5179, 57600), 0, Fraction(7571, 16695), Fraction(393, 640),
          Fraction(-92097, 339200), Fraction(187, 2100), Fraction(1, 40))


def _tableau_step(f, x, h, k0):
    """The reference step: one tableau row at a time, each coordinate's terms added in
    order; the error weights are differences of the rounded weights, as the step takes."""
    rows = [[(j, float(w)) for j, w in terms] for terms in _DP_A]
    fifth = dict(rows[-1])
    err_terms = [(j, fifth.get(j, 0.0) - float(b)) for j, b in enumerate(_DP_B4) if b]

    def combine(x, terms, k):
        out = []
        for c, xc in enumerate(x):
            (j0, w0), *rest = terms
            acc = w0 * k[j0][c]
            for j, w in rest:
                acc = acc + w * k[j][c]
            out.append(xc + h * acc)
        return out

    k = [k0]
    for terms in rows:
        x_new = combine(x, terms, k)
        k.append(f(x_new))
    return x_new, combine([0.0] * len(x), err_terms, k), k


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", ["annulus_cubic", "log_radial", "saddle_plane"])
def test_rk_step_matches_the_tableau_bit_for_bit(name):
    entry = catalog.get(name)
    f = entry.ode_system.vector_field
    rng = np.random.default_rng(26)

    def same_step(field, x, h):
        k0 = field(x)
        x_new, err, k = _rk_step(field, x, h, k0)
        ref_x, ref_err, ref_k = _tableau_step(field, x, h, k0)
        np.testing.assert_array_equal(_bits(x_new), _bits(ref_x))
        # the reference adds its error to 0.0, which only drops the sign of a zero
        np.testing.assert_array_equal(_bits(np.add(err, 0.0)), _bits(ref_err))
        np.testing.assert_array_equal(_bits(k), _bits(ref_k))

    for x, h in zip(entry.sample_states(rng, 200).tolist(), rng.uniform(-0.5, 0.5, 200).tolist()):
        same_step(lambda x: list(map(float, f(x))), x, h)
    X = np.ascontiguousarray(entry.sample_states(rng, 50).T)
    same_step(lambda x: [np.array(f(x[0]))], [X], rng.uniform(-0.5, 0.5, 50))


def test_integration_failure_on_blowup():
    sys = FlowSystem(name="blowup", chart=euclidean(1), vector_field=lambda x: (x[0] * x[0],))
    with pytest.raises(IntegrationFailure):
        evolve(sys, [1.0], 2.0)  # finite-time blowup at t = 1


def test_closed_and_integrated_annulus_agree():
    entry = catalog.get("annulus_cubic")
    rng = np.random.default_rng(6)
    for x in entry.sample_states(rng, 10):
        grid = np.linspace(0.0, 10.0, 6)
        traj = sample_trajectory(entry.ode_system, x, grid)
        for t, state in zip(grid, traj.states):
            exact = evolve(entry.system, x, float(t))
            assert entry.system.chart.distance(state, exact) <= 1e-7


# --- CSV export ------------------------------------------------------------------


def test_csv_header_and_digits(tmp_path):
    traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0 / 3.0, 2.0], [0.5, np.pi]]))
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[1].split(",")[1] == "0.33333333333333331"


def _reference_csv(traj: Trajectory, path) -> None:
    """The row-by-row writer the CSV export replaced, kept as its byte reference."""
    dim = traj.states.shape[1] if traj.states.ndim == 2 else 0
    header = "t" + "".join(f",x{i + 1}" for i in range(dim))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for t, row in zip(traj.times, traj.states):
            fh.write(",".join(f"{v:.17g}" for v in (t, *row)) + "\n")


@pytest.mark.parametrize(
    "traj",
    [
        Trajectory(np.array([-0.0, 5e-324, 0.1, 1e308]),
                   np.array([[-0.0, 1e308, 0.1], [5e-324, -5e-324, 1.0 / 3.0],
                             [1.0 / 3.0, -1e308, 2.0**-1074], [1e-310, 0.1 + 0.2, -0.0]])),
        Trajectory(np.linspace(0.0, 1.0, 7), np.random.default_rng(0).normal(size=(7, 2)) * 1e5),
        Trajectory(np.zeros(0), np.zeros((0, 2))),
    ],
    ids=["awkward", "random", "empty"],
)
def test_csv_matches_the_row_by_row_writer(tmp_path, traj):
    export_trajectory_csv(traj, tmp_path / "new.csv")
    _reference_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_csv_empty_trajectory_header_only(tmp_path):
    traj = Trajectory(np.zeros(0), np.zeros((0, 3)))
    path = tmp_path / "empty.csv"
    export_trajectory_csv(traj, path)
    assert path.read_text() == "t,x1,x2,x3\n"
