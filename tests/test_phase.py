import numpy as np
import pytest

from flowlin import catalog
from flowlin.flows import evolve
from flowlin.phase import (
    AttractorModel,
    EmptyAttractor,
    GeometricSchedule,
    estimate_phase,
    verify_phase_properties,
)

TWO_PI = 2.0 * np.pi


def test_schedule_validation():
    with pytest.raises(ValueError):
        GeometricSchedule(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        GeometricSchedule(1.0, 2.0, 1)
    assert GeometricSchedule(1.0, 2.0, 4).horizons == [1.0, 2.0, 4.0, 8.0]


def test_attractor_model_needs_cloud():
    sys = catalog.get("log_radial").attractor.restricted_flow
    with pytest.raises(EmptyAttractor):
        AttractorModel(cloud=np.zeros((10, 2)), restricted_flow=sys)


def test_retraction_on_attractor_points():
    entry = catalog.get("log_radial")
    x = np.array([1.0, 2.0])
    est = estimate_phase(entry.system, entry.attractor, x, GeometricSchedule(1, 2, 6))
    for e in est.estimates:
        assert entry.system.chart.distance(e, x) <= 1e-9


def test_log_radial_limit_is_sheared_angle():
    # from (r, theta) = (e, 0) the asymptotic phase angle is theta + ln r = 1
    entry = catalog.get("log_radial")
    est = estimate_phase(entry.system, entry.attractor, [np.e, 0.0],
                         GeometricSchedule(1, 2, 8))
    cls = est.classification
    assert cls.kind == "converged"
    assert entry.system.chart.distance(cls.limit, [1.0, 1.0]) <= 1e-12


def test_log_radial_converges_to_exact_phase():
    entry = catalog.get("log_radial")
    rng = np.random.default_rng(21)
    schedule = GeometricSchedule(1, 2, 8)
    for x in entry.sample_states(rng, 10):
        est = estimate_phase(entry.system, entry.attractor, x, schedule)
        assert est.classification.kind == "converged"
        exact = entry.exact_phase(x)
        for T, e in zip(est.horizons, est.estimates):
            # 3 e^{-T} is below float resolution past T ~ 36; allow the
            # rounding floor of the wrapped-angle arithmetic
            assert entry.system.chart.distance(e, exact) <= 3 * np.exp(-T) + 1e-12


def test_log_radial_fitted_rate_constant():
    entry = catalog.get("log_radial")
    rng = np.random.default_rng(22)
    schedule = GeometricSchedule(1, 2, 6)
    for x in entry.sample_states(rng, 50):
        est = estimate_phase(entry.system, entry.attractor, x, schedule)
        exact = entry.exact_phase(x)
        errs = np.array(
            [entry.system.chart.distance(e, exact) for e in est.estimates]
        )
        keep = errs > 1e-12
        C = np.max(errs[keep] * np.exp(np.array(est.horizons)[keep]))
        assert C <= 5.0


def test_annulus_diverges():
    entry = catalog.get("annulus_cubic")
    rng = np.random.default_rng(23)
    schedule = GeometricSchedule(1, 2, 12)
    outcomes = []
    for x in entry.sample_states(rng, 20):
        est = estimate_phase(entry.system, entry.attractor, x, schedule)
        outcomes.append(est.classification.kind)
    assert outcomes.count("diverged") >= 19


def test_annulus_gap_growth_matches_drift_oracle():
    # with a gentle ratio the chart gaps stay below the fold (pi) long enough
    # to observe the sqrt(2T) drift directly: consecutive-estimate gaps are
    # d_k = sqrt(2 rho T_k + c) - sqrt(2 T_k + c) -> (sqrt(rho)-1) sqrt(2 T_k)
    entry = catalog.get("annulus_cubic")
    ratio = 1.1
    schedule = GeometricSchedule(1.0, ratio, 30)
    est = estimate_phase(entry.system, entry.attractor, [2.0, 0.0], schedule)
    gaps = est.classification.drift["gaps"]
    tail = gaps[-6:]
    assert all(b > a for a, b in zip(tail, tail[1:]))
    for k in range(len(gaps) - 3, len(gaps)):
        T_k = schedule.horizons[k]
        assert gaps[k] >= 0.5 * (np.sqrt(ratio) - 1.0) * np.sqrt(2.0 * T_k)


def test_divergence_schedule_robust():
    # doubling T0 must not flip the verdicts on the calibration systems
    log_entry = catalog.get("log_radial")
    ann_entry = catalog.get("annulus_cubic")
    for t0 in (1.0, 2.0):
        est = estimate_phase(
            log_entry.system, log_entry.attractor, [1.5, 0.7], GeometricSchedule(t0, 2, 8)
        )
        assert est.classification.kind == "converged"
        est = estimate_phase(
            ann_entry.system, ann_entry.attractor, [1.8, 0.7], GeometricSchedule(t0, 2, 12)
        )
        assert est.classification.kind == "diverged"


def test_short_schedule_is_inconclusive():
    entry = catalog.get("log_radial")
    est = estimate_phase(entry.system, entry.attractor, [1.5, 0.0], GeometricSchedule(1, 2, 2))
    assert est.classification.kind == "inconclusive"


@pytest.mark.parametrize("name", ["log_radial", "annulus_cubic"])
def test_nan_start_is_inconclusive_not_diverged(name):
    # a NaN estimate sits at distance inf from every other, which is no drift
    entry = catalog.get(name)
    est = estimate_phase(entry.system, entry.attractor, [2.0, np.nan], GeometricSchedule(1, 2, 8))
    assert np.isnan(est.estimates).any()
    assert est.classification.kind == "inconclusive"
    assert "diverged_by" not in est.classification.drift


def test_cloud_projection_refinement():
    # drop the exact projector; the cloud + quadratic refinement along the
    # flow must localize the nearest circle point well below cloud resolution
    entry = catalog.get("log_radial")
    exact = entry.attractor
    cloud_only = AttractorModel(cloud=exact.cloud, restricted_flow=exact.restricted_flow)
    for theta in (0.3, 2.0, 5.1):
        projected = cloud_only.nearest_point(np.array([1.4, theta]))
        assert entry.system.chart.distance(projected, [1.0, theta]) <= 5e-3


def _single_state_nearest_point(model, x):
    """Reference: the cloud search and parabola refinement, one state at a time."""
    chart = model.restricted_flow.chart
    best = model.cloud[int(np.argmin(chart.distances(x, model.cloud)))]
    gaps = chart.distances(best, model.cloud)
    gaps = gaps[gaps > 1e-12]
    h = max(1e-6, float(gaps.min()) if gaps.size else 1e-3)
    pts = np.array([evolve(model.restricted_flow, best, delta) for delta in (-h, 0.0, h)])
    d2 = np.array([d**2 for d in chart.distances(x, pts).tolist()])
    denom = d2[0] - 2 * d2[1] + d2[2]
    delta_star = 0.0 if denom <= 0 else 0.5 * h * (d2[0] - d2[2]) / denom
    return evolve(model.restricted_flow, best, float(np.clip(delta_star, -h, h)))


def _cloud_model(entry):
    return AttractorModel(entry.attractor.cloud, entry.attractor.restricted_flow)


@pytest.mark.parametrize(
    "name, max_gap, median_gap",
    # on a circle the parabola along the flow finds the exact nearest point;
    # on product_attractor's 2-sphere it refines only along the flow, so the
    # error stays at the cloud's spacing (nearest-neighbour gaps up to 0.29)
    [("annulus_cubic", (0.0, 1e-13), (0.0, 1e-13)),
     ("log_radial", (0.0, 1e-13), (0.0, 1e-13)),
     ("product_attractor", (0.2, 0.4), (0.03, 0.1))],
)
def test_cloud_search_against_the_exact_projector(name, max_gap, median_gap):
    entry = catalog.get(name)
    chart = entry.attractor.restricted_flow.chart
    X = entry.sample_states(np.random.default_rng(0), 200)
    cloud, exact = _cloud_model(entry).nearest_point(X), entry.attractor.nearest_point(X)
    gap = chart.distances(cloud, exact)
    assert max_gap[0] <= gap.max() <= max_gap[1]
    assert median_gap[0] <= np.median(gap) <= median_gap[1]
    # the exact projection is never the farther of the two from the state
    assert (chart.distances(X, exact) <= chart.distances(X, cloud)).all()


@pytest.mark.parametrize("name", ["annulus_cubic", "log_radial"])
def test_batched_nearest_point_matches_single_state_search(name):
    entry = catalog.get(name)
    model = _cloud_model(entry)
    rng = np.random.default_rng(31)
    near = evolve(entry.system, entry.sample_states(rng, 8), 20.0)
    X = np.concatenate([entry.sample_states(rng, 30), near, model.cloud[:3]])
    batch = model.nearest_point(X)
    assert batch.shape == X.shape
    for x, row in zip(X, batch):
        expected = _single_state_nearest_point(model, x)
        assert row.tobytes() == expected.tobytes()
        assert model.nearest_point(x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["annulus_cubic", "log_radial"])
def test_estimate_phase_matches_loop_over_horizons(name):
    entry = catalog.get(name)
    model = _cloud_model(entry)
    schedule = GeometricSchedule(1.0, 2.0, 12)
    for x in entry.sample_states(np.random.default_rng(32), 4):
        est = estimate_phase(entry.system, model, x, schedule)
        loop = [
            evolve(model.restricted_flow,
                   _single_state_nearest_point(model, evolve(entry.system, x, T)), -T)
            for T in schedule.horizons
        ]
        assert est.estimates.tobytes() == np.array(loop).tobytes()


# --- phase-map property checks --------------------------------------------------


def test_log_radial_exact_phase_passes():
    entry = catalog.get("log_radial")
    rng = np.random.default_rng(24)
    samples = entry.sample_states(rng, 100)
    report = verify_phase_properties(
        entry.system, entry.exact_phase, samples, entry.attractor.cloud[:50],
        t_grid=(0.0, 0.5, 1.0, 2.0, 4.0), tol=1e-9,
    )
    assert report.passed, report


def test_product_projection_phase_passes():
    entry = catalog.get("product_attractor")
    rng = np.random.default_rng(25)
    samples = entry.sample_states(rng, 50)
    report = verify_phase_properties(
        entry.system, entry.exact_phase, samples, entry.attractor.cloud[:50],
        t_grid=(0.0, 0.5, 1.0, 2.0), tol=1e-9,
    )
    assert report.passed, report


def test_identity_on_attractor_passes_trivially():
    entry = catalog.get("log_radial")
    att_samples = entry.attractor.cloud[:30]
    report = verify_phase_properties(
        entry.system, lambda x: np.asarray(x, float), att_samples, att_samples,
        t_grid=(0.0, 1.0), tol=1e-9,
    )
    assert report.passed


def test_phase_check_without_samples_fails():
    entry = catalog.get("log_radial")
    none = np.empty((0, 2))
    report = verify_phase_properties(
        entry.system, entry.exact_phase, none, none, t_grid=(0.0, 1.0), tol=1e-9,
    )
    assert np.isnan(report.max_idempotence_violation)
    assert np.isnan(report.max_restriction_violation)
    assert np.isnan(report.max_equivariance_violation)
    assert not report.passed


def test_bad_phase_map_fails():
    entry = catalog.get("log_radial")
    rng = np.random.default_rng(26)
    samples = entry.sample_states(rng, 30)
    # ignoring the ln r correction breaks equivariance
    bad = lambda x: np.stack([np.ones_like(x[..., 1]), x[..., 1]], axis=-1)
    report = verify_phase_properties(
        entry.system, bad, samples, entry.attractor.cloud[:20],
        t_grid=(0.0, 1.0, 2.0), tol=1e-9,
    )
    assert not report.passed
