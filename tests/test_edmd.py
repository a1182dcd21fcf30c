import json

import numpy as np
import pytest

from flowlin import InvalidInput, catalog, edmd
from flowlin.errors import FlowlinError
from flowlin.linalg import matrix_exp


def _sorted_spectrum(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_snapshot_single_pair():
    entry = catalog.get("quasiperiodic_torus_2")
    snaps = edmd.collect_snapshots(entry.system, [[0.0, 0.0]], 1.0, 1)
    assert snaps.X.shape == (1, 2)
    np.testing.assert_allclose(snaps.X[0], [0.0, 0.0])
    np.testing.assert_allclose(snaps.Y[0], [0.0, np.sqrt(2.0) - 1.0], atol=1e-15)


def test_snapshots_roll_along_trajectories():
    entry = catalog.get("quasiperiodic_torus_2")
    snaps = edmd.collect_snapshots(entry.system, [[0.1, 0.2]], 0.5, 4)
    np.testing.assert_allclose(snaps.X[1], snaps.Y[0])
    np.testing.assert_allclose(snaps.X[3], snaps.Y[2])


def test_snapshots_need_an_initial_state():
    entry = catalog.get("log_radial")
    with pytest.raises(InvalidInput, match="at least one initial state"):
        edmd.collect_snapshots(entry.system, np.zeros((0, 2)), 0.1, 10)


def test_fit_requires_enough_pairs():
    entry = catalog.get("quasiperiodic_torus_2")
    d = edmd.fourier_dictionary(entry.system.chart, 1)
    snaps = edmd.collect_snapshots(entry.system, [[0.0, 0.0]], 0.1, 3)
    with pytest.raises(ValueError):
        edmd.fit(d, snaps)


def test_torus_degree_one_recovers_rotation_spectrum():
    entry = catalog.get("quasiperiodic_torus_2")
    rng = np.random.default_rng(60)
    d = edmd.fourier_dictionary(entry.system.chart, 1)
    assert d.size == 4  # the two unit-circle pairs
    snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 10), 0.1, 500)
    model = edmd.fit(d, snaps)
    assert model.training_residual <= 1e-8
    expected = np.exp(2j * np.pi * 0.1 * np.array([1.0, -1.0, np.sqrt(2.0), -np.sqrt(2.0)]))
    for got, want in zip(_sorted_spectrum(model.spectrum), _sorted_spectrum(expected)):
        assert abs(got - want) <= 1e-6


def test_log_radial_exact_lift_matches_generator():
    entry = catalog.get("log_radial")
    labels, maps = entry.custom_observables["exact_lift"]
    d = edmd.custom_dictionary(maps, labels)
    rng = np.random.default_rng(61)
    snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 10), 0.1, 400)
    model = edmd.fit(d, snaps)
    assert model.training_residual <= 1e-6
    expected = np.linalg.eigvals(matrix_exp(entry.exact_embedding.B, 0.1))
    for got, want in zip(_sorted_spectrum(model.spectrum), _sorted_spectrum(expected)):
        assert abs(got - want) <= 1e-5


def test_monomials_represent_linear_decay_exactly():
    # dx/dt = -x lifts exactly onto {1, x}
    from flowlin.flows import FlowSystem, euclidean

    sys = FlowSystem(
        name="linear_decay", chart=euclidean(1),
        closed_form=lambda t, x: x * np.exp(-t),
    )
    d = edmd.monomial_dictionary(1, 1)
    assert d.labels == ("1", "x1^1")
    rng = np.random.default_rng(68)
    states = rng.uniform(-2.0, 2.0, (10, 1))
    snaps = edmd.collect_snapshots(sys, states, 0.2, 200)
    holdout = edmd.collect_snapshots(sys, rng.uniform(-2, 2, (3, 1)), 0.2, 30)
    model = edmd.fit(d, snaps)
    diag = edmd.diagnose(model, d, sys, holdout)
    assert diag["holdout_residual"] <= 1e-9


def test_stationary_data_gives_identity_on_span():
    entry = catalog.get("quasiperiodic_torus_2")
    d = edmd.fourier_dictionary(entry.system.chart, 1)
    x = np.array([0.3, 0.6])
    snaps = edmd.SnapshotSet(np.tile(x, (10, 1)), np.tile(x, (10, 1)), 0.1)
    with pytest.raises(edmd.RankDeficient):
        edmd.fit(d, snaps, ridge=0.0)
    model = edmd.fit(d, snaps, ridge=1e-10)
    assert model.training_residual <= 1e-8
    psi = d.evaluate(x)
    np.testing.assert_allclose(model.K @ psi, psi, atol=1e-8)


def test_orthogonal_dictionary_change_conjugates_operator():
    entry = catalog.get("quasiperiodic_torus_2")
    rng = np.random.default_rng(62)
    d = edmd.fourier_dictionary(entry.system.chart, 1)
    snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 10), 0.1, 300)
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    rotated = edmd.custom_dictionary(
        lambda x: d.evaluate(x) @ Q.T, [f"q{i}" for i in range(4)]
    )
    K_plain = edmd.fit(d, snaps, ridge=0.0).K
    K_rot = edmd.fit(rotated, snaps, ridge=0.0).K
    np.testing.assert_allclose(K_rot, Q @ K_plain @ Q.T, atol=1e-9)


def test_measure_preserving_spectrum_on_unit_circle():
    rng = np.random.default_rng(63)
    for name in ("quasiperiodic_torus_1", "sphere_rotation"):
        entry = catalog.get(name)
        if name == "sphere_rotation":
            d = edmd.custom_dictionary(lambda x: np.array(x), ["zx", "zy", "s"])
        else:
            d = edmd.fourier_dictionary(entry.system.chart, 1)
        snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 10), 0.1, 200)
        model = edmd.fit(d, snaps)
        assert np.all(np.abs(np.abs(model.spectrum) - 1.0) < 1e-6), name


def test_holdout_close_to_training_for_exact_dictionaries():
    entry = catalog.get("quasiperiodic_torus_2")
    rng = np.random.default_rng(64)
    d = edmd.fourier_dictionary(entry.system.chart, 1)
    snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 10), 0.1, 400)
    holdout = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 5), 0.1, 100)
    model = edmd.fit(d, snaps)
    diag = edmd.diagnose(model, d, entry.system, holdout, entry=entry)
    assert diag["holdout_residual"] <= 1e-6
    assert diag["holdout_residual"] <= 10 * max(model.training_residual, 1e-12)
    assert diag["spectrum_on_unit_circle_fraction"] == 1.0
    assert not diag["expected_failure"]
    assert diag["lift_injectivity_margin"] > 1e-3


def test_annulus_failure_labeled_expected_via_phase_certificate():
    entry = catalog.get("annulus_cubic")
    rng = np.random.default_rng(65)
    labels, maps = entry.custom_observables["polar_fourier_5"]
    d = edmd.custom_dictionary(maps, labels)
    snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 40), 0.1, 1000)
    holdout = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 8), 0.1, 200)
    model = edmd.fit(d, snaps, ridge=1e-10)
    diag = edmd.diagnose(model, d, entry.system, holdout, entry=entry)
    cert = diag["phase_divergence_certificate"]
    assert cert["classification"] == "diverged"
    assert diag["residual_floor_label"] == "EXPECTED"
    # measured floor is reported as-is; no theoretical value is asserted
    assert diag["holdout_residual"] >= 0.0


def test_linearizable_system_never_gets_expected_label():
    entry = catalog.get("log_radial")
    rng = np.random.default_rng(66)
    labels, maps = entry.custom_observables["exact_lift"]
    d = edmd.custom_dictionary(maps, labels)
    snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 10), 0.1, 300)
    holdout = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 4), 0.1, 60)
    model = edmd.fit(d, snaps)
    diag = edmd.diagnose(model, d, entry.system, holdout, entry=entry)
    assert "residual_floor_label" not in diag
    assert "phase_divergence_certificate" not in diag


def test_spectrum_consistent_with_operator():
    entry = catalog.get("quasiperiodic_torus_2")
    rng = np.random.default_rng(67)
    d = edmd.fourier_dictionary(entry.system.chart, 1)
    snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 10), 0.1, 300)
    model = edmd.fit(d, snaps)
    recomputed = _sorted_spectrum(np.linalg.eigvals(model.K))
    for got, want in zip(_sorted_spectrum(model.spectrum), recomputed):
        assert abs(got - want) <= 1e-8


def test_report_deterministic_for_fixed_seed():
    entry = catalog.get("quasiperiodic_torus_2")
    d = edmd.fourier_dictionary(entry.system.chart, 1)

    def run():
        rng = np.random.default_rng(1234)
        snaps = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 10), 0.1, 300)
        holdout = edmd.collect_snapshots(entry.system, entry.sample_states(rng, 4), 0.1, 60)
        model = edmd.fit(d, snaps)
        diag = edmd.diagnose(model, d, entry.system, holdout, entry=entry)
        return json.dumps(diag, sort_keys=True)

    assert run() == run()


def test_single_state_custom_map_raises():
    # x[0] is the first state of a batch, not the first coordinate of a state
    d = edmd.custom_dictionary(lambda x: x[0], ["r", "theta"])
    X = catalog.get("log_radial").sample_states(np.random.default_rng(69), 5)
    with pytest.raises(FlowlinError, match=r"shape \(5, 2\) to shape \(2,\), expected \(5, 2\)"):
        d.matrix(X)
    # the batch form of the same observables passes
    np.testing.assert_array_equal(edmd.custom_dictionary(lambda x: x, ["r", "theta"]).matrix(X), X)
