import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlin import catalog, embed
from flowlin.embed import (
    BracketFailure,
    ConditionThreeViolated,
    EmbeddingCandidate,
    OnAttractor,
    PhaseMapInvalid,
    TransverseData,
    build_smooth_embedding,
    build_topological_embedding,
    impact_time,
    overlap_identity_residual,
    verify_embedding_quality,
    verify_linearization,
)
from flowlin.flows import evolve
from flowlin.linalg import matrix_exp


@pytest.fixture(scope="module")
def log_radial():
    return catalog.get("log_radial")


@pytest.fixture(scope="module")
def validation_states(log_radial):
    return log_radial.sample_states(np.random.default_rng(0), 40)


# --- impact time -----------------------------------------------------------------


def test_impact_time_closed_form_value(log_radial):
    # |ln r| decays like e^{-t}: from v0 = 2 the unit level is hit at ln 2
    tau = impact_time(log_radial.system, log_radial.lyapunov.V, 1.0, [np.e**2, 0.0])
    assert tau == pytest.approx(np.log(2.0), abs=1e-10)


def test_impact_time_cocycle(log_radial):
    V = log_radial.lyapunov.V
    rng = np.random.default_rng(30)
    for x in log_radial.sample_states(rng, 10):
        t = float(rng.uniform(0.0, 1.5))
        tau_x = impact_time(log_radial.system, V, 1.0, x)
        tau_shifted = impact_time(log_radial.system, V, 1.0, evolve(log_radial.system, x, t))
        assert abs(tau_shifted - (tau_x - t)) <= 1e-8


def test_impact_time_on_attractor(log_radial):
    with pytest.raises(OnAttractor):
        impact_time(log_radial.system, log_radial.lyapunov.V, 1.0, [1.0, 0.3])


def test_impact_time_negative_when_inside_level(log_radial):
    tau = impact_time(log_radial.system, log_radial.lyapunov.V, 1.0, [np.exp(0.5), 0.0])
    assert tau == pytest.approx(np.log(0.5), abs=1e-10)


def test_bracket_failure_when_level_unreachable(log_radial):
    capped = lambda x: np.minimum(np.log(x[..., 0]) ** 2, 4.0)
    with pytest.raises(BracketFailure, match=r"^no crossing of level 9.0 within tau >= -100.0$"):
        impact_time(log_radial.system, capped, 9.0, [2.0, 0.0])


def test_bracket_respects_domain_bound():
    entry = catalog.get("annulus_cubic")
    V = lambda x: (x[..., 0] - 1.0) ** 2
    # backward blowup happens before V can climb to an enormous level only
    # when the level sits beyond the domain... here it is reachable just
    # inside the bound, so the solve succeeds
    tau = impact_time(entry.system, V, 4.0, [2.0, 0.0])
    assert tau < 0.0
    assert abs(V(evolve(entry.system, [2.0, 0.0], tau)) - 4.0) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["log_radial", "product_attractor"]),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(-1.0, 3.0),
)
def test_impact_time_root_and_cocycle_properties(name, seed, t):
    entry = catalog.get(name)
    V, c = entry.lyapunov.V, entry.lyapunov.level
    x = entry.sample_states(np.random.default_rng(seed), 1)[0]
    tau = impact_time(entry.system, V, c, x)
    assert abs(V(evolve(entry.system, x, tau)) - c) <= 1e-10
    tau_shifted = impact_time(entry.system, V, c, evolve(entry.system, x, t))
    assert abs(tau_shifted - (tau - t)) <= 1e-12 * max(1.0, abs(tau))


def test_impact_time_evolve_budget(log_radial, monkeypatch):
    # the bracketed solve must not spend a fixed bisection depth per call
    calls = []

    def counting_evolve(*args):
        calls.append(None)
        return evolve(*args)

    monkeypatch.setattr(embed, "evolve", counting_evolve)
    V, c = log_radial.lyapunov.V, log_radial.lyapunov.level
    states = log_radial.sample_states(np.random.default_rng(40), 200)
    for x in states:
        impact_time(log_radial.system, V, c, x)
    assert len(calls) / len(states) <= 20


def _find_root_reference(f, x1, f1, x2, f2):
    """The solver the in-house loop ports: scipy's find_root at the same tolerances.

    It evaluates both bracket ends again instead of taking f1 and f2.
    """
    find_root = pytest.importorskip("scipy.optimize.elementwise").find_root
    result = find_root(
        lambda x, rows: f(rows, x), (x1, x2), args=(np.arange(len(x1)),),
        tolerances={"xatol": embed.SOLVE_XTOL, "xrtol": embed.SOLVE_XTOL},
        maxiter=embed.SOLVE_MAXITER,
    )
    return result.x, result.f_x, result.status


@pytest.mark.parametrize("name", ["log_radial", "product_attractor"])
def test_chandrupatla_matches_find_root_bit_for_bit(name, monkeypatch):
    solves = []

    def both(f, x1, f1, x2, f2):
        ours = own(f, x1, f1, x2, f2)
        solves.append((ours, _find_root_reference(f, x1, f1, x2, f2)))
        return ours

    own = embed._chandrupatla
    monkeypatch.setattr(embed, "_chandrupatla", both)
    entry = catalog.get(name)
    X = entry.sample_states(np.random.default_rng(2024), 2000)
    impact_time(entry.system, entry.lyapunov.V, entry.lyapunov.level, X)
    (root, f_root, status), (ref_root, ref_f, ref_status) = solves[0]
    assert len(root) > 1000
    assert np.array_equal(status, ref_status) and (status == 0).all()
    assert np.array_equal(root, ref_root) and np.array_equal(f_root, ref_f)


def test_chandrupatla_statuses_match_find_root(monkeypatch):
    # rows: a root inside, ends of one sign, a root at an end, NaN at both ends
    c = np.array([0.3, 5.0, 0.0, np.nan])

    def f(rows, x):
        return c[rows] - x**3

    x1, x2 = np.zeros(4), np.ones(4)
    args = (x1, f(np.arange(4), x1), x2, f(np.arange(4), x2))
    for maxiter, expected in ((embed.SOLVE_MAXITER, [0, -1, 0, -3]), (3, [-2, -1, 0, -3])):
        monkeypatch.setattr(embed, "SOLVE_MAXITER", maxiter)
        root, _, status = embed._chandrupatla(f, *args)
        ref_root, _, ref_status = _find_root_reference(f, *args)
        assert status.tolist() == ref_status.tolist() == expected
        done = status == 0
        assert np.array_equal(root[done], ref_root[done])


def test_impact_time_maxiter_exhaustion_is_a_bracket_failure(log_radial, monkeypatch):
    monkeypatch.setattr(embed, "SOLVE_MAXITER", 3)
    X = log_radial.sample_states(np.random.default_rng(17), 4)
    with pytest.raises(BracketFailure, match=r"^impact time solve did not converge: status -2$"):
        impact_time(log_radial.system, log_radial.lyapunov.V, log_radial.lyapunov.level, X)


# --- properness probe ------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b",
    [
        (np.random.default_rng(3).random(9), np.random.default_rng(4).random(9)),
        ([1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0], [0.1, 0.4, 0.3, 0.3, 0.9, 0.2, 0.9]),
        ([0.0, 1.0, 2.0, 3.0, 4.0], [9.0, 7.0, 5.0, 3.0, 1.0]),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 4.0, np.inf, 8.0]),
    ],
    ids=["random", "tied", "reversed", "infinite"],
)
def test_rank_correlation_matches_spearmanr(a, b):
    spearmanr = pytest.importorskip("scipy.stats").spearmanr
    assert abs(embed._rank_correlation(a, b) - spearmanr(a, b).statistic) <= 1e-15


def test_rank_correlation_of_constant_or_nan_input_is_nan():
    assert np.isnan(embed._rank_correlation([0, 1, 2, 3], [2.0, 2.0, 2.0, 2.0]))
    assert np.isnan(embed._rank_correlation([1, 1, 1, 1], [0.0, 1.0, 2.0, 3.0]))
    assert np.isnan(embed._rank_correlation([0, 1, 2, 3], [0.0, np.nan, 2.0, 3.0]))


# --- topological builder ---------------------------------------------------------


def test_built_topological_log_radial(log_radial, validation_states):
    cand = build_topological_embedding(
        log_radial.system, log_radial.attractor, log_radial.exact_phase,
        log_radial.attractor_embedding, log_radial.lyapunov, validation_states,
    )
    grid = (log_radial.sample_states(np.random.default_rng(0), 20), catalog.STANDARD_TIMES)
    assert verify_linearization(cand, log_radial.system, grid) <= 1e-6


def test_built_embedding_vanishes_on_attractor(log_radial, validation_states):
    cand = build_topological_embedding(
        log_radial.system, log_radial.attractor, log_radial.exact_phase,
        log_radial.attractor_embedding, log_radial.lyapunov, validation_states,
    )
    a = np.array([1.0, 1.2])
    F0_map = log_radial.attractor_embedding.F
    np.testing.assert_allclose(cand.F(a)[:2], F0_map(a), atol=1e-15)
    np.testing.assert_array_equal(cand.F(a)[2:], np.zeros(4))


def test_state_flowed_onto_the_attractor_stays_within_the_switch_bound(
    log_radial, validation_states
):
    cand = build_topological_embedding(
        log_radial.system, log_radial.attractor, log_radial.exact_phase,
        log_radial.attractor_embedding, log_radial.lyapunov, validation_states,
    )
    # V = (ln r)^2 starts just above ATTRACTOR_TOL and ends at or below it
    x = np.array([[np.exp(1.05e-7), 0.3]])
    V = log_radial.lyapunov.V
    assert V(x)[0] > embed.ATTRACTOR_TOL >= V(evolve(log_radial.system, x, 0.05))[0]
    # both sides embed the phase F0(P(x)); only the decay block switches off
    residual = verify_linearization(cand, log_radial.system, (x, [0.05]))
    assert residual <= np.sqrt(embed.ATTRACTOR_TOL / log_radial.lyapunov.level)


def test_built_topological_product_attractor():
    entry = catalog.get("product_attractor")
    states = entry.sample_states(np.random.default_rng(1), 40)
    cand = build_topological_embedding(
        entry.system, entry.attractor, entry.exact_phase,
        entry.attractor_embedding, entry.lyapunov, states,
    )
    grid = (entry.sample_states(np.random.default_rng(0), 20), catalog.STANDARD_TIMES)
    assert verify_linearization(cand, entry.system, grid) <= 1e-8


def test_builder_rejects_bad_phase_map(log_radial, validation_states):
    # drops the ln r shear
    bad_phase = lambda x: np.stack([np.ones_like(x[..., 1]), x[..., 1]], axis=-1)
    with pytest.raises(PhaseMapInvalid):
        build_topological_embedding(
            log_radial.system, log_radial.attractor, bad_phase,
            log_radial.attractor_embedding, log_radial.lyapunov, validation_states,
        )


# --- smooth builder ---------------------------------------------------------------


def test_built_smooth_log_radial(log_radial, validation_states):
    cand = build_smooth_embedding(
        log_radial.system, log_radial.attractor, log_radial.exact_phase,
        log_radial.attractor_embedding, log_radial.transverse,
        log_radial.lyapunov.V, 1.0, validation_states,
    )
    grid = (log_radial.sample_states(np.random.default_rng(0), 20), catalog.STANDARD_TIMES)
    assert verify_linearization(cand, log_radial.system, grid) <= 1e-8


def test_smooth_overlap_identity(log_radial):
    # points outside the level set, where both expressions for the transverse
    # block are defined
    rng = np.random.default_rng(31)
    states = [
        np.array([np.exp(s * rng.uniform(1.1, 3.0)), rng.uniform(0, 2 * np.pi)])
        for s in rng.choice([-1.0, 1.0], 100)
    ]
    residual = overlap_identity_residual(
        log_radial.system, log_radial.transverse, log_radial.lyapunov.V, 1.0, states
    )
    assert residual <= 1e-9
    # basin samples all lie inside the level set {V <= 1}: no evidence
    inside = log_radial.sample_states(np.random.default_rng(32), 40)
    assert np.isnan(overlap_identity_residual(
        log_radial.system, log_radial.transverse, log_radial.lyapunov.V, 1.0, inside
    ))


def test_smooth_builder_rejects_no_validation_state_in_U(log_radial, validation_states):
    # the G-equivariance gate has no evidence when U holds no validation state
    nowhere = TransverseData(
        G=log_radial.transverse.G,
        B=log_radial.transverse.B,
        in_U=lambda x: np.zeros(np.shape(x)[:-1], dtype=bool),
    )
    with pytest.raises(ConditionThreeViolated, match="equivariance residual nan"):
        build_smooth_embedding(
            log_radial.system, log_radial.attractor, log_radial.exact_phase,
            log_radial.attractor_embedding, nowhere, log_radial.lyapunov.V, 1.0,
            validation_states,
        )


def test_degenerate_transverse_map_rejected(log_radial, validation_states):
    zero = TransverseData(
        G=lambda x: np.zeros(np.shape(x)[:-1] + (2,)),
        B=np.array([[-1.0, -1.0], [1.0, -1.0]]),
        in_U=lambda x: np.ones(np.shape(x)[:-1], dtype=bool),
    )
    with pytest.raises(ConditionThreeViolated):
        build_smooth_embedding(
            log_radial.system, log_radial.attractor, log_radial.exact_phase,
            log_radial.attractor_embedding, zero, log_radial.lyapunov.V, 1.0,
            validation_states,
        )


def test_unstable_transverse_generator_rejected(log_radial, validation_states):
    bad = TransverseData(
        G=log_radial.transverse.G,
        B=np.array([[0.1, 0.0], [0.0, -1.0]]),
        in_U=lambda x: True,
    )
    with pytest.raises(ConditionThreeViolated):
        build_smooth_embedding(
            log_radial.system, log_radial.attractor, log_radial.exact_phase,
            log_radial.attractor_embedding, bad, log_radial.lyapunov.V, 1.0,
            validation_states,
        )


# --- verification ------------------------------------------------------------------


def test_residual_zero_at_time_zero(log_radial):
    cand = log_radial.exact_embedding
    states = log_radial.sample_states(np.random.default_rng(2), 10)
    assert verify_linearization(cand, log_radial.system, (states, [0.0])) == 0.0


def test_perturbed_generator_detected(log_radial):
    B = log_radial.exact_embedding.B
    cand = EmbeddingCandidate(log_radial.exact_embedding.F, B + 0.1 * np.eye(4))
    states = log_radial.sample_states(np.random.default_rng(3), 10)
    residual = verify_linearization(cand, log_radial.system, (states, [1.0]))
    # e^{(B + 0.1 I) t} = e^{0.1 t} e^{B t}: unit-norm first block drifts by e^0.1 - 1
    assert residual > 1e-2


def test_residual_triangle_propagation(log_radial):
    # use a mildly wrong generator so the residuals sit well above rounding
    B = log_radial.exact_embedding.B + 1e-8 * np.eye(4)
    cand = EmbeddingCandidate(log_radial.exact_embedding.F, B)
    states = log_radial.sample_states(np.random.default_rng(4), 10)
    s, t = 0.7, 1.9
    eps = max(
        verify_linearization(cand, log_radial.system, (states, [t])),
        verify_linearization(cand, log_radial.system, (states, [s])),
    )
    combined = verify_linearization(cand, log_radial.system, (states, [s + t]))
    bound = eps * (1.0 + np.linalg.norm(matrix_exp(B, s), 2)) + 1e-12
    assert combined <= bound


def test_built_embedding_conjugacy_algebra(log_radial, validation_states):
    # shifting the base point composes residuals through e^{Bt}:
    # res(Phi^s x, t) <= res(x, t+s) + |e^{Bt}| res(x, s)
    cand = build_topological_embedding(
        log_radial.system, log_radial.attractor, log_radial.exact_phase,
        log_radial.attractor_embedding, log_radial.lyapunov, validation_states,
    )
    wrong = EmbeddingCandidate(cand.F, cand.B + 1e-6 * np.eye(len(cand.B)))
    rng = np.random.default_rng(33)
    s, t = 0.8, 1.3
    states = log_radial.sample_states(rng, 8)
    shifted = [evolve(log_radial.system, x, s) for x in states]
    res_shifted = verify_linearization(wrong, log_radial.system, (shifted, [t]))
    res_long = verify_linearization(wrong, log_radial.system, (states, [t + s]))
    res_s = verify_linearization(wrong, log_radial.system, (states, [s]))
    growth = np.linalg.norm(matrix_exp(wrong.B, t), 2)
    assert res_shifted <= res_long + growth * res_s + 1e-12


def test_quality_exact_log_radial(log_radial):
    cand = log_radial.exact_embedding
    states = log_radial.sample_states(np.random.default_rng(5), 300)
    report = verify_embedding_quality(
        cand, log_radial.system, states, [0.1, 1.0], log_radial.escape_states(16)
    )
    assert report.linearization_residual == verify_linearization(
        cand, log_radial.system, (states, [0.1, 1.0])
    )
    assert report.linearization_residual <= 1e-8
    assert report.injectivity_margin > 0.1
    assert report.min_jacobian_sigma > 0.3
    assert report.properness["available"] and not report.properness["flagged"]


def test_quality_flags_constant_map(log_radial):
    cand = EmbeddingCandidate(lambda x: np.zeros(np.shape(x)[:-1] + (3,)), np.zeros((3, 3)))
    states = log_radial.sample_states(np.random.default_rng(6), 50)
    report = verify_embedding_quality(cand, log_radial.system, states, ())
    assert report.injectivity_margin == 0.0
    # both fail the floor of `flowlin verify` (1e-6) and so that of `build` (1e-3)
    assert not report.injectivity_margin >= 1e-6
    assert not report.min_jacobian_sigma >= 1e-6


def test_quality_without_states_is_no_evidence(log_radial):
    cand = log_radial.exact_embedding
    states = log_radial.sample_states(np.random.default_rng(8), 10)
    report = verify_embedding_quality(cand, log_radial.system, states, [0.1], quality_rows=0)
    assert np.isnan(report.min_jacobian_sigma)
    assert np.isnan(report.injectivity_margin) and np.isnan(report.batch_disagreement)


def test_quality_klein_quotient():
    entry = catalog.get("klein_bottle")
    cand = entry.exact_embedding
    states = entry.sample_states(np.random.default_rng(7), 300)
    report = verify_embedding_quality(cand, entry.system, states, ())
    # identified pairs are excluded by the quotient chart distance, so the
    # margin stays bounded away from zero and the map is an immersion
    assert report.injectivity_margin > 0.05
    assert report.min_jacobian_sigma > 0.05
