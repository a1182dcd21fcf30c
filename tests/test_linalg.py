import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlin import catalog, linalg, pinched
from flowlin.catalog import TorusActionSpec
from flowlin.embed import EmbeddingCandidate, TransverseData
from flowlin.linalg import (
    DimensionTooLarge,
    ExpRangeError,
    block_diag,
    expm_apply,
    generator,
    least,
    matrix_exp,
    rational_independence,
    solve_positive_definite,
    worst,
)
from flowlin.obstruct import quasiperiodic_factor_certificate

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


# --- independent oracles ------------------------------------------------------


def brute_force_relation(omega, max_coeff, tol):
    """Full enumeration over the coefficient box; returns the minimal canonical
    relation or None.  Kept deliberately naive."""
    best = None
    for k in itertools.product(range(-max_coeff, max_coeff + 1), repeat=len(omega)):
        if all(e == 0 for e in k):
            continue
        if abs(sum(e * w for e, w in zip(k, omega))) >= tol:
            continue
        lead = next(e for e in k if e != 0)
        k = k if lead > 0 else tuple(-e for e in k)
        key = (max(abs(e) for e in k), k)
        if best is None or key < (max(abs(e) for e in best), best):
            best = k
    return best


def exact_rational_relation(omega_fracs, max_coeff):
    best = None
    for k in itertools.product(range(-max_coeff, max_coeff + 1), repeat=len(omega_fracs)):
        if all(e == 0 for e in k):
            continue
        if sum(e * w for e, w in zip(k, omega_fracs)) != 0:
            continue
        lead = next(e for e in k if e != 0)
        k = k if lead > 0 else tuple(-e for e in k)
        key = (max(abs(e) for e in k), k)
        if best is None or key < (max(abs(e) for e in best), best):
            best = k
    return best


# --- matrix exponential -------------------------------------------------------


def test_zero_generator_is_identity():
    np.testing.assert_allclose(matrix_exp(np.zeros((2, 2)), 7.0), np.eye(2), atol=1e-15)


def test_quarter_turn_rotation():
    np.testing.assert_allclose(matrix_exp(ROT, np.pi / 2), ROT, atol=1e-14)


def test_scalar_decay():
    got = matrix_exp(-np.eye(2), np.log(2.0))
    np.testing.assert_allclose(got, 0.5 * np.eye(2), rtol=1e-13)


def test_overflow_raises_range_error():
    with pytest.raises(ExpRangeError):
        matrix_exp(np.array([[1000.0]]), 1.0)


def test_overflowing_argument_or_slice_raises_range_error():
    with pytest.raises(ExpRangeError):
        matrix_exp(np.array([[1e300]]), 1e10)  # B t itself overflows
    with pytest.raises(ExpRangeError):
        matrix_exp(np.array([[1.0, 0.0], [0.0, -1.0]]), [0.0, 1.0, -800.0])


def test_accuracy_at_large_argument_norm():
    # rotation with norm(B t) = 50 has an exact closed form to compare against
    got = matrix_exp(5.0 * ROT, 10.0)
    exact = np.array([[np.cos(50.0), -np.sin(50.0)], [np.sin(50.0), np.cos(50.0)]])
    assert np.linalg.norm(got - exact, 2) <= 1e-12


def test_group_law_random_generators():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = rng.integers(1, 5)
        B = rng.normal(size=(n, n))
        B *= 5.0 / max(np.linalg.norm(B, 2), 1e-12)
        s, t = rng.uniform(-10, 10, 2)
        Es, Et = matrix_exp(B, s), matrix_exp(B, t)
        Est = matrix_exp(B, s + t)
        bound = 1e-10 * (1.0 + np.linalg.norm(Es, 2) * np.linalg.norm(Et, 2))
        assert np.linalg.norm(Est - Es @ Et, 2) <= bound


def test_expm_apply_keeps_the_matmul_bits():
    rng = np.random.default_rng(11)
    B = rng.normal(size=(4, 4))
    # a (T, 1) time grid against N rows, as the linearization residual uses it
    times, v = rng.uniform(-3.0, 3.0, 5), rng.normal(size=(7, 4))
    old = np.matmul(matrix_exp(B, times)[:, None], v[..., None])[..., 0]
    assert expm_apply(B, times[:, None], v).tobytes() == old.tobytes()
    # one time per row, as the pinched family check and the conjugated G use it
    times = rng.uniform(-3.0, 3.0, 7)
    old = (matrix_exp(B, times) @ v[..., None])[..., 0]
    assert expm_apply(B, times, v).tobytes() == old.tobytes()


# --- matrix exponential against scipy.linalg.expm -------------------------------

# matrix_exp(B, t) agrees with scipy.linalg.expm(B t) within
# EXPM_BOUND * max(1, norm1(B t)) * eps, relative, in the Frobenius norm.  Most
# of that allowance is scipy's: on the generators drawn below its own error
# reaches about 900 * norm1 * eps against a 50-digit mpmath reference (for
# rotation blocks with a large real part), where matrix_exp's stays below 20.
EXPM_BOUND = 1e4
EPS = np.finfo(float).eps


def _assert_matches_expm(B, t):
    """Every slice of matrix_exp(B, t) against scipy's expm of the same B t."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    A = B * t[:, None, None]
    got, ref = matrix_exp(B, t), scipy_linalg.expm(A)
    for A_i, got_i, ref_i in zip(A, got, ref):
        scale = np.abs(ref_i).max()  # the Frobenius norm of ref_i itself may overflow
        error = np.linalg.norm((got_i - ref_i) / scale) / np.linalg.norm(ref_i / scale)
        assert error <= EXPM_BOUND * max(1.0, np.linalg.norm(A_i, 1)) * EPS, (A_i, error)


def _catalog_generators():
    for name in catalog.names():
        entry = catalog.get(name)
        for field in ("exact_embedding", "attractor_embedding", "transverse"):
            if getattr(entry, field) is not None:
                yield pytest.param(getattr(entry, field).B, id=f"{name}.{field}")


@pytest.mark.parametrize("B", _catalog_generators())
def test_matrix_exp_matches_expm_on_catalog_generators(B):
    _assert_matches_expm(B, np.linspace(-20.0, 20.0, 81))


# the single- and two-pinch families that the benchmark checks
BENCH_PINCH_SPECS = (
    {"n": 2, "m": 1, "M": [[0, 1]], "S": [[["0", "1"]]], "C": [[[["0", "0"]]], []],
     "omega": [{"prime_scale": 2, "rational": ["1", "0"]}]},
    {"n": 2, "m": 1, "M": [[0, 1]], "S": [[["0", "1"]]],
     "C": [[[["0", "0"]], [["1/2", "1/2"]]], []]},
)


@pytest.mark.parametrize("spec", BENCH_PINCH_SPECS)
def test_matrix_exp_matches_expm_on_pinched_generators(spec, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    B = pinched.embedding_generator(pinched.load_spec(path))
    _assert_matches_expm(B, np.random.default_rng(0).uniform(-5.0, 5.0, 200))


# Real parts up to 690 keep every exponential below overflow.  Couplings of
# the non-normal blocks stay at most 10: with larger ones exp(A) is
# ill-conditioned (a 3 x 3 Jordan block with coupling 735 has condition number
# 9.4e6) and any two algorithms may differ by more than the bound.  A drawn
# orthogonal Q mixes the blocks, so the generator is dense: scipy's expm takes
# triangular input down a path of its own, which returns 0 for the entry of
# exp(blockdiag(5 I, [[0, 1], [0, 3.7e-120]])) that is 1.
_real = st.floats(-690.0, 690.0)
_coupling = st.floats(-10.0, 10.0)
_rotation = st.builds(lambda s, w: np.array([[s, -w], [w, s]]), _real, st.floats(-1e3, 1e3))
_shear = st.builds(lambda a, c, d: np.array([[a, c], [0.0, d]]), _real, _coupling, _real)
_jordan = st.builds(
    lambda m, lam, c: lam * np.eye(m) + c * np.eye(m, k=1), st.integers(2, 3), _real, _coupling
)


def _mixed(blocks, seed):
    B = block_diag(*blocks)
    Q = np.linalg.qr(np.random.default_rng(seed).normal(size=B.shape))[0]
    return Q @ B @ Q.T


_generators = st.builds(
    _mixed,
    st.lists(st.one_of(_rotation, _shear, _jordan), min_size=1, max_size=4).filter(
        lambda blocks: sum(map(len, blocks)) <= 8
    ),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(B=_generators)
def test_matrix_exp_matches_expm_on_drawn_generators(B):
    _assert_matches_expm(B, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    B=_generators,
    times=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)), min_size=1, max_size=12
    ),
)
def test_matrix_exp_slices_equal_their_solo_calls(B, times):
    B = B / max(1.0, np.abs(B).max())  # keep every slice finite
    stack = matrix_exp(B, times)
    for t, slice_ in zip(times, stack):
        assert slice_.tobytes() == matrix_exp(B, t).tobytes()
        if t == 0.0:
            assert slice_.tobytes() == np.eye(len(B)).tobytes()


def test_matrix_exp_shapes():
    assert matrix_exp(ROT, 0.5).shape == (2, 2)
    assert matrix_exp(ROT, np.float64(0.5)).shape == (2, 2)
    assert matrix_exp(ROT, [0.5]).shape == (1, 2, 2)
    assert matrix_exp(ROT, np.zeros((3, 4))).shape == (3, 4, 2, 2)
    assert matrix_exp(ROT, np.zeros(0)).shape == (0, 2, 2)


# --- evidence reductions ------------------------------------------------------


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_finite, min_size=1, max_size=20), nan_at=st.integers(0, 20))
def test_worst_and_least_fail_without_finite_evidence(values, nan_at):
    a = np.array(values)
    assert worst(a) == np.max(a) and least(a) == np.min(a)
    assert np.isnan(worst(np.empty(0))) and np.isnan(least(np.empty(0)))
    a = np.insert(a, min(nan_at, len(a)), np.nan)
    assert np.isnan(worst(a)) and np.isnan(least(a))


def test_generator_validation():
    with pytest.raises(ValueError, match=r"generator must be square, got shape \(1, 2\)"):
        generator([[1.0, 2.0]])
    with pytest.raises(ValueError, match="generator dimension must be >= 1"):
        generator(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="generator entries must be finite"):
        generator([[np.inf]])
    # the one (F, B) type and the transverse data store their generators
    # through the same check
    with pytest.raises(ValueError, match="generator must be square"):
        EmbeddingCandidate(lambda x: x, [[1.0, 2.0]])
    with pytest.raises(ValueError, match=r"generator must be square, got shape \(1, 2\)"):
        TransverseData(lambda x: x, [[1.0, 2.0]], lambda x: True)


# --- block-diagonal assembly and positive definite solves ------------------------


def test_block_diag_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    blocks = (2.5 * ROT, np.zeros((1, 1)), -np.eye(1), np.arange(6.0).reshape(2, 3), [[7.0]])
    ours = block_diag(*blocks)
    assert ours.dtype == np.float64
    assert np.array_equal(ours, scipy_linalg.block_diag(*blocks))
    assert np.array_equal(block_diag(ROT), ROT)


def test_solve_positive_definite():
    rng = np.random.default_rng(21)
    M = rng.normal(size=(4, 4))
    A, b = M @ M.T + 4 * np.eye(4), rng.normal(size=(4, 2))
    np.testing.assert_allclose(A @ solve_positive_definite(A, b), b, atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        solve_positive_definite(-np.eye(3), np.ones(3))


@pytest.mark.parametrize("n", range(1, 41))
def test_solve_positive_definite_matches_scipy_solve_bitwise(n):
    # the Cholesky solves of both agree to 2 n cond(A) eps relative: each
    # has a backward error of order n eps (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., Thm. 10.4); the largest ratio seen on
    # these 80 systems is 0.12 n
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(100 + n)
    M = rng.normal(size=(n, n + 3))
    # a Gram matrix plus a small ridge, as the EDMD fit solves, and one
    # badly conditioned one
    for A in (M @ M.T + 1e-6 * np.eye(n), M @ np.diag(np.logspace(-7, 0, n + 3)) @ M.T):
        b = rng.normal(size=(n, 5))
        expected = scipy_linalg.solve(A, b, assume_a="pos")
        error = np.linalg.norm(solve_positive_definite(A, b) - expected)
        assert error <= 2 * n * np.linalg.cond(A) * EPS * np.linalg.norm(expected)
    with pytest.raises(np.linalg.LinAlgError):
        solve_positive_definite(M @ M.T - (n + 3) * np.abs(M).max() ** 2 * np.eye(n), b)


# --- invariant subspaces of attractor generators ----------------------------------


def _random_attractor_generator(rng, center_pairs, stable_dim):
    """Q D Q^T with D = blockdiag(rotations, stable diagonal) and Q orthogonal.

    Returns the generator and its stable spectral projection Q P Q^T, known
    by construction (P is the coordinate projection onto the stable block).
    """
    n = 2 * center_pairs + stable_dim
    D = np.zeros((n, n))
    for i in range(0, 2 * center_pairs, 2):
        D[i : i + 2, i : i + 2] = rng.uniform(0.5, 3.0) * ROT
    D[2 * center_pairs :, 2 * center_pairs :] = -np.diag(rng.uniform(0.3, 2.0, stable_dim))
    P = np.diag([0.0] * (2 * center_pairs) + [1.0] * stable_dim)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return Q @ D @ Q.T, Q @ P @ Q.T


def test_split_invariants_on_random_generators():
    # exp(Bt) preserves the center and stable subspaces of the generator
    rng = np.random.default_rng(11)
    for _ in range(10):
        B, Pm = _random_attractor_generator(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        for t in (0.3, 1.7, 6.0):
            E = matrix_exp(B, t)
            assert np.abs(E @ Pm - Pm @ E).max() <= 1e-9


def test_stable_component_decays_monotonically():
    rng = np.random.default_rng(13)
    B, Pm = _random_attractor_generator(rng, 1, 2)
    x = Pm @ rng.normal(size=B.shape[0])
    norms = [np.linalg.norm(matrix_exp(B, t) @ x) for t in np.linspace(0.5, 8.0, 16)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


# --- rational independence ----------------------------------------------------


def test_one_and_sqrt2_independent_up_to_50():
    w = (1.0, np.sqrt(2.0))
    assert brute_force_relation(w, 50, 1e-9) is None
    result = rational_independence(w, 50, 1e-9)
    assert result.independent and result.max_coeff == 50


def test_seven_three_dependent():
    result = rational_independence((7.0, 3.0), 10)
    assert not result.independent
    assert result.relation == (3, -7)
    assert brute_force_relation((7.0, 3.0), 10, 1e-9) == (3, -7)


def test_single_frequency_independent():
    assert rational_independence((1.0,), 5).independent


def test_dimension_limit():
    with pytest.raises(DimensionTooLarge):
        rational_independence((1.0, 2.0, 3.0, 4.0, 5.0), 3)


def test_search_box_limit_is_met_before_the_box_is_built(monkeypatch):
    w = (1.0, np.sqrt(2.0), np.sqrt(3.0), np.sqrt(5.0))
    assert rational_independence(w, 50).independent  # 101**2 tuples per half
    # building either half of the box would raise AttributeError
    monkeypatch.setattr(linalg, "itertools", None)
    for omega, q in ((w, 159), (w[:3], 10**5), (w[:2], 10**6)):
        with pytest.raises(DimensionTooLarge, match=f"max_coeff {q}: "):
            rational_independence(omega, q)


@pytest.mark.parametrize(
    "omega, message",
    [
        ([1.0, np.nan], "frequency entries must be finite"),
        ([np.inf, 1.0], "frequency entries must be finite"),
        ([[1.0, 2.0]], "frequency vector must be one-dimensional"),
    ],
)
def test_bad_frequencies_are_rejected_everywhere(omega, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        rational_independence(omega, 5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        quasiperiodic_factor_certificate(
            catalog.get("quasiperiodic_torus_2").system, lambda x: x, omega, 5,
            rng=np.random.default_rng(0),
        )
    with pytest.raises(ValueError, match=f"^{message}$"):
        TorusActionSpec(action=lambda h, x: x, omega=omega)


def test_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        if rng.random() < 0.5:
            w = tuple(rng.integers(1, 9) / rng.integers(1, 5) for _ in range(n))
        else:
            w = tuple(rng.uniform(0.1, 3.0) for _ in range(n))
        got = rational_independence(w, 8, 1e-9)
        expected = brute_force_relation(w, 8, 1e-9)
        if expected is None:
            assert got.independent
        else:
            assert not got.independent
            assert got.relation == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        min_size=2,
        max_size=3,
    )
)
def test_exact_on_rationals(fracs):
    # agreement with the integer-arithmetic oracle on rational frequencies
    w = tuple(float(f) for f in fracs)
    expected = exact_rational_relation([Fraction(f) for f in fracs], 6)
    got = rational_independence(w, 6, 1e-12)
    if expected is None:
        assert got.independent
    else:
        assert not got.independent
        assert sum(e * f for e, f in zip(got.relation, fracs)) == 0
        assert max(abs(e) for e in got.relation) == max(abs(e) for e in expected)
