"""Dense linear-algebra primitives.

Matrix exponentials of flow generators, block-diagonal assembly, positive
definite solves, brute-force rational-independence certificates for
frequency vectors, and the evidence reductions every check goes through.
``matrix_exp`` and ``solve_positive_definite`` load their dense solver on
first use; everything else in flowlin needs numpy alone, so importing
flowlin loads no other numerical package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import FlowlinError


class DimensionTooLarge(FlowlinError):
    """Frequency vector or coefficient bound too large for exhaustive relation search."""


class ExpRangeError(FlowlinError):
    """exp(B*t) exceeds the representable floating-point range."""


# exhaustive search over integer relations is only feasible for short vectors
MAX_INDEPENDENCE_DIM = 4
# most coefficient tuples in one half of the search box (Q = 50 at n = 4: 101**2)
MAX_HALF_BOX = 10**5


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of an integer-relation search up to a coefficient bound.

    ``independent`` is a certificate only relative to ``max_coeff``: no
    nonzero integer vector k with max|k_i| <= max_coeff satisfies
    |k . omega| < tol.  A found relation is returned sign-canonicalized
    (first nonzero entry positive) with minimal max-norm.
    """

    independent: bool
    max_coeff: int
    relation: tuple[int, ...] | None = None


def generator(B) -> np.ndarray:
    """Generator of the linear flow t -> exp(B t), as a finite square float array."""
    a = np.atleast_2d(np.asarray(B, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"generator must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("generator dimension must be >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("generator entries must be finite")
    return a


def frequency_vector(omega) -> np.ndarray:
    """Frequencies of a torus flow, one per angle, as a finite 1-D float array."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if w.ndim != 1:
        raise ValueError("frequency vector must be one-dimensional")
    if not np.all(np.isfinite(w)):
        raise ValueError("frequency entries must be finite")
    return w


def matrix_exp(B, t) -> np.ndarray:
    """exp(B*t) by scaling-and-squaring with a high-order Pade approximant.

    ``t`` is a scalar, giving one (k, k) matrix, or an array of times,
    giving a stack of shape ``t.shape + (k, k)``.  Raises ExpRangeError
    when a result overflows float64.
    """
    import scipy.linalg

    B = generator(B)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(B * t[..., None, None])
    if not np.all(np.isfinite(result)):
        raise ExpRangeError(
            "exp(B*t) overflows for norm(B*t) = "
            f"{np.linalg.norm(B, 1) * np.max(np.abs(t)):.3g}"
        )
    return result


def expm_apply(B, t, v) -> np.ndarray:
    """exp(B*t) applied to the rows of ``v``: times ``t`` broadcast against the
    leading axes of ``v``, shape ``(..., k)``."""
    return np.matmul(matrix_exp(B, t), v[..., None])[..., 0]


def row_norms(diff) -> np.ndarray:
    """Euclidean norm of each row of ``diff`` along its last axis."""
    return np.sqrt(np.vecdot(diff, diff))


def worst(values) -> float:
    """The largest value; NaN when a value is NaN or there is none, so a
    ``<= tol`` gate on it fails without finite evidence."""
    return float(np.max(values)) if np.size(values) else np.nan


def least(values) -> float:
    """The smallest value; NaN when a value is NaN or there is none, so a
    ``> 0`` gate on it fails without finite evidence."""
    return float(np.min(values)) if np.size(values) else np.nan


def block_diag(*blocks) -> np.ndarray:
    """Float matrix with the given 2-D blocks along its diagonal, in order."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    rows, cols = np.cumsum([(0, 0)] + [b.shape for b in blocks], axis=0).T
    out = np.zeros((rows[-1], cols[-1]))
    for b, r, c in zip(blocks, rows, cols):
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
    return out


def solve_positive_definite(A, b) -> np.ndarray:
    """X with A X = b for a symmetric positive definite A, with the bits of
    ``scipy.linalg.solve(A, b, assume_a="pos")``: a quotient for 1 x 1, else
    LAPACK's Cholesky pair (potrf, potrs) without solve's overhead.  Raises
    ``np.linalg.LinAlgError`` when A is not positive definite.
    """
    import scipy.linalg

    if np.shape(A) == (1, 1) and A[0][0] > 0:
        return np.divide(b, A[0][0])
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), b)


def _canonical_relation(k: tuple[int, ...]) -> tuple[int, ...]:
    for entry in k:
        if entry != 0:
            return k if entry > 0 else tuple(-e for e in k)
    return k


def _relation_key(k: tuple[int, ...]) -> tuple:
    return (max(abs(e) for e in k), k)


def rational_independence(omega, max_coeff: int, tol: float = 1e-9) -> IndependenceResult:
    """Search for integer relations k . omega ~ 0 with max|k_i| <= max_coeff.

    Meet-in-the-middle over the coefficient box; exact on rational input
    whose relations are detectable at the given tolerance.  Raises
    DimensionTooLarge, before building either half of the box, when a half
    would hold more than MAX_HALF_BOX tuples.
    """
    w = frequency_vector(omega)
    n = len(w)
    if n > MAX_INDEPENDENCE_DIM:
        raise DimensionTooLarge(
            f"exhaustive search supports at most {MAX_INDEPENDENCE_DIM} frequencies, got {n}"
        )
    if max_coeff < 1:
        raise ValueError("max_coeff must be >= 1")
    Q = int(max_coeff)

    # near-zero components admit the trivial unit-vector relation
    for i in range(n):
        if abs(w[i]) < tol:
            k = tuple(1 if j == i else 0 for j in range(n))
            return IndependenceResult(False, Q, k)

    if n == 1:
        return IndependenceResult(True, Q)

    split = n // 2
    size = (2 * Q + 1) ** (n - split)  # tuples of the right half, the larger one
    if size > MAX_HALF_BOX:
        raise DimensionTooLarge(f"max_coeff {Q}: {size} tuples in half the box, > {MAX_HALF_BOX}")
    coeff_range = np.arange(-Q, Q + 1)

    right_tuples = np.array(list(itertools.product(coeff_range, repeat=n - split)))
    right_sums = right_tuples @ w[split:]
    order = np.argsort(right_sums, kind="stable")
    right_sums_sorted = right_sums[order]

    left_tuples = np.array(list(itertools.product(coeff_range, repeat=split)))
    left_sums = left_tuples @ w[:split]
    lo = np.searchsorted(right_sums_sorted, -left_sums - tol, side="left")
    hi = np.searchsorted(right_sums_sorted, -left_sums + tol, side="right")

    best: tuple[int, ...] | None = None
    for i in np.flatnonzero(hi > lo):
        left = tuple(int(e) for e in left_tuples[i])
        for pos in range(lo[i], hi[i]):
            k = left + tuple(int(e) for e in right_tuples[order[pos]])
            if all(e == 0 for e in k):
                continue
            if abs(float(np.dot(k, w))) >= tol:
                continue
            k = _canonical_relation(k)
            if best is None or _relation_key(k) < _relation_key(best):
                best = k
    if best is None:
        return IndependenceResult(True, Q)
    return IndependenceResult(False, Q, best)
