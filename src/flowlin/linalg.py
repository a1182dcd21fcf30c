"""Dense linear-algebra primitives.

Matrix exponentials of flow generators, block-diagonal assembly, positive
definite solves, brute-force rational-independence certificates for
frequency vectors, and the evidence reductions every check goes through.
Everything here, and so all of flowlin, needs numpy alone.  The dense
kernels keep to calls that OpenBLAS runs on the calling thread: matmul and
solve on stacks of k x k matrices for ``matrix_exp``, one Cholesky factor
and row-by-row substitution for ``solve_positive_definite``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import FlowlinError, InvalidInput


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
        raise InvalidInput(f"generator must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise InvalidInput("generator dimension must be >= 1")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("generator entries must be finite")
    return a


def frequency_vector(omega) -> np.ndarray:
    """Frequencies of a torus flow, one per angle, as a finite 1-D float array."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if w.ndim != 1:
        raise InvalidInput("frequency vector must be one-dimensional")
    if not np.all(np.isfinite(w)):
        raise InvalidInput("frequency entries must be finite")
    return w


# Pade [13/13] numerator coefficients b_0..b_13, and the largest 1-norm at
# which that approximant of exp is accurate to unit roundoff (Higham, SIAM J.
# Matrix Anal. Appl. 26(4), 2005, Table 2.3)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def matrix_exp(B, t) -> np.ndarray:
    """exp(B*t) by scaling and squaring with the degree-13 Pade approximant.

    ``t`` is a scalar, giving one (k, k) matrix, or an array of times,
    giving a stack of shape ``t.shape + (k, k)``.  Each slice gets its own
    scale 2^-s, the least with norm1(B t) 2^-s <= theta_13, so a slice's
    bits do not depend on the rest of the stack; t = 0 gives exactly I.
    Raises ExpRangeError when a result overflows float64.
    """
    B = generator(B)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise InvalidInput("time must be finite")
    k = len(B)
    with np.errstate(over="ignore", invalid="ignore"):
        A = (B * t[..., None, None]).reshape(-1, k, k)
        norm = np.abs(A).sum(axis=-2).max(axis=-1)
        if not np.all(np.isfinite(norm)):
            raise _overflow(B, t)
        mantissa, exponent = np.frexp(norm / _THETA13)
        s = np.maximum(exponent - (mantissa == 0.5), 0)  # ceil(log2(norm / theta_13))
        A = np.ldexp(A, -s[:, None, None])
        b, I = _PADE13, np.eye(k)
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (
            A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
            + b[1] * I
        )
        V = (
            A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
            + b[0] * I
        )
        X = np.linalg.solve(V - U, V + U)
        # at A = 0 the solve scales b0 by a rounded 1 / b0, which need not give 1
        X[norm == 0.0] = I
        for i in range(s.max(initial=0)):
            rows = np.flatnonzero(s > i)
            X[rows] = X[rows] @ X[rows]
    if not np.all(np.isfinite(X)):
        raise _overflow(B, t)
    return X.reshape(t.shape + (k, k))


def _overflow(B, t) -> ExpRangeError:
    return ExpRangeError(
        f"exp(B*t) overflows for norm(B*t) = {np.linalg.norm(B, 1) * np.max(np.abs(t)):.3g}"
    )


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
    """X with A X = b for a symmetric positive definite A: a quotient for
    1 x 1, else the Cholesky factor L of A and one forward and one back
    substitution, a row of X at a time.  Raises ``np.linalg.LinAlgError``
    when A is not positive definite.
    """
    if np.shape(A) == (1, 1) and A[0][0] > 0:
        return np.divide(b, A[0][0])
    L = np.linalg.cholesky(A)
    X = np.array(b, dtype=float)
    for i in range(len(X)):  # L Y = b
        X[i] = (X[i] - L[i, :i] @ X[:i]) / L[i, i]
    for i in reversed(range(len(X))):  # L^T X = Y
        X[i] = (X[i] - L[i + 1 :, i] @ X[i + 1 :]) / L[i, i]
    return X


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
        raise InvalidInput("max_coeff must be >= 1")
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
