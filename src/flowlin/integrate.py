"""Adaptive Dormand-Prince 5(4) integrator with quartic dense output.

One loop integrates a batch of states: ``x0`` is one ``(dim,)`` state or an
``(N, dim)`` batch, with one end time per row.  Each row keeps its own step
size, accept/reject decision, step count and ``MAX_STEPS`` budget under a
mask, so it takes exactly the steps it takes on its own; a single state runs
the same loop with numpy scalars for its step size and error norm.  The
integrator has no settings: ``ABS_TOL``, ``REL_TOL`` and ``MAX_STEPS`` are
module constants.

The fifth-order solution is propagated; the embedded fourth-order solution
supplies the local error estimate.  The pair is first-same-as-last: an
accepted step's seventh stage is the next step's first.  Dense output uses
the pair's standard quartic interpolant, whose error tracks the step error (a
cubic Hermite interpolant is one order short of the 1e-8 grid-agreement
contract at ABS_TOL and REL_TOL).

Stage sums are stacked matmuls, one small product per row, and powers are
numpy's scalar powers taken element by element (``batch_pow``): one product
over the whole batch, or numpy's array power, rounds differently from a
row's own, so a batch row would not reproduce its solo run bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FlowlinError


class IntegrationFailure(FlowlinError):
    """Non-finite end time, step size underflow or an exhausted step budget."""


# Dormand & Prince (1980) tableau
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# the fifth-order weights are _A[6] with a zero for the last stage, so the
# last stage is evaluated at the step's result
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4

# Shampine's quartic interpolant for the pair: x(t0 + s h) = x0 + h (K^T P) [s, s^2, s^3, s^4]
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# error tolerances of the step controller
ABS_TOL = 1e-10
REL_TOL = 1e-10
# accepted and rejected steps one row may take
MAX_STEPS = 1_000_000


def batch_pow(a, p):
    """``a ** p`` elementwise, with the bits of numpy's scalar power.

    numpy's array power (SVML on AVX-512 hosts) differs in the last bit from
    its scalar power, the C library's pow, for a few percent of inputs, so a
    batch row would not match the same state on its own, nor one host
    another.  A scalar or 0-d input gives a numpy scalar.
    """
    if not isinstance(a, np.ndarray) or a.ndim == 0:
        return np.float64(a) ** p
    a = np.asarray(a, dtype=float)
    return np.array([v**p for v in a.ravel()]).reshape(a.shape)


# Row-wise helpers.  With one state a row quantity is a numpy scalar and a
# row condition a numpy bool, on which np.where, .any() and np.clip cost
# microseconds, so they fall back to plain Python there.


def _pick(cond, a, b):
    """``np.where`` with one ``cond`` entry per row of ``a`` and ``b``."""
    if not isinstance(cond, np.ndarray):
        return a if cond else b
    return np.where(cond.reshape(cond.shape + (1,) * (np.ndim(a) - cond.ndim)), a, b)


def _any(cond):
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _all(cond):
    return cond.all() if isinstance(cond, np.ndarray) else cond


def _clip(a, lo, hi):
    """``a`` clipped to [lo, hi]; NaN gives lo."""
    if not isinstance(a, np.ndarray):
        return min(hi, max(lo, a))
    return np.fmin(hi, np.fmax(lo, a))


def _rms(y):
    # sqrt(y . y), which is what np.linalg.norm computes, per row
    return np.sqrt(np.vecdot(y, y)) / math.sqrt(y.shape[-1])


class DenseOutput:
    """Piecewise quartic interpolant through the accepted steps of each row."""

    def __init__(self, x0, rows, t_lo, t_hi, xs, coeffs):
        self.x0 = x0  # (..., dim) starts; a row without steps stays at its start
        self.rows = rows  # (S,) flat row of each segment, segments of a row in time order
        self.t_lo = t_lo  # (S,) segment start times
        self.t_hi = t_hi  # (S,) segment end times
        self.xs = xs  # (S, dim) states at the segment starts
        # (S, 7, dim) stages K per segment: x = xs + h (K^T P) [s..s^4], formed when read
        self.coeffs = coeffs
        count = np.bincount(rows, minlength=int(np.prod(x0.shape[:-1])))
        self._moved = count > 0  # rows with at least one segment
        self._start = (np.cumsum(count) - count)[self._moved]  # their first segments
        self._forward = t_hi >= t_lo
        self._later = np.ones(len(rows), dtype=bool)  # not the first segment of its row
        self._later[self._start] = False

    def __call__(self, t) -> np.ndarray:
        """States at time ``t``: a scalar, or one time per row."""
        dim = self.x0.shape[-1]
        t = np.full(self.x0.shape[:-1], t, dtype=float).ravel()
        out = self.x0.reshape(-1, dim).copy()
        # a row's segment is its first plus the number of its later segments
        # that start at or before t in its direction of time, so times past
        # either end fall in the last or the first segment
        tq = t[self.rows]
        passed = np.where(self._forward, self.t_lo <= tq, self.t_lo > tq) & self._later
        idx = self._start + np.bincount(self.rows[passed], minlength=len(out))[self._moved]
        t0 = self.t_lo[idx]
        h = self.t_hi[idx] - t0
        s = (t[self._moved] - t0) / h
        # numpy's scalar powers, as in batch_pow
        powers = np.array([(v, v * v, v**3, v**4) for v in s]).reshape(-1, 4)
        Q = np.swapaxes(self.coeffs[idx], -1, -2) @ _P
        out[self._moved] = self.xs[idx] + h[:, None] * (Q @ powers[..., None])[..., 0]
        return out.reshape(self.x0.shape)


def _rk_step(f, x, h, k0):
    """One step from ``x`` with ``k0 = f(x)``: the new states, error estimates and stages."""
    hc = h[..., None] if isinstance(h, np.ndarray) else h
    k = np.empty(x.shape[:-1] + (7, x.shape[-1]))
    k[..., 0, :] = k0
    for i in range(1, 7):
        x_new = x + hc * (_A[i] @ k[..., :i, :])
        k[..., i, :] = f(x_new)
    return x_new, hc * (_ERR @ k), k


def _initial_step(x0, f0, t_span):
    scale = ABS_TOL + REL_TOL * np.abs(x0)
    d0 = _rms(x0 / scale)
    d1 = _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = _pick((d0 > 1e-5) & (d1 > 1e-5), 0.01 * d0 / d1, 1e-6)
    return np.minimum(h, np.abs(t_span))


def _first_bad(bad, t, rows):
    """The time at the first bad row and ' (row i)' naming it; no row for one state."""
    if not isinstance(bad, np.ndarray):
        return t, ""
    i = np.argmax(bad)
    return t[i], f" (row {rows[i]})"


def integrate(f, x0, t0: float, t1) -> DenseOutput:
    """Integrate dx/dt = f(x) from t0 to t1; returns a dense interpolant.

    ``x0`` is one ``(dim,)`` state or a batch whose last axis holds the
    coordinates, and ``f`` maps a batch of states to a batch of derivatives.
    ``t1`` is a scalar or one finite end time per row (``flows.evolve``
    checks), in either direction of time.  Raises IntegrationFailure, naming
    the first failing row of a batch, on step-size underflow or when a row
    exceeds MAX_STEPS.
    """
    x0 = np.asarray(x0, dtype=float)
    shape, dim = x0.shape[:-1], x0.shape[-1]
    t1 = np.full(shape, t1, dtype=float)
    if shape:
        x, t1 = x0.reshape(-1, dim), t1.ravel()
        rows, t, steps = np.arange(len(x)), np.full(len(x), float(t0)), np.zeros(len(x), int)
    else:
        x, t1, rows, t, steps = x0, t1[()], 0, np.float64(t0), 0
    direction = _pick(t1 > t0, 1.0, -1.0)
    snap = 1e-14 * np.maximum(1.0, np.abs(t1))
    live = (t1 - t) * direction > snap
    if not _any(live):  # every row stays at its start
        empty = np.empty((0, dim))
        return DenseOutput(x0, np.empty(0, int), empty[:, 0], empty[:, 0], empty,
                           np.empty((0, 7, dim)))
    if not _all(live):
        rows, x, t, t1, direction, snap, steps = (
            a[live] for a in (rows, x, t, t1, direction, snap, steps)
        )

    k0 = f(x)
    h_prop = direction * _initial_step(x, k0, t1 - t0)

    record = []  # per pass: (rows, accepted, t, t + h, x, stages)
    while True:
        steps = steps + 1
        over = steps > MAX_STEPS
        if _any(over):
            row = _first_bad(over, t, rows)[1]
            raise IntegrationFailure(f"exceeded {MAX_STEPS} steps{row}")
        # |h| below 1e-14 max(1, |t|)
        tiny = (abs(h_prop) < 1e-14) | (abs(h_prop) < 1e-14 * abs(t))
        if _any(tiny):
            t_bad, row = _first_bad(tiny, t, rows)
            raise IntegrationFailure(f"step size underflow at t = {t_bad:.6g}{row}")
        h = _pick(abs(h_prop) > abs(t1 - t), t1 - t, h_prop)

        x_new, err, k = _rk_step(f, x, h, k0)
        finite = np.isfinite(x_new).all(axis=-1)
        scale = ABS_TOL + REL_TOL * np.maximum(np.abs(x), np.abs(x_new))
        err_norm = _rms(err / scale)
        accepted = finite & (err_norm <= 1.0)
        # a zero error takes the largest factor; np.maximum keeps a NaN
        factor = _SAFETY * batch_pow(np.maximum(err_norm, 1e-300), -0.2)
        # a NaN error norm takes the smallest factor; a non-finite state halves the step
        h_prop = _pick(finite, h * _clip(factor, _MIN_FACTOR, _MAX_FACTOR), 0.5 * h)

        t_new = t + h
        record.append((rows, accepted, t, t_new, x, k))
        t = _pick(accepted, t_new, t)
        x = _pick(accepted, x_new, x)
        k0 = _pick(accepted, k[..., 6, :], k0)

        live = (t1 - t) * direction > snap
        if not _any(live):
            break
        if not _all(live):
            rows, x, t, t1, direction, snap, h_prop, k0, steps = (
                a[live] for a in (rows, x, t, t1, direction, snap, h_prop, k0, steps)
            )

    join = np.concatenate if shape else np.array
    rows, accepted, t_lo, t_hi, xs, ks = (join(part) for part in zip(*record))
    keep = np.flatnonzero(accepted)
    keep = keep[np.argsort(rows[keep], kind="stable")]  # each row's segments in time order
    return DenseOutput(x0, *(a[keep] for a in (rows, t_lo, t_hi, xs, ks)))
