"""Adaptive Dormand-Prince 5(4) integrator with quartic dense output.

One loop integrates a batch of states: ``x0`` is one ``(dim,)`` state or an
``(N, dim)`` batch, with one end time per row.  Each row keeps its own step
size, accept/reject decision, step count and ``MAX_STEPS`` budget under a
mask, so it takes exactly the steps it takes on its own.  The integrator has
no settings: ``ABS_TOL``, ``REL_TOL`` and ``MAX_STEPS`` are module constants.

The fifth-order solution is propagated; the embedded fourth-order solution
supplies the local error estimate.  The pair is first-same-as-last: an
accepted step's seventh stage is the next step's first.  Dense output uses
the pair's standard quartic interpolant, whose error tracks the step error (a
cubic Hermite interpolant is one order short of the 1e-8 grid-agreement
contract at ABS_TOL and REL_TOL).

The loop and the vector field work coordinate by coordinate: one state's
coordinates are Python floats, a batch's the (N,) rows of one (dim, N) array.
Each stage sum, the error estimate and the interpolant add the tableau's
nonzero terms in one fixed order, the error norm is ``sqrt(sum of q_c^2) /
sqrt(dim)``, and a power is the C library's pow (``pow``, ``batch_pow``).
IEEE ``+ - * /``, square root and numpy's ufunc loops round alike in both
forms, so a batch row repeats its solo run bit for bit.
"""

from __future__ import annotations

import math
import operator
from operator import neg
from bisect import bisect_left, bisect_right
from functools import reduce

import numpy as np

from .errors import FlowlinError, InvalidInput


class IntegrationFailure(FlowlinError):
    """Non-finite end time, step size underflow or an exhausted step budget."""


# Shampine's quartic interpolant for the pair: x(t0 + s h) = x0 + h sum_j w_j(s) K_j with
# w_j(s) = p1 s + p2 s^2 + p3 s^3 + p4 s^4, rows (j, p1, p2, p3, p4); w_1 = 0
_P = (
    (0, 1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (2, 0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (3, 0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (4, 0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (5, 0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (6, 0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0  # of the step-size factor
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


class _Floats:
    """Row operations on one state, a list of Python floats.  ``max(a, b)`` keeps a NaN
    ``a`` like np.maximum and drops a NaN ``b`` like np.fmax: the two differ only in
    the error scale of a non-finite new state, whose step is halved either way."""

    maximum = fmax = max
    minimum = fmin = min
    sqrt, power, isfinite, any, all = math.sqrt, pow, math.isfinite, bool, bool

    def pick(cond, a, b):
        return a if cond else b

    def total(a):  # the coordinates of one state are summed one by one
        return a


class _Columns:
    """Row operations on a batch: rows are (N,) columns, a state ``[X]`` with X (dim, N)."""

    maximum, minimum, fmax, fmin = np.maximum, np.minimum, np.fmax, np.fmin
    sqrt, power, any, all = np.sqrt, batch_pow, np.ndarray.any, np.ndarray.all

    def isfinite(X):
        return np.isfinite(X).all(axis=0)

    def pick(cond, a, b):
        return [np.where(cond, a[0], b[0])] if isinstance(a, list) else np.where(cond, a, b)

    def total(X):  # the sum over X's coordinates, in their order
        return reduce(operator.add, X)

    def take(a, rows):
        return [a[0][:, rows]] if isinstance(a, list) else a[rows]


def _combine(x, h, terms, k):
    """``x + h * (w k[j] + ...)`` per coordinate, the ``(j, w)`` terms added in order."""
    (j0, w0), *rest = terms
    out = []
    for c, xc in enumerate(x):
        acc = w0 * k[j0][c]
        for j, w in rest:
            acc = acc + w * k[j][c]
        out.append(xc + h * acc)
    return out


def _interpolate(x, K, h, s):
    """The quartic interpolant at ``s`` in the step of size ``h`` from ``x`` with stages ``K``."""
    w = [(j, s * (p1 + s * (p2 + s * (p3 + s * p4)))) for j, p1, p2, p3, p4 in _P]
    return _combine(x, h, w, K)


class DenseOutput:
    """Piecewise quartic interpolant through the accepted steps of each row: arrays, each
    row's segments in time order, or for one state lists of floats and ``rows`` None."""

    def __init__(self, x0, rows, t_lo, t_hi, xs, coeffs):
        self.x0 = x0  # (..., dim) starts; a row without steps stays at its start
        self.rows = rows  # (S,) flat row of each segment
        self.t_lo = t_lo  # (S,) segment start times
        self.t_hi = t_hi  # (S,) segment end times
        self.xs = xs  # (S, dim) states at the segment starts
        self.coeffs = coeffs  # (S, 7, dim) stages K per segment
        if rows is None:
            return
        count = np.bincount(rows, minlength=int(np.prod(x0.shape[:-1])))
        self._moved = count > 0  # rows with at least one segment
        self._start = (np.cumsum(count) - count)[self._moved]  # their first segments
        self._forward = t_hi >= t_lo
        self._later = np.ones(len(rows), dtype=bool)  # not the first segment of its row
        self._later[self._start] = False

    def __call__(self, t) -> np.ndarray:
        """States at time ``t``: a scalar, or one time per row."""
        # a row's segment is its first plus the number of its later segments
        # that start at or before t in its direction of time, so times past
        # either end fall in the last or the first segment
        if self.rows is None:
            if not self.t_lo:  # no row moved
                return self.x0.copy()
            t, t_lo, forward = float(t), self.t_lo, self.t_hi[0] >= self.t_lo[0]
            i = (bisect_right(t_lo, t, 1) if forward else bisect_left(t_lo, -t, 1, key=neg)) - 1
            h = self.t_hi[i] - t_lo[i]
            return np.array(_interpolate(self.xs[i], self.coeffs[i], h, (t - t_lo[i]) / h))
        dim = self.x0.shape[-1]
        t = np.full(self.x0.shape[:-1], t, dtype=float).ravel()
        out = self.x0.reshape(-1, dim).copy()
        tq = t[self.rows]
        passed = np.where(self._forward, self.t_lo <= tq, self.t_lo > tq) & self._later
        idx = self._start + np.bincount(self.rows[passed], minlength=len(out))[self._moved]
        t0 = self.t_lo[idx]
        h = self.t_hi[idx] - t0
        x, K = [self.xs[idx].T], self.coeffs[idx].transpose(1, 2, 0)[:, None]
        out[self._moved] = _interpolate(x, K, h, (t[self._moved] - t0) / h)[0].T
        return out.reshape(self.x0.shape)


def _rk_step(f, x, h, k0):
    """One Dormand & Prince (1980) step from coordinates ``x`` with ``k0 = f(x)``: the new
    coordinates, error estimates and seven stages, each sum's terms added in stage order."""
    k1 = f([y + h * (1 / 5 * s0) for y, s0 in zip(x, k0)])
    k2 = f([y + h * (3 / 40 * s0 + 9 / 40 * s1) for y, s0, s1 in zip(x, k0, k1)])
    k3 = f([y + h * (44 / 45 * s0 - 56 / 15 * s1 + 32 / 9 * s2)
            for y, s0, s1, s2 in zip(x, k0, k1, k2)])
    k4 = f([y + h * (19372 / 6561 * s0 - 25360 / 2187 * s1 + 64448 / 6561 * s2 - 212 / 729 * s3)
            for y, s0, s1, s2, s3 in zip(x, k0, k1, k2, k3)])
    k5 = f([y + h * (9017 / 3168 * s0 - 355 / 33 * s1 + 46732 / 5247 * s2 + 49 / 176 * s3
                     - 5103 / 18656 * s4) for y, s0, s1, s2, s3, s4 in zip(x, k0, k1, k2, k3, k4)])
    x_new = [y + h * (35 / 384 * s0 + 500 / 1113 * s2 + 125 / 192 * s3 - 2187 / 6784 * s4
                      + 11 / 84 * s5) for y, s0, s2, s3, s4, s5 in zip(x, k0, k2, k3, k4, k5)]
    k6 = f(x_new)
    # fifth- minus fourth-order weights, each difference rounded as a float
    err = [h * ((35 / 384 - 5179 / 57600) * s0 + (500 / 1113 - 7571 / 16695) * s2
                + (125 / 192 - 393 / 640) * s3 + (-2187 / 6784 + 92097 / 339200) * s4
                + (11 / 84 - 187 / 2100) * s5 - 1 / 40 * s6)
           for s0, s2, s3, s4, s5, s6 in zip(k0, k2, k3, k4, k5, k6)]
    return x_new, err, [k0, k1, k2, k3, k4, k5, k6]


def _columns(derivatives, n: int) -> np.ndarray:
    """A batch field's derivatives as one (dim, n) array.  Constants, which fill their rows,
    and other lengths (InvalidInput) are looked for only when np.array gives no 2-D array."""
    try:
        out = np.array(derivatives, dtype=float)
        if out.ndim == 2:
            return out
    except ValueError:
        pass
    try:
        return np.array([np.broadcast_to(d, (n,)) for d in derivatives], dtype=float)
    except ValueError as err:
        raise InvalidInput(f"a field coordinate must be a constant or {n} rows: {err}") from None


def _first_bad(bad, t, rows):
    """The time at the first bad row and ' (row i)' naming it; no row for one state."""
    i = np.argmax(bad) if isinstance(bad, np.ndarray) else None
    return (t, "") if i is None else (t[i], f" (row {rows[i]})")


def integrate(f, x0, t0: float, t1) -> DenseOutput:
    """Integrate dx/dt = f(x) from t0 to t1; returns a dense interpolant.

    ``x0`` is one ``(dim,)`` state or a batch whose last axis holds the
    coordinates; ``f`` maps one state's floats, or a batch's ``(dim, N)``
    columns, to one derivative per coordinate (else InvalidInput), on a
    batch an ``(N,)`` row or, next to such rows, a constant.  ``t1`` is
    a scalar or one finite end time per row (``flows.evolve`` checks).
    Raises IntegrationFailure, naming the first failing row of a batch, on
    step-size underflow or when a row exceeds MAX_STEPS.
    """
    x0 = np.asarray(x0, dtype=float)
    shape, dim = x0.shape[:-1], x0.shape[-1]
    if shape:
        ops, x, t1 = _Columns, [x0.reshape(-1, dim).T], np.full(shape, t1, dtype=float).ravel()
        rows, t, steps = np.arange(len(t1)), np.full(len(t1), float(t0)), np.zeros(len(t1), int)
        field = lambda x: [_columns(f(x[0]), x[0].shape[-1])]  # noqa: E731
    else:
        ops, x, t1, rows, t, steps = _Floats, x0.tolist(), float(t1), 0, float(t0), 0
        field = lambda x: list(map(float, f(x)))  # noqa: E731

    def rms(y):  # sqrt(sum of the squared coordinates) / sqrt(dim), added in their order
        return ops.sqrt(ops.total(reduce(operator.add, [v * v for v in y]))) / math.sqrt(dim)

    direction = ops.pick(t1 > t0, 1.0, -1.0)
    snap = 1e-14 * ops.maximum(1.0, abs(t1))
    live = (t1 - t) * direction > snap
    record = []  # per pass: (rows, accepted, t, t + h, x, stages)
    k0, h_prop = x, t  # set on the first pass
    while ops.any(live):
        if not ops.all(live):
            rows, x, t, t1, direction, snap, h_prop, k0, steps = (
                ops.take(a, live) for a in (rows, x, t, t1, direction, snap, h_prop, k0, steps)
            )
        if not record:  # the initial step, from the scaled sizes of x and f(x)
            k0 = field(x)
            got, want = (k0[0].shape, x[0].shape) if shape else ((len(k0),), (dim,))
            if got != want:  # zip would drop coordinates; checked on the first call only
                raise InvalidInput(f"vector field returned shape {got} for coordinates {want}")
            scale = [ABS_TOL + REL_TOL * abs(c) for c in x]
            d0, d1 = (rms([v / s for v, s in zip(y, scale)]) for y in (x, k0))
            h = ops.pick((d0 > 1e-5) & (d1 > 1e-5), 0.01 * d0 / ops.maximum(d1, 1e-5), 1e-6)
            h_prop = direction * ops.minimum(h, abs(t1 - t0))
        steps = steps + 1
        over = steps > MAX_STEPS
        if ops.any(over):
            row = _first_bad(over, t, rows)[1]
            raise IntegrationFailure(f"exceeded {MAX_STEPS} steps{row}")
        # |h| below 1e-14 max(1, |t|)
        tiny = (abs(h_prop) < 1e-14) | (abs(h_prop) < 1e-14 * abs(t))
        if ops.any(tiny):
            t_bad, row = _first_bad(tiny, t, rows)
            raise IntegrationFailure(f"step size underflow at t = {t_bad:.6g}{row}")
        h = ops.pick(abs(h_prop) > abs(t1 - t), t1 - t, h_prop)

        x_new, err, k = _rk_step(field, x, h, k0)
        finite = reduce(operator.and_, map(ops.isfinite, x_new))
        scale = [ABS_TOL + REL_TOL * ops.maximum(abs(a), abs(b)) for a, b in zip(x, x_new)]
        err_norm = rms([e / s for e, s in zip(err, scale)])
        accepted = finite & (err_norm <= 1.0)
        # a zero error takes the largest factor, a NaN one the smallest
        factor = _SAFETY * ops.power(ops.maximum(err_norm, 1e-300), -0.2)
        # a non-finite state halves the step
        h_new = h * ops.fmin(_MAX_FACTOR, ops.fmax(_MIN_FACTOR, factor))
        h_prop = ops.pick(finite, h_new, 0.5 * h)

        t_new = t + h
        record.append((rows, accepted, t, t_new, x, k))
        t = ops.pick(accepted, t_new, t)
        x = ops.pick(accepted, x_new, x)
        k0 = ops.pick(accepted, k[6], k0)
        live = (t1 - t) * direction > snap

    if not shape or not record:
        return DenseOutput(x0, None, *([r[i] for r in record if r[1]] for i in range(2, 6)))
    rows, accepted, t_lo, t_hi, xs, ks = (np.concatenate(p, axis=-1) for p in zip(*record))
    keep = np.flatnonzero(accepted)
    keep = keep[np.argsort(rows[keep], kind="stable")]  # each row's segments in time order
    return DenseOutput(x0, rows[keep], t_lo[keep], t_hi[keep], xs[0][:, keep].T,
                       ks[:, 0][..., keep].transpose(2, 0, 1))
