"""Adaptive Dormand-Prince 5(4) integrator with quartic dense output.

The fifth-order solution is propagated; the embedded fourth-order solution
supplies the local error estimate.  Dense output uses the pair's standard
quartic interpolant, whose error tracks the step error (a cubic Hermite
interpolant is one order short of the 1e-8 grid-agreement contract at
ABS_TOL and REL_TOL).  A ``fixed_step`` setting disables the controller,
which is what the order-of-convergence checks use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FlowlinError


class IntegrationFailure(FlowlinError):
    """Step size underflowed or the step budget was exhausted."""


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


@dataclass(frozen=True)
class IntegratorSettings:
    max_steps: int = 1_000_000
    fixed_step: float | None = None


class DenseOutput:
    """Piecewise quartic interpolant through the accepted steps."""

    def __init__(self, ts: np.ndarray, xs: np.ndarray, coeffs: list[np.ndarray]):
        self.ts = ts  # segment start times plus the final time
        self.xs = xs
        self.coeffs = coeffs  # per segment: (n, 4) matrix Q with x = x0 + h Q [s..s^4]
        self._forward = ts[-1] >= ts[0]

    def __call__(self, t: float) -> np.ndarray:
        if len(self.coeffs) == 0:
            return self.xs[0].copy()
        ts = self.ts if self._forward else self.ts[::-1]
        idx = int(np.searchsorted(ts, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.ts) - 2)
        if not self._forward:
            idx = len(self.ts) - 2 - idx
        t0, t1 = self.ts[idx], self.ts[idx + 1]
        h = t1 - t0
        s = (t - t0) / h
        powers = np.array([s, s * s, s**3, s**4])
        return self.xs[idx] + h * (self.coeffs[idx] @ powers)


def _rk_step(f, x, h):
    k = np.empty((7, len(x)))
    k[0] = f(x)
    for i in range(1, 7):
        k[i] = f(x + h * (_A[i] @ k[:i]))
    x_new = x + h * (_B5 @ k)
    err = h * (_ERR @ k)
    return x_new, err, k


def _initial_step(f, x0, t_span):
    scale = ABS_TOL + REL_TOL * np.abs(x0)
    d0 = np.linalg.norm(x0 / scale) / np.sqrt(len(x0))
    d1 = np.linalg.norm(f(x0) / scale) / np.sqrt(len(x0))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    return min(h, abs(t_span))


def integrate(f, x0, t0: float, t1: float, settings: IntegratorSettings) -> DenseOutput:
    """Integrate dx/dt = f(x) from t0 to t1; returns a dense interpolant.

    Supports either direction of time.  Raises IntegrationFailure on
    step-size underflow or when max_steps is exceeded.
    """
    x = np.asarray(x0, dtype=float).copy()
    if t1 == t0:
        return DenseOutput(np.array([t0, t0]), np.array([x, x]), [])
    direction = 1.0 if t1 > t0 else -1.0

    if settings.fixed_step is not None:
        h_signed = direction * abs(settings.fixed_step)
    else:
        h_signed = direction * _initial_step(f, x, t1 - t0)

    ts = [t0]
    xs = [x.copy()]
    coeffs: list[np.ndarray] = []
    t = t0
    steps = 0
    snap = 1e-14 * max(1.0, abs(t1))
    while (t1 - t) * direction > snap:
        steps += 1
        if steps > settings.max_steps:
            raise IntegrationFailure(f"exceeded {settings.max_steps} steps")
        if abs(h_signed) < 1e-14 * max(1.0, abs(t)):
            raise IntegrationFailure(f"step size underflow at t = {t:.6g}")
        h = h_signed
        if abs(h) > abs(t1 - t):
            h = t1 - t

        x_new, err, k = _rk_step(f, x, h)
        if not np.all(np.isfinite(x_new)):
            if settings.fixed_step is not None:
                raise IntegrationFailure(f"non-finite state at t = {t:.6g}")
            h_signed = 0.5 * h
            continue

        if settings.fixed_step is None:
            scale = ABS_TOL + REL_TOL * np.maximum(np.abs(x), np.abs(x_new))
            err_norm = np.linalg.norm(err / scale) / np.sqrt(len(x))
            if err_norm > 1.0:
                h_signed = h * max(_MIN_FACTOR, _SAFETY * err_norm ** (-0.2))
                continue
            factor = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm ** (-0.2)
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            h_signed = direction * abs(h) * factor

        coeffs.append(k.T @ _P)
        t = t + h
        x = x_new
        ts.append(t)
        xs.append(x.copy())

    return DenseOutput(np.array(ts), np.array(xs), coeffs)
