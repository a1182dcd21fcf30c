"""Asymptotic phase estimation for compact attractors.

The estimator flows a basin point forward by a horizon T, projects onto the
attractor, and flows back inside the attractor: P_T(x) = Phi_A^{-T}(proj(Phi^T(x))).
Horizons must grow geometrically: an arithmetic schedule has vanishing
successive differences on sqrt(T)-type phase drift and would misclassify the
divergent case as Cauchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import FlowlinError, InvalidInput
from .flows import FlowSystem, evolve
from .integrate import batch_pow
from .linalg import worst

__all__ = [
    "AttractorModel",
    "GeometricSchedule",
    "PhaseEstimate",
    "EmptyAttractor",
    "estimate_phase",
    "verify_phase_properties",
]


class EmptyAttractor(FlowlinError):
    """Attractor model carries no sample cloud."""


MIN_CLOUD_POINTS = 200


@dataclass(frozen=True, eq=False)
class AttractorModel:
    """Sampled model of a compact attractor.

    ``cloud`` is an (m, dim) sample of the attractor (m >= 200), ``restricted_flow``
    the flow on the attractor itself (invertible in time), and ``exact_projector``
    an optional closed-form nearest-point map that bypasses the cloud search.
    """

    cloud: np.ndarray
    restricted_flow: FlowSystem
    exact_projector: Callable | None = None

    def __post_init__(self):
        cloud = np.asarray(self.cloud, dtype=float)
        if cloud.ndim != 2 or cloud.shape[0] < MIN_CLOUD_POINTS:
            raise EmptyAttractor(
                f"attractor cloud needs >= {MIN_CLOUD_POINTS} points, got {cloud.shape}"
            )
        object.__setattr__(self, "cloud", cloud)

    def nearest_point(self, x) -> np.ndarray:
        """Project a basin point, or each row of an ``(N, dim)`` batch, onto the attractor.

        Uses the exact projector when present; otherwise each row's best cloud
        point refined by a quadratic fit along the restricted flow, with one
        evolve for all 3N fit points and one for the N results.  The fit
        refines along the flow only, so on an attractor of dimension above 1
        the cloud search is only as good as the cloud's spacing.
        """
        if self.exact_projector is not None:
            return self.restricted_flow.chart.wrap(np.asarray(self.exact_projector(x), float))
        X = np.atleast_2d(np.asarray(x, dtype=float))
        chart, flow = self.restricted_flow.chart, self.restricted_flow
        best = self.cloud[np.argmin(chart.distances(X[:, None, :], self.cloud), axis=-1)]
        # refine along the flow: fit a parabola to d^2 at offsets {-h, 0, h},
        # with h the cloud resolution around the best point
        gaps = chart.distances(best[:, None, :], self.cloud)
        apart = gaps > 1e-12
        h = np.maximum(1e-6, np.where(apart.any(-1), np.where(apart, gaps, np.inf).min(-1), 1e-3))
        pts = evolve(flow, np.repeat(best, 3, axis=0), (h[:, None] * [-1.0, 0.0, 1.0]).ravel())
        # batch_pow keeps the bits of the scalar d ** 2, so d2 equals
        # chart.distance(x, p) ** 2 row by row
        d2 = batch_pow(chart.distances(np.repeat(X, 3, axis=0), pts), 2).reshape(-1, 3)
        denom = d2[:, 0] - 2 * d2[:, 1] + d2[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            delta_star = np.where(denom <= 0, 0.0, 0.5 * h * (d2[:, 0] - d2[:, 2]) / denom)
        out = evolve(flow, best, np.clip(delta_star, -h, h))
        return out if np.ndim(x) > 1 else out[0]


@dataclass(frozen=True)
class GeometricSchedule:
    """Horizons t0 * ratio**k for k = 0..count-1; ratio must exceed 1."""

    t0: float
    ratio: float
    count: int

    def __post_init__(self):
        if self.ratio <= 1.0:
            raise InvalidInput("geometric schedule requires ratio > 1")
        if self.count < 2 or self.t0 <= 0:
            raise InvalidInput("schedule needs count >= 2 and t0 > 0")
        try:
            with np.errstate(over="ignore"):
                last = self.t0 * np.float64(self.ratio) ** (self.count - 1)
        except OverflowError as err:  # a count too large for a float exponent
            raise InvalidInput(str(err)) from err
        if not np.isfinite(last):
            raise InvalidInput(f"schedule's last horizon {last} is not finite")

    @property
    def horizons(self):
        return [self.t0 * self.ratio**k for k in range(self.count)]


# convergence/divergence decision thresholds of the phase classifier
CONVERGE_TOL = 1e-6
CONVERGE_RATIO = 0.7
# gaps below this count as converged-scale whatever the gap ratio: near
# machine precision the successive-gap ratio is noise
RATIO_FLOOR = 1e-10
DIVERGE_GAP_FACTOR = 10.0
DIVERGE_MONOTONE_RUN = 4
# tail gaps that stay above this absolute margin mark divergence even when
# chart distances fold on a compact attractor (unbounded drift reduced mod
# the attractor diameter is not monotone)
DIVERGE_FLOOR = 1e-3


@dataclass(frozen=True)
class Classification:
    kind: str  # "converged" | "diverged" | "inconclusive"
    limit: np.ndarray | None = None
    rate: float | None = None
    drift: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class PhaseEstimate:
    horizons: tuple
    estimates: np.ndarray
    classification: Classification


def _gap_ok(g_next: float, g_prev: float) -> bool:
    return g_next <= CONVERGE_RATIO * g_prev or g_next < RATIO_FLOOR


def _classify(chart, estimates: np.ndarray) -> Classification:
    gaps = chart.distances(estimates[1:], estimates[:-1])
    drift = {
        "gaps": gaps.tolist(),
        "first_gap": float(gaps[0]) if len(gaps) else 0.0,
        "last_gaps": gaps[-3:].tolist(),
    }
    # a NaN estimate is at distance inf, which reads as drift; it is no evidence
    if len(gaps) >= 3 and np.all(np.isfinite(estimates)):
        last3 = gaps[-3:]
        if np.all(last3 < CONVERGE_TOL) and all(
            _gap_ok(gaps[i + 1], gaps[i]) for i in range(len(gaps) - 3, len(gaps) - 1)
        ):
            positive = gaps[gaps > 0]
            rate = float(np.exp(np.mean(np.diff(np.log(positive))))) if len(positive) >= 2 else 0.0
            return Classification("converged", limit=estimates[-1], rate=rate, drift=drift)

        first = gaps[0]
        big_tail = first > 0 and np.all(last3 > DIVERGE_GAP_FACTOR * first)
        run = 1
        longest = 1
        for i in range(1, len(gaps)):
            run = run + 1 if gaps[i] > gaps[i - 1] else 1
            longest = max(longest, run)
        monotone = longest >= DIVERGE_MONOTONE_RUN
        above_floor = np.all(last3 > DIVERGE_FLOOR)
        if big_tail or monotone or above_floor:
            drift["diverged_by"] = (
                "gap_factor" if big_tail else ("monotone_growth" if monotone else "gap_floor")
            )
            return Classification("diverged", drift=drift)
    return Classification("inconclusive", drift=drift)


def estimate_phase(
    sys: FlowSystem,
    attractor: AttractorModel,
    x,
    schedule: GeometricSchedule,
) -> PhaseEstimate:
    """Estimate the asymptotic phase of a basin point over geometric horizons, in one
    batched pass, a row per horizon: evolve forward, ``nearest_point``, evolve back."""
    x = np.asarray(x, dtype=float)
    T = np.array(schedule.horizons)
    forward = evolve(sys, np.broadcast_to(x, T.shape + x.shape), T)
    estimates = evolve(attractor.restricted_flow, attractor.nearest_point(forward), -T)
    classification = _classify(sys.chart, estimates)
    return PhaseEstimate(tuple(schedule.horizons), estimates, classification)


@dataclass(frozen=True)
class PhaseReport:
    max_idempotence_violation: float
    max_restriction_violation: float
    max_equivariance_violation: float
    in_phase_decreasing: bool
    passed: bool


def verify_phase_properties(
    sys: FlowSystem,
    P: Callable,
    samples: Sequence,
    attractor_samples: Sequence,
    t_grid: Sequence[float],
    tol: float,
) -> PhaseReport:
    """Check retraction, equivariance, and the in-phase decay of a phase map.

    (i) P(P(x)) = P(x) on basin samples and P = id on attractor samples;
    (ii) P(Phi^t(x)) = Phi^t(P(x)) within tol on samples x t_grid;
    (iii) dist(Phi^t(x), Phi^t(P(x))) is eventually non-increasing along t_grid.
    A violation over no samples (or no times) is NaN, so the report fails.
    """
    chart = sys.chart
    X = np.asarray(samples, dtype=float)
    PX = np.asarray(P(X), dtype=float)
    idem = chart.distances(P(PX), PX)
    A = np.asarray(attractor_samples, dtype=float)
    restrict = chart.distances(P(A), A)

    # the samples and their images flowed by every time in one evolve, in
    # rows (samples or images, time, sample)
    times = np.asarray(t_grid, dtype=float)
    batch = np.concatenate([np.tile(X, (len(times), 1)), np.tile(PX, (len(times), 1))])
    xt, pxt = np.split(evolve(sys, batch, np.tile(np.repeat(times, len(X)), 2)), 2)
    equiv = chart.distances(P(xt), pxt)
    gaps = chart.distances(xt, pxt).reshape(len(times), len(X))
    # per sample, the gaps after the first time must not grow by more than tol
    tail = gaps[1:]
    decreasing = not np.any(tail[1:] > tail[:-1] + tol)
    idem, restrict, equiv = worst(idem), worst(restrict), worst(equiv)
    passed = idem <= tol and restrict <= tol and equiv <= tol and decreasing
    return PhaseReport(idem, restrict, equiv, decreasing, passed)
