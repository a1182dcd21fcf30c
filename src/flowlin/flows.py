"""Uniform flow abstraction over closed-form flow maps and vector fields.

A FlowSystem pairs a chart (per-coordinate wrap rules, optional quotient
identifications) with either an exact flow map or a vector field handed to
the adaptive integrator.  Angles are reduced to their canonical fundamental
domain once, after each full evolve call.

States come in batches: an ``(N, dim)`` array holds one state per row and a
single ``(dim,)`` state is the N = 1 case.  State functions (closed forms,
``t_min``, charts' identifications) read coordinates as ``x[..., i]`` and
assemble states with ``join_coords``; a closed form takes ``t`` as a scalar
or as an array broadcasting against ``x.shape[:-1]``, one time per row.  A
vector field maps coordinates to derivatives, and the integrator takes a
whole batch of its states in one loop, each row under its own step control.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import FlowlinError, InvalidInput
from .integrate import IntegrationFailure, integrate
from .linalg import row_norms, worst

__all__ = [
    "ChartDescriptor",
    "FlowSystem",
    "Trajectory",
    "TimeOutOfDomain",
    "IntegrationFailure",
    "join_coords",
    "circle_coords",
    "euclidean",
    "torus_angles",
    "polar_annulus",
    "product",
    "torus_translation",
    "evolve",
    "sample_trajectory",
    "check_group_law",
    "export_trajectory_csv",
]

TWO_PI = 2.0 * np.pi


class TimeOutOfDomain(FlowlinError):
    """Requested time lies outside the trajectory's domain of definition."""


def join_coords(*coords) -> np.ndarray:
    """States whose coordinate i is ``coords[i]``: the inverse of reading ``x[..., i]``.

    The coordinates share one shape, and the result is C-contiguous with the
    coordinates along the last axis, as ``np.stack(coords, axis=-1)`` gives,
    at a fifth of its cost on a single state.
    """
    out = np.array(coords, dtype=float)
    if out.ndim == 1:
        return out
    return np.ascontiguousarray(out.transpose(*range(1, out.ndim), 0))


def _batch_image(f: Callable, states: np.ndarray, width: int, what: str) -> np.ndarray:
    """``f(states)`` as floats, refused unless it holds one ``width`` row per state."""
    states = np.asarray(states, dtype=float)
    image, expected = np.asarray(f(states), dtype=float), states.shape[:-1] + (width,)
    if image.shape != expected:
        raise InvalidInput(f"{what} mapped states of shape {states.shape} to shape "
                           f"{image.shape}, expected {expected}; it must act row-wise on batches")
    return image


def circle_coords(ang, rho) -> np.ndarray:
    """The points rho e^{i ang} of C^k as (re, im) pairs: (..., k) angles -> (..., 2k)."""
    out = np.empty(ang.shape[:-1] + (2 * ang.shape[-1],))
    out[..., 0::2] = rho * np.cos(ang)
    out[..., 1::2] = rho * np.sin(ang)
    return out


ORBIT_LIMIT = 64  # largest identification group a chart may generate
# pairs at or below this chart distance are one point of the quotient, so
# they carry no injectivity evidence
PAIR_CUTOFF = 1e-9
# pairs per block of the injectivity margin's distance tables
PAIR_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class ChartDescriptor:
    """Coordinate chart: one wrap rule per coordinate, optional identifications.

    States come in batches: an ``(N, dim)`` array holds one state per row,
    and a single ``(dim,)`` state is the N = 1 case.  ``wraps[i]`` is None
    for an unwrapped coordinate or the period (1 or 2*pi) of an angle.
    ``positive`` names the unwrapped coordinates that are > 0 on the chart.
    ``identifications`` are chart isometries generating a finite quotient
    group (e.g. the antipodal map); each maps a batch to a batch of the same
    shape, so coordinates are read as ``x[..., i]``.  Distances are
    minimized over the whole orbit, every word in the generators.
    """

    kind: str
    wraps: tuple
    identifications: tuple = ()
    positive: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.wraps)

    def wrap(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = x.copy()
        for i, period in enumerate(self.wraps):
            if period is not None:
                out[..., i] = np.mod(out[..., i], period)
        return out

    def _identify(self, g: Callable, states: np.ndarray) -> np.ndarray:
        return self.wrap(_batch_image(g, states, self.dim, f"{self.kind}: identification"))

    @cached_property
    def _group_words(self) -> tuple:
        """Breadth-first (parent, generator) steps, one per non-identity element.

        Group elements are told apart by their images of a generic probe
        state, so the orbit of every batch uses the same words.
        """
        probe = np.mod(np.sqrt(2.0) * np.arange(1, self.dim + 1), 1.0)
        images, steps = [probe[None, :]], []
        for parent, y in enumerate(images):
            for k, g in enumerate(self.identifications):
                z = self._identify(g, y)
                if any(self._coordinate_distance(z, r)[0] <= PAIR_CUTOFF for r in images):
                    continue
                if len(images) == ORBIT_LIMIT:
                    raise FlowlinError(
                        f"{self.kind}: identifications generate more than "
                        f"{ORBIT_LIMIT} group elements; the quotient group must be finite"
                    )
                images.append(z)
                steps.append((parent, k))
        return tuple(steps)

    def orbit(self, states) -> list[np.ndarray]:
        """Quotient orbit: one wrapped copy of the states per group element, identity first."""
        reps = [self.wrap(states)]
        for parent, k in self._group_words:
            reps.append(self._identify(self.identifications[k], reps[parent]))
        return reps

    def _coordinate_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a and b are wrapped, so each |a - b| on an angle is at most its period
        d = np.abs(np.asarray(a, float) - np.asarray(b, float))
        for i, period in enumerate(self.wraps):
            if period is not None:
                d[..., i] = np.minimum(d[..., i], period - d[..., i])
        return np.sqrt(np.sum(d * d, axis=-1))

    def _min_over_orbit(self, a: np.ndarray, reps: list) -> np.ndarray:
        """Distance from the wrapped ``a`` to rows whose orbit is ``reps``; NaN gives inf."""
        best = self._coordinate_distance(a, reps[0])
        for rep in reps[1:]:
            best = np.fmin(best, self._coordinate_distance(a, rep))
        best[np.isnan(best)] = np.inf
        return best

    def distances(self, a, states) -> np.ndarray:
        """Chart distance from the state ``a`` to every row of ``states``.

        ``a`` may also be a batch broadcasting against ``states``, as ``a -
        states`` would: ``(N, 1, dim)`` against N states gives an N x N table.
        Min over wraps per coordinate and over the identification orbit of
        each row.  A row with no finite distance (a NaN state) is at
        distance inf, so it never passes for a close one.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return self._min_over_orbit(self.wrap(a), self.orbit(states))

    def distance(self, a, b) -> float:
        """Chart distance between two states."""
        return float(self.distances(a, b)[0])

    def pairwise_distances(self, states: np.ndarray) -> np.ndarray:
        """All-pairs chart distance for an (N, dim) array of states: an N x N table."""
        X = np.asarray(states, float)
        return self.distances(X[:, None, :], X)

    def injectivity_margin(self, states, images) -> float:
        """Min over pairs of states of image distance over chart distance.

        ``images`` holds one row per row of ``states``, whose orbit is taken
        once.  Pairs at chart distance <= PAIR_CUTOFF are skipped.  A NaN
        ratio is kept, so NaN evidence gives a NaN margin, and with no pair
        left the margin is NaN too: no evidence of injectivity.  Rows go in
        blocks of consecutive rows holding about PAIR_BLOCK pairs i < j: the
        block's own pairs, then the block against every later row in one
        broadcast table.  Memory stays O((N + PAIR_BLOCK) * D) for D image
        columns; time is O(N^2).
        """
        reps = self.orbit(np.atleast_2d(np.asarray(states, dtype=float)))
        Y = np.asarray(images, dtype=float)
        n = len(reps[0])
        # starts[i]: how many pairs (i', j), i' < j, have i' < i; rows lo..hi-1 hold
        # starts[hi] - starts[lo] pairs, at most PAIR_BLOCK unless hi is lo + 1
        starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, -1, -1))))
        margin, lo = np.inf, 0
        while lo < n - 1:
            hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + PAIR_BLOCK, "right")) - 1)
            iu, ju = np.triu_indices(hi - lo, 1)
            for i, j in ((lo + iu, lo + ju), ((slice(lo, hi), None), slice(hi, None))):
                d_state = self._min_over_orbit(reps[0][i], [rep[j] for rep in reps])
                apart = d_state > PAIR_CUTOFF
                # image differences only where states are apart: a skipped pair may be inf - inf
                diff = np.zeros(apart.shape + Y.shape[1:])
                np.subtract(Y[i], Y[j], out=diff, where=apart[..., None])
                # np.minimum and min keep a NaN, unlike Python's min
                ratios = row_norms(diff)[apart] / d_state[apart]
                margin = np.minimum(margin, ratios.min(initial=np.inf))
            lo = hi
        return float(margin) if margin != np.inf else np.nan


def euclidean(n: int) -> ChartDescriptor:
    return ChartDescriptor("euclidean", (None,) * n)


def torus_angles(n: int, identifications=()) -> ChartDescriptor:
    """Angles reduced mod 1."""
    return ChartDescriptor("torus_angles", (1.0,) * n, tuple(identifications))


def polar_annulus() -> ChartDescriptor:
    """(r, theta) with r > 0 unwrapped and theta reduced mod 2*pi."""
    return ChartDescriptor("polar_annulus", (None, TWO_PI), positive=(0,))


def product(*charts: ChartDescriptor) -> ChartDescriptor:
    wraps = tuple(w for c in charts for w in c.wraps)
    if any(c.identifications for c in charts):
        raise InvalidInput("product of identified charts is not supported")
    offsets = np.cumsum([0] + [c.dim for c in charts])
    positive = tuple(int(o) + i for c, o in zip(charts, offsets) for i in c.positive)
    return ChartDescriptor("product", wraps, positive=positive)


def _no_lower_bound(x) -> float:
    return -np.inf


@dataclass(frozen=True, eq=False)
class FlowSystem:
    """A flow on a chart-described state space.

    Exactly one of ``closed_form`` (map (t, x) -> x') and ``vector_field`` (map coordinates
    to dx/dt, one entry per coordinate: floats for one state, the ``(N,)`` rows of a
    ``(dim, N)`` array for a batch) must be given.  ``t_min`` bounds the domain of
    definition per state for flows that are only forward-complete.
    """

    name: str
    chart: ChartDescriptor
    closed_form: Callable | None = None
    vector_field: Callable | None = None
    t_min: Callable = _no_lower_bound

    def __post_init__(self):
        if (self.closed_form is None) == (self.vector_field is None):
            raise InvalidInput("provide exactly one of closed_form / vector_field")


def torus_translation(name: str, omega) -> FlowSystem:
    """The translation ``theta -> theta + omega t`` on the torus of angles mod 1."""
    omega = np.asarray(omega, dtype=float)
    chart = torus_angles(len(omega))
    return FlowSystem(name, chart, closed_form=lambda t, x: x + omega * np.asarray(t)[..., None])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled trajectory: strictly increasing (T,) times and (T, dim) states, all finite."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or x.shape[0] != t.shape[0]:
            raise InvalidInput(f"times (T,) and states (T, dim) do not match: {t.shape}, {x.shape}")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise InvalidInput("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
            raise InvalidInput("trajectory entries must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)


# beyond 2**52 a float time keeps no bit below 1: theta + t forgets theta
MAX_TIME = 2.0**52


def _first(bad: np.ndarray) -> tuple[tuple, str]:
    """Index of the first True entry of ``bad`` and its " (row ...)" label."""
    row = np.unravel_index(np.argmax(bad), bad.shape)
    return row, f" (row {row[0] if len(row) == 1 else row})" if bad.ndim else ""


def _check_domain(sys: FlowSystem, x: np.ndarray, t) -> None:
    """Raise InvalidInput when a state has not ``chart.dim`` coordinates or a
    row is <= 0 on a positive coordinate, IntegrationFailure when a row's time
    is not finite, and TimeOutOfDomain when its size exceeds MAX_TIME or it is
    at or below its bound, whichever twin ``sys`` is.  NaN rows go to the flow."""
    if x.shape[-1:] != (sys.chart.dim,):
        raise InvalidInput(f"{sys.name}: a state of the {sys.chart.kind} chart has "
                           f"{sys.chart.dim} coordinates, got shape {x.shape}")
    for i in sys.chart.positive:
        if (off := x[..., i] <= 0).any():
            row, where = _first(off)
            raise InvalidInput(
                f"{sys.name}: coordinate x{i + 1} of the {sys.chart.kind} chart must be > 0, "
                f"got {x[..., i][row]:.6g}{where}"
            )
    bad = ~(np.abs(t) <= MAX_TIME)  # a NaN time fails the comparison too
    beyond = bad.any()
    if beyond and not np.all(np.isfinite(t)):
        bad = ~np.isfinite(t)  # a time that is not finite is named first
    elif not beyond and sys.t_min is not _no_lower_bound:
        bound = np.asarray(sys.t_min(x))
        bad = np.isfinite(bound) & (t <= bound)
    if not bad.any():
        return
    row, where = _first(bad)
    t_row = np.broadcast_to(t, bad.shape)[row]
    if not np.isfinite(t_row):
        raise IntegrationFailure(f"end time {t_row} is not finite{where}")
    if beyond:
        raise TimeOutOfDomain(f"{sys.name}: |t| = {abs(t_row):.6g} beyond time bound 2**52{where}")
    raise TimeOutOfDomain(
        f"{sys.name}: t = {t_row:.6g} at or below "
        f"domain bound {np.broadcast_to(bound, bad.shape)[row]:.6g}{where}"
    )


def evolve(sys: FlowSystem, x, t) -> np.ndarray:
    """Flow each state forward (or backward) by its time, wrapped to the chart.

    ``x`` is one ``(dim,)`` state or an ``(N, dim)`` batch; ``t`` is a scalar
    or one time per row.  Every row must be > 0 on the chart's ``positive``
    coordinates, at t == 0 too, with a finite time at most MAX_TIME in size
    and above ``sys.t_min``; a row with t == 0 then comes back as ``wrap(x)``
    exactly.  A vector field integrates
    the whole batch in one call, each row under its own step control; a
    row's result is its interpolant.
    """
    x = np.asarray(x, dtype=float)
    # np.ndim costs microseconds on a Python float, the common single-state call
    per_row = not isinstance(t, float) and np.ndim(t) > 0
    if per_row:
        try:
            t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])
        except ValueError:
            raise InvalidInput(f"{sys.name}: times of shape {np.shape(t)} do not fit "
                               f"states of shape {x.shape}") from None
    _check_domain(sys, x, t)
    if not per_row and t == 0.0:
        return sys.chart.wrap(x)
    if sys.closed_form is not None:
        # extreme times may legitimately saturate to inf; callers gate on it
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(sys.closed_form(t, x), dtype=float)
        if per_row:
            out = np.where((t == 0.0)[..., None], x, out)
        return sys.chart.wrap(out)
    # the interpolant at t, through the last accepted step of each row
    return sys.chart.wrap(integrate(sys.vector_field, x, 0.0, t)(t))


def sample_trajectory(sys: FlowSystem, x, t_grid) -> Trajectory:
    """Sample the trajectory through the one ``(dim,)`` state x on an increasing time grid.

    Closed-form systems are evaluated in one batched evolve call; vector-field
    systems use a single adaptive pass per time direction with dense-output
    interpolation.  A non-finite or not strictly increasing grid raises
    InvalidInput on both before any integration, and a grid time at or below
    the domain bound raises TimeOutOfDomain naming its grid row.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.all(np.isfinite(t_grid)):
        raise InvalidInput(f"{sys.name}: trajectory times must be finite")
    if not np.all(np.diff(t_grid) > 0):
        raise InvalidInput("times must be strictly increasing")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidInput(f"{sys.name}: a trajectory starts at one state, got shape {x.shape}")
    states = np.broadcast_to(x, t_grid.shape + x.shape)
    if sys.closed_form is not None:
        return Trajectory(t_grid, evolve(sys, states, t_grid))
    _check_domain(sys, states, t_grid)
    states = states.copy()  # rows at t == 0 stay at x
    ends = np.max(t_grid, initial=0.0), np.min(t_grid, initial=0.0)
    for side, end in zip((t_grid > 0, t_grid < 0), ends):
        if side.any():
            dense = integrate(sys.vector_field, x, 0.0, float(end))
            for i in np.flatnonzero(side):
                states[i] = dense(float(t_grid[i]))
    return Trajectory(t_grid, sys.chart.wrap(states))


@dataclass(frozen=True)
class GroupLawReport:
    max_violation: float
    n_checked: int
    failures: tuple
    passed: bool


def check_group_law(sys: FlowSystem, samples: Sequence, tol: float) -> GroupLawReport:
    """Verify evolve(evolve(x, s), t) == evolve(x, s + t) on sample triples.

    All samples go through three batched evolve calls.  Evolve errors are
    collected, not raised: when the batch fails, each sample runs on its own
    (a batch row repeats its solo run bit for bit), and a failing sample
    records its own error.  With no sample checked, the violation is NaN and
    the report fails: no evidence.
    """

    def violations(xs, s, t):
        two_step = evolve(sys, evolve(sys, xs, s), t)
        return sys.chart.distances(two_step, evolve(sys, xs, s + t))

    found, failures = [np.empty(0)], []
    if len(samples):
        xs, s, t = (np.asarray(c, dtype=float) for c in zip(*samples))
        try:
            found.append(violations(xs, s, t))
        except FlowlinError:
            for i, sample in enumerate(zip(xs, s, t)):
                try:
                    found.append(violations(*sample))
                except FlowlinError as err:
                    failures.append((i, repr(err)))
    found = np.concatenate(found)
    violation = worst(found)
    return GroupLawReport(
        max_violation=violation,
        n_checked=len(found),
        failures=tuple(failures),
        passed=(violation <= tol and not failures),
    )


def export_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header t,x1,...,xn and 17 significant digits."""
    rows = np.column_stack([traj.times, traj.states])
    header = ",".join(["t", *(f"x{i}" for i in range(1, rows.shape[1]))])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")
