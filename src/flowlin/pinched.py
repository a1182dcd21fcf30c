"""Quasiperiodic pinched torus families realized inside explicit linear flows.

A family is cut out of T^n by an integer homomorphism M: T^n -> T^m, a base
region S in T^m, and per-factor pinch loci C_j in S over which the j-th circle
factor collapses.  Only a fiber circle (a zero column of M) may collapse, so
collapsing it leaves the base point M theta where it is.  The canonical
embedding z_j = dist(M theta, C_j) e^{2 pi i theta_j}, w = torus embedding of
M theta, conjugates the kernel-direction translation flow to a block-rotation
linear flow exactly, because the base point never moves.

Base regions and loci are finite unions of closed coordinate-arc products
with exact rational endpoints, so membership is decidable.

Family points are flow states on ``torus_angles(n + m)``, one row
``[theta | base]`` per point: the canonical angles theta, with the collapsed
coordinates at 0, then the base point M theta mod 1.  ``spec.system`` moves
them by the translation along (omega, 0), which leaves the base columns
where they are, followed by the collapse.  A single point is the
``(n + m,)`` case.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import FlowlinError, InvalidInput
from .flows import TWO_PI, FlowSystem, circle_coords, evolve, torus_translation
from .linalg import block_diag, expm_apply, least, row_norms, worst

__all__ = [
    "ArcSet",
    "PinchedTorusSpec",
    "NotInFamily",
    "kernel_direction",
    "make_point",
    "canonical_embedding",
    "embedding_generator",
    "verify_family",
    "load_spec",
]

# largest accepted ||F(Phi^t p) - e^{Bt} F(p)|| of the canonical embedding
LINEARITY_TOL = 1e-10
MIN_SAMPLES = 100


class NotInFamily(FlowlinError):
    """Base point lies outside the family's base region S."""


class ArcSet:
    """Finite union of products of closed arcs on T^m, rational endpoints.

    Boxes are tuples of (lo, hi) Fraction pairs with 0 <= lo <= hi <= 1;
    lo == hi describes a single point in that coordinate.  ``lo`` and ``hi``
    hold their float values, shape (boxes, m), for the batched membership
    and distance tests, which take points of shape (..., m).
    """

    def __init__(self, boxes, m: int):
        parsed = []
        for box in boxes:
            if len(box) != m:
                raise InvalidInput(f"box must have {m} arcs, got {len(box)}")
            arcs = []
            for lo, hi in box:
                lo, hi = Fraction(lo), Fraction(hi)
                if not (0 <= lo <= hi <= 1):
                    raise InvalidInput(f"arc [{lo}, {hi}] not within [0, 1]")
                arcs.append((lo, hi))
            parsed.append(tuple(arcs))
        self.boxes = tuple(parsed)
        self.m = m
        ends = np.array(self.boxes, dtype=float).reshape(len(self.boxes), m, 2)
        self.lo, self.hi = ends[..., 0], ends[..., 1]  # (boxes, m)

    @property
    def empty(self) -> bool:
        return len(self.boxes) == 0

    def _arcs(self, points):
        """Points of T^m reduced to [0, 1), shaped (..., 1, m) against the boxes."""
        x = np.mod(np.asarray(points, dtype=float), 1.0)[..., None, :]
        return x, (self.lo <= x) & (x <= self.hi)

    def contains(self, points) -> np.ndarray:
        """Membership of each point of T^m, shape (..., m) -> (...)."""
        x, inside = self._arcs(points)
        # arcs touching 1 wrap through 0 == 1
        inside |= (self.hi == 1.0) & (x == 0.0)
        return np.any(np.all(inside, axis=-1), axis=-1)

    def distance(self, points) -> np.ndarray:
        """Product-metric circle distance from each point of T^m to the set, (..., m) -> (...)."""
        if self.empty:
            raise InvalidInput("distance to the empty set is undefined")
        x, inside = self._arcs(points)
        to_lo, to_hi = np.abs(x - self.lo), np.abs(x - self.hi)
        d = np.minimum(np.minimum(to_lo, 1.0 - to_lo), np.minimum(to_hi, 1.0 - to_hi))
        d = np.where(inside, 0.0, d)
        # squares summed coordinate after coordinate, in order
        total = sum(dk * dk for dk in np.moveaxis(d, -1, 0))
        return np.sqrt(np.min(total, axis=-1))

    def subset_of(self, other: "ArcSet") -> bool:
        """Conservative containment: every box fits inside a single box of other."""
        for box in self.boxes:
            if not any(
                all(olo <= lo and hi <= ohi for (lo, hi), (olo, ohi) in zip(box, obox))
                for obox in other.boxes
            ):
                return False
        return True


def _rref(rows: list[list[Fraction]]):
    rows = [list(r) for r in rows]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _integer_nullspace(M: np.ndarray) -> list[tuple[int, ...]]:
    m, n = M.shape
    rows = [[Fraction(int(M[i, j])) for j in range(n)] for i in range(m)]
    rref, pivots = _rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        denom = int(np.lcm.reduce([v.denominator for v in vec]))
        ints = [int(v * denom) for v in vec]
        g = int(np.gcd.reduce([abs(v) for v in ints if v != 0]))
        ints = [v // g for v in ints]
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            ints = [-v for v in ints]
        basis.append(tuple(ints))
    return basis


def kernel_direction(M) -> tuple:
    """The default flow direction of the homomorphism matrix as omega terms.

    One ``(prime, rational vector)`` term per vector of the exact integer
    kernel basis of M, with square roots of the first primes as scales, so
    the within-fiber flow is quasiperiodic.  M @ vector = 0 holds in exact
    arithmetic per term (the float M @ omega cancels to rounding only).  A
    trivial kernel gives no terms: omega = 0, a stationary flow.
    """
    basis = _integer_nullspace(np.asarray(M, dtype=int))
    primes = (k for k in itertools.count(2) if all(k % d for d in range(2, k)))
    return tuple((prime, tuple(Fraction(v) for v in vec)) for prime, vec in zip(primes, basis))


@dataclass(frozen=True, eq=False)
class PinchedTorusSpec:
    """Integer homomorphism, base region, pinch loci, and flow direction."""

    n: int
    m: int
    M: np.ndarray
    base_region: ArcSet
    pinch_loci: tuple  # n ArcSets (empty allowed)
    omega_terms: tuple  # (prime, rational coefficient vector) pairs

    def __post_init__(self):
        M = np.asarray(self.M, dtype=int)
        if M.shape != (self.m, self.n):
            raise InvalidInput(f"M must be {self.m}x{self.n}, got {M.shape}")
        if len(self.pinch_loci) != self.n:
            raise InvalidInput(f"need {self.n} pinch loci, got {len(self.pinch_loci)}")
        object.__setattr__(self, "M", M)
        for prime, vec in self.omega_terms:
            residual = M @ np.array([Fraction(v) for v in vec], dtype=object)
            if any(v != 0 for v in residual):
                raise InvalidInput(f"omega term for prime {prime} is not in ker(M)")
        for j, locus in enumerate(self.pinch_loci):
            if locus.empty:
                continue
            if not locus.subset_of(self.base_region):
                raise InvalidInput(f"pinch locus C_{j + 1} is not contained in S")
            # collapsing theta_j must leave the base point M theta where it is
            if M[:, j].any():
                raise InvalidInput(
                    f"pinch locus C_{j + 1} collapses factor {j + 1}, "
                    "whose column of M is not zero"
                )

    @cached_property
    def omega(self) -> np.ndarray:
        """The flow direction: sum of sqrt(prime) * vector over ``omega_terms``."""
        omega = np.zeros(self.n)
        for prime, vec in self.omega_terms:
            omega = omega + np.sqrt(float(prime)) * np.array([float(v) for v in vec])
        return omega

    @cached_property
    def system(self) -> FlowSystem:
        """The flow of family points: translation along (omega, 0), then the collapse."""
        shift = torus_translation("pinched", np.concatenate([self.omega, np.zeros(self.m)]))
        return replace(shift, closed_form=lambda t, X: _collapse(self, shift.closed_form(t, X)))


def make_spec(n, m, M, base_boxes, loci_boxes, omega_terms=None) -> PinchedTorusSpec:
    """Build a spec; omega defaults to the prime-mixed kernel direction."""
    base = ArcSet(base_boxes, m)
    loci = tuple(ArcSet(boxes, m) for boxes in loci_boxes)
    if omega_terms is None:
        terms = kernel_direction(M)
    else:
        terms = tuple(
            (int(prime), tuple(Fraction(v) for v in vec)) for prime, vec in omega_terms
        )
    return PinchedTorusSpec(
        n=n, m=m, M=np.asarray(M, dtype=int), base_region=base,
        pinch_loci=loci, omega_terms=terms,
    )


def make_point(spec: PinchedTorusSpec, theta):
    """Family points ``[theta | base]`` of raw angles ``theta`` (N, n), as (N, n + m) rows.

    Raises InvalidInput unless theta holds n finite angles on its last axis, and NotInFamily,
    naming the first offending base point, if some M theta mod 1 lies outside the base region.
    A base lies in [0, 1), where ``evolve`` keeps it bit for bit: the second mod maps the 1.0
    that a tiny negative M theta rounds to onto 0.0, as the chart's wrap would.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (spec.n,):
        raise InvalidInput(f"a family point takes {spec.n} angles theta, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise InvalidInput(f"angles theta must be finite, got {theta[~np.isfinite(theta)][0]}")
    theta = np.mod(theta, 1.0)
    base = np.mod(np.mod(theta @ spec.M.T, 1.0), 1.0)
    outside = ~spec.base_region.contains(base)
    if np.any(outside):
        raise NotInFamily(f"base point {base[outside][0]} outside the base region")
    return _collapse(spec, np.concatenate([theta, base], axis=-1))


def _collapse(spec: PinchedTorusSpec, X) -> np.ndarray:
    """Rows ``[theta | base]`` with theta_j at 0 wherever the base lies in C_j."""
    base = X[..., spec.n:]
    mask = np.stack([locus.contains(base) for locus in spec.pinch_loci], axis=-1)
    return np.concatenate([np.where(mask, 0.0, X[..., :spec.n]), base], axis=-1)


def canonical_embedding(spec: PinchedTorusSpec, X) -> np.ndarray:
    """Product-polar-coordinate embedding into R^{2(n+m)} (C^n x C^m), one row per point.

    ``circle_coords(2 pi X, rho)``, rho_j = dist(base, C_j) on a pinched factor
    and 1 elsewhere.  Nothing is wrapped or collapsed first: a raw row embeds
    the representative it names."""
    X = np.asarray(X, dtype=float)
    rho = np.ones(X.shape)
    for j, locus in enumerate(spec.pinch_loci):
        if not locus.empty:
            rho[..., j] = locus.distance(X[..., spec.n:])
    return circle_coords(TWO_PI * X, rho)


def embedding_generator(spec: PinchedTorusSpec) -> np.ndarray:
    """Block rotations at 2*pi*omega_j on the z factors, zero on the base factors."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    blocks = [TWO_PI * w * J for w in spec.omega]
    blocks.append(np.zeros((2 * spec.m, 2 * spec.m)))
    return block_diag(*blocks)


def sample_points(spec: PinchedTorusSpec, count: int, rng):
    """Rejection-sample family points (uniform theta conditioned on the base region).

    Each round draws as many rows as are still needed, so the stream of
    draws is the same as one ``rng.random(n)`` per attempt.
    """
    kept = np.empty((0, spec.n))
    budget = 1000 * count
    while len(kept) < count:
        if budget == 0:
            raise InvalidInput("rejection sampling failed; base region too small")
        theta = rng.random((min(count - len(kept), budget), spec.n))
        budget -= len(theta)
        inside = spec.base_region.contains(theta @ spec.M.T)
        kept = np.concatenate([kept, theta[inside]])
    return make_point(spec, kept)


@dataclass(frozen=True)
class FamilyReport:
    max_linearity_residual: float
    quotient_consistent: bool
    min_separation: float
    max_embedding_radius: float
    n_samples: int
    passed: bool


def verify_family(
    spec: PinchedTorusSpec,
    n_samples: int = 200,
    *,
    rng: np.random.Generator,
) -> FamilyReport:
    """Sampled checks: exact flow linearity, quotient well-definedness, separation.
    No evidence fails: a pinch locus with no fiber point to try is not quotient
    consistent, and with no two distinct points the separation is NaN."""
    if n_samples < MIN_SAMPLES:
        raise InvalidInput(f"need at least {MIN_SAMPLES} samples")
    points = sample_points(spec, n_samples, rng)
    B = embedding_generator(spec)

    times = rng.uniform(-5.0, 5.0, n_samples)
    embeds = canonical_embedding(spec, points)
    lhs = canonical_embedding(spec, evolve(spec.system, points, times))
    residual = worst(row_norms(lhs - expm_apply(B, times, embeds)))

    # quotient consistency: raw representatives that differ only in collapsed
    # coordinates must embed identically (their z_j factors carry rho_j = 0)
    consistent = True
    for locus_index, locus in enumerate(spec.pinch_loci):
        tried = False
        for box in locus.boxes:
            mid = [(lo + hi) / 2 for lo, hi in box]
            theta0 = _solve_fiber(spec, mid)
            if theta0 is None:
                continue
            tried = True
            # trial i sets the collapsed angle to a_i in raw[0] and b_i in raw[1],
            # with (a_i, b_i) the draws of the i-th of ten rng.random(2) calls;
            # that angle never enters M theta, so every trial's base is the
            # box midpoint, exactly: it may be 1.0, so no row is wrapped
            raw = np.tile(np.concatenate([theta0, np.array(mid, dtype=float)]), (2, 10, 1))
            raw[..., locus_index] = rng.random((10, 2)).T
            trials = np.concatenate([raw, _collapse(spec, raw[:1])])
            ea, eb, e_canon = canonical_embedding(spec, trials)
            if not (np.all(ea == eb) and np.all(e_canon == ea)):
                consistent = False
        if not (locus.empty or tried):
            consistent = False

    # each point is compared with the next 39, one offset k at a time over the
    # whole batch
    seps = []
    for k in range(1, 40):
        a, b = slice(None, n_samples - k), slice(k, None)
        apart = ~np.all(points[a] == points[b], axis=1)
        seps.append(row_norms(embeds[a][apart] - embeds[b][apart]))
    min_sep = least(np.concatenate(seps))

    radius = float(np.max(np.linalg.norm(embeds.reshape(n_samples, -1, 2), axis=2)))
    passed = residual <= LINEARITY_TOL and consistent and min_sep > 0.0
    return FamilyReport(residual, consistent, min_sep, radius, n_samples, passed)


def _solve_fiber(spec: PinchedTorusSpec, base: list[Fraction]):
    """A rational theta with M theta congruent to the exact base point, if any."""
    for offsets in itertools.product((0, -1, 1), repeat=spec.m):
        target = [b + o for b, o in zip(base, offsets)]
        rows = [
            [Fraction(int(spec.M[i, j])) for j in range(spec.n)] + [target[i]]
            for i in range(spec.m)
        ]
        rref, pivots = _rref(rows)
        if any(pc >= spec.n for pc in pivots):
            continue  # pivot in the augmented column: inconsistent system
        theta = [Fraction(0)] * spec.n
        for r, pc in enumerate(pivots):
            theta[pc] = rref[r][spec.n]
        return np.mod(np.array([float(v) for v in theta]), 1.0)
    return None


# --- JSON spec files ----------------------------------------------------------


def load_spec(path) -> PinchedTorusSpec:
    """Read a spec from JSON: {n, m, M, S, C, omega?} with rational endpoints."""
    with open(path) as fh:
        data = json.load(fh)
    omega_terms = None
    if data.get("omega"):
        omega_terms = [(term["prime_scale"], term["rational"]) for term in data["omega"]]
    return make_spec(
        n=int(data["n"]),
        m=int(data["m"]),
        M=data["M"],
        base_boxes=data["S"],
        loci_boxes=data["C"],
        omega_terms=omega_terms,
    )
