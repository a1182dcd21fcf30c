"""Quasiperiodic pinched torus families realized inside explicit linear flows.

A family is cut out of T^n by an integer homomorphism M: T^n -> T^m, a base
region S in T^m, and per-factor pinch loci C_j in S over which the j-th circle
factor collapses.  The canonical embedding z_j = dist(M theta, C_j) e^{2 pi i theta_j},
w = torus embedding of M theta, conjugates the kernel-direction translation flow
to a block-rotation linear flow exactly, because the base point never moves.

Base regions and loci are finite unions of closed coordinate-arc products
with exact rational endpoints, so membership is decidable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import FlowlinError
from .flows import torus_angles
from .linalg import LinearGenerator, block_diag, matrix_exp

__all__ = [
    "ArcSet",
    "PinchedTorusSpec",
    "PinchedPoint",
    "KernelDirection",
    "NotInFamily",
    "kernel_direction",
    "make_point",
    "flow",
    "canonical_embedding",
    "embedding_generator",
    "verify_family",
    "load_spec",
    "spec_to_dict",
]

TWO_PI = 2.0 * np.pi
# largest accepted ||F(Phi^t p) - e^{Bt} F(p)|| of the canonical embedding
LINEARITY_TOL = 1e-10
_PRIMES = (2, 3, 5, 7, 11, 13)


class NotInFamily(FlowlinError):
    """Base point lies outside the family's base region S."""


class ArcSet:
    """Finite union of products of closed arcs on T^m, rational endpoints.

    Boxes are tuples of (lo, hi) Fraction pairs with 0 <= lo <= hi <= 1;
    lo == hi describes a single point in that coordinate.
    """

    def __init__(self, boxes, m: int):
        parsed = []
        for box in boxes:
            if len(box) != m:
                raise ValueError(f"box must have {m} arcs, got {len(box)}")
            arcs = []
            for lo, hi in box:
                lo, hi = Fraction(lo), Fraction(hi)
                if not (0 <= lo <= hi <= 1):
                    raise ValueError(f"arc [{lo}, {hi}] not within [0, 1]")
                arcs.append((lo, hi))
            parsed.append(tuple(arcs))
        self.boxes = tuple(parsed)
        self.m = m

    @property
    def empty(self) -> bool:
        return len(self.boxes) == 0

    def contains(self, point: np.ndarray) -> bool:
        point = np.mod(np.asarray(point, dtype=float), 1.0)
        for box in self.boxes:
            ok = True
            for x, (lo, hi) in zip(point, box):
                inside = float(lo) <= x <= float(hi)
                # arcs touching both endpoints of the circle wrap through 0 == 1
                if lo == 0 and x == 0.0:
                    inside = True
                if hi == 1 and x == 0.0:
                    inside = True
                if not inside:
                    ok = False
                    break
            if ok:
                return True
        return False

    def distance(self, point: np.ndarray) -> float:
        """Product-metric circle distance from a point of T^m to the set."""
        if self.empty:
            raise ValueError("distance to the empty set is undefined")
        point = np.mod(np.asarray(point, dtype=float), 1.0)
        best = np.inf
        for box in self.boxes:
            total = 0.0
            for x, (lo, hi) in zip(point, box):
                flo, fhi = float(lo), float(hi)
                if flo <= x <= fhi:
                    d = 0.0
                else:
                    d = min(
                        min(abs(x - flo), 1.0 - abs(x - flo)),
                        min(abs(x - fhi), 1.0 - abs(x - fhi)),
                    )
                total += d * d
            best = min(best, total)
        return float(np.sqrt(best))

    def subset_of(self, other: "ArcSet") -> bool:
        """Conservative containment: every box fits inside a single box of other."""
        for box in self.boxes:
            if not any(
                all(olo <= lo and hi <= ohi for (lo, hi), (olo, ohi) in zip(box, obox))
                for obox in other.boxes
            ):
                return False
        return True

    def to_json(self):
        return [[[str(lo), str(hi)] for lo, hi in box] for box in self.boxes]


@dataclass(frozen=True, eq=False)
class KernelDirection:
    basis: tuple  # integer kernel basis vectors of M
    omega: np.ndarray
    omega_terms: tuple  # per basis vector: (prime, rational coefficient vector)
    zero_kernel: bool


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


def kernel_direction(M) -> KernelDirection:
    """Exact rational kernel of the homomorphism matrix with a default flow direction.

    The default omega mixes the kernel basis with square roots of distinct
    primes, so the within-fiber flow is quasiperiodic.  M @ b_i = 0 holds in
    exact integer arithmetic per basis vector (the float M @ omega cancels to
    rounding only).  A trivial kernel is reported through the ``zero_kernel``
    flag with omega = 0 (stationary flow).
    """
    M = np.asarray(M, dtype=int)
    basis = _integer_nullspace(M)
    if not basis:
        return KernelDirection((), np.zeros(M.shape[1]), (), True)
    omega = np.zeros(M.shape[1])
    terms = []
    for prime, vec in zip(_PRIMES, basis):
        omega = omega + np.sqrt(float(prime)) * np.array(vec, dtype=float)
        terms.append((prime, tuple(Fraction(v) for v in vec)))
    return KernelDirection(tuple(basis), omega, tuple(terms), False)


@dataclass(frozen=True, eq=False)
class PinchedTorusSpec:
    """Integer homomorphism, base region, pinch loci, and flow direction."""

    n: int
    m: int
    M: np.ndarray
    base_region: ArcSet
    pinch_loci: tuple  # n ArcSets (empty allowed)
    omega: np.ndarray
    omega_terms: tuple  # (prime, rational coefficient vector) pairs

    def __post_init__(self):
        M = np.asarray(self.M, dtype=int)
        if M.shape != (self.m, self.n):
            raise ValueError(f"M must be {self.m}x{self.n}, got {M.shape}")
        if len(self.pinch_loci) != self.n:
            raise ValueError(f"need {self.n} pinch loci, got {len(self.pinch_loci)}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        for prime, vec in self.omega_terms:
            residual = M @ np.array([Fraction(v) for v in vec], dtype=object)
            if any(v != 0 for v in residual):
                raise ValueError(f"omega term for prime {prime} is not in ker(M)")
        for j, locus in enumerate(self.pinch_loci):
            if not locus.empty and not locus.subset_of(self.base_region):
                raise ValueError(f"pinch locus C_{j + 1} is not contained in S")


def make_spec(n, m, M, base_boxes, loci_boxes, omega_terms=None) -> PinchedTorusSpec:
    """Build a spec; omega defaults to the prime-mixed kernel direction."""
    base = ArcSet(base_boxes, m)
    loci = tuple(ArcSet(boxes, m) for boxes in loci_boxes)
    if omega_terms is None:
        kd = kernel_direction(M)
        omega, terms = kd.omega, kd.omega_terms
    else:
        terms = tuple(
            (int(prime), tuple(Fraction(v) for v in vec)) for prime, vec in omega_terms
        )
        omega = np.zeros(n)
        for prime, vec in terms:
            omega = omega + np.sqrt(float(prime)) * np.array([float(v) for v in vec])
    return PinchedTorusSpec(
        n=n, m=m, M=np.asarray(M, dtype=int), base_region=base,
        pinch_loci=loci, omega=omega, omega_terms=terms,
    )


@dataclass(frozen=True, eq=False)
class PinchedPoint:
    """Canonical representative: collapsed coordinates are pinned to zero.

    The base point M theta mod 1 is stored once and kept exactly fixed by the
    flow (omega lies in the kernel of M), so the collapse mask never changes.
    """

    theta: np.ndarray
    base: np.ndarray
    collapsed_mask: tuple


def _canonical_theta(theta: np.ndarray, mask) -> np.ndarray:
    out = np.mod(np.asarray(theta, dtype=float), 1.0)
    for j, collapsed in enumerate(mask):
        if collapsed:
            out[j] = 0.0
    return out


def make_point(spec: PinchedTorusSpec, theta) -> PinchedPoint:
    theta = np.mod(np.asarray(theta, dtype=float), 1.0)
    base = np.mod(spec.M @ theta, 1.0)
    if not spec.base_region.contains(base):
        raise NotInFamily(f"base point {base} outside the base region")
    mask = tuple(
        (not locus.empty) and locus.contains(base) for locus in spec.pinch_loci
    )
    return PinchedPoint(_canonical_theta(theta, mask), base, mask)


def flow(spec: PinchedTorusSpec, p: PinchedPoint, t: float) -> PinchedPoint:
    """Translate theta by omega * t; the base and collapse mask are invariant."""
    theta = np.mod(p.theta + spec.omega * t, 1.0)
    return PinchedPoint(_canonical_theta(theta, p.collapsed_mask), p.base, p.collapsed_mask)


def _embed_parts(spec: PinchedTorusSpec, theta: np.ndarray, base: np.ndarray) -> np.ndarray:
    out = np.empty(2 * (spec.n + spec.m))
    for j in range(spec.n):
        locus = spec.pinch_loci[j]
        rho = 1.0 if locus.empty else locus.distance(base)
        ang = TWO_PI * theta[j]
        out[2 * j] = rho * np.cos(ang)
        out[2 * j + 1] = rho * np.sin(ang)
    for k in range(spec.m):
        ang = TWO_PI * base[k]
        out[2 * spec.n + 2 * k] = np.cos(ang)
        out[2 * spec.n + 2 * k + 1] = np.sin(ang)
    return out


def canonical_embedding(spec: PinchedTorusSpec, p: PinchedPoint) -> np.ndarray:
    """Product-polar-coordinate embedding into R^{2(n+m)} (C^n x C^m)."""
    return _embed_parts(spec, p.theta, p.base)


def embedding_generator(spec: PinchedTorusSpec) -> LinearGenerator:
    """Block rotations at 2*pi*omega_j on the z factors, zero on the base factors."""
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    blocks = [TWO_PI * w * J for w in spec.omega]
    blocks.append(np.zeros((2 * spec.m, 2 * spec.m)))
    return LinearGenerator(block_diag(*blocks))


def sample_points(spec: PinchedTorusSpec, count: int, rng) -> list[PinchedPoint]:
    """Rejection-sample family points (uniform theta conditioned on the base region)."""
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValueError("rejection sampling failed; base region too small")
        theta = rng.random(spec.n)
        try:
            points.append(make_point(spec, theta))
        except NotInFamily:
            continue
    return points


@dataclass(frozen=True)
class FamilyReport:
    max_linearity_residual: float
    quotient_consistent: bool
    min_separation: float
    min_separation_ratio: float
    max_embedding_radius: float
    n_samples: int
    passed: bool


def verify_family(
    spec: PinchedTorusSpec,
    n_samples: int = 200,
    rng=None,
) -> FamilyReport:
    """Sampled checks: exact flow linearity, quotient well-definedness, separation."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    rng = rng or np.random.default_rng(3)
    points = sample_points(spec, n_samples, rng)
    B = embedding_generator(spec)

    residuals = []
    for p in points:
        t = float(rng.uniform(-5.0, 5.0))
        lhs = canonical_embedding(spec, flow(spec, p, t))
        rhs = matrix_exp(B, t) @ canonical_embedding(spec, p)
        residuals.append(np.linalg.norm(lhs - rhs))
    worst = float(np.max(residuals, initial=0.0))

    # quotient consistency: raw representatives that differ only in collapsed
    # coordinates must embed identically (their z_j factors carry rho_j = 0)
    consistent = True
    for locus_index, locus in enumerate(spec.pinch_loci):
        if locus.empty:
            continue
        for box in locus.boxes:
            base_target = np.array([float((lo + hi) / 2) for lo, hi in box])
            theta0 = _solve_fiber(spec, base_target)
            if theta0 is None:
                continue
            for _ in range(10):
                a, b = rng.random(2)
                ta, tb = theta0.copy(), theta0.copy()
                ta[locus_index], tb[locus_index] = a, b
                pa, pb = make_point(spec, ta), make_point(spec, tb)
                if not pa.collapsed_mask[locus_index]:
                    continue  # fiber solve missed the locus in floating point
                ea = _embed_parts(spec, np.mod(ta, 1.0), pa.base)
                eb = _embed_parts(spec, np.mod(tb, 1.0), pb.base)
                if not (
                    np.array_equal(ea, eb)
                    and np.array_equal(canonical_embedding(spec, pa), ea)
                ):
                    consistent = False

    embeds = np.array([canonical_embedding(spec, p) for p in points])
    flat = embeds.reshape(len(points), -1)
    thetas = np.array([p.theta for p in points])
    bases = np.array([p.base for p in points])
    # torus distance on canonical coordinates; only an exact quotient metric
    # away from the pinch loci, so the ratio is a probe there
    torus = torus_angles(spec.n)
    min_sep = np.inf
    min_ratio = np.inf
    for i in range(len(points)):
        window = slice(i + 1, min(i + 40, len(points)))
        same = np.all(thetas[window] == thetas[i], axis=1) & np.all(
            bases[window] == bases[i], axis=1
        )
        diff = flat[i] - flat[window][~same]
        sep = np.sqrt(np.vecdot(diff, diff))
        # np.min keeps a NaN separation, so the `> 0` gate below fails on it
        min_sep = float(np.min(sep, initial=min_sep))
        dist = torus.distances(thetas[i], thetas[window][~same])
        min_ratio = float(np.min(sep[dist > 1e-12] / dist[dist > 1e-12], initial=min_ratio))

    radius = float(np.max(np.linalg.norm(embeds.reshape(len(points), -1, 2), axis=2)))
    passed = worst <= LINEARITY_TOL and consistent and min_sep > 0.0
    return FamilyReport(worst, consistent, min_sep, min_ratio, radius, len(points), passed)


def _solve_fiber(spec: PinchedTorusSpec, base: np.ndarray):
    """A rational theta with M theta congruent to the target base point, if any."""
    fracs = [Fraction(v).limit_denominator(10**6) for v in base]
    for offsets in _integer_offsets(spec.m):
        target = [f + o for f, o in zip(fracs, offsets)]
        rows = [
            [Fraction(int(spec.M[i, j])) for j in range(spec.n)] + [target[i]]
            for i in range(spec.m)
        ]
        rref, pivots = _rref(rows)
        if any(pc >= spec.n for pc in pivots):
            continue  # pivot in the augmented column: inconsistent system
        if any(
            all(row[c] == 0 for c in range(spec.n)) and row[spec.n] != 0 for row in rref
        ):
            continue
        theta = [Fraction(0)] * spec.n
        for r, pc in enumerate(pivots):
            theta[pc] = rref[r][spec.n]
        return np.mod(np.array([float(v) for v in theta]), 1.0)
    return None


def _integer_offsets(m: int):
    from itertools import product as iproduct

    return iproduct((0, -1, 1), repeat=m)


# --- JSON spec files ----------------------------------------------------------


def spec_to_dict(spec: PinchedTorusSpec) -> dict:
    return {
        "n": spec.n,
        "m": spec.m,
        "M": [[int(v) for v in row] for row in spec.M],
        "S": spec.base_region.to_json(),
        "C": [locus.to_json() for locus in spec.pinch_loci],
        "omega": [
            {"prime_scale": prime, "rational": [str(v) for v in vec]}
            for prime, vec in spec.omega_terms
        ],
    }


def load_spec(path) -> PinchedTorusSpec:
    """Read a spec from JSON: {n, m, M, S, C, omega?} with rational endpoints."""
    with open(path) as fh:
        data = json.load(fh)
    omega_terms = None
    if data.get("omega"):
        omega_terms = [
            (term["prime_scale"], [Fraction(v) for v in term["rational"]])
            for term in data["omega"]
        ]
    return make_spec(
        n=int(data["n"]),
        m=int(data["m"]),
        M=data["M"],
        base_boxes=data["S"],
        loci_boxes=data["C"],
        omega_terms=omega_terms,
    )
