"""Constructing and verifying linearizing embeddings of attractor basins.

The topological builder assembles F(x) = (F0(P(x)), e^{tau(x)} F1(Phi^{tau(x)}(x)))
from a phase map P, an embedding F0 of the attractor, and Lyapunov level-set
data; its generator is blockdiag(B0, -I).  The smooth builder instead conjugates
a transverse equivariant map G back along the impact time.  Verification
covers the linearization residual, injectivity, immersion rank, batch
agreement and a properness probe.

Everything here works on state batches (see ``flows``): the maps a builder
takes read ``x[..., i]``, a built F maps ``(..., dim)`` to ``(..., k)`` with
one batched impact-time solve per call, and each verification passes all of
its states to F in one call.  ``verify_embedding_quality``, the evidence
behind a report, takes one state array: the states and their flowed copies,
the finite-difference probes of its quality rows and the escape states go
through F together, and one single-state call sees that no row depends on
the rest of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FlowlinError, InvalidInput
from .flows import FlowSystem, _batch_image, _check_domain, evolve
from .linalg import block_diag, expm_apply, generator, least, row_norms, worst
from .phase import AttractorModel, verify_phase_properties

__all__ = [
    "LyapunovData",
    "EmbeddingCandidate",
    "QualityReport",
    "OnAttractor",
    "BracketFailure",
    "PhaseMapInvalid",
    "ConditionThreeViolated",
    "TransverseData",
    "impact_time",
    "build_topological_embedding",
    "build_smooth_embedding",
    "overlap_identity_residual",
    "verify_linearization",
    "verify_embedding_quality",
]


class OnAttractor(FlowlinError):
    """The trajectory starts on the attractor and never crosses the level set."""


class BracketFailure(FlowlinError):
    """No sign change of V - c found within the search window."""


class PhaseMapInvalid(FlowlinError):
    """Supplied phase map fails the retraction/equivariance checks."""


class ConditionThreeViolated(FlowlinError):
    """Transverse map fails equivariance, spectrum, or kernel requirements."""


MAX_BRACKET = 100.0
# V at or below this counts as on the attractor, where the trajectory never
# crosses the level set; a different scale from IMPACT_TOL by design
ATTRACTOR_TOL = 1e-14
# largest |V - c| accepted at a returned impact time
IMPACT_TOL = 1e-10
# the impact-time solve stops once a bracket is narrower than
# SOLVE_XTOL * (1 + |tau|), or fails after SOLVE_MAXITER steps
SOLVE_XTOL = 1e-14
SOLVE_MAXITER = 200
# step of the central-difference Jacobians
FD_STEP = 1e-5
# largest G(Phi^t x) - e^{Bt} G(x) residual the smooth builder accepts on U
EQUIVARIANCE_TOL = 1e-8
# largest idempotence and equivariance violation of a supplied phase map
PHASE_MAP_TOL = 1e-8
# largest |dG v| along the flow direction at the attractor
TANGENT_TOL = 1e-5
# smallest |dG v| along a direction transverse to the attractor
TRANSVERSE_FLOOR = 1e-2
# largest ||F(X)[0] - F(X[0])|| the quality check accepts: a map must give a
# single state the image its batch row gets
BATCH_TOL = 1e-12
# the properness probe passes when |F| on the escape path ranks with the escape
# values above this Spearman rho and grows by more than this factor
PROPERNESS_RHO, PROPERNESS_GROWTH = 0.9, 2.0


@dataclass(frozen=True, eq=False)
class LyapunovData:
    """Lyapunov function with a fixed level set embedded in a unit sphere.

    ``V`` vanishes on the attractor and decreases along trajectories;
    ``level_set_embedding`` maps the level set {V = level} into the unit
    sphere of R^{sphere_dim}.
    """

    V: Callable
    level: float
    level_set_embedding: Callable
    sphere_dim: int

    def __post_init__(self):
        if self.level <= 0:
            raise InvalidInput("Lyapunov level must be positive")


@dataclass(frozen=True, eq=False)
class EmbeddingCandidate:
    """A state-to-Euclidean map F paired with its claimed generator B, a (k, k) array."""

    F: Callable
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", generator(self.B))


def _chandrupatla(f: Callable, x1, f1, x2, f2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of f in the brackets [x1, x2], given the end values f1 and f2.

    ``f(active, x)`` evaluates the bracket rows ``active`` at ``x``.
    Chandrupatla's method (T. R. Chandrupatla, Adv. Eng. Software 28 (1997)
    145-149): each step tries inverse quadratic interpolation through the
    last three points where it is safe and bisects otherwise, keeping the
    step half a tolerance away from either bracket end.  A row stops once
    |f| at its better end is at most the smallest normal float (NaN, never
    met, where an end value is infinite) or its bracket is narrower than
    SOLVE_XTOL * (1 + |x|); it stops with an error when its ends share a sign
    or its abscissae or both values are not numbers.  Finished rows leave
    the active set.  The stopping tests, the clipping of t and the order of
    every floating-point operation are fixed: the tests compare the roots
    bit for bit with the reference solver whose loop this ports.  Returns
    the root, f there and a status per row: 0 converged, -1 sign error,
    -2 SOLVE_MAXITER steps reached, -3 value error.
    """
    n = len(x1)
    root, f_root, status = np.full(n, np.nan), np.full(n, np.nan), np.full(n, -2)
    active = np.arange(n)
    ftol = np.finfo(float).smallest_normal + 0.0 * np.minimum(np.abs(f1), np.abs(f2))
    x3 = f3 = None
    t = 0.5
    for nit in range(SOLVE_MAXITER + 1):
        if nit:
            x = x1 + t * (x2 - x1)
            fx = f(active, x)
            # x2 keeps the end whose sign differs from the new point; the
            # other end becomes x3
            same = np.sign(fx) == np.sign(f1)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, fx
        better = np.abs(f1) < np.abs(f2)
        xmin, fmin = np.where(better, x1, x2), np.where(better, f1, f2)
        code = np.where(np.abs(fmin) <= ftol, 0, 1)
        code[(code == 1) & (np.sign(f1) == np.sign(f2))] = -1
        not_numbers = ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2))
        code[(code == 1) & not_numbers] = -3
        xmin[code < 0] = fmin[code < 0] = np.nan
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * SOLVE_XTOL + SOLVE_XTOL
        code[dx < tol] = 0
        stop = code != 1
        if stop.any():
            done, keep = active[stop], ~stop
            root[done], f_root[done], status[done] = xmin[stop], fmin[stop], code[stop]
            active = active[keep]
            if not len(active):
                break
            x1, f1, x2, f2, ftol, dx, tol = (a[keep] for a in (x1, f1, x2, f2, ftol, dx, tol))
            if nit:
                x3, f3 = x3[keep], f3[keep]
        if nit:
            with np.errstate(divide="ignore", invalid="ignore"):
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                interpolate = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(
                    interpolate,
                    f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                    0.5,
                )
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
    return root, f_root, status


def impact_time(sys: FlowSystem, V: Callable, c: float, x) -> float | np.ndarray:
    """Unique time tau with V(Phi^tau(x)) = c, for V strictly decreasing in t.

    ``x`` is one ``(dim,)`` state, giving a float, or an ``(N, dim)`` batch,
    giving one time per row.  Each row doubles the far end of a unit start
    bracket, [0, 1] or [-1, 0] by the sign of V(x) - c, up to |tau| <= 100
    (backward, at most to the domain bound sys.t_min(x)); then the in-house
    Chandrupatla loop (``_chandrupatla``), seeded with the values the search
    found at both ends, refines every row to a bracket width of
    1e-14 * (1 + |tau|).  One search loop serves both directions: each round
    of it, and each solver iteration, is one ``evolve`` call over the rows
    still searching, forward and backward rows together, and the search
    raises in the first round in which some row fails.  Satisfies the
    cocycle identity impact_time(Phi^t(x)) = impact_time(x) - t.  Errors are
    per row and raised for the whole batch: OnAttractor when some row has
    V(x) <= ATTRACTOR_TOL, BracketFailure when some row brackets no crossing,
    does not converge, or ends with |V - c| not within IMPACT_TOL (a NaN row
    included).
    """
    x = np.asarray(x, dtype=float)
    _check_domain(sys, x, 0.0)  # before V sees an off-domain start
    X = x.reshape(-1, x.shape[-1])
    v0 = np.asarray(V(X), dtype=float)
    on = v0 <= ATTRACTOR_TOL
    if on.any():
        raise OnAttractor(
            f"V(x) = {v0[on][0]:.3g} <= {ATTRACTOR_TOL:.0e}, "
            "trajectory never crosses the level set"
        )

    def probe(rows, tau):
        # bracket probes may push the state to the edge of float range, where
        # V legitimately saturates to inf (still the right sign for the bracket)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.asarray(V(evolve(sys, X[rows], tau)), float) - c

    n = len(X)
    g0 = probe(np.arange(n), np.zeros(n))
    # V decreases along the flow, so g is decreasing in tau: a forward row
    # doubles its end of [0, 1] while g > 0, a backward row its end of [-1, 0]
    # while not g >= 0, and both directions share one evolve per round
    forward, backward = g0 > 0, ~(g0 >= 0)
    end, g_end = np.where(forward, 1.0, -1.0), g0.copy()
    domain = np.broadcast_to(sys.t_min(X), (n,))
    searching = forward | backward
    while searching.any():
        rows = np.flatnonzero(searching)
        bound = domain[rows]
        at_bound = backward[rows] & np.isfinite(bound) & (end[rows] <= bound)
        # a backward row probes just inside the domain before giving up
        end[rows[at_bound]] = bound[at_bound] + np.maximum(np.abs(bound[at_bound]) * 1e-9, 1e-12)
        beyond = rows[~at_bound & (np.abs(end[rows]) > MAX_BRACKET)]
        if len(beyond):
            side = "<= " if forward[beyond[0]] else ">= -"
            raise BracketFailure(f"no crossing of level {c} within tau {side}{MAX_BRACKET}")
        g_end[rows] = g = probe(rows, end[rows])
        stuck = at_bound & (g < 0)
        if stuck.any():
            raise BracketFailure(
                f"no crossing of level {c} above domain bound {bound[stuck][0]:.6g}"
            )
        more = ~at_bound & np.where(forward[rows], g > 0, ~(g >= 0))
        end[rows[more]] *= 2.0
        searching[rows[~more]] = False
    lo, g_lo = np.where(forward, 0.0, end), np.where(forward, g0, g_end)
    hi, g_hi = np.where(forward, end, 0.0), np.where(forward, g_end, g0)

    tau, residual = np.zeros(n), np.zeros(n)
    solve = np.flatnonzero(forward | backward)
    if len(solve):
        root, f_root, status = _chandrupatla(
            lambda active, t: probe(solve[active], t),
            lo[solve], g_lo[solve], hi[solve], g_hi[solve],
        )
        failed = status != 0
        if failed.any():
            raise BracketFailure(
                f"impact time solve did not converge: status {status[failed][0]}"
            )
        tau[solve], residual[solve] = root, np.abs(f_root)
    failed = ~(residual <= IMPACT_TOL)
    if failed.any():
        raise BracketFailure(
            f"impact time solve stalled at |V - c| = {residual[failed][0]:.3g}"
        )
    return float(tau[0]) if x.ndim == 1 else tau.reshape(x.shape[:-1])


def _check_phase_map(sys, attractor, P, validation_states):
    report = verify_phase_properties(
        sys, P, validation_states, attractor.cloud[:50], t_grid=(0.0, 0.5, 1.0, 2.0),
        tol=PHASE_MAP_TOL,
    )
    if not report.passed:
        raise PhaseMapInvalid(
            f"phase map check failed: idempotence {report.max_idempotence_violation:.3g}, "
            f"equivariance {report.max_equivariance_violation:.3g}"
        )


def build_topological_embedding(
    sys: FlowSystem,
    attractor: AttractorModel,
    P: Callable,
    F0: EmbeddingCandidate,
    lyap: LyapunovData,
    validation_states: Sequence,
) -> EmbeddingCandidate:
    """Assemble the basin embedding from phase, attractor embedding, and level data.

    ``F0`` is an ``EmbeddingCandidate`` of the attractor; every state's first
    block is F0(P(x)).  States with V at or below ATTRACTOR_TOL get a zero
    decay block, so a state flowed across that switch reads a residual of at
    most sqrt(ATTRACTOR_TOL / level), which must stay inside the budget.
    """
    _check_phase_map(sys, attractor, P, validation_states)
    res0 = verify_linearization(
        F0, attractor.restricted_flow, (attractor.cloud[:25], (0.1, 1.0, 2.0))
    )
    if not res0 <= 1e-8:
        raise PhaseMapInvalid(f"F0 fails to linearize the restricted flow: residual {res0:.3g}")
    v_attractor = np.asarray(lyap.V(attractor.cloud[:50]), float)
    if (v_attractor > 1e-12).any():
        raise InvalidInput(
            "Lyapunov function does not vanish on the attractor: "
            f"{v_attractor[v_attractor > 1e-12][0]:.3g}"
        )

    V, c, F1, n1 = lyap.V, lyap.level, lyap.level_set_embedding, lyap.sphere_dim
    X = np.asarray(validation_states, dtype=float)[:10]
    X = X[~(np.asarray(V(X), float) <= ATTRACTOR_TOL)]
    if len(X):
        hit = evolve(sys, X, impact_time(sys, V, c, X))
        norms = row_norms(_batch_image(F1, hit, n1, "level-set embedding F1"))
        off = np.abs(norms - 1.0) > 1e-12
        if off.any():
            raise InvalidInput(f"level-set embedding not on the unit sphere: |F1| = {norms[off][0]}")

    F0_map, k0 = F0.F, len(F0.B)

    def F(x):
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, x.shape[-1])
        out = np.zeros((len(X), k0 + n1))
        out[:, :k0] = F0_map(P(X))
        on = np.asarray(V(X), float) <= ATTRACTOR_TOL
        if not on.all():
            Xb = X[~on]
            tau = impact_time(sys, V, c, Xb)
            out[~on, k0:] = np.exp(tau)[:, None] * np.asarray(F1(evolve(sys, Xb, tau)), float)
        return out.reshape(x.shape[:-1] + (k0 + n1,))

    return EmbeddingCandidate(F, block_diag(F0.B, -np.eye(n1)))


@dataclass(frozen=True, eq=False)
class TransverseData:
    """Equivariant map G: U -> R^k with strictly stable generator B, a (k, k) array.

    ``in_U`` is the membership predicate of the open set U containing the
    attractor where G(Phi^t(x)) = e^{Bt} G(x) holds directly.
    """

    G: Callable
    B: np.ndarray
    in_U: Callable

    def __post_init__(self):
        object.__setattr__(self, "B", generator(self.B))


def _fd_probes(x) -> np.ndarray:
    """The 2 * dim central-difference probes of every state: (..., dim) -> (..., 2 dim, dim)."""
    x = np.asarray(x, dtype=float)
    steps = FD_STEP * np.eye(x.shape[-1])
    return np.concatenate([x[..., None, :] + steps, x[..., None, :] - steps], axis=-2)


def _fd_difference(values) -> np.ndarray:
    """Jacobians (..., k, dim) from the images (..., 2 dim, k) of ``_fd_probes``."""
    dim = values.shape[-2] // 2
    return np.swapaxes(values[..., :dim, :] - values[..., dim:, :], -1, -2) / (2 * FD_STEP)


def _kernel_check(attractor, G):
    """Tangent directions must be annihilated by dG at the attractor; transverse not."""
    A = attractor.cloud[:50]
    J = _fd_difference(np.asarray(G(_fd_probes(A)), dtype=float))
    delta = 1e-4
    fwd = evolve(attractor.restricted_flow, A, delta)
    bwd = evolve(attractor.restricted_flow, A, -delta)
    tangent = (fwd - bwd) / (2 * delta)
    norm = np.linalg.norm(tangent, axis=-1)
    moving = ~(norm < 1e-12)
    J, tangent = J[moving], tangent[moving] / norm[moving, None]
    along = np.linalg.norm(np.matmul(J, tangent[..., None])[..., 0], axis=-1)
    leaks = along > TANGENT_TOL
    if leaks.any():
        raise ConditionThreeViolated(
            f"tangent direction not annihilated: |dG v| = {along[leaks][0]:.3g}"
        )
    # orthonormal complement of each tangent line within the chart: the rows
    # of V^T after the first in the SVD of the 1 x dim matrix tangent^T
    complement = np.linalg.svd(tangent[:, None, :])[2][:, 1:, :]
    across = np.linalg.norm(np.matmul(J, np.swapaxes(complement, -1, -2)), axis=-2)
    weak = across < TRANSVERSE_FLOOR
    if weak.any():
        raise ConditionThreeViolated(
            f"transverse direction annihilated: |dG v| = {across[weak][0]:.3g}"
        )


def _conjugated_G(sys, G, B, V, c, X) -> np.ndarray:
    """Rows e^{-B tau(x)} G(Phi^{tau(x)}(x)) of a batch of states."""
    tau = impact_time(sys, V, c, X)
    g_hit = np.asarray(G(evolve(sys, X, tau)), dtype=float)
    return expm_apply(B, -tau, g_hit)


def build_smooth_embedding(
    sys: FlowSystem,
    attractor: AttractorModel,
    P: Callable,
    F1A: EmbeddingCandidate,
    transverse: TransverseData,
    V: Callable,
    c: float,
    validation_states: Sequence,
) -> EmbeddingCandidate:
    """Assemble the smooth basin embedding (F1A o P, G-conjugated impact map).

    ``F1A`` is an ``EmbeddingCandidate`` of the attractor.
    """
    G, B, in_U = transverse.G, transverse.B, transverse.in_U

    eig = np.linalg.eigvals(B)
    if np.any(eig.real >= -1e-9):
        raise ConditionThreeViolated(
            f"transverse generator must be strictly stable, max Re = {eig.real.max():.3g}"
        )
    X = np.asarray(validation_states, dtype=float)
    X_U = X[np.asarray(in_U(X), dtype=bool)]
    residual = verify_linearization(EmbeddingCandidate(G, B), sys, (X_U, (0.1, 0.5, 1.0)))
    if not residual <= EQUIVARIANCE_TOL:
        raise ConditionThreeViolated(
            f"G equivariance residual {residual:.3g} > {EQUIVARIANCE_TOL:.3g}"
        )
    _kernel_check(attractor, G)
    _check_phase_map(sys, attractor, P, validation_states)

    F1A_map, k1, k = F1A.F, len(F1A.B), len(B)

    def F(x):
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, x.shape[-1])
        out = np.empty((len(X), k1 + k))
        out[:, :k1] = F1A_map(P(X))
        inside = np.asarray(in_U(X), dtype=bool)
        if inside.any():
            out[inside, k1:] = G(X[inside])
        if not inside.all():
            out[~inside, k1:] = _conjugated_G(sys, G, B, V, c, X[~inside])
        return out.reshape(x.shape[:-1] + (k1 + k,))

    return EmbeddingCandidate(F, block_diag(F1A.B, B))


def overlap_identity_residual(
    sys: FlowSystem, transverse: TransverseData, V: Callable, c: float, states: Sequence
) -> float:
    """Max disagreement of G(x) and e^{-B tau} G(Phi^tau(x)) on U intersect {V > c}.

    NaN when no state lies in U intersect {V > c}: no evidence.
    """
    G, B, in_U = transverse.G, transverse.B, transverse.in_U
    X = np.asarray(states, dtype=float)
    X = X[np.asarray(in_U(X), dtype=bool) & (np.asarray(V(X), float) > c)]
    if not len(X):
        return np.nan
    diff = np.asarray(G(X), dtype=float) - _conjugated_G(sys, G, B, V, c, X)
    return worst(row_norms(diff))


def _flowed(sys: FlowSystem, X: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The states ``X`` flowed by each time, time-major; empty without a state or a time."""
    if not len(X) or not len(times):
        return X[:0]
    return evolve(sys, np.tile(X, (len(times), 1)), np.repeat(times, len(X)))


def _residual(B: np.ndarray, times: np.ndarray, images: np.ndarray, flowed: np.ndarray) -> float:
    """Max of ||F(Phi^t(x)) - e^{Bt} F(x)|| from the images of states and of their
    ``_flowed`` copies; NaN when there are none."""
    if not len(flowed):
        return np.nan
    diff = flowed.reshape(len(times), *images.shape) - expm_apply(B, times[:, None], images)
    return worst(row_norms(diff))


def verify_linearization(cand: EmbeddingCandidate, sys: FlowSystem, grid) -> float:
    """Max over (states x times) of ||F(Phi^t(x)) - e^{Bt} F(x)||.

    The states and every flowed copy of them go through one call of F.  NaN
    when the grid has no state or no time: no evidence.
    """
    X, times = np.asarray(grid[0], dtype=float), np.asarray(grid[1], dtype=float)
    flowed = _flowed(sys, X, times)
    batch = np.concatenate([X, flowed])
    images = _batch_image(cand.F, batch, len(cand.B), "embedding F") if len(flowed) else flowed
    return _residual(cand.B, times, images[: len(X)], images[len(X) :])


@dataclass(frozen=True)
class QualityReport:
    linearization_residual: float
    injectivity_margin: float
    min_jacobian_sigma: float
    batch_disagreement: float
    properness: dict


def _rank_correlation(a, b) -> float:
    """Spearman's rho: Pearson's correlation of the average ranks of a and b.

    Tied values share the mean of the 1-based positions they span.  NaN, not
    an exception, when either input is constant or holds a NaN.
    """
    data = np.column_stack([a, b]).astype(float)
    if np.isnan(data).any() or (data == data[0]).all(axis=0).any():
        return np.nan
    ranks = []
    for v in data.T:
        s = np.sort(v)
        ranks.append(0.5 * (np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1))
    return float(np.corrcoef(np.column_stack(ranks), rowvar=False)[1, 0])


def verify_embedding_quality(
    cand: EmbeddingCandidate,
    sys: FlowSystem,
    states: np.ndarray,
    times: Sequence[float],
    escape: tuple | None = None,
    quality_rows: int | None = None,
) -> QualityReport:
    """The evidence behind a report: residual, injectivity, immersion, batch agreement, properness.

    Every state is flowed by every time for the linearization residual, as
    in ``verify_linearization``; the first ``quality_rows`` states (all when
    None) carry the rest.  Their injectivity margin is the chart's margin of
    the states and their images: quotient-identified pairs are skipped, and
    a NaN image or a single state (no evidence) gives NaN.  Their smallest
    singular value comes from a central-difference Jacobian with step
    FD_STEP at every state, and is NaN with no state.  ``escape`` is
    ``(states, values)`` along an escape path, or None; with at least 4
    states it gives the properness probe, never a certificate.  The states,
    their flowed copies, the Jacobian probes and the escape states go
    through one call of F, and the first state once more alone.  Each call
    must give one ``len(B)`` row per state, so a map written for one state
    raises InvalidInput there.  The distance of the lone image from its
    batch row is the batch disagreement: it catches a map of the right
    shape whose values depend on the rest of the batch.
    """
    X, times = np.asarray(states, dtype=float), np.asarray(times, dtype=float)
    Q, dim, k = X[:quality_rows], X.shape[-1], len(cand.B)
    esc = X[:0]
    if escape is not None and len(escape[0]) >= 4:
        esc = np.asarray(escape[0], dtype=float)
    parts = [X, _flowed(sys, X, times), _fd_probes(Q).reshape(-1, dim), esc]
    out = _batch_image(cand.F, np.concatenate(parts), k, "embedding F")
    images, flowed, probed, escaped = np.split(out, np.cumsum([len(p) for p in parts[:-1]]))
    disagreement = np.nan  # no state, no evidence
    if len(Q):
        disagreement = float(row_norms(images[0] - _batch_image(cand.F, Q[0], k, "embedding F")))
    probed = probed.reshape(len(Q), 2 * dim, k)
    sigmas = np.linalg.svd(_fd_difference(probed), compute_uv=False)[..., -1]

    properness = {"available": False}
    if len(esc):
        norms = row_norms(escaped).tolist()
        rho = _rank_correlation(escape[1], norms)
        growth = norms[-1] / max(norms[0], 1e-300)
        properness = {
            "available": True,
            "spearman_rho": rho,
            "norm_growth_ratio": growth,
            "flagged": not (rho > PROPERNESS_RHO and growth > PROPERNESS_GROWTH),
        }

    return QualityReport(
        linearization_residual=_residual(cand.B, times, images, flowed),
        injectivity_margin=sys.chart.injectivity_margin(Q, images[: len(Q)]),
        min_jacobian_sigma=least(sigmas),
        batch_disagreement=disagreement,
        properness=properness,
    )
