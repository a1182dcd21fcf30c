"""Constructing and verifying linearizing embeddings of attractor basins.

The topological builder assembles F(x) = (F0(P(x)), e^{tau(x)} F1(Phi^{tau(x)}(x)))
from a phase map P, an embedding F0 of the attractor, and Lyapunov level-set
data; its generator is blockdiag(B0, -I).  The smooth builder instead conjugates
a transverse equivariant map G back along the impact time.  Verification
covers the linearization residual, injectivity, immersion rank, and a
properness probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.stats

from .errors import FlowlinError
from .flows import FlowSystem, evolve
from .linalg import LinearGenerator, as_generator, matrix_exp
from .phase import AttractorModel

__all__ = [
    "LyapunovData",
    "EmbeddingCandidate",
    "QualityOptions",
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
# step of the central-difference Jacobians
FD_STEP = 1e-5
# largest G(Phi^t x) - e^{Bt} G(x) residual the smooth builder accepts on U
EQUIVARIANCE_TOL = 1e-8
# largest |dG v| along the flow direction at the attractor
TANGENT_TOL = 1e-5
# smallest |dG v| along a direction transverse to the attractor
TRANSVERSE_FLOOR = 1e-2


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
            raise ValueError("Lyapunov level must be positive")


@dataclass(frozen=True, eq=False)
class EmbeddingCandidate:
    """A state-to-Euclidean map paired with its claimed generator."""

    F: Callable
    B: LinearGenerator
    provenance: str  # "exact" | "built_topological" | "built_smooth" | "edmd" | "supplied"


def impact_time(sys: FlowSystem, V: Callable, c: float, x) -> float:
    """Unique time tau with V(Phi^tau(x)) = c, for V strictly decreasing in t.

    Doubles a unit start bracket, [0, 1] or [-1, 0] by the sign of V(x) - c,
    up to |tau| <= 100 (backward, at most to the domain bound sys.t_min(x)),
    then solves by Brent's method to a bracket width of 1e-14 * (1 + |tau|).
    Satisfies the cocycle identity impact_time(Phi^t(x)) = impact_time(x) - t.
    Raises OnAttractor when V(x) <= ATTRACTOR_TOL and BracketFailure when
    no crossing is bracketed, the solver does not converge, or |V - c| at
    the root exceeds IMPACT_TOL.
    """
    x = np.asarray(x, dtype=float)
    v0 = float(V(x))
    if v0 <= ATTRACTOR_TOL:
        raise OnAttractor(
            f"V(x) = {v0:.3g} <= {ATTRACTOR_TOL:.0e}, trajectory never crosses the level set"
        )

    def g(tau: float) -> float:
        # bracket probes may push the state to the edge of float range, where
        # V legitimately saturates to inf (still the right sign for the bracket)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return float(V(evolve(sys, x, tau))) - c

    g0 = g(0.0)
    if g0 == 0.0:
        return 0.0
    # V decreases along the flow, so g is decreasing in tau
    if g0 > 0:
        lo, hi = 0.0, 1.0
        while g(hi) > 0:
            hi *= 2.0
            if hi > MAX_BRACKET:
                raise BracketFailure(f"no crossing of level {c} within tau <= {MAX_BRACKET}")
    else:
        lo, hi = -1.0, 0.0
        domain = sys.t_min(x)
        while True:
            if np.isfinite(domain) and lo <= domain:
                # probe just inside the domain before giving up
                lo = domain + max(abs(domain) * 1e-9, 1e-12)
                if g(lo) < 0:
                    raise BracketFailure(
                        f"no crossing of level {c} above domain bound {domain:.6g}"
                    )
                break
            if lo < -MAX_BRACKET:
                raise BracketFailure(f"no crossing of level {c} within tau >= -{MAX_BRACKET}")
            if g(lo) >= 0:
                break
            lo *= 2.0

    tau, result = scipy.optimize.brentq(
        g, lo, hi, xtol=1e-14, rtol=1e-14, maxiter=200, full_output=True, disp=False
    )
    if not result.converged:
        raise BracketFailure(f"impact time solve did not converge: {result.flag}")
    residual = abs(g(tau))
    if not residual <= IMPACT_TOL:
        raise BracketFailure(f"impact time solve stalled at |V - c| = {residual:.3g}")
    return float(tau)


def _check_phase_map(sys, attractor, P, validation_states, tol=1e-8):
    from .phase import verify_phase_properties

    report = verify_phase_properties(
        sys, P, validation_states, attractor.cloud[:50], t_grid=(0.0, 0.5, 1.0, 2.0), tol=tol
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
    F0: tuple[Callable, LinearGenerator],
    lyap: LyapunovData,
    validation_states: Sequence,
) -> EmbeddingCandidate:
    """Assemble the basin embedding from phase, attractor embedding, and level data.

    The on-attractor branch absorbs states with V at or below ATTRACTOR_TOL;
    the neglected decay block is then at most sqrt(ATTRACTOR_TOL / level),
    which must stay inside the residual budget.
    """
    F0_map, B0 = F0[0], as_generator(F0[1])
    _check_phase_map(sys, attractor, P, validation_states)
    res0 = verify_linearization(
        EmbeddingCandidate(F0_map, B0, "supplied"),
        attractor.restricted_flow,
        (attractor.cloud[:25], (0.1, 1.0, 2.0)),
    )
    if not res0 <= 1e-8:
        raise PhaseMapInvalid(f"F0 fails to linearize the restricted flow: residual {res0:.3g}")
    for a in attractor.cloud[:50]:
        if float(lyap.V(a)) > 1e-12:
            raise ValueError(f"Lyapunov function does not vanish on the attractor: {lyap.V(a):.3g}")

    V, c, F1, n1 = lyap.V, lyap.level, lyap.level_set_embedding, lyap.sphere_dim
    for x in list(validation_states)[:10]:
        if float(V(x)) <= ATTRACTOR_TOL:
            continue
        hit = evolve(sys, x, impact_time(sys, V, c, x))
        norm = float(np.linalg.norm(np.asarray(F1(hit), float)))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"level-set embedding not on the unit sphere: |F1| = {norm}")

    def F(x):
        x = np.asarray(x, dtype=float)
        if float(V(x)) <= ATTRACTOR_TOL:
            return np.concatenate([np.asarray(F0_map(x), float), np.zeros(n1)])
        tau = impact_time(sys, V, c, x)
        hit = evolve(sys, x, tau)
        return np.concatenate(
            [np.asarray(F0_map(P(x)), float), np.exp(tau) * np.asarray(F1(hit), float)]
        )

    k0 = B0.dim
    B = np.zeros((k0 + n1, k0 + n1))
    B[:k0, :k0] = B0.entries
    B[k0:, k0:] = -np.eye(n1)
    return EmbeddingCandidate(F, LinearGenerator(B), "built_topological")


@dataclass(frozen=True, eq=False)
class TransverseData:
    """Equivariant map G: U -> R^k with strictly stable generator.

    ``in_U`` is the membership predicate of the open set U containing the
    attractor where G(Phi^t(x)) = e^{Bt} G(x) holds directly.
    """

    G: Callable
    B: LinearGenerator
    in_U: Callable


def _fd_jacobian(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of f at x with step FD_STEP, one column per coordinate."""
    columns = []
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = FD_STEP
        columns.append((np.asarray(f(x + e), float) - np.asarray(f(x - e), float)) / (2 * FD_STEP))
    return np.column_stack(columns)


def _kernel_check(attractor, G):
    """Tangent directions must be annihilated by dG at the attractor; transverse not."""
    for a in attractor.cloud[:50]:
        J = _fd_jacobian(G, a)
        delta = 1e-4
        fwd = evolve(attractor.restricted_flow, a, delta)
        bwd = evolve(attractor.restricted_flow, a, -delta)
        tangent = (fwd - bwd) / (2 * delta)
        norm = np.linalg.norm(tangent)
        if norm < 1e-12:
            continue
        tangent /= norm
        if np.linalg.norm(J @ tangent) > TANGENT_TOL:
            raise ConditionThreeViolated(
                f"tangent direction not annihilated: |dG v| = {np.linalg.norm(J @ tangent):.3g}"
            )
        # orthonormal complement of the tangent line within the chart
        basis = scipy.linalg.null_space(tangent[None, :])
        for col in basis.T:
            if np.linalg.norm(J @ col) < TRANSVERSE_FLOOR:
                raise ConditionThreeViolated(
                    f"transverse direction annihilated: |dG v| = {np.linalg.norm(J @ col):.3g}"
                )


def build_smooth_embedding(
    sys: FlowSystem,
    attractor: AttractorModel,
    P: Callable,
    F1A: tuple[Callable, LinearGenerator],
    transverse: TransverseData,
    V: Callable,
    c: float,
    validation_states: Sequence,
) -> EmbeddingCandidate:
    """Assemble the smooth basin embedding (F1A o P, G-conjugated impact map)."""
    F1A_map, B1 = F1A[0], as_generator(F1A[1])
    G, B, in_U = transverse.G, as_generator(transverse.B), transverse.in_U

    eig = np.linalg.eigvals(B.entries)
    if np.any(eig.real >= -1e-9):
        raise ConditionThreeViolated(
            f"transverse generator must be strictly stable, max Re = {eig.real.max():.3g}"
        )
    worst = verify_linearization(
        EmbeddingCandidate(G, B, "supplied"),
        sys,
        ([x for x in validation_states if in_U(x)], (0.1, 0.5, 1.0)),
    )
    if not worst <= EQUIVARIANCE_TOL:
        raise ConditionThreeViolated(
            f"G equivariance residual {worst:.3g} > {EQUIVARIANCE_TOL:.3g}"
        )
    _kernel_check(attractor, G)
    _check_phase_map(sys, attractor, P, validation_states)

    def F0(x):
        x = np.asarray(x, dtype=float)
        if in_U(x):
            return np.asarray(G(x), dtype=float)
        tau = impact_time(sys, V, c, x)
        return matrix_exp(B, -tau) @ np.asarray(G(evolve(sys, x, tau)), dtype=float)

    def F(x):
        return np.concatenate([np.asarray(F1A_map(P(x)), float), F0(x)])

    k1, k = B1.dim, B.dim
    Bfull = np.zeros((k1 + k, k1 + k))
    Bfull[:k1, :k1] = B1.entries
    Bfull[k1:, k1:] = B.entries
    return EmbeddingCandidate(F, LinearGenerator(Bfull), "built_smooth")


def overlap_identity_residual(
    sys: FlowSystem, transverse: TransverseData, V: Callable, c: float, states: Sequence
) -> float:
    """Max disagreement of G(x) and e^{-B tau} G(Phi^tau(x)) on U intersect {V > c}."""
    G, B, in_U = transverse.G, as_generator(transverse.B), transverse.in_U
    residuals = []
    for x in states:
        x = np.asarray(x, dtype=float)
        if not (in_U(x) and float(V(x)) > c):
            continue
        tau = impact_time(sys, V, c, x)
        direct = np.asarray(G(x), dtype=float)
        conjugated = matrix_exp(B, -tau) @ np.asarray(G(evolve(sys, x, tau)), dtype=float)
        residuals.append(np.linalg.norm(direct - conjugated))
    return float(np.max(residuals, initial=0.0))


def verify_linearization(cand: EmbeddingCandidate, sys: FlowSystem, grid) -> float:
    """Max over (states x times) of ||F(Phi^t(x)) - e^{Bt} F(x)||."""
    states, times = grid
    residuals = []
    exps = {float(t): matrix_exp(cand.B, float(t)) for t in times}
    for x in states:
        fx = np.asarray(cand.F(x), dtype=float)
        for t in times:
            lhs = np.asarray(cand.F(evolve(sys, x, float(t))), dtype=float)
            residuals.append(np.linalg.norm(lhs - exps[float(t)] @ fx))
    # a NaN residual stays NaN, so a `<= tol` gate on the result fails
    return float(np.max(residuals, initial=0.0))


@dataclass(frozen=True)
class QualityOptions:
    sigma_floor: float = 1e-6
    injectivity_floor: float = 1e-6
    escape_states: tuple = ()
    escape_values: tuple = ()


@dataclass(frozen=True)
class QualityReport:
    injectivity_margin: float
    injectivity_flagged: bool
    min_jacobian_sigma: float
    immersion_flagged: bool
    properness: dict


def verify_embedding_quality(
    cand: EmbeddingCandidate,
    sys: FlowSystem,
    states: np.ndarray,
    options: QualityOptions = QualityOptions(),
) -> QualityReport:
    """Sampled injectivity margin, immersion rank, and properness probe.

    The injectivity margin is ``sys.chart.injectivity_margin`` of the sampled
    states and their images: quotient-identified pairs are skipped, a NaN
    image gives a NaN margin and a single state gives NaN (no evidence), and
    either is flagged.  The smallest singular value comes from a
    central-difference Jacobian with step FD_STEP at every state.
    Properness is a probe, never a certificate.
    """
    states = np.asarray(states, dtype=float)
    images = np.array([np.asarray(cand.F(x), dtype=float) for x in states])
    margin = sys.chart.injectivity_margin(states, images)

    sigma_min = np.inf
    for x in states:
        J = _fd_jacobian(cand.F, x)
        sigma_min = float(np.minimum(sigma_min, np.linalg.svd(J, compute_uv=False)[-1]))

    properness = {"available": False}
    if len(options.escape_states) >= 4:
        norms = [float(np.linalg.norm(np.asarray(cand.F(x), float))) for x in options.escape_states]
        values = (
            list(options.escape_values)
            if len(options.escape_values) == len(norms)
            else list(range(len(norms)))
        )
        rho = float(scipy.stats.spearmanr(values, norms).statistic)
        growth = norms[-1] / max(norms[0], 1e-300)
        properness = {
            "available": True,
            "spearman_rho": rho,
            "norm_growth_ratio": growth,
            "flagged": not (rho > 0.9 and growth > 2.0),
        }

    return QualityReport(
        injectivity_margin=margin,
        # written so that a NaN margin or sigma is flagged, not passed
        injectivity_flagged=not margin >= options.injectivity_floor,
        min_jacobian_sigma=float(sigma_min),
        immersion_flagged=not sigma_min >= options.sigma_floor,
        properness=properness,
    )
