"""Necessary-condition checkers for smooth linearizability.

Hopf indices of planar fields by winding number, the dimension-parity /
Euler-characteristic / surface-classification verdict rules, and the
quasiperiodic-factor sufficiency certificate.  The verdict rules apply to
flows on compact manifolds; they are necessary conditions only, so the
engine never upgrades "no obstruction found" to a guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FlowlinError, InvalidInput
from .flows import FlowSystem, _batch_image, evolve, torus_angles, torus_translation
from .linalg import frequency_vector, rational_independence, worst

__all__ = [
    "EquilibriumReport",
    "SystemFacts",
    "Verdict",
    "ZeroOnCircle",
    "WindingUnresolved",
    "InconsistentFacts",
    "DimensionMismatch",
    "hopf_index_2d",
    "smooth_linearizability_verdict",
    "quasiperiodic_factor_certificate",
]


class ZeroOnCircle(FlowlinError):
    """The field nearly vanishes on the sampling circle."""


class WindingUnresolved(FlowlinError):
    """Angle increments stayed too coarse even at the maximum sample count."""


class InconsistentFacts(FlowlinError):
    """Supplied facts contradict each other (or the Poincare-Hopf identity)."""


class DimensionMismatch(FlowlinError):
    """System dimension does not match the frequency vector length."""


MIN_FIELD_NORM = 1e-8
MAX_WINDING_SAMPLES = 2**20
MIN_WINDING_SAMPLES = 64
MIN_CERTIFICATE_SAMPLES = 100

NOT_LINEARIZABLE = "not_linearizable_smooth"
NO_OBSTRUCTION = "no_obstruction_found"
CERTIFIED = "certified_linearizable"

ALLOWED_SURFACES = frozenset({"torus", "sphere", "klein_bottle", "projective_plane"})
KNOWN_SURFACE_EULER = {
    "sphere": 2,
    "torus": 0,
    "klein_bottle": 0,
    "projective_plane": 1,
    "genus_2_orientable": -2,
    "genus_3_orientable": -4,
}


@dataclass(frozen=True)
class EquilibriumReport:
    location: tuple
    index: int
    winding_samples: int
    min_field_norm_on_circle: float


@dataclass(frozen=True)
class SystemFacts:
    """Facts about a flow on a compact manifold, as far as they are known.

    ``equilibrium_indices`` lists the Hopf indices of known isolated
    equilibria; ``equilibria_complete`` says whether that list is exhaustive.
    """

    dim: int
    equilibrium_indices: tuple = ()
    equilibria_complete: bool = True
    finitely_many_equilibria: bool = True
    surface_type: str | None = None
    euler_characteristic: int | None = None


@dataclass(frozen=True)
class Verdict:
    conclusion: str
    applied_rules: tuple
    reason: str | None = None
    witness: dict | None = None


def hopf_index_2d(field: Callable, center, radius: float, n_samples: int = 256) -> EquilibriumReport:
    """Winding number of the field around an isolated planar equilibrium.

    ``field`` maps an (N, 2) array of points to an (N, 2) array of vectors.
    Sampling starts at n_samples, 64 to 2**20, and doubles (up to 2**20
    points) until every angle increment is below pi/2 and the accumulated
    angle sits within 0.1 rad of a multiple of 2*pi.
    """
    if not MIN_WINDING_SAMPLES <= n_samples <= MAX_WINDING_SAMPLES:
        raise InvalidInput(f"circle samples must lie in [{MIN_WINDING_SAMPLES}, "
                           f"{MAX_WINDING_SAMPLES}], got {n_samples}")
    center = np.asarray(center, dtype=float)
    n = int(n_samples)
    while True:
        phi = np.linspace(0.0, 2.0 * np.pi, n + 1)
        pts = center + radius * np.column_stack([np.cos(phi), np.sin(phi)])
        vals = _batch_image(field, pts, 2, "planar field")
        norms = np.linalg.norm(vals, axis=1)
        min_norm = float(norms.min())
        if min_norm <= MIN_FIELD_NORM:
            raise ZeroOnCircle(
                f"field norm {min_norm:.3g} <= {MIN_FIELD_NORM} on the circle; "
                "shrink or move the circle"
            )
        angles = np.arctan2(vals[:, 1], vals[:, 0])
        diffs = np.diff(angles)
        diffs = (diffs + np.pi) % (2.0 * np.pi) - np.pi
        total = float(diffs.sum())
        index = int(round(total / (2.0 * np.pi)))
        resolved = np.all(np.abs(diffs) < np.pi / 2) and abs(
            total - 2.0 * np.pi * index
        ) < 0.1
        if resolved:
            return EquilibriumReport(
                location=tuple(center),
                index=index,
                winding_samples=n,
                min_field_norm_on_circle=min_norm,
            )
        if 2 * n > MAX_WINDING_SAMPLES:
            raise WindingUnresolved(
                f"angle increments too coarse at {n} samples; aliasing suspected"
            )
        n *= 2


def _validate_facts(facts: SystemFacts) -> None:
    if facts.dim < 1:
        raise InconsistentFacts(f"dimension must be >= 1, got {facts.dim}")
    if facts.surface_type is not None and facts.dim != 2:
        raise InconsistentFacts(
            f"surface type {facts.surface_type!r} given but dim = {facts.dim}"
        )
    if (
        facts.surface_type in KNOWN_SURFACE_EULER
        and facts.euler_characteristic is not None
        and facts.euler_characteristic != KNOWN_SURFACE_EULER[facts.surface_type]
    ):
        raise InconsistentFacts(
            f"chi = {facts.euler_characteristic} contradicts surface {facts.surface_type!r}"
        )
    if (
        facts.equilibria_complete
        and facts.euler_characteristic is not None
        and facts.euler_characteristic != sum(facts.equilibrium_indices)
    ):
        # Poincare-Hopf: the indices of a complete zero set must sum to chi
        raise InconsistentFacts(
            f"chi = {facts.euler_characteristic} but indices sum to "
            f"{sum(facts.equilibrium_indices)}"
        )


def smooth_linearizability_verdict(facts: SystemFacts) -> Verdict:
    """Apply the necessary conditions in order; stop at the first violation.

    Never returns a certificate: these rules can only rule linearizability
    out (see quasiperiodic_factor_certificate for the sufficient direction).
    """
    _validate_facts(facts)
    applied = []

    applied.append("odd_dimension")
    if facts.dim % 2 == 1 and len(facts.equilibrium_indices) >= 1:
        return Verdict(
            NOT_LINEARIZABLE,
            tuple(applied),
            reason="odd_dimension: odd-dimensional manifold with an isolated equilibrium",
        )

    applied.append("hopf_index")
    for idx in facts.equilibrium_indices:
        if idx != 1:
            return Verdict(
                NOT_LINEARIZABLE,
                tuple(applied),
                reason=f"hopf_index: equilibrium with index {idx} != 1",
            )

    applied.append("euler_characteristic")
    if (
        facts.euler_characteristic is not None
        and facts.finitely_many_equilibria
        and facts.euler_characteristic < 0
    ):
        return Verdict(
            NOT_LINEARIZABLE,
            tuple(applied),
            reason=f"euler_characteristic: chi = {facts.euler_characteristic} < 0",
        )

    applied.append("surface_classification")
    if (
        facts.dim == 2
        and facts.surface_type is not None
        and facts.finitely_many_equilibria
        and facts.surface_type not in ALLOWED_SURFACES
    ):
        return Verdict(
            NOT_LINEARIZABLE,
            tuple(applied),
            reason=f"surface_classification: {facts.surface_type!r} is not the torus, "
            "sphere, Klein bottle, or projective plane",
        )

    return Verdict(NO_OBSTRUCTION, tuple(applied))


def quasiperiodic_factor_certificate(
    sys: FlowSystem,
    Fmap: Callable,
    omega,
    max_coeff: int,
    n_samples: int = 100,
    tol: float = 1e-9,
    *,
    rng: np.random.Generator,
) -> Verdict:
    """Grant a linearizability certificate from a verified torus factor map.

    Requires rationally independent frequencies (up to max_coeff) and
    Fmap(Phi^t(x)) = omega*t + Fmap(x) mod 1 on n_samples uniform states of
    the torus chart and times in [-10, 10].  Fmap maps an (N, n) batch of
    states to their (N, n) torus angles, one row per state.  The certificate
    is explicitly relative to the coefficient bound and the sample set.
    """
    w = frequency_vector(omega)
    n = len(w)
    if sys.chart.dim != n:
        raise DimensionMismatch(
            f"system dimension {sys.chart.dim} != frequency vector length {n}"
        )
    if n_samples < MIN_CERTIFICATE_SAMPLES:
        raise InvalidInput(f"certificate needs at least {MIN_CERTIFICATE_SAMPLES} sample pairs")

    indep = rational_independence(w, max_coeff, tol)
    if not indep.independent:
        return Verdict(
            NO_OBSTRUCTION,
            ("rational_independence",),
            reason=f"refused: rational dependence {indep.relation}",
        )

    if any(p is None for p in sys.chart.wraps):
        raise InvalidInput("the certificate samples a fully wrapped (torus) chart")
    periods = np.array(sys.chart.wraps, dtype=float)
    states = rng.random((n_samples, n)) * periods
    times = rng.uniform(-10.0, 10.0, n_samples)

    lhs = _batch_image(Fmap, evolve(sys, states, times), n, "factor map Fmap")
    start = _batch_image(Fmap, states, n, "factor map Fmap")
    rhs = evolve(torus_translation("factor_translation", w), start, times)
    residual = worst(torus_angles(n).distances(lhs, rhs))
    if not residual <= tol:
        return Verdict(
            NO_OBSTRUCTION,
            ("rational_independence", "factor_map_equivariance"),
            reason=f"refused: factor map residual {residual:.3g} > {tol:.3g}",
        )
    return Verdict(
        CERTIFIED,
        ("rational_independence", "factor_map_equivariance"),
        witness={
            "omega": [float(v) for v in w],
            "max_coeff": int(max_coeff),
            "samples": int(len(times)),
            "max_residual": residual,
        },
    )
