"""Extended dynamic mode decomposition on sampled snapshot pairs.

Ridge-regularized least squares for the one-step operator on a dictionary of
observables, plus diagnostics that tie empirical residual floors back to the
catalog's linearizability verdicts: a large residual may just mean a poor
dictionary, so the EXPECTED label is only attached when the system is known
to admit no linearizing embedding and the phase estimator certifies the
divergence.

Dictionaries follow the flows batch convention: ``evaluate`` maps an
``(N, dim)`` batch of states, coordinates read as ``x[..., i]``, to the
``(N, D)`` matrix of observable values, one row per state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FlowlinError, InvalidInput
from .flows import ChartDescriptor, FlowSystem, _batch_image, circle_coords, evolve
from .linalg import solve_positive_definite
from .phase import GeometricSchedule, estimate_phase

__all__ = [
    "Dictionary",
    "EDMDModel",
    "SnapshotSet",
    "RankDeficient",
    "fourier_dictionary",
    "monomial_dictionary",
    "custom_dictionary",
    "collect_snapshots",
    "fit",
    "diagnose",
]


class RankDeficient(FlowlinError):
    """Gram matrix numerically singular at zero ridge; use ridge > 0."""


GRAM_CONDITION_LIMIT = 1e14
# horizons of the phase-divergence certificate attached to NotLinearizable entries
DIVERGENCE_SCHEDULE = GeometricSchedule(1.0, 2.0, 12)


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Finite set of observables: ``evaluate`` maps (N, dim) states to Psi, (N, D)."""

    kind: str
    evaluate: Callable  # (N, dim) batch -> (N, D) array
    labels: tuple

    @property
    def size(self) -> int:
        return len(self.labels)

    def matrix(self, states: np.ndarray) -> np.ndarray:
        """Psi of every row of ``states``; a map that breaks the batch convention raises."""
        return _batch_image(self.evaluate, states, self.size, f"{self.kind} dictionary")


def fourier_dictionary(chart: ChartDescriptor, degree: int) -> Dictionary:
    """Harmonics cos/sin(2 pi k x_i / period), k = 1..degree, of every angle coordinate."""
    angle_coords = [i for i, p in enumerate(chart.wraps) if p is not None]
    if not angle_coords:
        raise InvalidInput("fourier dictionary needs at least one angle coordinate")
    coords, rates, labels = [], [], []
    for i in angle_coords:
        period = chart.wraps[i]
        for k in range(1, degree + 1):
            coords.append(i)
            rates.append(2.0 * np.pi * k / period)
            labels.append(f"cos({k}*x{i + 1})")
            labels.append(f"sin({k}*x{i + 1})")
    rates = np.array(rates)

    def evaluate(x):
        return circle_coords(rates * np.asarray(x, float)[..., coords], 1.0)

    return Dictionary("fourier", evaluate, tuple(labels))


def monomial_dictionary(dim: int, degree: int) -> Dictionary:
    """All monomials of total degree <= degree, constant included."""
    powers = [
        p for p in itertools.product(range(degree + 1), repeat=dim) if sum(p) <= degree
    ]
    powers.sort(key=lambda p: (sum(p), p))
    exponents = np.array(powers)

    def evaluate(x):
        return np.prod(np.asarray(x, float)[..., None, :] ** exponents, axis=-1)

    labels = tuple(
        "1" if sum(p) == 0 else "*".join(f"x{i + 1}^{e}" for i, e in enumerate(p) if e)
        for p in powers
    )
    return Dictionary("monomial", evaluate, labels)


def custom_dictionary(F: Callable, labels: Sequence[str]) -> Dictionary:
    """Observables of one batch map ``F: (N, dim) -> (N, D)``, D = len(labels)."""
    return Dictionary("custom", F, tuple(labels))


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Pairs (x_i, Phi^h(x_i)) at a common step h."""

    X: np.ndarray
    Y: np.ndarray
    step: float


def collect_snapshots(sys: FlowSystem, initial_states, step: float, count: int) -> SnapshotSet:
    """Roll trajectories from the initial states in lockstep.

    Each of the S starts rolls ceil(count / S) pairs until count pairs are
    collected, so the last trajectories may be shorter or empty; pairs are
    ordered by start, then by step.  Each step is one batched evolve over
    the trajectories still live.
    """
    if step <= 0:
        raise InvalidInput("step must be positive")
    initial_states = np.asarray(initial_states, dtype=float)
    if initial_states.ndim == 1:
        initial_states = initial_states[None, :]
    if not len(initial_states):
        raise InvalidInput("snapshots need at least one initial state")
    per_state = int(np.ceil(count / len(initial_states)))
    lengths = np.clip(count - per_state * np.arange(len(initial_states)), 0, per_state)
    rolls = np.empty((len(initial_states), per_state + 1, initial_states.shape[1]))
    rolls[:, 0] = initial_states
    for k in range(per_state):
        live = lengths > k
        rolls[live, k + 1] = evolve(sys, rolls[live, k], step)
    X = np.concatenate([roll[:n] for roll, n in zip(rolls, lengths)])
    Y = np.concatenate([roll[1 : n + 1] for roll, n in zip(rolls, lengths)])
    return SnapshotSet(X, Y, step)


@dataclass(frozen=True, eq=False)
class EDMDModel:
    K: np.ndarray
    step: float
    training_residual: float
    spectrum: np.ndarray


def _frobenius(R: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("ij,ij->", R, R)))


def _residual(K: np.ndarray, PX: np.ndarray, PY: np.ndarray) -> float:
    denom = _frobenius(PY)
    if denom == 0.0:
        return 0.0
    return _frobenius(PY - np.einsum("ij,jn->in", K, PX)) / denom


def fit(dictionary: Dictionary, snapshots: SnapshotSet, ridge: float = 1e-10) -> EDMDModel:
    """Least-squares one-step operator via Tikhonov-regularized normal equations."""
    if ridge < 0:
        raise InvalidInput("ridge must be >= 0")
    n_pairs = len(snapshots.X)
    if n_pairs < dictionary.size:
        raise InvalidInput(
            f"need at least D = {dictionary.size} pairs, got {n_pairs}"
        )
    if dictionary.size < snapshots.X.shape[1]:
        raise InvalidInput(
            f"dictionary size {dictionary.size} below state dimension {snapshots.X.shape[1]}"
        )
    PX = dictionary.matrix(snapshots.X).T  # (D, N)
    PY = dictionary.matrix(snapshots.Y).T
    if not (np.all(np.isfinite(PX)) and np.all(np.isfinite(PY))):
        raise InvalidInput("dictionary evaluations must be finite on the snapshots")
    # einsum without optimize sums in numpy's own loops; a BLAS product of
    # this size would wake OpenBLAS worker threads
    G = np.einsum("in,jn->ij", PX, PX)
    if ridge == 0.0:
        cond = np.linalg.cond(G)
        if cond > GRAM_CONDITION_LIMIT:
            raise RankDeficient(
                f"Gram condition {cond:.3g} > {GRAM_CONDITION_LIMIT:.0e} at ridge 0; "
                "set ridge > 0"
            )
    A = np.einsum("in,jn->ij", PY, PX)
    try:
        K = solve_positive_definite(G + ridge * np.eye(dictionary.size), A.T).T
    except np.linalg.LinAlgError as err:
        raise RankDeficient(f"Gram matrix not positive definite: {err}; set ridge > 0") from err
    return EDMDModel(
        K=K,
        step=snapshots.step,
        training_residual=_residual(K, PX, PY),
        spectrum=np.linalg.eigvals(K),
    )


def diagnose(
    model: EDMDModel,
    dictionary: Dictionary,
    sys: FlowSystem,
    holdout: SnapshotSet,
    entry=None,
) -> dict:
    """Holdout residual, lift injectivity, spectrum location, failure labeling.

    The lift injectivity margin is ``sys.chart.injectivity_margin`` of the
    holdout states and their dictionary lifts; it is reported as None when
    it is not finite (NaN lifts, or no pair of distinct holdout states).
    When the catalog entry is known NotLinearizable, the phase module's
    divergence certificate over DIVERGENCE_SCHEDULE is attached and the
    residual floor labeled EXPECTED; the label is never inferred from the
    residual magnitude alone.
    """
    PX = dictionary.matrix(holdout.X).T
    PY = dictionary.matrix(holdout.Y).T
    holdout_residual = _residual(model.K, PX, PY)

    margin = sys.chart.injectivity_margin(holdout.X, PX.T)
    on_circle = np.abs(np.abs(model.spectrum) - 1.0) < 1e-6

    report = {
        "holdout_residual": holdout_residual,
        "training_residual": model.training_residual,
        "lift_injectivity_margin": float(margin) if np.isfinite(margin) else None,
        "spectrum_on_unit_circle_fraction": float(np.mean(on_circle)),
        "expected_failure": False,
    }

    if entry is not None and entry.expected_verdict.kind == "not_linearizable":
        probe = np.asarray(holdout.X[0], float)
        estimate = estimate_phase(sys, entry.attractor, probe, DIVERGENCE_SCHEDULE)
        report["phase_divergence_certificate"] = {
            "classification": estimate.classification.kind,
            "probe_state": [float(v) for v in probe],
            "horizons": [float(t) for t in estimate.horizons],
            "drift": estimate.classification.drift,
        }
        if estimate.classification.kind == "diverged":
            report["expected_failure"] = True
            report["residual_floor_label"] = "EXPECTED"
    return report
