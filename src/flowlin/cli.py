"""Command-line entry point: seeded, deterministic reports in JSON/CSV.

Exit codes: 0 when every requested check passes, 1 when a check fails, 2
on bad input: an argparse usage error, or a FlowlinError or floating-point
exception, printed as the one line ``flowlin: <Name>: <message>``.  Timing
is recorded only behind ``--timing`` so that default outputs are bitwise
reproducible per seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial

import numpy as np

from . import __version__, catalog, edmd, flows, obstruct, phase, pinched
from .embed import (
    BATCH_TOL,
    PROPERNESS_RHO,
    EmbeddingCandidate,
    build_smooth_embedding,
    build_topological_embedding,
    overlap_identity_residual,
    verify_embedding_quality,
)
from .errors import FlowlinError, InvalidInput
from .flows import Trajectory, export_trajectory_csv, sample_trajectory


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(data, out: str | None) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=True) + "\n", out)


def _check(name: str, value, threshold, ok: bool) -> dict:
    return {"name": name, "value": value, "threshold": threshold, "pass": bool(ok)}


# each comparison is written so that a NaN value fails its check
def _at_most(name: str, value, threshold) -> dict:
    return _check(name, value, threshold, value <= threshold)


def _at_least(name: str, value, floor) -> dict:
    return _check(name, value, floor, value >= floor)


def _equal(name: str, value, expected) -> dict:
    return _check(name, value, expected, value == expected)


def _write_report(args, checks: list[dict], extra: dict) -> int:
    """Write a command's JSON report; the exit code is 0 when every check passes."""
    # the output path is not configuration: the same run gives the same bytes anywhere
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out", "start")}
    report = {"tool_version": __version__, "config": config, "checks": checks, **extra}
    if args.timing:
        report["timing_seconds"] = time.perf_counter() - args.start
    _dump_json(report, args.out)
    return 0 if all(c["pass"] for c in checks) else 1


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as err:
        raise InvalidInput(f"could not parse numbers from {text!r}") from err


def _parse_state(text: str, entry) -> np.ndarray:
    """One finite state, comma separated, on the domain of the entry's flow."""
    x = _parse_floats(text)
    if not np.all(np.isfinite(x)):
        raise InvalidInput(f"{entry.name} takes {entry.system.chart.dim} finite coordinates, "
                           f"got {text!r}")
    flows._check_domain(entry.system, x, 0.0)
    return x


def _emit_trajectory(args, system, x0, embed=None) -> int:
    """Write the trajectory of ``x0`` as CSV to ``--out``, states mapped by ``embed`` if given."""
    if not args.out:
        raise InvalidInput("--emit-trajectory requires --out")
    traj = sample_trajectory(system, x0, np.linspace(0.0, args.tmax, args.steps))
    if embed is not None:
        traj = Trajectory(traj.times, embed(traj.states))
    export_trajectory_csv(traj, args.out)
    return 0


# --- catalog ------------------------------------------------------------------


def _cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        verdicts = [(name, catalog.get(name).expected_verdict) for name in catalog.names()]
        rows = [{"name": n, "verdict": v.kind, "reason": v.reason} for n, v in verdicts]
        _dump_json(rows, args.out)
        return 0

    entry = catalog.get(args.name)
    if args.emit_trajectory:
        if args.x is None:
            raise InvalidInput("--emit-trajectory requires --x")
        return _emit_trajectory(args, entry.system, _parse_state(args.x, entry))

    meta = {
        "name": entry.name,
        "chart": {"kind": entry.system.chart.kind, "dim": entry.system.chart.dim},
        "verdict": entry.expected_verdict.kind,
        "reason": entry.expected_verdict.reason,
        "has_exact_embedding": entry.exact_embedding is not None,
        "has_exact_phase": entry.exact_phase is not None,
        "has_torus_action": entry.action is not None,
        "has_attractor_model": entry.attractor is not None,
        "has_ode_twin": entry.ode_system is not None,
        "equilibria": [
            {"location": list(eq.location), "index": eq.index} for eq in entry.equilibria
        ],
        "custom_dictionaries": sorted(entry.custom_observables),
    }
    if entry.action is not None:
        meta["omega"] = [float(v) for v in entry.action.omega]
    _dump_json(meta, args.out)
    return 0


# --- verify / build -----------------------------------------------------------


def _built_candidate(entry) -> EmbeddingCandidate:
    missing = [
        label
        for label, value in [
            ("asymptotic phase map", entry.exact_phase),
            ("attractor model", entry.attractor),
            ("attractor embedding", entry.attractor_embedding),
            ("Lyapunov level data", entry.lyapunov),
        ]
        if value is None
    ]
    if missing:
        raise InvalidInput(
            f"{entry.name}: no buildable embedding; missing {', '.join(missing)} "
            "(the builder's phase precondition cannot be met)"
        )
    rng = np.random.default_rng(0)
    states = entry.sample_states(rng, 40)
    return build_topological_embedding(
        entry.system,
        entry.attractor,
        entry.exact_phase,
        entry.attractor_embedding,
        entry.lyapunov,
        validation_states=states,
    )


def _evidence_checks(cand, entry, states, times, tol, floor, rows=None) -> tuple[list[dict], dict]:
    """The checks of one ``verify_embedding_quality`` pass, and its properness probe.

    The residual must be at most ``tol``, the injectivity margin and the
    smallest Jacobian singular value of the first ``rows`` states (all when
    None) at least ``floor``; the properness probe runs on the entry's
    escape states, if it has any.
    """
    escape = entry.escape_states(16) if entry.escape_states is not None else None
    q = verify_embedding_quality(cand, entry.system, states, times, escape, rows)
    checks = [
        _at_most("linearization_residual", q.linearization_residual, tol),
        _at_least("injectivity_margin", q.injectivity_margin, floor),
        _at_least("min_jacobian_sigma", q.min_jacobian_sigma, floor),
        _at_most("batch_agreement", q.batch_disagreement, BATCH_TOL),
    ]
    if q.properness["available"]:
        rho, flagged = q.properness["spearman_rho"], q.properness["flagged"]
        checks.append(_check("properness_probe", rho, PROPERNESS_RHO, not flagged))
    return checks, q.properness


def _cmd_verify(args) -> int:
    entry = catalog.get(args.system)
    rng = np.random.default_rng(args.seed)
    if args.embedding == "exact":
        if entry.exact_embedding is None:
            raise InvalidInput(f"{entry.name} has no exact embedding")
        cand, provenance = entry.exact_embedding, "exact"
    else:
        cand, provenance = _built_candidate(entry), "built_topological"

    states = entry.sample_states(rng, args.samples)
    times = [*catalog.STANDARD_TIMES[:3], float(args.tmax)]
    checks, properness = _evidence_checks(cand, entry, states, times, args.tol, 1e-6, 256)
    return _write_report(args, checks, {"provenance": provenance, "properness": properness})


def _cmd_build(args) -> int:
    entry = catalog.get(args.system)
    rng = np.random.default_rng(args.seed)
    states = entry.sample_states(rng, 40)
    overlap = None

    if args.mode == "topological":
        cand = _built_candidate(entry)
    else:
        if entry.transverse is None or entry.attractor_embedding is None:
            raise InvalidInput(
                f"{entry.name}: no transverse equivariant data; smooth builder unavailable"
            )
        cand = build_smooth_embedding(
            entry.system,
            entry.attractor,
            entry.exact_phase,
            entry.attractor_embedding,
            entry.transverse,
            entry.lyapunov.V,
            entry.lyapunov.level,
            validation_states=states,
        )
        escape = entry.escape_states(16)[0] if entry.escape_states is not None else states[:0]
        overlap = overlap_identity_residual(
            entry.system, entry.transverse, entry.lyapunov.V, entry.lyapunov.level,
            np.concatenate([states, escape]),
        )

    checks, properness = _evidence_checks(
        cand, entry, entry.sample_states(rng, 200), catalog.STANDARD_TIMES, 1e-6, 1e-3
    )
    extra = {"provenance": f"built_{args.mode}", "properness": properness}
    if overlap is not None:
        checks.append(_at_most("overlap_identity", overlap, 1e-7))
        extra["overlap_identity_residual"] = overlap
    return _write_report(args, checks, extra)


# --- phase ---------------------------------------------------------------------


def _parse_schedule(text: str) -> phase.GeometricSchedule:
    kind, _, params = text.partition(":")
    try:
        t0, ratio, count = params.split(",")
        t0, ratio, count = float(t0), float(ratio), int(count)
    except ValueError:
        kind = None
    if kind != "geometric":
        raise InvalidInput(f"schedule must look like geometric:T0,ratio,count, got {text!r}")
    return phase.GeometricSchedule(t0, ratio, count)


def _cmd_phase(args) -> int:
    entry = catalog.get(args.system)
    if entry.attractor is None:
        raise InvalidInput(f"{entry.name} has no attractor model")
    x = _parse_state(args.x, entry)
    schedule = _parse_schedule(args.schedule)
    estimate = phase.estimate_phase(entry.system, entry.attractor, x, schedule)
    cls = estimate.classification
    extra = {
        "horizons": [float(t) for t in estimate.horizons],
        "estimates": [[float(v) for v in e] for e in estimate.estimates],
        "classification": cls.kind,
        "drift": cls.drift,
    }
    if cls.kind == "converged":
        extra["limit"] = [float(v) for v in cls.limit]
        extra["rate"] = cls.rate
    return _write_report(args, [], extra)


# --- obstructions ---------------------------------------------------------------


def _cmd_index(args) -> int:
    entry = catalog.get(args.system)
    target = _parse_state(args.equilibrium, entry)
    match = next((eq for eq in entry.equilibria
                  if np.linalg.norm(np.asarray(eq.location) - target) < 1e-6), None)
    if match is None:
        raise InvalidInput(f"{entry.name} has no catalogued equilibrium at {target.tolist()}")
    report_eq = obstruct.hopf_index_2d(
        match.planar_field, (0.0, 0.0), args.radius, args.samples
    )
    checks = [_equal("hopf_index", report_eq.index, match.index)]
    extra = {
        "equilibrium": list(match.location),
        "index": report_eq.index,
        "expected_index": match.index,
        "winding_samples": report_eq.winding_samples,
        "min_field_norm_on_circle": report_eq.min_field_norm_on_circle,
    }
    return _write_report(args, checks, extra)


def _cmd_verdict(args) -> int:
    entry = catalog.get(args.system)
    if entry.facts is None:
        raise InvalidInput(
            f"{entry.name}: verdict rules apply to flows on compact manifolds; "
            "this entry has no compact-case facts"
        )
    verdict = obstruct.smooth_linearizability_verdict(entry.facts)
    expected_not = entry.expected_verdict.kind == "not_linearizable"
    engine_not = verdict.conclusion == obstruct.NOT_LINEARIZABLE
    checks = [
        _check(
            "verdict_consistent_with_catalog",
            verdict.conclusion,
            entry.expected_verdict.kind,
            engine_not == expected_not,
        )
    ]
    extra = {
        "conclusion": verdict.conclusion,
        "applied_rules": list(verdict.applied_rules),
        "reason": verdict.reason,
    }
    return _write_report(args, checks, extra)


def _cmd_certify(args) -> int:
    entry = catalog.get(args.system)
    omega = _parse_floats(args.omega)
    rng = np.random.default_rng(args.seed)
    verdict = obstruct.quasiperiodic_factor_certificate(
        entry.system,
        lambda x: np.asarray(x, float),
        omega,
        args.Q,
        n_samples=args.samples,
        tol=args.tol,
        rng=rng,
    )
    checks = [_equal("certificate_granted", verdict.conclusion, obstruct.CERTIFIED)]
    extra = {
        "conclusion": verdict.conclusion,
        "applied_rules": list(verdict.applied_rules),
        "reason": verdict.reason,
        "witness": verdict.witness,
    }
    return _write_report(args, checks, extra)


# --- pinched tori ----------------------------------------------------------------


def _cmd_pinched(args) -> int:
    try:
        spec = pinched.load_spec(args.spec)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise InvalidInput(f"could not load spec {args.spec!r}: {err}") from err

    if args.emit_trajectory:
        try:
            with open(args.emit_trajectory) as fh:
                theta0 = np.array(json.load(fh)["theta"], dtype=float)
        except (OSError, ValueError, KeyError, TypeError) as err:
            raise InvalidInput(f"could not load start point: {err}") from err
        embed = partial(pinched.canonical_embedding, spec)
        return _emit_trajectory(args, spec.system, pinched.make_point(spec, theta0), embed)

    rng = np.random.default_rng(args.seed)
    family = pinched.verify_family(spec, n_samples=args.samples, rng=rng)
    checks = [
        _at_most("linearity_residual", family.max_linearity_residual, pinched.LINEARITY_TOL),
        _equal("quotient_consistency", family.quotient_consistent, True),
        _check("separation_margin", family.min_separation, 0.0, family.min_separation > 0.0),
    ]
    extra = {
        "n": spec.n,
        "m": spec.m,
        "omega": [float(v) for v in spec.omega],
        "max_embedding_radius": family.max_embedding_radius,
        "n_samples": family.n_samples,
    }
    return _write_report(args, checks, extra)


# --- EDMD --------------------------------------------------------------------------


def _parse_dictionary(text: str, entry) -> edmd.Dictionary:
    try:
        kind, param = text.split(":")
    except ValueError as err:
        raise InvalidInput(f"dictionary must look like kind:param, got {text!r}") from err
    if kind in ("fourier", "monomial"):
        try:
            degree = int(param)
        except ValueError as err:
            raise InvalidInput(f"bad dictionary {text!r} for {entry.name}: {err}") from err
        if kind == "fourier":
            return edmd.fourier_dictionary(entry.system.chart, degree)
        return edmd.monomial_dictionary(entry.system.chart.dim, degree)
    if kind == "custom":
        if param not in entry.custom_observables:
            raise InvalidInput(
                f"{entry.name} has no custom dictionary {param!r}; "
                f"available: {sorted(entry.custom_observables)}"
            )
        labels, maps = entry.custom_observables[param]
        return edmd.custom_dictionary(maps, labels)
    raise InvalidInput(f"unknown dictionary kind {kind!r}")


def _cmd_edmd(args) -> int:
    entry = catalog.get(args.system)
    dictionary = _parse_dictionary(args.dict, entry)
    rng = np.random.default_rng(args.seed)

    n_train_states = max(1, args.pairs // 50)
    train_states = entry.sample_states(rng, n_train_states)
    snapshots = edmd.collect_snapshots(entry.system, train_states, args.step, args.pairs)
    holdout_states = entry.sample_states(rng, max(1, args.pairs // 250 + 1))
    holdout = edmd.collect_snapshots(
        entry.system, holdout_states, args.step, max(dictionary.size, args.pairs // 5)
    )
    model = edmd.fit(dictionary, snapshots, ridge=args.ridge)
    diag = edmd.diagnose(model, dictionary, entry.system, holdout, entry=entry)

    extra = {
        "dictionary": {"kind": dictionary.kind, "size": dictionary.size},
        "spectrum": [[float(v.real), float(v.imag)] for v in model.spectrum],
        **diag,
    }
    return _write_report(args, [], extra)


# --- parser -----------------------------------------------------------------------


def _number(kind, low: float, strict: bool = False):
    """argparse type: a finite ``kind`` number at least ``low``, or above it if ``strict``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            bound = f"{'>' if strict else '>='} {low}"
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} {bound}, got {text!r}"
            )
        return value

    return parse


_positive = _number(float, 0.0, strict=True)
_count = _number(int, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowlin",
        description="Construct, verify, and refute linearizing embeddings of flows.",
    )
    parser.add_argument("--version", action="version", version=f"flowlin {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--timing", action="store_true", help="record wall time in reports")

    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list or inspect catalog systems")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", parents=[common], help="names and verdicts as JSON")
    p_show = cat_sub.add_parser("show", parents=[common], help="metadata JSON for one system")
    p_show.add_argument("name")
    p_show.add_argument("--emit-trajectory", action="store_true",
                        help="write a trajectory CSV instead of metadata")
    p_show.add_argument("--x", default=None, help="initial state, comma separated")
    p_show.add_argument("--tmax", type=_positive, default=10.0)
    p_show.add_argument("--steps", type=_count, default=1000)
    p_cat.set_defaults(func=_cmd_catalog)

    p_verify = sub.add_parser("verify", parents=[common], help="verify an embedding candidate")
    p_verify.add_argument("--system", required=True)
    p_verify.add_argument("--embedding", choices=["exact", "built"], default="exact")
    p_verify.add_argument("--samples", type=_count, default=200)
    p_verify.add_argument("--tmax", type=_positive, default=10.0)
    p_verify.add_argument("--tol", type=_positive, default=1e-6)
    p_verify.set_defaults(func=_cmd_verify)

    p_build = sub.add_parser("build", parents=[common], help="build a basin embedding")
    p_build.add_argument("--system", required=True)
    p_build.add_argument("--mode", choices=["topological", "smooth"], default="topological")
    p_build.set_defaults(func=_cmd_build)

    p_phase = sub.add_parser("phase", parents=[common], help="estimate asymptotic phase")
    p_phase.add_argument("--system", required=True)
    p_phase.add_argument("--x", required=True, help="basin point, comma separated")
    p_phase.add_argument("--schedule", default="geometric:1,2,8")
    p_phase.set_defaults(func=_cmd_phase)

    p_index = sub.add_parser("index", parents=[common], help="Hopf index by winding number")
    p_index.add_argument("--system", required=True)
    p_index.add_argument("--equilibrium", required=True, help="location, comma separated")
    p_index.add_argument("--radius", type=_positive, default=0.5)
    p_index.add_argument(
        "--samples", type=_number(int, obstruct.MIN_WINDING_SAMPLES), default=256
    )
    p_index.set_defaults(func=_cmd_index)

    p_verdict = sub.add_parser("verdict", parents=[common],
                               help="necessary-condition verdict from catalog facts")
    p_verdict.add_argument("--system", required=True)
    p_verdict.set_defaults(func=_cmd_verdict)

    p_cert = sub.add_parser("certify", parents=[common],
                            help="quasiperiodic torus factor certificate")
    p_cert.add_argument("--system", required=True)
    p_cert.add_argument("--omega", required=True, help="frequencies, comma separated")
    p_cert.add_argument("--Q", type=_count, default=50, help="coefficient bound")
    p_cert.add_argument(
        "--samples", type=_number(int, obstruct.MIN_CERTIFICATE_SAMPLES), default=100
    )
    p_cert.add_argument("--tol", type=_positive, default=1e-9)
    p_cert.set_defaults(func=_cmd_certify)

    p_pinch = sub.add_parser("pinched", parents=[common],
                             help="check or plot a pinched torus family")
    p_pinch.add_argument("--spec", required=True, help="JSON spec file")
    pinch_mode = p_pinch.add_mutually_exclusive_group(required=True)
    pinch_mode.add_argument("--check", action="store_true", help="run the family checks")
    pinch_mode.add_argument("--emit-trajectory", default=None,
                            help="JSON file with a start point {\"theta\": [...]}")
    p_pinch.add_argument("--samples", type=_number(int, pinched.MIN_SAMPLES), default=200)
    p_pinch.add_argument("--tmax", type=_positive, default=10.0)
    p_pinch.add_argument("--steps", type=_count, default=1000)
    p_pinch.set_defaults(func=_cmd_pinched)

    p_edmd = sub.add_parser("edmd", parents=[common], help="EDMD fit and diagnostics")
    p_edmd.add_argument("--system", required=True)
    p_edmd.add_argument("--dict", default="fourier:1",
                        help="fourier:d | monomial:d | custom:<name>")
    p_edmd.add_argument("--pairs", type=_count, default=500)
    p_edmd.add_argument("--step", type=_positive, default=0.1)
    p_edmd.add_argument("--ridge", type=_number(float, 0.0), default=1e-10)
    p_edmd.set_defaults(func=_cmd_edmd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    args.start = time.perf_counter()
    try:
        # a floating-point exception means the input left the range the
        # arithmetic covers; library code that expects one handles it locally
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (FlowlinError, FloatingPointError) as err:
        print(f"flowlin: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
