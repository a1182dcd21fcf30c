"""Command-line entry point: seeded, deterministic reports in JSON/CSV.

Exit codes: 0 when every requested check passes, 1 when a check fails,
2 on usage or configuration errors.  Timing is recorded only behind
``--timing`` so that default outputs are bitwise reproducible per seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__, catalog, edmd, obstruct, phase, pinched
from .embed import (
    BATCH_TOL,
    EmbeddingCandidate,
    QualityOptions,
    build_smooth_embedding,
    build_topological_embedding,
    overlap_identity_residual,
    verify_embedding_quality,
    verify_linearization,
)
from .errors import FlowlinError
from .flows import Trajectory, export_trajectory_csv, sample_trajectory


class UsageError(Exception):
    """Configuration problem: wrong flags, missing catalog data, bad input."""


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


def _report(args, checks: list[dict], extra: dict | None = None, elapsed=None) -> dict:
    # the output path is not configuration: the same run gives the same bytes anywhere
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    report = {
        "tool_version": __version__,
        "config": config,
        "checks": checks,
    }
    if extra:
        report.update(extra)
    if getattr(args, "timing", False) and elapsed is not None:
        report["timing_seconds"] = elapsed
    return report


def _exit_code(checks: list[dict]) -> int:
    return 0 if all(c["pass"] for c in checks) else 1


def _entry(name: str) -> catalog.CatalogEntry:
    try:
        return catalog.get(name)
    except catalog.UnknownEntry as err:
        raise UsageError(str(err)) from err


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as err:
        raise UsageError(f"could not parse numbers from {text!r}") from err


# --- catalog ------------------------------------------------------------------


def _cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        rows = []
        for name in catalog.names():
            entry = catalog.get(name)
            rows.append(
                {
                    "name": name,
                    "verdict": entry.expected_verdict.kind,
                    "reason": entry.expected_verdict.reason,
                }
            )
        _dump_json(rows, args.out)
        return 0

    entry = _entry(args.name)
    if args.emit_trajectory:
        if args.x is None:
            raise UsageError("--emit-trajectory requires --x")
        if not args.out:
            raise UsageError("--emit-trajectory requires --out")
        x0 = _parse_floats(args.x)
        grid = np.linspace(0.0, args.tmax, args.steps)
        traj = sample_trajectory(entry.system, x0, grid)
        export_trajectory_csv(traj, args.out)
        return 0

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
        meta["omega"] = [float(v) for v in entry.action.omega.omega]
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
        raise UsageError(
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


def _quality_checks(
    cand, entry, states, options: QualityOptions = QualityOptions()
) -> tuple[list[dict], dict]:
    """Injectivity, immersion and batch-agreement checks, plus properness given escape states.

    The floors come from ``options``; returns the checks and the properness probe.
    """
    if entry.escape_states is not None:
        esc_states, esc_values = entry.escape_states(16)
        options = dataclasses.replace(
            options, escape_states=tuple(map(tuple, esc_states)), escape_values=tuple(esc_values)
        )
    quality = verify_embedding_quality(cand, entry.system, states, options)
    checks = [
        _check(
            "injectivity_margin",
            quality.injectivity_margin,
            options.injectivity_floor,
            not quality.injectivity_flagged,
        ),
        _check(
            "min_jacobian_sigma",
            quality.min_jacobian_sigma,
            options.sigma_floor,
            not quality.immersion_flagged,
        ),
        _check(
            "batch_agreement", quality.batch_disagreement, BATCH_TOL, not quality.batch_flagged
        ),
    ]
    if quality.properness["available"]:
        checks.append(
            _check(
                "properness_probe",
                quality.properness["spearman_rho"],
                0.9,
                not quality.properness["flagged"],
            )
        )
    return checks, quality.properness


def _cmd_verify(args) -> int:
    start = time.perf_counter()
    entry = _entry(args.system)
    rng = np.random.default_rng(args.seed)
    if args.embedding == "exact":
        if entry.exact_embedding is None:
            raise UsageError(f"{entry.name} has no exact embedding")
        cand = EmbeddingCandidate(entry.exact_embedding.F, entry.exact_embedding.B, "exact")
    else:
        cand = _built_candidate(entry)

    states = entry.sample_states(rng, args.samples)
    times = [0.0, 0.1, 1.0, float(np.pi), float(args.tmax)]
    residual = verify_linearization(cand, entry.system, (states, times))

    quality_checks, properness = _quality_checks(cand, entry, states[: min(len(states), 256)])
    checks = [
        _check("linearization_residual", residual, args.tol, residual <= args.tol),
        *quality_checks,
    ]
    report = _report(
        args,
        checks,
        {"provenance": cand.provenance, "properness": properness},
        time.perf_counter() - start,
    )
    _dump_json(report, args.out)
    return _exit_code(checks)


def _cmd_build(args) -> int:
    start = time.perf_counter()
    entry = _entry(args.system)
    rng = np.random.default_rng(args.seed)
    states = entry.sample_states(rng, 40)
    extra: dict = {}

    if args.mode == "topological":
        cand = _built_candidate(entry)
    else:
        if entry.transverse is None or entry.attractor_embedding is None:
            raise UsageError(
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
        overlap_states = list(states)
        if entry.escape_states is not None:
            overlap_states += [np.asarray(s, float) for s in entry.escape_states(16)[0]]
        overlap = overlap_identity_residual(
            entry.system, entry.transverse, entry.lyapunov.V, entry.lyapunov.level,
            overlap_states,
        )
        extra["overlap_identity_residual"] = overlap

    grid = catalog.standard_grid(entry, np.random.default_rng(args.seed))
    residual = verify_linearization(cand, entry.system, grid)
    quality_checks, extra["properness"] = _quality_checks(
        cand, entry, entry.sample_states(rng, 200),
        QualityOptions(injectivity_floor=1e-3, sigma_floor=1e-3),
    )
    checks = [
        _check("linearization_residual", residual, 1e-6, residual <= 1e-6),
        *quality_checks,
    ]
    if "overlap_identity_residual" in extra:
        checks.append(
            _check(
                "overlap_identity", extra["overlap_identity_residual"], 1e-7,
                extra["overlap_identity_residual"] <= 1e-7,
            )
        )
    extra["provenance"] = cand.provenance
    report = _report(args, checks, extra, time.perf_counter() - start)
    _dump_json(report, args.out)
    return _exit_code(checks)


# --- phase ---------------------------------------------------------------------


def _parse_schedule(text: str) -> phase.GeometricSchedule:
    try:
        kind, params = text.split(":")
        if kind != "geometric":
            raise ValueError
        t0, ratio, count = params.split(",")
        return phase.GeometricSchedule(float(t0), float(ratio), int(count))
    except (ValueError, TypeError) as err:
        raise UsageError(
            f"schedule must look like geometric:T0,ratio,count, got {text!r}"
        ) from err


def _cmd_phase(args) -> int:
    start = time.perf_counter()
    entry = _entry(args.system)
    if entry.attractor is None:
        raise UsageError(f"{entry.name} has no attractor model")
    x = _parse_floats(args.x)
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
    report = _report(args, [], extra, time.perf_counter() - start)
    _dump_json(report, args.out)
    return 0


# --- obstructions ---------------------------------------------------------------


def _cmd_index(args) -> int:
    entry = _entry(args.system)
    target = _parse_floats(args.equilibrium)
    match = None
    for eq in entry.equilibria:
        if np.linalg.norm(np.asarray(eq.location) - target) < 1e-6:
            match = eq
            break
    if match is None:
        raise UsageError(
            f"{entry.name} has no catalogued equilibrium at {target.tolist()}"
        )
    report_eq = obstruct.hopf_index_2d(
        match.planar_field, (0.0, 0.0), args.radius, args.samples
    )
    checks = [
        _check("hopf_index", report_eq.index, match.index, report_eq.index == match.index)
    ]
    extra = {
        "equilibrium": list(match.location),
        "index": report_eq.index,
        "expected_index": match.index,
        "winding_samples": report_eq.winding_samples,
        "min_field_norm_on_circle": report_eq.min_field_norm_on_circle,
    }
    report = _report(args, checks, extra)
    _dump_json(report, args.out)
    return _exit_code(checks)


def _cmd_verdict(args) -> int:
    entry = _entry(args.system)
    if entry.facts is None:
        raise UsageError(
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
    report = _report(args, checks, extra)
    _dump_json(report, args.out)
    return _exit_code(checks)


def _cmd_certify(args) -> int:
    entry = _entry(args.system)
    omega = _parse_floats(args.omega)
    rng = np.random.default_rng(args.seed)
    try:
        verdict = obstruct.quasiperiodic_factor_certificate(
            entry.system,
            lambda x: np.asarray(x, float),
            omega,
            args.Q,
            n_samples=args.samples,
            tol=args.tol,
            rng=rng,
        )
    except (obstruct.DimensionMismatch, ValueError) as err:
        raise UsageError(str(err)) from err
    checks = [
        _check(
            "certificate_granted",
            verdict.conclusion,
            obstruct.CERTIFIED,
            verdict.conclusion == obstruct.CERTIFIED,
        )
    ]
    extra = {
        "conclusion": verdict.conclusion,
        "applied_rules": list(verdict.applied_rules),
        "reason": verdict.reason,
        "witness": verdict.witness,
    }
    report = _report(args, checks, extra)
    _dump_json(report, args.out)
    return _exit_code(checks)


# --- pinched tori ----------------------------------------------------------------


def _cmd_pinched(args) -> int:
    try:
        spec = pinched.load_spec(args.spec)
    except (OSError, ValueError, KeyError) as err:
        raise UsageError(f"could not load spec {args.spec!r}: {err}") from err

    if args.emit_trajectory:
        if not args.out:
            raise UsageError("--emit-trajectory requires --out")
        try:
            with open(args.emit_trajectory) as fh:
                theta0 = np.array(json.load(fh)["theta"], dtype=float)
        except (OSError, ValueError, KeyError) as err:
            raise UsageError(f"could not load start point: {err}") from err
        times = np.linspace(0.0, args.tmax, args.steps)
        orbit = pinched.flow(spec, pinched.make_point(spec, theta0), times)
        states = pinched.canonical_embedding(spec, orbit)
        export_trajectory_csv(Trajectory(times, states), args.out)
        return 0

    rng = np.random.default_rng(args.seed)
    family = pinched.verify_family(spec, n_samples=args.samples, rng=rng)
    checks = [
        _check(
            "linearity_residual", family.max_linearity_residual, pinched.LINEARITY_TOL,
            family.max_linearity_residual <= pinched.LINEARITY_TOL,
        ),
        _check("quotient_consistency", family.quotient_consistent, True,
               family.quotient_consistent),
        _check("separation_margin", family.min_separation, 0.0, family.min_separation > 0.0),
    ]
    extra = {
        "n": spec.n,
        "m": spec.m,
        "omega": [float(v) for v in spec.omega],
        "max_embedding_radius": family.max_embedding_radius,
        "n_samples": family.n_samples,
    }
    report = _report(args, checks, extra)
    _dump_json(report, args.out)
    return _exit_code(checks)


# --- EDMD --------------------------------------------------------------------------


def _parse_dictionary(text: str, entry) -> edmd.Dictionary:
    try:
        kind, param = text.split(":")
    except ValueError as err:
        raise UsageError(f"dictionary must look like kind:param, got {text!r}") from err
    chart = entry.system.chart
    if kind == "fourier":
        return edmd.fourier_dictionary(chart, int(param))
    if kind == "monomial":
        return edmd.monomial_dictionary(chart.dim, int(param))
    if kind == "custom":
        if param not in entry.custom_observables:
            raise UsageError(
                f"{entry.name} has no custom dictionary {param!r}; "
                f"available: {sorted(entry.custom_observables)}"
            )
        labels, maps = entry.custom_observables[param]
        return edmd.custom_dictionary(maps, labels)
    raise UsageError(f"unknown dictionary kind {kind!r}")


def _cmd_edmd(args) -> int:
    start = time.perf_counter()
    entry = _entry(args.system)
    dictionary = _parse_dictionary(args.dict, entry)
    rng = np.random.default_rng(args.seed)

    n_train_states = max(1, args.pairs // 50)
    train_states = entry.sample_states(rng, n_train_states)
    snapshots = edmd.collect_snapshots(entry.system, train_states, args.step, args.pairs)
    holdout_states = entry.sample_states(rng, max(1, args.pairs // 250 + 1))
    holdout = edmd.collect_snapshots(
        entry.system, holdout_states, args.step, max(dictionary.size, args.pairs // 5)
    )
    try:
        model = edmd.fit(dictionary, snapshots, ridge=args.ridge)
    except edmd.RankDeficient as err:
        raise UsageError(str(err)) from err
    diag = edmd.diagnose(model, dictionary, entry.system, holdout, entry=entry)

    extra = {
        "dictionary": {"kind": dictionary.kind, "size": dictionary.size},
        "spectrum": [[float(v.real), float(v.imag)] for v in model.spectrum],
        **diag,
    }
    report = _report(args, [], extra, time.perf_counter() - start)
    _dump_json(report, args.out)
    return 0


# --- parser -----------------------------------------------------------------------


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

    p_cat = sub.add_parser("catalog", parents=[common], help="list or inspect catalog systems")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", parents=[common], help="names and verdicts as JSON")
    p_show = cat_sub.add_parser("show", parents=[common], help="metadata JSON for one system")
    p_show.add_argument("name")
    p_show.add_argument("--emit-trajectory", action="store_true",
                        help="write a trajectory CSV instead of metadata")
    p_show.add_argument("--x", default=None, help="initial state, comma separated")
    p_show.add_argument("--tmax", type=float, default=10.0)
    p_show.add_argument("--steps", type=int, default=1000)
    p_cat.set_defaults(func=_cmd_catalog)

    p_verify = sub.add_parser("verify", parents=[common], help="verify an embedding candidate")
    p_verify.add_argument("--system", required=True)
    p_verify.add_argument("--embedding", choices=["exact", "built"], default="exact")
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--tmax", type=float, default=10.0)
    p_verify.add_argument("--tol", type=float, default=1e-6)
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
    p_index.add_argument("--radius", type=float, default=0.5)
    p_index.add_argument("--samples", type=int, default=256)
    p_index.set_defaults(func=_cmd_index)

    p_verdict = sub.add_parser("verdict", parents=[common],
                               help="necessary-condition verdict from catalog facts")
    p_verdict.add_argument("--system", required=True)
    p_verdict.set_defaults(func=_cmd_verdict)

    p_cert = sub.add_parser("certify", parents=[common],
                            help="quasiperiodic torus factor certificate")
    p_cert.add_argument("--system", required=True)
    p_cert.add_argument("--omega", required=True, help="frequencies, comma separated")
    p_cert.add_argument("--Q", type=int, default=50, help="coefficient bound")
    p_cert.add_argument("--samples", type=int, default=100)
    p_cert.add_argument("--tol", type=float, default=1e-9)
    p_cert.set_defaults(func=_cmd_certify)

    p_pinch = sub.add_parser("pinched", parents=[common],
                             help="check or plot a pinched torus family")
    p_pinch.add_argument("--spec", required=True, help="JSON spec file")
    pinch_mode = p_pinch.add_mutually_exclusive_group(required=True)
    pinch_mode.add_argument("--check", action="store_true", help="run the family checks")
    pinch_mode.add_argument("--emit-trajectory", default=None,
                            help="JSON file with a start point {\"theta\": [...]}")
    p_pinch.add_argument("--samples", type=int, default=200)
    p_pinch.add_argument("--tmax", type=float, default=10.0)
    p_pinch.add_argument("--steps", type=int, default=1000)
    p_pinch.set_defaults(func=_cmd_pinched)

    p_edmd = sub.add_parser("edmd", parents=[common], help="EDMD fit and diagnostics")
    p_edmd.add_argument("--system", required=True)
    p_edmd.add_argument("--dict", default="fourier:1",
                        help="fourier:d | monomial:d | custom:<name>")
    p_edmd.add_argument("--pairs", type=int, default=500)
    p_edmd.add_argument("--step", type=float, default=0.1)
    p_edmd.add_argument("--ridge", type=float, default=1e-10)
    p_edmd.set_defaults(func=_cmd_edmd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"flowlin: {err}", file=sys.stderr)
        return 2
    except FlowlinError as err:
        print(f"flowlin: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
