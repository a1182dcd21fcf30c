"""The four workloads: fixed operation lists run in order by one caller.

Each operation is either a README CLI command at its documented size,
called in-process through ``flowlin.cli.main``, or a public library call
the CLI does not reach.  Every flowlin function is looked up on its module
when the operation runs, so the tracer's wrappers are seen.  Inputs the
benchmark chooses come from the workload seed; CLI commands get it as
``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

WHY = {
    "basin": "attractor-basin construction: built embeddings spend most of their time in "
    "embed.impact_time and its closed-form evolve calls, the target of a batched state layer",
    "refute": "the refutation side: EDMD diagnostics and cloud-search phase estimation spend "
    "most of their time in chart distances; no impact_time runs",
    "compact": "compact spaces and writes: exact embeddings, certificates, pinched families "
    "(a matrix_exp per sample) and CSV output; no impact_time or integrator",
    "ode": "vector-field twins: the only workload that goes through the DP5(4) integrator and "
    "dense output, so closed-form and integrator changes show apart",
}

# verdict kind of every catalog entry, as `catalog list` must report it
CATALOG_VERDICTS = {
    "quasiperiodic_torus_1": "linearizable_smooth",
    "quasiperiodic_torus_2": "linearizable_smooth",
    "quasiperiodic_torus_3": "linearizable_smooth",
    "sphere_rotation": "linearizable_smooth",
    "klein_bottle": "linearizable_smooth",
    "projective_plane": "linearizable_smooth",
    "product_attractor": "linearizable_smooth",
    "annulus_cubic": "not_linearizable",
    "log_radial": "linearizable_smooth",
    "saddle_plane": "linearizable_smooth",
}

EMBEDDING_CHECKS = ("linearization_residual", "injectivity_margin", "min_jacobian_sigma")
EDMD_NUMBERS = ("holdout_residual", "training_residual", "lift_injectivity_margin")
ODE_BOUND = 1e-7

# README single-pinch spec and the two-pinch spec of acceptance criterion 8
SINGLE_PINCH = {
    "n": 2, "m": 1, "M": [[0, 1]], "S": [[["0", "1"]]], "C": [[[["0", "0"]]], []],
    "omega": [{"prime_scale": 2, "rational": ["1", "0"]}],
}
DOUBLE_PINCH = {
    "n": 2, "m": 1, "M": [[0, 1]], "S": [[["0", "1"]]],
    "C": [[[["0", "0"]], [["1/2", "1/2"]]], []],
}


@dataclass(frozen=True)
class Op:
    span: str  # layer span of the whole operation, e.g. "cli.verify"
    label: str
    call: Callable[[], object]
    judge: Callable[[object], list[str]]  # problems with call()'s result


def _flowlin():
    import flowlin.cli  # the package itself imports every other module

    return flowlin


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = _flowlin().cli.main(argv)
    return rc, buf.getvalue()


def cli_op(argv: list[str], seed: int, **expect) -> Op:
    """A CLI command whose JSON report the oracle judges with ``expect``."""
    argv = [*argv, "--seed", str(seed)]

    def judge(out):
        rc, text = out
        try:
            report = json.loads(text)
        except ValueError:
            return [f"exit code {rc}; stdout is not a JSON report"]
        return oracle.judge_report(report, rc, **expect)

    return Op(f"cli.{argv[0]}", " ".join(argv), lambda: _run_cli(argv), judge)


def csv_op(argv: list[str], seed: int, path: Path, n_rows: int, tmax: float, invariant) -> Op:
    """A CLI command that writes a trajectory CSV to ``path``."""
    argv = [*argv, "--out", str(path), "--seed", str(seed)]

    def judge(out):
        rc, _ = out
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        try:
            text = path.read_text()
        except OSError as err:
            return [f"no CSV written: {err}"]
        path.unlink()  # so that a later pass cannot pass on a stale file
        return oracle.judge_csv(text, n_rows, tmax, invariant, tol=1e-12)

    return Op(f"cli.{argv[0]}", " ".join(argv), lambda: _run_cli(argv), judge)


def _catalog_list_op(seed: int) -> Op:
    def judge(out):
        rc, text = out
        try:
            rows = json.loads(text)
            got = {row["name"]: row["verdict"] for row in rows}
        except (ValueError, TypeError, KeyError) as err:
            return [f"exit code {rc}; unreadable catalog list: {err}"]
        problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
        if got != CATALOG_VERDICTS:
            problems.append(f"catalog verdicts {got} differ from {CATALOG_VERDICTS}")
        return problems

    argv = ["catalog", "list", "--seed", str(seed)]
    return Op("cli.catalog", " ".join(argv), lambda: _run_cli(argv), judge)


def _fmt(x) -> str:
    return ",".join(repr(float(v)) for v in x)


# --- basin --------------------------------------------------------------------


def basin(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for system in ("log_radial", "product_attractor"):
        ops.append(cli_op(
            ["verify", "--system", system, "--embedding", "built", "--samples", "200"],
            seed, checks=EMBEDDING_CHECKS + ("properness_probe",),
            fields={"provenance": "built_topological"},
        ))
    builds = [
        (["--system", "log_radial"], "built_topological", ()),
        (["--system", "log_radial", "--mode", "smooth"], "built_smooth", ("overlap_identity",)),
        (["--system", "product_attractor"], "built_topological", ()),
    ]
    for args, provenance, extra in builds:
        ops.append(cli_op(
            ["build", *args], seed, checks=EMBEDDING_CHECKS + extra,
            fields={"provenance": provenance},
        ))
    return ops


# --- refute -------------------------------------------------------------------


def _phase_op(name: str, x: np.ndarray, expected: str) -> Op:
    fl = _flowlin()
    entry = fl.catalog.get(name)
    # the catalog's attractor without its closed-form projector: the cloud search
    model = fl.phase.AttractorModel(entry.attractor.cloud, entry.attractor.restricted_flow)
    schedule = fl.phase.GeometricSchedule(1.0, 2.0, 12)

    def call():
        return _flowlin().phase.estimate_phase(entry.system, model, x, schedule)

    def judge(est):
        cls = est.classification
        problems = []
        if cls.kind != expected:
            problems.append(f"classification {cls.kind!r}, expected {expected!r}")
        if not np.all(np.isfinite(est.estimates)):
            problems.append("non-finite phase estimates")
        problems += oracle.non_finite(cls.drift, "drift")
        if expected == "converged" and cls.limit is not None:
            err = entry.system.chart.distance(cls.limit, entry.exact_phase(x))
            problems += oracle.within(err, 1e-6, "distance of the limit to the exact phase")
        return problems

    return Op("lib.estimate_phase", f"estimate_phase {name} x={_fmt(x)}", call, judge)


def refute(seed: int, workdir: Path) -> list[Op]:
    fl = _flowlin()
    ops = [
        cli_op(
            ["edmd", "--system", "annulus_cubic", "--dict", "custom:polar_fourier_5",
             "--pairs", "2000"],
            seed, numbers=EDMD_NUMBERS,
            fields={
                "expected_failure": True,
                "residual_floor_label": "EXPECTED",
                "phase_divergence_certificate.classification": "diverged",
            },
        ),
        cli_op(
            ["edmd", "--system", "log_radial", "--dict", "custom:exact_lift", "--pairs", "2000"],
            seed, numbers=EDMD_NUMBERS, fields={"expected_failure": False},
        ),
        cli_op(
            ["edmd", "--system", "klein_bottle", "--dict", "fourier:3", "--pairs", "1000"],
            seed, numbers=EDMD_NUMBERS, fields={"expected_failure": False},
        ),
        cli_op(
            ["phase", "--system", "annulus_cubic", "--x", "2,0",
             "--schedule", "geometric:1,2,12"],
            seed, fields={"classification": "diverged"},
        ),
    ]
    rng = np.random.default_rng(seed)
    for name, expected in (("annulus_cubic", "diverged"), ("log_radial", "converged")):
        for x in fl.catalog.get(name).sample_states(rng, 10):
            ops.append(_phase_op(name, x, expected))
    return ops


# --- compact ------------------------------------------------------------------


def _radii(states: np.ndarray) -> np.ndarray:
    return np.linalg.norm(states.reshape(len(states), -1, 2), axis=2)


def compact(seed: int, workdir: Path) -> list[Op]:
    fl = _flowlin()
    rng = np.random.default_rng(seed)
    single, double = workdir / "single_pinch.json", workdir / "double_pinch.json"
    single.write_text(json.dumps(SINGLE_PINCH))
    double.write_text(json.dumps(DOUBLE_PINCH))
    start = workdir / "pinched_start.json"
    start.write_text(json.dumps({"theta": rng.random(2).tolist()}))
    sphere_x = fl.catalog.get("sphere_rotation").sample_states(rng, 1)[0]

    ops = []
    for system in ("quasiperiodic_torus_3", "sphere_rotation", "klein_bottle",
                   "projective_plane", "log_radial"):
        ops.append(cli_op(
            ["verify", "--system", system, "--embedding", "exact", "--samples", "200"],
            seed, checks=EMBEDDING_CHECKS, fields={"provenance": "exact"},
        ))
    certify = ["certify", "--system", "quasiperiodic_torus_2", "--Q", "50", "--omega"]
    ops.append(cli_op(
        [*certify, "1,1.4142135623730951"], seed,
        checks=("certificate_granted",), fields={"conclusion": "certified_linearizable"},
    ))
    ops.append(cli_op(
        [*certify, "1,2"], seed, exit_code=1,
        failing_checks=("certificate_granted",), fields={"conclusion": "no_obstruction_found"},
    ))
    for spec in (single, double):
        ops.append(cli_op(
            ["pinched", "--spec", str(spec), "--check", "--samples", "1000"], seed,
            checks=("linearity_residual", "quotient_consistency", "separation_margin"),
        ))
    ops.append(csv_op(
        ["pinched", "--spec", str(single), "--emit-trajectory", str(start),
         "--tmax", "20", "--steps", "1000"],
        seed, workdir / "pinched_orbit.csv", 1000, 20.0, _radii,
    ))
    ops.append(csv_op(
        ["catalog", "show", "sphere_rotation", "--emit-trajectory", f"--x={_fmt(sphere_x)}",
         "--tmax", "1", "--steps", "200"],
        seed, workdir / "sphere_orbit.csv", 200, 1.0,
        lambda states: np.linalg.norm(states, axis=1),
    ))
    ops.append(cli_op(
        ["index", "--system", "sphere_rotation", "--equilibrium", "0,0,1",
         "--radius", "0.5", "--samples", "256"],
        seed, checks=("hopf_index",), fields={"index": 1},
    ))
    ops.append(cli_op(
        ["verdict", "--system", "klein_bottle"], seed,
        checks=("verdict_consistent_with_catalog",), fields={"conclusion": "no_obstruction_found"},
    ))
    ops.append(_catalog_list_op(seed))
    return ops


# --- ode ----------------------------------------------------------------------


def _closed_form_gap(entry, xs, ts, states) -> float:
    """Largest chart distance between integrated states and the closed form."""
    fl = _flowlin()
    gaps = [
        entry.system.chart.distance(state, fl.flows.evolve(entry.system, x, float(t)))
        for x, t, state in zip(xs, ts, states)
    ]
    return float(np.max(gaps))  # NaN propagates, unlike max()


def ode(seed: int, workdir: Path) -> list[Op]:
    fl = _flowlin()
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 10.0, 6)
    ops = []
    for name in ("annulus_cubic", "log_radial"):
        entry = fl.catalog.get(name)
        for x in entry.sample_states(rng, 50):

            def judge(traj, entry=entry, x=x):
                if traj.states.shape != (len(grid), len(x)):
                    return [f"trajectory shape {traj.states.shape}"]
                gap = _closed_form_gap(entry, [x] * len(grid), grid, traj.states)
                return oracle.within(gap, ODE_BOUND, "distance to the closed form")

            ops.append(Op(
                "lib.sample_trajectory", f"sample_trajectory {name}_ode x={_fmt(x)}",
                lambda entry=entry, x=x: _flowlin().flows.sample_trajectory(
                    entry.ode_system, x, grid
                ),
                judge,
            ))
    for name in ("annulus_cubic", "log_radial"):
        entry = fl.catalog.get(name)
        starts = entry.sample_states(rng, 10)

        def judge(snaps, entry=entry):
            if snaps.X.shape != (500, 2) or snaps.Y.shape != (500, 2):
                return [f"snapshot shapes {snaps.X.shape}, {snaps.Y.shape}"]
            gap = _closed_form_gap(entry, snaps.X, [snaps.step] * 500, snaps.Y)
            return oracle.within(gap, ODE_BOUND, "snapshot distance to the closed form")

        ops.append(Op(
            "lib.collect_snapshots", f"collect_snapshots {name}_ode 500 pairs",
            lambda entry=entry, starts=starts: _flowlin().edmd.collect_snapshots(
                entry.ode_system, starts, 0.1, 500
            ),
            judge,
        ))
    saddle = fl.catalog.get("saddle_plane")
    triples = [
        (x, float(s), float(t))
        for x, (s, t) in zip(saddle.sample_states(rng, 100), rng.uniform(-1.0, 1.0, (100, 2)))
    ]

    def judge_group(report):
        problems = oracle.within(report.max_violation, ODE_BOUND, "group-law violation")
        if not report.passed or report.n_checked != len(triples) or report.failures:
            problems.append(
                f"group law passed={report.passed}, checked {report.n_checked}/{len(triples)}, "
                f"failures {report.failures[:3]}"
            )
        return problems

    ops.append(Op(
        "lib.check_group_law", "check_group_law saddle_plane_ode 100 triples",
        lambda: _flowlin().flows.check_group_law(saddle.ode_system, triples, ODE_BOUND),
        judge_group,
    ))
    return ops


WORKLOADS = {"basin": basin, "refute": refute, "compact": compact, "ode": ode}
