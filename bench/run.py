"""flowlin benchmark: end-to-end pass time and per-layer traces per workload.

A closed loop: one caller in one process, with no added threads, runs a
workload's fixed operation list in order, waiting for each operation, for
about ``--seconds`` seconds of passes.  Every operation's output is
checked by the oracle.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload basin --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

``--trace 0`` reports the end-to-end metrics (medians over passes):
``pass_s`` and ``pass_cpu_s`` (wall and process CPU time of one pass, the
oracle's own checks excluded), ``setup_s`` (median over fresh interpreters
of importing flowlin and building every catalog entry) and
``peak_rss_mb``.  ``--trace 1`` times untraced passes for a third of the
time, then traced passes, and reports the per-layer metrics of
``spans.PER_LAYER`` (medians over traced passes) with the tracing overhead.
The benchmark measures the flowlin under ``src/`` of its own checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"
SETUP_REPS = 3
SETUP_CODE = (
    "from flowlin import catalog\n"
    "for name in catalog.names():\n"
    "    catalog.get(name)\n"
)
END_TO_END = {"pass_s": "s", "pass_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
MAX_FAILURE_LINES = 20


def import_flowlin():
    """Import flowlin from this checkout's src/, or exit non-zero."""
    if not (SRC / "flowlin" / "__init__.py").is_file():
        raise SystemExit(f"bench: no flowlin package under {SRC}")
    sys.path.insert(0, str(SRC))
    import flowlin

    if Path(flowlin.__file__).resolve().parent != (SRC / "flowlin").resolve():
        raise SystemExit(f"bench: flowlin imported from {flowlin.__file__}, not {SRC}")
    return flowlin


def measure_setup(reps: int) -> list[float]:
    """Wall time of fresh interpreters that import flowlin and build the catalog."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return times


def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def run_pass(ops, tracer=None):
    """One pass over the operation list: (wall s, CPU s, [(label, problems)])."""
    wall = cpu = 0.0
    failures = []
    for op in ops:
        span = tracer.span(op.span) if tracer is not None else contextlib.nullcontext()
        if tracer is not None:
            tracer.on = True
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with span:
                out, err = op.call(), None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        if tracer is not None:
            tracer.on = False
        problems = [err] if err else op.judge(out)
        if problems:
            failures.append((op.label, problems))
    return wall, cpu, failures


def timed_passes(ops, seconds: float, tracer=None, after_pass=None):
    """Run passes until about ``seconds`` have elapsed; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(ops, tracer))
        if after_pass is not None:
            after_pass(passes[-1])
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    flowlin = import_flowlin()
    catalog = flowlin.catalog
    setup_times = [] if trace else measure_setup(SETUP_REPS)

    tracer = spans.Tracer()
    with spans.patched(tracer):
        tracer.on = trace
        entries = [catalog.get(n) for n in catalog.names()]
        tracer.on = False
    setup_summary = spans.summarize(tracer)

    WORKDIR.mkdir(exist_ok=True)
    ops = workloads.WORKLOADS[name](seed, WORKDIR)
    passes = timed_passes(ops, seconds / 3 if trace else seconds)
    result = {
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "provenance": provenance(),
    }
    wall = [p[0] for p in passes]
    failures = [f for p in passes for f in p[2]]
    if trace:
        untraced = statistics.median(wall)
        per_pass = []
        with spans.patched(tracer, entries):
            traced = timed_passes(
                ops, seconds - sum(wall), tracer,
                after_pass=lambda p: per_pass.append(
                    spans.layer_metrics(spans.summarize(tracer), setup_summary, p[0], untraced)
                ),
            )
        failures += [f for p in traced for f in p[2]]
        result["traced_passes"] = len(traced)
        attempted = len(ops) * (len(passes) + len(traced))
        metrics = {
            key: (statistics.median(m[key] for m in per_pass), unit)
            for key, unit in spans.PER_LAYER.items()
        }
    else:
        attempted = len(ops) * len(passes)
        values = {
            "pass_s": statistics.median(wall),
            "pass_cpu_s": statistics.median(p[1] for p in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {key: (values[key], unit) for key, unit in END_TO_END.items()}
        result["setup_s_runs"] = setup_times
    result["pass_s_runs"] = wall
    result.update(attempted=attempted, failed=len(failures), failures=failures, metrics=metrics)
    return result


def print_result(result: dict) -> None:
    print(f"workload {result['workload']} (seed {result['seed']}): {result['why']}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"{result['ops_per_pass']} operations per pass, {result['passes']} passes"
          + (f", {result['traced_passes']} traced" if "traced_passes" in result else ""))
    print("  untraced pass wall times: " + ", ".join(f"{t:.4f}" for t in result["pass_s_runs"]))
    if result.get("setup_s_runs"):
        print("  set-up times: " + ", ".join(f"{t:.4f}" for t in result["setup_s_runs"]))
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  fail_frac = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    for label, problems in result["failures"][:MAX_FAILURE_LINES]:
        print(f"  FAILED {label}: {'; '.join(problems)}")


def summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload in a fresh interpreter of its own, then one table."""
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=1800,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'metric':36s} {'unit':12s}" + "".join(f"{name:>12s}" for name in rows))
    first = next(iter(rows.values()))
    for key, m in first["metrics"].items():
        cells = "".join(f"{r['metrics'][key]['value']:12.6g}" for r in rows.values())
        print(f"{key:36s} {m['unit']:12s}{cells}")
    cells = "".join(f"{r['failed'] / r['attempted']:12.6g}" for r in rows.values())
    print(f"{'fail_frac':36s} {'ratio':12s}{cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{n}.{k}": m for n, r in rows.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
