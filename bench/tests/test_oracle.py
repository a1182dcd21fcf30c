"""Self-test of the benchmark: the oracle must count broken outputs as failures.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

flowlin = run.import_flowlin()
catalog = flowlin.catalog


def fail_frac(ops) -> float:
    _, _, failures = run.run_pass(ops)
    return len(failures) / len(ops)


def verify_exact(system: str) -> workloads.Op:
    return workloads.cli_op(
        ["verify", "--system", system, "--embedding", "exact", "--samples", "200"], 0,
        checks=workloads.EMBEDDING_CHECKS,
    )


def verdict_op() -> workloads.Op:
    return workloads.cli_op(
        ["verdict", "--system", "klein_bottle"], 0,
        checks=("verdict_consistent_with_catalog",), fields={"conclusion": "no_obstruction_found"},
    )


def test_healthy_operations_pass():
    assert fail_frac([verify_exact("log_radial"), verdict_op()]) == 0.0


def test_nan_embedding_is_counted_in_fail_frac(monkeypatch):
    entry = catalog.get("log_radial")
    width = len(entry.exact_embedding.F(np.array([0.5, 0.0])))
    nan_embedding = catalog.ExactEmbedding(lambda x: np.full(width, np.nan), entry.exact_embedding.B)
    monkeypatch.setitem(
        catalog._CACHE, "log_radial", dataclasses.replace(entry, exact_embedding=nan_embedding)
    )
    assert fail_frac([verify_exact("log_radial"), verify_exact("sphere_rotation")]) == 0.5


def test_nan_evidence_in_a_report_is_counted_in_fail_frac(monkeypatch):
    # NaN at one sampled state only: the Jacobian stays finite, so the command
    # completes, while its injectivity margin becomes NaN
    entry = catalog.get("log_radial")
    bad = entry.sample_states(np.random.default_rng(0), 200)[0]
    F = entry.exact_embedding.F
    patchy = lambda x: np.full(len(F(x)), np.nan) if np.array_equal(x, bad) else F(x)
    monkeypatch.setitem(
        catalog._CACHE, "log_radial",
        dataclasses.replace(entry, exact_embedding=catalog.ExactEmbedding(patchy, entry.exact_embedding.B)),
    )
    op = verify_exact("log_radial")
    rc, text = op.call()
    assert "NaN" in text
    assert op.judge((rc, text))
    assert fail_frac([op, verify_exact("sphere_rotation")]) == 0.5


def test_flipped_verdict_is_counted_in_fail_frac(monkeypatch):
    obstruct = flowlin.obstruct
    flipped = obstruct.Verdict(obstruct.NOT_LINEARIZABLE, ("flipped",), reason="flipped")
    monkeypatch.setattr(obstruct, "smooth_linearizability_verdict", lambda facts: flipped)
    assert fail_frac([verdict_op(), verify_exact("sphere_rotation")]) == 0.5


def test_flipped_report_fields_fail():
    (phase,) = [op for op in workloads.refute(0, run.WORKDIR) if op.label.startswith("phase ")]
    rc, text = phase.call()
    assert phase.judge((rc, text)) == []
    report = json.loads(text)
    report["classification"] = "converged"
    assert phase.judge((rc, json.dumps(report)))
    report["classification"] = "diverged"
    report["drift"]["first_gap"] = float("nan")
    assert phase.judge((rc, json.dumps(report)))
    assert phase.judge((2, text))


def test_refused_certificate_must_refuse():
    (refuse,) = [op for op in workloads.compact(0, run.WORKDIR) if op.label.endswith("1,2 --seed 0")]
    rc, text = refuse.call()
    assert rc == 1 and refuse.judge((rc, text)) == []
    report = json.loads(text)
    report["checks"][0]["pass"] = True
    report["conclusion"] = "certified_linearizable"
    assert refuse.judge((0, json.dumps(report)))


def test_csv_and_numeric_checks_reject_broken_output():
    good = "t,x1,x2\n0,1,0\n0.5,0,1\n1,-1,0\n"
    norm = lambda states: np.linalg.norm(states, axis=1)
    assert oracle.judge_csv(good, 3, 1.0, norm) == []
    assert oracle.judge_csv(good.replace("0,1\n1", "0,2\n1"), 3, 1.0, norm)
    assert oracle.judge_csv(good.replace("-1,0", "nan,0"), 3, 1.0, norm)
    assert oracle.judge_csv(good, 4, 1.0, norm)
    assert oracle.within(float("nan"), 1e-7, "gap")
    assert oracle.non_finite({"a": [1.0, {"b": float("inf")}], "c": True}) == ["report.a[1].b = inf"]


def test_tracer_wraps_every_binding_and_restores():
    original = flowlin.embed.evolve
    system = catalog.get("log_radial").system
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert flowlin.embed.evolve is flowlin.flows.evolve is not original
        tracer.on = True
        with tracer.span("outer"):
            flowlin.embed.evolve(system, [0.5, 0.0], 1.0)
            system.chart.distance([0.5, 0.0], [0.5, 0.1])
        tracer.on = False
    assert flowlin.embed.evolve is original
    summary = spans.summarize(tracer)
    assert summary.calls["flows.evolve"] == 1
    assert summary.calls["flows.chart_distance"] == 1
    assert summary.self_s["outer"] <= summary.incl["outer"]


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
