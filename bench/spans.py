"""In-memory span tracer for the benchmark's traced run.

Every public function of every flowlin module is wrapped at each module
attribute that binds it, so ``from .flows import evolve`` in ``embed`` is
traced as well as ``flows.evolve`` itself.  A handful of methods and the
catalog's per-entry samplers are traced under the layer names the metrics
use.  Spans (name, start, end, parent) are kept in flat arrays and reduced
to per-layer numbers after each pass; nothing is written while timing.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from types import FunctionType

MODULES = (
    "linalg", "integrate", "flows", "catalog", "phase",
    "embed", "obstruct", "pinched", "edmd", "cli",
)

# (module, class, method) -> span name
METHODS = {
    ("flows", "ChartDescriptor", "distance"): "flows.chart_distance",
    ("flows", "ChartDescriptor", "pairwise_distances"): "flows.pairwise_distances",
    ("phase", "AttractorModel", "nearest_point"): "phase.nearest_point",
    ("edmd", "Dictionary", "matrix"): "edmd.dictionary_matrix",
    ("integrate", "DenseOutput", "__call__"): "integrate.dense_eval",
}
SAMPLER_SPAN = "catalog.sample_states"

CLI_COMMANDS = (
    "verify", "build", "edmd", "pinched", "certify", "phase", "index", "verdict", "catalog",
)


# Counts taken from a call's arguments or result, at the call's own boundary.
def _count_rows(args, kwargs, result):
    return "edmd.dictionary_matrix.rows", len(args[1])


def _count_steps(args, kwargs, result):
    return "integrate.steps_accepted", len(result.coeffs)


def _count_bytes(args, kwargs, result):
    return "flows.export_csv.bytes", os.path.getsize(args[1])


def _count_samples(args, kwargs, result):
    return "pinched.verify_family.samples", result.n_samples


COUNTERS = {
    "edmd.dictionary_matrix": _count_rows,
    "integrate.integrate": _count_steps,
    "flows.export_trajectory_csv": _count_bytes,
    "pinched.verify_family": _count_samples,
}

# Spans whose calls under a given ancestor are counted: (span, ancestor) -> counter
UNDER = {
    ("flows.evolve", "embed.impact_time"): "evolve_under_impact_time",
    ("linalg.matrix_exp", "pinched.verify_family"): "matrix_exp_under_verify_family",
}

# name -> unit, in the order they are reported
PER_LAYER = {
    **{f"cli.{cmd}.s": "s" for cmd in CLI_COMMANDS},
    "embed.impact_time.calls": "count",
    "embed.impact_time.s": "s",
    "embed.impact_time.self_s": "s",
    "embed.impact_time.errors": "count",
    "embed.impact_time.evolve_per_call": "evolve/call",
    "embed.impact_time.share": "ratio",
    "embed.verify_linearization.s": "s",
    "embed.verify_embedding_quality.s": "s",
    "embed.build.s": "s",
    "embed.overlap_identity_residual.s": "s",
    "flows.evolve.calls": "count",
    "flows.evolve.self_s": "s",
    "flows.chart_distance.calls": "count",
    "flows.chart_distance.s": "s",
    "flows.chart_distance.share": "ratio",
    "flows.pairwise_distances.s": "s",
    "flows.sample_trajectory.s": "s",
    "flows.check_group_law.s": "s",
    "flows.export_csv.s": "s",
    "flows.export_csv.bytes": "bytes",
    "integrate.calls": "count",
    "integrate.s": "s",
    "integrate.steps_accepted": "count",
    "integrate.dense_eval.calls": "count",
    "integrate.dense_eval.s": "s",
    "linalg.matrix_exp.calls": "count",
    "linalg.matrix_exp.s": "s",
    "linalg.rational_independence.s": "s",
    "phase.estimate_phase.calls": "count",
    "phase.estimate_phase.self_s": "s",
    "phase.nearest_point.calls": "count",
    "phase.nearest_point.self_s": "s",
    "phase.verify_phase_properties.s": "s",
    "edmd.collect_snapshots.s": "s",
    "edmd.dictionary_matrix.s": "s",
    "edmd.dictionary_matrix.rows": "count",
    "edmd.fit.s": "s",
    "edmd.diagnose.self_s": "s",
    "pinched.verify_family.s": "s",
    "pinched.canonical_embedding.calls": "count",
    "pinched.matrix_exp_per_sample": "1/sample",
    "obstruct.certificate.s": "s",
    "obstruct.hopf_index.s": "s",
    "obstruct.verdict.s": "s",
    "catalog.get.s": "s",
    "catalog.sample_states.s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans while ``on``; wrappers pass straight through while off."""

    def __init__(self):
        self.on = False
        self.ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = array("i")
        self.stack = [-1]
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        return self.ids.setdefault(name, len(self.ids))

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.errors.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if counter is not None:
                key, value = counter(args, kwargs, result)
                tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, catalog_entries=()):
    """Install tracing wrappers for the duration of the block, then restore.

    ``catalog_entries`` are CatalogEntry objects whose ``sample_states``
    callable is traced too (it is a field, not a method).
    """
    mods = {name: importlib.import_module(f"flowlin.{name}") for name in MODULES}
    wrappers = {}
    for name, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (
                isinstance(obj, FunctionType)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                wrappers[obj] = tracer.wrap(obj, f"{name}.{attr}")
    undo = []
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, FunctionType) and obj in wrappers:
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    for (modname, clsname, meth), span in METHODS.items():
        cls = getattr(mods[modname], clsname)
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, tracer.wrap(original, span))
    sampler_undo = []
    for entry in catalog_entries:
        original = entry.sample_states
        sampler_undo.append((entry, original))
        object.__setattr__(entry, "sample_states", tracer.wrap(original, SAMPLER_SPAN))
    try:
        yield tracer
    finally:
        tracer.on = False
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        for entry, original in sampler_undo:
            object.__setattr__(entry, "sample_states", original)


@dataclass
class Summary:
    """Per-span-name totals of one traced interval."""

    calls: dict
    incl: dict  # inclusive seconds, counting only outermost spans of a name
    self_s: dict
    errors: dict
    under: dict
    counts: dict

    def get(self, table: str, name: str) -> float:
        return getattr(self, table).get(name, 0)


def summarize(tracer: Tracer) -> Summary:
    """Reduce the recorded spans to totals; children always follow parents."""
    names = {v: k for k, v in tracer.ids.items()}
    n = len(tracer.start)
    name_id, parent, start, end, errs = (
        tracer.name_id, tracer.parent, tracer.start, tracer.end, tracer.errors,
    )
    under_ids = {
        (tracer.ids.get(child, -1), tracer.ids.get(anc, -1)): key
        for (child, anc), key in UNDER.items()
    }
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    mask = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            mask[i] = mask[p] | (1 << name_id[p])
    calls: dict = {}
    incl: dict = {}
    self_s: dict = {}
    errors: dict = {}
    under: dict = {}
    for i in range(n):
        k = name_id[i]
        calls[k] = calls.get(k, 0) + 1
        self_s[k] = self_s.get(k, 0.0) + dur[i] - child[i]
        if errs[i]:
            errors[k] = errors.get(k, 0) + 1
        if not (mask[i] >> k) & 1:
            incl[k] = incl.get(k, 0.0) + dur[i]
    for (cid, aid), key in under_ids.items():
        if cid < 0 or aid < 0:
            continue
        under[key] = sum(1 for i in range(n) if name_id[i] == cid and (mask[i] >> aid) & 1)
    rename = lambda table: {names[k]: v for k, v in table.items()}
    return Summary(
        rename(calls), rename(incl), rename(self_s), rename(errors), under, dict(tracer.counts)
    )


def layer_metrics(run: Summary, setup: Summary, traced_pass_s: float, untraced_pass_s: float):
    """The per-layer metrics of one traced pass, in PER_LAYER order."""

    def ratio(num, den):
        return num / den if den else 0.0

    it_calls = run.get("calls", "embed.impact_time")
    vf_samples = run.counts.get("pinched.verify_family.samples", 0)
    m = {f"cli.{cmd}.s": run.get("incl", f"cli.{cmd}") for cmd in CLI_COMMANDS}
    m.update({
        "embed.impact_time.calls": it_calls,
        "embed.impact_time.s": run.get("incl", "embed.impact_time"),
        "embed.impact_time.self_s": run.get("self_s", "embed.impact_time"),
        "embed.impact_time.errors": run.get("errors", "embed.impact_time"),
        "embed.impact_time.evolve_per_call": ratio(
            run.under.get("evolve_under_impact_time", 0), it_calls
        ),
        "embed.impact_time.share": ratio(run.get("incl", "embed.impact_time"), traced_pass_s),
        "embed.verify_linearization.s": run.get("incl", "embed.verify_linearization"),
        "embed.verify_embedding_quality.s": run.get("incl", "embed.verify_embedding_quality"),
        "embed.build.s": run.get("incl", "embed.build_topological_embedding")
        + run.get("incl", "embed.build_smooth_embedding"),
        "embed.overlap_identity_residual.s": run.get("incl", "embed.overlap_identity_residual"),
        "flows.evolve.calls": run.get("calls", "flows.evolve"),
        "flows.evolve.self_s": run.get("self_s", "flows.evolve"),
        "flows.chart_distance.calls": run.get("calls", "flows.chart_distance"),
        "flows.chart_distance.s": run.get("incl", "flows.chart_distance"),
        "flows.chart_distance.share": ratio(run.get("incl", "flows.chart_distance"), traced_pass_s),
        "flows.pairwise_distances.s": run.get("incl", "flows.pairwise_distances"),
        "flows.sample_trajectory.s": run.get("incl", "flows.sample_trajectory"),
        "flows.check_group_law.s": run.get("incl", "flows.check_group_law"),
        "flows.export_csv.s": run.get("incl", "flows.export_trajectory_csv"),
        "flows.export_csv.bytes": run.counts.get("flows.export_csv.bytes", 0),
        "integrate.calls": run.get("calls", "integrate.integrate"),
        "integrate.s": run.get("incl", "integrate.integrate"),
        "integrate.steps_accepted": run.counts.get("integrate.steps_accepted", 0),
        "integrate.dense_eval.calls": run.get("calls", "integrate.dense_eval"),
        "integrate.dense_eval.s": run.get("incl", "integrate.dense_eval"),
        "linalg.matrix_exp.calls": run.get("calls", "linalg.matrix_exp"),
        "linalg.matrix_exp.s": run.get("incl", "linalg.matrix_exp"),
        "linalg.rational_independence.s": run.get("incl", "linalg.rational_independence"),
        "phase.estimate_phase.calls": run.get("calls", "phase.estimate_phase"),
        "phase.estimate_phase.self_s": run.get("self_s", "phase.estimate_phase"),
        "phase.nearest_point.calls": run.get("calls", "phase.nearest_point"),
        "phase.nearest_point.self_s": run.get("self_s", "phase.nearest_point"),
        "phase.verify_phase_properties.s": run.get("incl", "phase.verify_phase_properties"),
        "edmd.collect_snapshots.s": run.get("incl", "edmd.collect_snapshots"),
        "edmd.dictionary_matrix.s": run.get("incl", "edmd.dictionary_matrix"),
        "edmd.dictionary_matrix.rows": run.counts.get("edmd.dictionary_matrix.rows", 0),
        "edmd.fit.s": run.get("incl", "edmd.fit"),
        "edmd.diagnose.self_s": run.get("self_s", "edmd.diagnose"),
        "pinched.verify_family.s": run.get("incl", "pinched.verify_family"),
        "pinched.canonical_embedding.calls": run.get("calls", "pinched.canonical_embedding"),
        "pinched.matrix_exp_per_sample": ratio(
            run.under.get("matrix_exp_under_verify_family", 0), vf_samples
        ),
        "obstruct.certificate.s": run.get("incl", "obstruct.quasiperiodic_factor_certificate"),
        "obstruct.hopf_index.s": run.get("incl", "obstruct.hopf_index_2d"),
        "obstruct.verdict.s": run.get("incl", "obstruct.smooth_linearizability_verdict"),
        "catalog.get.s": setup.get("incl", "catalog.get"),
        "catalog.sample_states.s": run.get("incl", SAMPLER_SPAN),
        "trace.pass_s": traced_pass_s,
        "trace.untraced_pass_s": untraced_pass_s,
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
    })
    return {name: m[name] for name in PER_LAYER}
