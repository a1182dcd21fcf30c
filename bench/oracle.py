"""Output oracle: decides from parsed outputs whether an operation succeeded.

Reports are compared field by field, never byte by byte: report bytes carry
the host's CPU count and the output path.  Every number in a report is
evidence and must be finite; the program's own checks can pass on NaN
because ``max(0.0, nan)`` is 0.0.
"""

from __future__ import annotations

import math

import numpy as np


def non_finite(obj, path: str = "report") -> list[str]:
    """Paths of every NaN or infinite number in a parsed JSON value."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [f"{path} = {obj!r}"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in non_finite(v, f"{path}[{i}]")]
    return [f"{path} has unexpected type {type(obj).__name__}"]


def lookup(report, dotted: str):
    node = report
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            raise KeyError(dotted)
        node = node[key]
    return node


def judge_report(
    report,
    rc: int,
    exit_code: int = 0,
    checks: tuple = (),
    failing_checks: tuple = (),
    fields: dict | None = None,
    numbers: tuple = (),
) -> list[str]:
    """Problems with one CLI JSON report.

    ``checks`` must be present and pass; ``failing_checks`` must be present
    and fail; any other check present must pass.  ``fields`` maps dotted
    report keys to their expected values; ``numbers`` names keys that must
    hold a finite number.
    """
    problems = []
    if rc != exit_code:
        problems.append(f"exit code {rc}, expected {exit_code}")
    problems += non_finite(report)
    if not isinstance(report, dict):
        return problems + ["report is not a JSON object"]
    by_name = {c.get("name"): c for c in report.get("checks", [])}
    for name in (*checks, *failing_checks):
        if name not in by_name:
            problems.append(f"check {name!r} missing")
    for name, check in by_name.items():
        want = name in failing_checks
        if check.get("pass") is not (not want):
            problems.append(f"check {name!r} pass = {check.get('pass')!r}, expected {not want}")
    for key, want in (fields or {}).items():
        try:
            got = lookup(report, key)
        except KeyError:
            problems.append(f"field {key!r} missing")
            continue
        if got != want:
            problems.append(f"field {key!r} = {got!r}, expected {want!r}")
    for key in numbers:
        try:
            got = lookup(report, key)
        except KeyError:
            problems.append(f"field {key!r} missing")
            continue
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            problems.append(f"field {key!r} = {got!r} is not a number")
    return problems


def judge_csv(text: str, n_rows: int, tmax: float, invariant=None, tol: float = 1e-9) -> list[str]:
    """Problems with a trajectory CSV: shape, finiteness, time grid, invariant.

    ``invariant`` maps the (rows, dim) state block to per-row values that
    the flow must conserve; they must stay within ``tol`` of the first row's.
    """
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("t,x1"):
        return ["missing t,x1,... header"]
    try:
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as err:
        return [f"unparseable row: {err}"]
    if data.ndim != 2 or data.shape[0] != n_rows:
        return [f"{data.shape[0] if data.ndim == 2 else 0} rows, expected {n_rows}"]
    if not np.all(np.isfinite(data)):
        return ["non-finite entries"]
    problems = []
    if not np.allclose(data[:, 0], np.linspace(0.0, tmax, n_rows), rtol=0, atol=1e-12):
        problems.append("time column differs from the requested grid")
    if invariant is not None:
        values = invariant(data[:, 1:])
        drift = float(np.max(np.abs(values - values[0])))
        if not drift <= tol:
            problems.append(f"conserved quantity drifts by {drift:.3g} > {tol:.0e}")
    return problems


def within(value: float, bound: float, what: str) -> list[str]:
    """A finite value at or below the bound; NaN fails."""
    return [] if value <= bound else [f"{what} = {value!r} exceeds {bound:.0e}"]
