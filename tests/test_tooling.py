"""Tooling that names code: the tracer's method table and counters, module
exports, the package's exception classes, and the README's CLI and spec
file examples."""

import ast
import builtins
import importlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from flowlin import FlowlinError, catalog, cli, pinched
from flowlin.integrate import integrate

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
README = ROOT / "README.md"


def _traced_methods():
    """The keys of ``METHODS`` in bench/spans.py, read from its source without running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets
        ):
            return sorted(ast.literal_eval(node.value))
    raise AssertionError(f"no METHODS table in {SPANS}")


@pytest.mark.parametrize("module, cls, method", _traced_methods())
def test_traced_method_is_defined_on_its_class(module, cls, method):
    owner = getattr(importlib.import_module(f"flowlin.{module}"), cls)
    assert method in owner.__dict__, f"bench/spans.py traces {cls}.{method}, which is gone"


MODULES = sorted(p.stem for p in (ROOT / "src" / "flowlin").glob("[!_]*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"flowlin.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"flowlin.{module}.__all__ names {missing}, which are gone"


SOURCES = sorted((ROOT / "src" / "flowlin").glob("*.py"))


def _string_literals(tree):
    """Every string literal, adjacent pieces joined and f-string fields read as {}."""
    pieces = set()  # the parts of an f-string, read with it (the walk visits it first)
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            pieces.update(map(id, node.values))
            yield "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in pieces:
                yield node.value


def test_batch_convention_is_worded_once():
    # one gate in flows words the rule for every caller-supplied map
    texts = [t for p in SOURCES for t in _string_literals(ast.parse(p.read_text()))]
    assert sum(t.count("must act row-wise on batches") for t in texts) == 1


def _scoped_nodes(tree):
    """(dotted name of the enclosing function or "<module>", node) for every node."""
    stack = [("<module>", tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def _resolve(namespace: dict, dotted: str):
    """The object a dotted name means in a module namespace, else a builtin; None if neither."""
    head, *rest = dotted.split(".")
    obj = namespace.get(head, getattr(builtins, head, None))
    for attr in rest:
        obj = getattr(obj, attr, None)
    return obj


# raises of classes outside flowlin that are a protocol, not an error path
PROTOCOL_RAISES = {
    ("cli", "_number.parse", "argparse.ArgumentTypeError"),  # argparse's type protocol
    ("cli", "<module>", "SystemExit"),  # the exit code of the script entry points
    ("__main__", "<module>", "SystemExit"),
}


def test_every_raised_class_is_a_flowlin_error():
    # so that the CLI's one handler reports every bad input with exit code 2
    found = set()
    for path in SOURCES:
        # importing __main__ would run the CLI; its names are builtins
        namespace = {} if path.stem == "__main__" else vars(
            importlib.import_module(f"flowlin.{path.stem}")
        )
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare raise re-raises what was caught
            name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            cls = _resolve(namespace, name)
            if isinstance(cls, type) and not issubclass(cls, FlowlinError):
                found.add((path.stem, scope, name))
    assert found == PROTOCOL_RAISES


def test_every_exception_class_derives_from_flowlin_error():
    classes = [
        (path.stem, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    for module, name in classes:
        cls = getattr(importlib.import_module(f"flowlin.{module}"), name)
        if issubclass(cls, BaseException):
            assert issubclass(cls, FlowlinError), f"flowlin.{module}.{name}"


def _readme_commands():
    """Every ``flowlin ...`` line of the README's bash blocks, as argv lists."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), flags=re.DOTALL)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("flowlin ")
    ]


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 12
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as err:
            command = shlex.join(["flowlin", *argv])
            raise AssertionError(f"README command does not parse: {command}") from err


def test_readme_pinched_spec_example_loads(tmp_path):
    text = README.read_text().split("A pinched torus spec file looks like", 1)[1]
    path = tmp_path / "spec.json"
    path.write_text(re.search(r"```json\n(.*?)```", text, flags=re.DOTALL).group(1))
    loaded = pinched.load_spec(path)
    expected = pinched.make_spec(
        n=2, m=1, M=[[0, 1]], base_boxes=[[("0", "1")]], loci_boxes=[[[("0", "0")]], []],
        omega_terms=[(2, ["1", "0"])],
    )
    np.testing.assert_array_equal(loaded.M, expected.M)
    assert loaded.base_region.boxes == expected.base_region.boxes
    assert [c.boxes for c in loaded.pinch_loci] == [c.boxes for c in expected.pinch_loci]
    assert loaded.omega_terms == expected.omega_terms


# bench/spans.py counts integrate.steps_accepted as len(DenseOutput.coeffs) and
# times DenseOutput.__call__, so the segment layout is part of its contract


def _assert_tiles(t_lo, t_hi, coeffs, t0, t1, dim):
    """One (7, dim) stage entry per segment, the segments running from t0 to t1 end to end."""
    assert len(coeffs) == len(t_lo) == len(t_hi) > 0
    assert all(np.shape(k) == (7, dim) for k in coeffs)
    assert t_lo[0] == t0 and list(t_hi[:-1]) == list(t_lo[1:])
    assert abs(t_hi[-1] - t1) <= 1e-14 * max(1.0, abs(t1))
    assert all((b - a) * (t1 - t0) > 0 for a, b in zip(t_lo, t_hi))


@pytest.mark.parametrize("t1", [7.5, -1.2])
def test_integrate_keeps_one_segment_per_accepted_step_tiling_its_span(t1):
    calls = []
    field = catalog.get("log_radial").ode_system.vector_field

    def counted(x):
        calls.append(len(x))
        return field(x)

    X = np.array([[1.5, 0.3], [0.8, 2.0], [2.0, 0.0]])
    ends = np.array([t1, 0.5 * t1, 0.0])
    solo = [integrate(counted, x, 0.0, end) for x, end in zip(X[:2], ends)]
    # f(x0), then six stages per accepted or rejected step
    assert (len(calls) - 2) % 6 == 0 and len(calls) >= 2 + 6 * sum(len(d.coeffs) for d in solo)
    for d, end in zip(solo, ends):
        _assert_tiles(d.t_lo, d.t_hi, d.coeffs, 0.0, end, 2)
    assert len(integrate(counted, X[2], 0.0, 0.0).coeffs) == 0

    batch = integrate(counted, X, 0.0, ends)
    assert len(batch.coeffs) == sum(len(d.coeffs) for d in solo)
    for row, (d, end) in enumerate(zip(solo, ends)):
        mine = batch.rows == row
        _assert_tiles(batch.t_lo[mine], batch.t_hi[mine], batch.coeffs[mine], 0.0, end, 2)
        np.testing.assert_array_equal(batch.t_lo[mine], d.t_lo)
    assert not (batch.rows == 2).any()
