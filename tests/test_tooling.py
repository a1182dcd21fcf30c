"""The benchmark's tracer wraps methods by name: each must be defined where it looks."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
