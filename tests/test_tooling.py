"""Tooling that names code: the tracer's method table and the README's CLI examples."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from flowlin import cli

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
