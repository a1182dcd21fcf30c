import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import flowlin.cli
from flowlin import catalog
for name in catalog.names():
    catalog.get(name)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

# every command runs with scipy unimportable; prints each exit code, then
# the scipy modules loaded (none can be)
NO_SCIPY_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from flowlin.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
print(sorted(m for m in sys.modules if m.startswith("scipy.")))
"""


def _child(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_and_catalog_load_no_scipy():
    out = _child("-c", PROBE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_commands_run_without_scipy(tmp_path):
    spec = tmp_path / "single_pinch.json"
    spec.write_text(json.dumps({"n": 2, "m": 1, "M": [[0, 1]], "S": [[["0", "1"]]],
                                "C": [[[["0", "0"]]], []]}))
    commands = {
        ("verify", "--system", "sphere_rotation", "--embedding", "exact", "--samples", "200"): 0,
        ("verify", "--system", "log_radial", "--embedding", "built", "--samples", "200"): 0,
        ("build", "--system", "log_radial", "--mode", "smooth"): 0,
        ("edmd", "--system", "annulus_cubic", "--dict", "custom:polar_fourier_5",
         "--pairs", "2000"): 0,
        ("pinched", "--spec", str(spec), "--check", "--samples", "1000"): 0,
        ("certify", "--system", "quasiperiodic_torus_2", "--Q", "50",
         "--omega", "1,1.4142135623730951"): 0,
        ("certify", "--system", "quasiperiodic_torus_2", "--Q", "50", "--omega", "1,2"): 1,
    }
    out = _child("-c", NO_SCIPY_PROBE, json.dumps([list(argv) for argv in commands]))
    assert out.returncode == 0, out.stderr
    codes, modules = out.stdout.splitlines()
    assert json.loads(codes) == list(commands.values())
    assert modules == "[]"
