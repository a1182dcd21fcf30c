"""Report bytes that must not depend on how the process is configured.

Each command runs in child interpreters whose environment differs only in a
setting that acts on that process alone, and their stdout must match byte
for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

EDMD = ["edmd", "--system", "annulus_cubic", "--dict", "custom:polar_fourier_5",
        "--pairs", "2000", "--seed", "0"]


def test_edmd_report_does_not_depend_on_the_blas_thread_count():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "flowlin", *EDMD],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for threads in ("1", "2")
    ]
    (one, err_one), (two, err_two) = (child.communicate(timeout=120) for child in children)
    assert [child.returncode for child in children] == [0, 0], (err_one, err_two)
    assert one == two
