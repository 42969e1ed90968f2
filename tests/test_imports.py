"""The run-time dependencies: importing and running qfcsim loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import qfcsim
print("after import:", scipy_modules())
from qfcsim.cli import run
assert run(["report", "--out", sys.argv[1]]) == 0
print("after report:", scipy_modules())
"""


def test_import_and_report_load_no_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "after import: []" in lines
    assert "after report: []" in lines
    assert (tmp_path / "report.txt").is_file()
