"""The run-time dependencies: importing and running qfcsim loads no scipy,
also on the paths that fit and so take the Student-t quantile."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FIT_DATA = Path(__file__).resolve().parent / "golden" / "fit_data.csv"

PROBE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import qfcsim
print("after import:", scipy_modules())
from qfcsim.cli import run
out = sys.argv[1]
assert run(["report", "--out", out]) == 0
print("after report:", scipy_modules())
assert run(["fit", sys.argv[2], "--out", out]) == 0
print("after fit:", scipy_modules())
assert run(["sweep", "--preset", "fig3b", "--out", out]) == 0
print("after sweep fig3b:", scipy_modules())
"""


def test_import_and_report_load_no_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path), str(FIT_DATA)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for step in ("import", "report", "fit", "sweep fig3b"):
        assert f"after {step}: []" in lines
    for name in ("report.txt", "fit.json", "fig3b.csv"):
        assert (tmp_path / name).is_file()
