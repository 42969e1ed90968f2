"""Every demo runs and prints what it printed when its golden was made.

Each ``demos/<name>.py`` runs in a fresh interpreter on the ``src``
tree; it must exit 0 and its stdout must equal
``tests/golden/demos/<name>.txt`` byte for byte.

Regenerate, only when an output change is intended, with::

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_matches_golden(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        proc = _run(demo)
        assert proc.returncode == 0, (demo.name, proc.stderr.decode())
        (GOLDEN / f"{demo.stem}.txt").write_bytes(proc.stdout)
