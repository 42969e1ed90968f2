"""Golden outputs: the files each CLI command writes, compared byte for byte.

``tests/golden/<case>/`` holds what the command of ``CASES[case]`` wrote,
and ``tests/golden/stdout/<case>.txt`` what it printed on stdout.
CSV files, ``report.txt`` and the printed text must match exactly.  JSON bundles must match
with only their ``"version"`` entry dropped, so that a version bump alone
does not fail the test.

Regenerate, only when an output change is intended, with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import os
import re
import shutil
from pathlib import Path

import pytest

from qfcsim.cli import run

GOLDEN = Path(__file__).parent / "golden"
STDOUT = GOLDEN / "stdout"
DATA = "fit_data.csv"  # 30 noisy points of the sin^2 curve, committed in GOLDEN

CASES = {
    "report": ["report"],
    "fig3a": ["sweep", "--preset", "fig3a"],
    "fig3b_seed3": ["sweep", "--preset", "fig3b", "--seed", "3"],
    "fig4a_pump300_bw1p2": [
        "sweep", "--preset", "fig4a", "--pump-mw", "300", "--bandwidth-nm", "1.2",
    ],
    "fig5a": ["sweep", "--preset", "fig5a"],
    "fit": ["fit", DATA],
    "simulate": ["simulate", "--shots", "30000", "--seed", "13"],
}

_VERSION = re.compile(rb'\n  "version": "[^"]*"')


def _normalized(path: Path) -> bytes:
    data = path.read_bytes()
    return _VERSION.sub(b"", data) if path.suffix == ".json" else data


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path, monkeypatch, capsys):
    shutil.copy(GOLDEN / DATA, tmp_path / DATA)
    monkeypatch.chdir(tmp_path)  # so fit.json records the same relative data path
    assert run(CASES[case] + ["--out", case]) == 0
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in (tmp_path / case).iterdir()) == expected
    for name in expected:
        assert _normalized(tmp_path / case / name) == _normalized(GOLDEN / case / name), name
    assert capsys.readouterr().out == (STDOUT / f"{case}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for case, argv in CASES.items():
        shutil.rmtree(case, ignore_errors=True)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert run(argv + ["--out", case]) == 0, case
        (STDOUT / f"{case}.txt").write_text(printed.getvalue(), encoding="utf-8")
