"""The run-time dependencies: importing and running qfcsim loads no scipy,
also on the paths that fit and so take the Student-t quantile;
``import qfcsim``, every command but ``simulate`` and a ``Dataset`` of
lists load no numpy; only the commands that use ``timebin`` load it; and
the records are built without ``dataclasses`` and its ``inspect``.  The
constants hypothesis draws from do not depend on which tests run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfcsim
from qfcsim import fitting, montecarlo, timebin

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

# Runs the closed-form commands first, then those that need numpy.
NUMPY_PROBE = """
import sys

def loaded():
    return sorted(m for m in ("numpy", "qfcsim.fitting", "qfcsim.montecarlo") if m in sys.modules)

import qfcsim
print("after import:", loaded())
from qfcsim.cli import run
out, data = sys.argv[1:]
for name, argv in (
    ("report", ["report"]),
    ("fig3a", ["sweep", "--preset", "fig3a"]),
    ("fig4a", ["sweep", "--preset", "fig4a"]),
    ("fig5a", ["sweep", "--preset", "fig5a"]),
    ("fit", ["fit", data]),
    ("fig3b", ["sweep", "--preset", "fig3b"]),
    ("simulate", ["simulate", "--shots", "1000"]),
):
    assert run([*argv, "--out", out]) == 0, name
    print(f"after {name}:", loaded())
"""


# The closed-form commands again, watching the standard-library modules
# that records built with ``dataclasses`` would load at start-up.
STARTUP_PROBE = """
import sys

def loaded():
    return sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)

import qfcsim
print("after import:", loaded())
from qfcsim.cli import run
for name, argv in (
    ("report", ["report"]),
    ("fig3a", ["sweep", "--preset", "fig3a"]),
    ("fig4a", ["sweep", "--preset", "fig4a"]),
    ("fig5a", ["sweep", "--preset", "fig5a"]),
):
    assert run([*argv, "--out", sys.argv[1]]) == 0, name
    print(f"after {name}:", loaded())
"""


def _probe(script: str, *args: str, cwd: Path) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_and_report_load_no_scipy(tmp_path):
    lines = _probe(PROBE, str(tmp_path), str(FIT_DATA), cwd=tmp_path)
    for step in ("import", "report", "fit", "sweep fig3b"):
        assert f"after {step}: []" in lines
    for name in ("report.txt", "fit.json", "fig3b.csv"):
        assert (tmp_path / name).is_file()


def test_closed_form_commands_load_no_numpy(tmp_path):
    lines = _probe(NUMPY_PROBE, str(tmp_path), str(FIT_DATA), cwd=tmp_path)
    for step in ("import", "report", "fig3a", "fig4a", "fig5a"):
        assert f"after {step}: []" in lines
    assert "after fit: ['qfcsim.fitting']" in lines
    assert "after fig3b: ['qfcsim.fitting']" in lines
    assert "after simulate: ['numpy', 'qfcsim.fitting', 'qfcsim.montecarlo']" in lines
    for name in ("report.txt", "fig3a.csv", "fig4a.csv", "fig5a.csv", "fit.json", "fig3b.csv",
                 "simulate.csv"):
        assert (tmp_path / name).is_file()


def test_fit_command_imports_no_numpy(tmp_path):
    # the fit command as a user runs it, in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qfcsim.cli", "fit", str(FIT_DATA),
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert "qfcsim.fitting" in modules
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
    assert (tmp_path / "fit.json").is_file()


# One command in a fresh interpreter: does it load timebin?
TIMEBIN_PROBE = """
import sys

from qfcsim.cli import run

assert run(sys.argv[1:]) == 0
print("qfcsim.timebin" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads", [
    (["report"], True),
    (["sweep", "--preset", "fig5a"], True),
    (["sweep", "--preset", "fig3a"], False),
    (["sweep", "--preset", "fig3b"], False),
    (["sweep", "--preset", "fig4a"], False),
    (["fit", str(FIT_DATA)], False),
    (["simulate", "--shots", "1000"], False),
], ids=["report", "fig5a", "fig3a", "fig3b", "fig4a", "fit", "simulate"])
def test_only_the_timebin_commands_load_it(argv, loads, tmp_path):
    assert _probe(TIMEBIN_PROBE, *argv, "--out", str(tmp_path), cwd=tmp_path)[-1] == str(loads)


def test_import_and_closed_form_commands_load_no_dataclasses(tmp_path):
    lines = _probe(STARTUP_PROBE, str(tmp_path), cwd=tmp_path)
    for step in ("import", "report", "fig3a", "fig4a", "fig5a"):
        assert f"after {step}: []" in lines
    for name in ("report.txt", "fig3a.csv", "fig4a.csv", "fig5a.csv"):
        assert (tmp_path / name).is_file()


# A scenario is checked and built on math alone: ExperimentScenario is
# chain's, and montecarlo only re-exports it.
SCENARIO_PROBE = """
import sys

import qfcsim

cfg = qfcsim.parse_config(qfcsim.REFERENCE_CONFIG)
sc = qfcsim.ExperimentScenario(cfg.chain, cfg.mu_in, cfg.pump_mw, cfg.n_shots, cfg.seed)
print(sorted(m for m in ("numpy", "qfcsim.montecarlo") if m in sys.modules))
"""


def test_scenario_loads_no_numpy(tmp_path):
    assert _probe(SCENARIO_PROBE, cwd=tmp_path) == ["[]"]


# A dataset built from lists, mu_1 from it, and the fitting core and the
# band that the CLI's fit and fig3b call, run on math alone; so does the
# model over a list.
FITTING_PROBE = """
import sys

from qfcsim import fitting

data = fitting.Dataset(x=[2.0, 0.5, 1.0, 1.5], y=[2.9, 0.7, 1.4, 2.1], sigma=[0.1] * 4)
fitting.extract_mu1(data)
p = [0.02 * i for i in range(1, 31)]
fit = fitting._conversion_values(fitting.Dataset(p, fitting.conversion_model(p, 0.25, 0.72, 3.0)), 3.0)
fitting._conversion_band(fit, p, 3.0)
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_dataset_and_fitting_core_load_no_numpy(tmp_path):
    assert _probe(FITTING_PROBE, cwd=tmp_path) == ["[]"]


# the names the package exports from fitting, montecarlo and timebin
LAZY_NAMES = [
    (fitting, "Dataset"),
    (fitting, "FitConvergenceError"),
    (fitting, "FitResult"),
    (fitting, "conversion_model"),
    (fitting, "extract_mu1"),
    (fitting, "fit_conversion"),
    (fitting, "fit_linear"),
    (montecarlo, "ExperimentScenario"),
    (montecarlo, "Histogram"),
    (montecarlo, "HistogramTriple"),
    (montecarlo, "SimulationResult"),
    (montecarlo, "gate_integrate"),
    (montecarlo, "simulate"),
    (montecarlo, "start_stop_histogram"),
    (timebin, "Interferometer"),
    (timebin, "QuantumRegimeRow"),
    (timebin, "SlotCounts"),
    (timebin, "TimeBinQubit"),
    (timebin, "classical_fidelity_bound"),
    (timebin, "fidelity_from_visibility"),
    (timebin, "fringe_scan"),
    (timebin, "quantum_regime_report"),
    (timebin, "slot_statistics"),
    (timebin, "visibility_model"),
]


@pytest.mark.parametrize("module, name", LAZY_NAMES, ids=[n for _, n in LAZY_NAMES])
def test_lazy_name_is_the_submodules_own(module, name):
    assert getattr(qfcsim, name) is getattr(module, name)


def test_lazy_names_follow_a_rebinding(monkeypatch):
    # a wrapper set on the submodule is seen through the package while it
    # is set, and the original once it is removed: nothing is cached
    for module, name in ((montecarlo, "simulate"), (timebin, "slot_statistics")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, len)
        assert getattr(qfcsim, name) is len
        monkeypatch.undo()
        assert getattr(qfcsim, name) is original
        assert name not in vars(qfcsim)


# The constants hypothesis draws from, once after the package alone, once
# after the conftest, and once after every module the tests import too.
POOL_PROBE = """
import sys

from hypothesis.internal.conjecture.providers import _get_local_constants

import qfcsim
package = _get_local_constants()
sys.path.insert(0, sys.argv[1])
import conftest
selected = _get_local_constants()
import oracles
from qfcsim import cli, fitting, montecarlo, timebin
everything = _get_local_constants()
print(package == selected, selected == everything, len(everything))
"""


def test_hypothesis_constants_do_not_depend_on_selection(tmp_path):
    # the package alone holds fewer constants than the conftest loads, and
    # no test module adds any
    package, selected, size = _probe(POOL_PROBE, str(Path(__file__).parent), cwd=tmp_path)[0].split()
    assert (package, selected) == ("False", "True") and int(size) > 0


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qfcsim.no_such_name
    assert not hasattr(qfcsim, "also_missing")
