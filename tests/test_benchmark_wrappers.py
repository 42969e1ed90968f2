"""Every function that ``perfbench/tracer.py`` wraps by name exists in qfcsim.

The tracer skips a listed function that no longer resolves and only counts
it in ``trace.missing_wrappers``, so a renamed helper would silently drop
its span.  The list is read from the file's source, not imported, so that
nothing under ``perfbench/`` is executed or written."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED in {TRACER}")


WRAPPED = _wrapped()


def test_lists_the_montecarlo_layers():
    names = {name for name, _, _ in WRAPPED}
    assert {"montecarlo.collect", "montecarlo.dead_time", "montecarlo.histogram"} <= names


@pytest.mark.parametrize("name, module, path", WRAPPED, ids=[w[0] for w in WRAPPED])
def test_resolves_to_a_callable(name, module, path):
    assert module == "qfcsim" or module.startswith("qfcsim.")
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
