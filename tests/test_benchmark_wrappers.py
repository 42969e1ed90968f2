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


def test_counted_layers_return_what_the_counters_read():
    # the tracer counts clicks_collected and clicks_bytes from the .size and
    # .nbytes of what _collect_clicks returns, and clicks_accepted and
    # gates_skipped from _apply_dead_time's (accepted, skipped) pair; a
    # return of another shape reads 0 with no error
    import numpy as np

    from qfcsim import reference_chain
    from qfcsim.montecarlo import _LANE_SIGNAL, _apply_dead_time, _collect_clicks

    chain = reference_chain()
    means = chain.event_means(60.0, 400.0, 20.0)
    clicks = _collect_clicks(means, chain.pulse.sigma_ns, 5000, 1, _LANE_SIGNAL, 20.0, range(1))
    assert isinstance(clicks, np.ndarray)
    assert isinstance(clicks.size, int) and isinstance(clicks.nbytes, int) and clicks.size > 0
    result = _apply_dead_time(clicks, 5000, 20)
    assert isinstance(result, tuple) and len(result) == 2
    accepted, skipped = result
    assert isinstance(accepted, np.ndarray) and isinstance(skipped, int)
    assert 0 < accepted.size < clicks.size and skipped > 0


def test_simulate_calls_the_counted_layers_by_module_name(monkeypatch):
    # the tracer replaces the module's bindings, so a lane must look its
    # layers up there on every batch
    from qfcsim import ExperimentScenario, montecarlo, reference_chain

    calls = {}
    for name in ("_collect_clicks", "_apply_dead_time", "_histogram_from_clicks"):
        def counted(*args, _fn=getattr(montecarlo, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(montecarlo, name, counted)
    sc = ExperimentScenario(chain=reference_chain(), mu_in=6.1, pump_mw=120.0, n_shots=5000, seed=1)
    montecarlo.simulate(sc)
    montecarlo.start_stop_histogram(sc)
    assert calls == {"_collect_clicks": 5, "_apply_dead_time": 5, "_histogram_from_clicks": 3}
