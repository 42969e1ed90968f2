"""In-memory span tracer that wraps qfcsim functions from outside the package.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
a traced pass runs and written out once, at the end of the benchmark run.
Self time is a span's duration minus the time its child spans cover.

Wrapping is by name.  A function that no longer exists under its listed
name (a private helper renamed by a later change, say) is skipped and
reported in ``missing``: its span is absent, which is not a failure.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

# (span name, module, attribute path).  The private montecarlo helpers are
# the layers a sparse-collection or vectorised dead-time rewrite replaces.
WRAPPED = (
    ("config.parse_config", "qfcsim.config", "parse_config"),
    ("config.config_hash", "qfcsim.config", "config_hash"),
    ("cli.report", "qfcsim.cli", "_cmd_report"),
    ("cli.sweep", "qfcsim.cli", "_cmd_sweep"),
    ("cli.fit", "qfcsim.cli", "_cmd_fit"),
    ("cli.simulate", "qfcsim.cli", "_cmd_simulate"),
    ("noise.detection_probabilities", "qfcsim.noise", "detection_probabilities"),
    ("noise.snr", "qfcsim.noise", "snr"),
    ("noise.mu1", "qfcsim.noise", "mu1"),
    ("chain.cascade", "qfcsim.chain", "ConversionChain.cascade"),
    ("chain.with_filter_bandwidth", "qfcsim.chain", "ConversionChain.with_filter_bandwidth"),
    ("optics.conversion_fraction", "qfcsim.optics", "conversion_fraction"),
    ("optics.external_efficiency", "qfcsim.optics", "external_efficiency"),
    ("fitting.fit_conversion", "qfcsim.fitting", "fit_conversion"),
    ("fitting.fit_linear", "qfcsim.fitting", "fit_linear"),
    ("fitting.conversion_model", "qfcsim.fitting", "conversion_model"),
    ("timebin.classical_fidelity_bound", "qfcsim.timebin", "classical_fidelity_bound"),
    ("timebin.slot_statistics", "qfcsim.timebin", "slot_statistics"),
    ("montecarlo.simulate", "qfcsim.montecarlo", "simulate"),
    ("montecarlo.start_stop_histogram", "qfcsim.montecarlo", "start_stop_histogram"),
    ("montecarlo.collect", "qfcsim.montecarlo", "_collect_clicks"),
    ("montecarlo.dead_time", "qfcsim.montecarlo", "_apply_dead_time"),
    ("montecarlo.histogram", "qfcsim.montecarlo", "_histogram_from_clicks"),
)


def _count_collected(tracer: "Tracer", args, kwargs, result) -> None:
    size = getattr(result, "size", None)
    if isinstance(size, int):
        tracer.counts["montecarlo.clicks_collected"] += size
        tracer.counts["montecarlo.clicks_bytes"] += int(result.nbytes)


def _count_dead_time(tracer: "Tracer", args, kwargs, result) -> None:
    if isinstance(result, tuple) and len(result) == 2:
        accepted, skipped = result
        tracer.counts["montecarlo.clicks_accepted"] += int(getattr(accepted, "size", 0))
        tracer.counts["montecarlo.gates_skipped"] += int(skipped)


def _lane_shots(lanes: int) -> Callable:
    # simulate runs two lanes (input on / blocked), the histogram three
    def count(tracer: "Tracer", args, kwargs, result) -> None:
        scenario = args[0] if args else kwargs.get("scenario")
        tracer.counts["montecarlo.lane_shots"] += lanes * int(scenario.n_shots)

    return count


COUNTERS = {
    "montecarlo.collect": _count_collected,
    "montecarlo.dead_time": _count_dead_time,
    "montecarlo.simulate": _lane_shots(2),
    "montecarlo.start_stop_histogram": _lane_shots(3),
}


class Tracer:
    """Records spans and counts while installed; aggregates self time."""

    def __init__(self):
        self.names: list[str] = [w[0] for w in WRAPPED]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn: Callable, counter: Callable | None) -> Callable:
        name = self.names[name_id]
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(self.span_name)
            parent = stack[-1][0] if stack else -1
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.span_start[index] = frame[1]
                self.span_end[index] = end
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each listed function inside qfcsim."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "qfcsim" or n.startswith("qfcsim.")]
        for name_id, (name, module_name, path) in enumerate(WRAPPED):
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name_id, original, COUNTERS.get(name))
            targets = [owner] if outer else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Spans as a compact .npz: name index, parent index, start, end."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
