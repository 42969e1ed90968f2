"""qfcsim benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is loaded from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, writing the raw spans under ``perfbench/_out/``.
Workload-specific figures (shots per second, fits per second, ...) and
the digest of the first pass's outputs are printed on the lines before
the JSON.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from calib import Calibrator
from workloads import ROOT, SRC, WORKLOADS, parse_importtime, spawn

OUT = ROOT / "perfbench" / "_out"
SETUP_PROBES = 5

# the child imports the package, parses the reference configuration
# (which builds the chain) and reports the monotonic clock when done
PROBE = (
    "import time, qfcsim\n"
    "cfg = qfcsim.parse_config(qfcsim.REFERENCE_CONFIG)\n"
    "print(repr(time.perf_counter()), cfg.chain.eta_tot_max)\n"
)

LAYER_FUNCS = (
    "config.parse_config", "config.config_hash",
    "noise.detection_probabilities", "noise.snr", "noise.mu1",
    "chain.cascade", "chain.with_filter_bandwidth",
    "optics.conversion_fraction", "optics.external_efficiency",
    "fitting.fit_conversion", "fitting.fit_linear",
    "timebin.classical_fidelity_bound", "timebin.slot_statistics",
)


def setup_probes(work: Path, n: int, importtime: bool, cal: Calibrator) -> tuple[list, int]:
    """Time ``n`` fresh interpreters from spawn to a built chain.

    One untimed probe first writes the bytecode caches of ``src/``.
    Returns (reference-speed seconds per probe, or import times per probe;
    failures).
    """
    results, failures = [], 0
    python = [sys.executable, "-X", "importtime"] if importtime else [sys.executable]
    for i in range(n + 1):
        if i == 1:
            cal.sample()
        out, err = work / f"probe{i}.out", work / f"probe{i}.err"
        start = time.perf_counter()
        rc, _, _ = spawn([*python, "-c", PROBE], out, err)
        if rc != 0:
            failures += 1
            print(f"FAILED setup probe: exit {rc}\n{err.read_text(errors='replace')[-2000:]}",
                  file=sys.stderr)
            continue
        if i == 0:
            continue
        cal.sample()
        if importtime:
            results.append(parse_importtime(err))
        else:
            results.append(cal.scale_last(float(out.read_text().split()[0]) - start))
    return results, failures


class Totals:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def add(self, wl, p) -> None:
        failures = wl.check(p)
        for msg in failures:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)
        self.attempted += p.attempted
        self.failed += p.failed + len(failures)
        if self.digest is None:
            self.digest = wl.digest(p)
        p.outputs = {}  # checked; drop it to bound memory


def run_pass(wl, k: int, totals: Totals, tracer=None):
    """One pass, checked; traced if given a tracer.  The workload scales its times."""
    with tracer or contextlib.nullcontext():
        p = wl.run_pass(k, traced=tracer is not None)
    totals.add(wl, p)
    return p


def run_untraced(wl, seconds: float, totals: Totals) -> list:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(wl, len(passes), totals))
    return passes


def run_traced(wl, seconds: float, totals: Totals, tracer) -> tuple[list, list]:
    """Alternate untraced and traced passes; returns both lists."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(wl, 2 * len(plain), totals))
        traced.append(run_pass(wl, 2 * len(traced) + 1, totals, tracer))
    return plain, traced


DEFECT_METRICS = {
    "fitting.fit_conversion.ill_conditioned": "count",
    "fitting.linear_regime.unflagged": "count",
    "fitting.linear_regime.nonconverged": "count",
    "fitting.linear_regime.errors": "count",
    "fitting.linear_regime.fit_ms": "ms",
}


def layer_metrics(tracer, plain: list, traced: list, imports: list) -> dict:
    n = len(traced)
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    m = {}

    def import_s(module):
        return statistics.median(t.get(module, 0.0) for t in imports) if imports else 0.0

    m["import.qfcsim_s"] = (import_s("qfcsim"), "s")
    m["import.scipy_stats_s"] = (import_s("scipy.stats"), "s")
    m["import.numpy_s"] = (import_s("numpy"), "s")
    for name in LAYER_FUNCS:
        m[f"{name}.calls"] = (calls[name] / n, "count")
        m[f"{name}.self_s"] = (self_s[name] / n, "s")
    for sub in ("report", "sweep", "fit", "simulate"):
        m[f"cli.{sub}.self_s"] = (self_s[f"cli.{sub}"] / n, "s")
    m["cli.process_overhead_s"] = (sum(p.extra.get("process_overhead_s", 0.0) for p in traced) / n, "s")
    points = sum(p.points for p in traced)
    rate_self = sum(v for k, v in self_s.items() if k.split(".")[0] in ("noise", "chain", "optics"))
    m["noise.self_us_per_point"] = (rate_self * 1e6 / points if points else 0.0, "us")
    m["fitting.conversion_model.calls"] = (calls["fitting.conversion_model"] / n, "count")
    m["montecarlo.simulate.self_s"] = (self_s["montecarlo.simulate"] / n, "s")
    m["montecarlo.start_stop_histogram.self_s"] = (self_s["montecarlo.start_stop_histogram"] / n, "s")
    m["montecarlo.collect_s"] = (total_s["montecarlo.collect"] / n, "s")
    m["montecarlo.dead_time_s"] = (total_s["montecarlo.dead_time"] / n, "s")
    m["montecarlo.histogram_s"] = (total_s["montecarlo.histogram"] / n, "s")
    for key in ("clicks_collected", "clicks_accepted", "gates_skipped"):
        m[f"montecarlo.{key}"] = (counts[f"montecarlo.{key}"] / n, "count")
    lane_shots = counts["montecarlo.lane_shots"]
    mc_s = total_s["montecarlo.simulate"] + total_s["montecarlo.start_stop_histogram"]
    m["montecarlo.click_yield"] = (counts["montecarlo.clicks_collected"] / lane_shots if lane_shots else 0.0, "ratio")
    m["montecarlo.collect_share"] = (total_s["montecarlo.collect"] / mc_s if mc_s else 0.0, "ratio")
    m["montecarlo.clicks_bytes"] = (counts["montecarlo.clicks_bytes"] / n, "B-computed")
    m["trace.spans"] = (len(tracer.span_name) / n, "count")
    # desk_cli traces only its in-process cli.run calls, not its children
    def traced_part(p):
        return p.extra.get("inproc_s", p.scaled_s)

    untraced_s = statistics.median(traced_part(p) for p in plain)
    m["trace.overhead_frac"] = (statistics.median(traced_part(p) for p in traced) / untraced_s - 1.0, "ratio")
    m["trace.missing_wrappers"] = (len(tracer.missing), "count")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfcsim" / "__init__.py").is_file():
        print(f"qfcsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    totals = Totals()
    probe_cal = Calibrator()
    probes, probe_failures = setup_probes(work, SETUP_PROBES, bool(args.trace), probe_cal)
    totals.attempted += SETUP_PROBES + 1
    totals.failed += probe_failures
    if not probes:
        print("no setup probe succeeded", file=sys.stderr)
        return 1

    wl = WORKLOADS[args.workload](args.seed, work)
    cal = Calibrator()
    wl.calibrator = cal
    cal.sample()
    warm = wl.warm()  # untimed and unchecked, but its failures count
    totals.attempted += warm.attempted
    totals.failed += warm.failed
    named, passes = {}, []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        wl.prepare_trace()
        plain, traced = run_traced(wl, args.seconds, totals, tracer)
        metrics = layer_metrics(tracer, plain, traced, probes)
        tracer.write(work / "spans.npz")
        if tracer.missing:
            print(f"spans absent (not wrapped): {', '.join(tracer.missing)}", file=sys.stderr)
    else:
        passes = run_untraced(wl, args.seconds, totals)
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "pass_s": (statistics.median(p.scaled_s for p in passes), "s"),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        }
        named = wl.named_metrics(passes)
        named["error_rate"] = (totals.failed / totals.attempted, "ratio")
        named["pass_wall_s"] = (statistics.median(p.wall_s for p in passes), "s")
        named["speed_factor"] = (cal.factor, "ratio")
        named["passes"] = (len(passes), "count")

    # known defects, after the timed passes; other workloads read 0 in a traced run
    defects = wl.probe_known_defects()
    errors = defects.get("fitting.linear_regime.errors", (0, ""))[0]
    totals.attempted += errors
    totals.failed += errors
    if args.trace:
        metrics.update({k: defects.get(k, (0, unit)) for k, unit in DEFECT_METRICS.items()})
    else:
        named.update(defects)

    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"digest = {totals.digest}")
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "digest": totals.digest,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "passes": [{"wall_s": p.wall_s, "scaled_s": p.scaled_s, "phases": p.phases}
                         for p in passes]}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
