"""Run every workload on several seeds and record the baseline.

    python3 perfbench/baseline.py [--out FILE]

Runs every workload of ``BENCHMARK.json`` on seeds 1 to 10, one process
at a time, as the benchmark requires, then one traced run per workload.
For each end-to-end metric it records the median, the
quartiles and the spread (interquartile range over median) across seeds,
beside the machine description, the seeds, each workload's reason and the
digest of each seed's outputs.  Writes ``perfbench/BASELINE.json`` by default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    named, digest = {}, None
    for line in lines[:-1]:
        key, _, value = line.partition(" = ")
        if key == "digest":
            digest = value
        elif value:
            named[key] = float(value.split()[0])
    return json.loads(lines[-1]), named, digest


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "BASELINE.json"))
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for w in bench["workloads"]:
        workload, why = w["name"], w["why"]
        runs, named_runs, digests = [], [], {}
        for seed in SEEDS:
            start = time.perf_counter()
            result, named, digest = run_once(workload, seed, seconds, 0)
            runs.append(result)
            named_runs.append(named)
            digests[str(seed)] = digest
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s wall, "
                  f"correct {result['correct']}, {values}", flush=True)
        traced, _, _ = run_once(workload, SEEDS[0], seconds, 1)
        entry = {
            "why": why,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "bound": m["bound"],
                            **summary([r["metrics"][m["name"]]["value"] for r in runs])}
                for m in bench["end_to_end"]
            },
            "named": {k: summary([n[k] for n in named_runs]) for k in named_runs[0]},
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "digests": digests,
        }
        for name, stats in entry["end_to_end"].items():
            print(f"  {name}: median {stats['median']:.5g}, spread {stats['spread']:.4f} "
                  f"(bound {stats['bound']})", flush=True)
        record["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
