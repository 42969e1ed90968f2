"""The four benchmark workloads and their output checks.

Every workload runs passes of a fixed script.  Pass ``k`` draws its inputs
from ``(seed, k)``, so no two passes repeat an input and a result cache
cannot pass for speed.  ``run_pass`` times only calls into qfcsim;
``check`` verifies the pass's outputs afterwards, untimed and untraced.
Any exception raised by qfcsim counts as a failed operation.  Inputs that
hit a known defect run apart, in ``probe_known_defects``, whose outcomes are
reported beside the metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60.0


def pass_seed(seed: int, k: int) -> int:
    """Deterministic 60-bit seed for pass ``k`` of a run seeded ``seed``."""
    return int(hashlib.sha256(f"{seed}:{k}".encode()).hexdigest()[:15], 16)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run a child to completion; returns (exit code, wall s, peak RSS MB).

    The child is killed after CHILD_TIMEOUT_S, which reads as a failure.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def report_exception(what: str) -> None:
    print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)


def z_score(estimate: float, err: float, expected: float) -> float:
    return abs(estimate - expected) / err if err > 0 else math.inf


@dataclass
class Pass:
    """One pass of a workload script: timings, op counts and outputs."""

    wall_s: float = 0.0
    scaled_s: float = 0.0  # wall_s at reference machine speed (see calib.py)
    phases: dict = field(default_factory=dict)  # phase -> seconds
    attempted: int = 0
    failed: int = 0
    points: int = 0  # analytic rate points evaluated
    outputs: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # per-workload trace data


def scaled_phase(passes: list[Pass], phase: str) -> float:
    """Median reference-speed seconds of one phase; a pass's phases share its scale."""
    return statistics.median(p.phases[phase] * p.scaled_s / p.wall_s for p in passes)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class DeskCli:
    """Fresh ``python -m qfcsim.cli`` processes, one after another.

    Each command is scaled by the kernel samples taken around it.  In a
    traced run every command is also run in this process with
    ``cli.run``, in the untraced passes as well, so that the trace's
    overhead compares in-process run times.
    """

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.max_child_rss_mb = 0.0
        self.cli = None  # imported only for a traced run's in-process runs
        self.calibrator = None  # set by the runner; samples between commands

    def script(self, data_csv: str) -> list[tuple[str, list[str]]]:
        return [
            ("report", ["report"]),
            ("fig3a", ["sweep", "--preset", "fig3a"]),
            ("fig3b", ["sweep", "--preset", "fig3b"]),
            ("fig4a", ["sweep", "--preset", "fig4a"]),
            ("fig5a", ["sweep", "--preset", "fig5a"]),
            ("fit", ["fit", data_csv]),
            ("simulate", ["simulate", "--shots", "200000"]),
        ]

    def _write_dataset(self, path: Path, rng: random.Random) -> None:
        """30-point sin^2 conversion curve of the reference waveguide, 5% noise."""
        pumps = sorted(rng.uniform(0.02, 0.6) for _ in range(30))
        lines = ["P_p_W,eta_ext"]
        for p in pumps:
            eta = 0.25 * math.sin(3.0 * math.sqrt(p * 0.72)) ** 2
            lines.append(f"{p!r},{eta * (1.0 + 0.05 * rng.gauss(0.0, 1.0))!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def warm(self) -> Pass:
        return Pass()  # every command pays its own start-up, as a user's would

    def run_pass(self, k: int, traced: bool = False) -> Pass:
        seed_k = pass_seed(self.seed, k)
        base = self.out / f"p{k}"
        (base / "input").mkdir(parents=True)
        (base / "log").mkdir()
        data = base / "input" / "data.csv"
        self._write_dataset(data, random.Random(seed_k))
        rel_data = str(data.relative_to(ROOT))
        p = Pass(outputs={"dir": base})
        walls, scaled, imports, runs = {}, {}, {}, {}
        for name, cmd in self.script(rel_data):
            argv = [*cmd, "--seed", str(seed_k), "--out", str((base / "out" / name).relative_to(ROOT))]
            python = [sys.executable, "-X", "importtime"] if traced else [sys.executable]
            p.attempted += 1
            rc, wall, rss = spawn(
                [*python, "-m", "qfcsim.cli", *argv],
                base / "log" / f"{name}.out",
                base / "log" / f"{name}.err",
            )
            walls[name] = wall
            self.calibrator.sample_after(wall)
            scaled[name] = self.calibrator.scale_last(wall)
            self.max_child_rss_mb = max(self.max_child_rss_mb, rss)
            if rc != 0:
                p.failed += 1
                err = (base / "log" / f"{name}.err").read_text(errors="replace")[-2000:]
                print(f"FAILED desk_cli {name}: exit {rc}\n{err}", file=sys.stderr)
            if traced:
                imports[name] = parse_importtime(base / "log" / f"{name}.err").get("qfcsim", 0.0)
            if self.cli is not None:
                runs[name] = self._run_in_process(p, name, argv, base)
        p.wall_s = sum(walls.values())
        p.scaled_s = sum(scaled.values())
        p.phases = scaled
        if runs:
            p.extra["inproc_s"] = sum(runs.values())
        if traced:
            p.extra["process_overhead_s"] = sum(walls[n] - imports[n] - runs[n] for n in walls)
        return p

    def _run_in_process(self, p: Pass, name: str, argv: list[str], base: Path) -> float:
        """Time ``cli.run(argv)`` in this process, writing to a separate tree."""
        argv = list(argv)
        argv[argv.index("--out") + 1] = str((base / "inproc" / name).relative_to(ROOT))
        sink = io.StringIO()
        p.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.run(argv)
        except Exception:
            rc = None
            report_exception(f"desk_cli in-process {name}")
        seconds = time.perf_counter() - start
        if rc != 0:
            p.failed += 1
            print(f"FAILED desk_cli in-process {name}: exit {rc}\n{sink.getvalue()[-2000:]}", file=sys.stderr)
        return seconds

    def prepare_trace(self) -> None:
        from qfcsim import cli

        self.cli = cli

    def probe_known_defects(self) -> dict:
        return {}

    def check(self, p: Pass) -> list[str]:
        base = p.outputs["dir"] / "out"
        failures = []
        expected = {
            "report": ["report.txt", "report.json"],
            "fig3a": ["fig3a.csv", "fig3a.json"],
            "fig3b": ["fig3b.csv", "fig3b.json"],
            "fig4a": ["fig4a.csv", "fig4a.json"],
            "fig5a": ["fig5a.csv", "fig5a.json"],
            "fit": ["fit.json"],
            "simulate": ["simulate.csv", "simulate.json"],
        }
        for name, files in expected.items():
            for fname in files:
                path = base / name / fname
                try:
                    check_file(path)
                except (OSError, ValueError) as exc:
                    failures.append(f"{name}/{fname}: {exc}")
        try:
            failures += self._check_values(base)
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"value check: {exc}")
        return failures

    def _check_values(self, base: Path) -> list[str]:
        from qfcsim import config, noise

        failures = []
        cfg = config.parse_config(config.REFERENCE_CONFIG)
        rb = noise.detection_probabilities(cfg.mu_in, cfg.pump_mw, cfg.chain)
        header, row = read_csv(base / "simulate" / "simulate.csv")
        sim = dict(zip(header, row[0]))
        for key, expected in (("p_signal", rb.p_signal), ("p_noise", rb.p_noise)):
            z = z_score(sim[key], sim[f"{key}_err"], expected)
            if z >= Z_LIMIT:
                failures.append(f"simulate {key}: |z| = {z:.2f} against the analytic model")
        fit = json.loads((base / "fit" / "fit.json").read_text())
        failures += fit_recovery_failures(
            fit["params"]["eta_ext_max"], fit["params"]["eta_n"],
            fit["ci95"]["eta_ext_max"], fit["ci95"]["eta_n"],
            fit["ill_conditioned"], 0.25, 0.72,
        )
        return failures

    def digest(self, p: Pass) -> str:
        base = p.outputs["dir"] / "out"
        files = sorted(f for f in base.rglob("*") if f.is_file())
        return _digest(part for f in files for part in (str(f.relative_to(base)).encode(), f.read_bytes()))

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_mb

    def named_metrics(self, passes: list[Pass]) -> dict:
        cmd_s = [s for p in passes for s in p.phases.values()]
        return {
            "desk_total_s": (statistics.median(p.scaled_s for p in passes), "s"),
            "cmd_p50_s": (statistics.median(cmd_s), "s"),
        }


# Loose enough that a correct program practically never fails: |z| >= 5 has
# probability ~6e-7, and 20,000 seeded fits missed by at most 2.8 CI
# half-widths.  tests/ keep the tight statistical bounds.
Z_LIMIT = 5.0
FIT_CI_FACTOR = 4.0


def fit_recovery_failures(a, b, ci_a, ci_b, ill, truth_a, truth_b) -> list[str]:
    failures = []
    if ill:
        failures.append("identifiable fit flagged ill-conditioned")
    for name, est, ci, truth in (("eta_ext_max", a, ci_a, truth_a), ("eta_n", b, ci_b, truth_b)):
        if not abs(est - truth) <= FIT_CI_FACTOR * ci:
            failures.append(f"fit {name} = {est:.6g} +- {ci:.3g} misses the truth {truth:.6g}")
    return failures


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError("empty or ragged CSV")
    if not all(math.isfinite(v) for r in rows for v in r):
        raise ValueError("non-finite value in CSV")
    return header, rows


def _finite_json(node) -> bool:
    if isinstance(node, dict):
        return all(_finite_json(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_json(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def check_file(path: Path) -> None:
    if path.suffix == ".csv":
        read_csv(path)
    elif path.suffix == ".json":
        if not _finite_json(json.loads(path.read_text(encoding="utf-8"))):
            raise ValueError("non-finite value in JSON")
    elif not path.read_text(encoding="utf-8").strip():
        raise ValueError("empty file")


def parse_importtime(stderr_path: Path) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    out = {}
    for line in Path(stderr_path).read_text(errors="replace").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, module = line[len("import time:"):].split("|", 2)
        try:
            out.setdefault(module.strip(), int(cumulative) * 1e-6)
        except ValueError:
            continue  # the header line
    return out


class _InProcess:
    """Base of the workloads that call the library in this process."""

    def __init__(self, seed: int, out: Path):
        import numpy as np
        from qfcsim import config

        self.np = np
        self.seed = seed
        self.out = out
        self.cfg = config.parse_config(config.REFERENCE_CONFIG)

    def prepare_trace(self) -> None:
        pass

    def probe_known_defects(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _call(self, p: Pass, phase: str, what: str, fn, *args, **kwargs):
        """Time and scale one library call into ``p``; None if it raised."""
        p.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            p.failed += 1
            report_exception(what)
            result = None
        wall = time.perf_counter() - start
        self.calibrator.sample_after(wall)
        p.phases[phase] = p.phases.get(phase, 0.0) + wall
        p.wall_s += wall
        p.scaled_s += self.calibrator.scale_last(wall)
        return result

    def _simulate_checks(self, res, mu: float, pump_mw: float, n_shots: int) -> list[str]:
        from qfcsim import noise

        if res is None:
            return []
        failures = []
        rb = noise.detection_probabilities(mu, pump_mw, self.cfg.chain)
        for key, est, err, expected in (
            ("p_signal", res.p_signal, res.p_signal_err, rb.p_signal),
            ("p_noise", res.p_noise, res.p_noise_err, rb.p_noise),
        ):
            z = z_score(est, err, expected)
            if z >= Z_LIMIT:
                failures.append(f"simulate {key} = {est:.6g}: |z| = {z:.2f} against {expected:.6g}")
        for lane, alive, skipped in (("signal", res.alive_signal, res.skipped_signal),
                                     ("noise", res.alive_noise, res.skipped_noise)):
            if alive + skipped != n_shots:
                failures.append(f"simulate {lane} lane: alive + skipped != shots")
        return failures

    def _simulate_digest(self, res) -> list:
        if res is None:
            return ["failed"]
        return [res.p_signal, res.p_noise, res.alive_signal, res.alive_noise,
                res.skipped_signal, res.skipped_noise,
                res.clicks_signal.tobytes(), res.clicks_noise.tobytes()]


class McOperatingPoint(_InProcess):
    """``simulate`` on the reference configuration, 1e7 shots a pass.

    The shots are split over 4 calls, each scaled by its own kernel samples:
    over one 2.5 s call the machine's speed drifted too far.
    """

    shots = 10_000_000
    calls = 4

    def warm(self) -> Pass:
        p = Pass()
        self._run(100_000, 1, p)
        return p

    def _run(self, shots: int, seed: int, p: Pass):
        from qfcsim import montecarlo

        cfg = self.cfg
        sc = montecarlo.ExperimentScenario(
            chain=cfg.chain, mu_in=cfg.mu_in, pump_mw=cfg.pump_mw, n_shots=shots, seed=seed
        )
        return self._call(p, "simulate", "mc_operating_point simulate", montecarlo.simulate, sc)

    def run_pass(self, k: int, traced: bool = False) -> Pass:
        p = Pass()
        shots = self.shots // self.calls
        p.outputs["sims"] = [
            self._run(shots, pass_seed(self.seed, self.calls * k + i), p) for i in range(self.calls)
        ]
        return p

    def check(self, p: Pass) -> list[str]:
        cfg, shots = self.cfg, self.shots // self.calls
        return [msg for res in p.outputs["sims"]
                for msg in self._simulate_checks(res, cfg.mu_in, cfg.pump_mw, shots)]

    def digest(self, p: Pass) -> str:
        return _digest(part for res in p.outputs["sims"] for part in self._simulate_digest(res))

    def named_metrics(self, passes: list[Pass]) -> dict:
        return {"mc_shots_per_s": (self.shots / scaled_phase(passes, "simulate"), "1/s")}


class McDense(_InProcess):
    """``simulate`` and ``start_stop_histogram`` at about 7x the click density."""

    shots = 2_000_000
    sim_mu, sim_pump = 60.0, 400.0
    hist_mu, hist_pump = 25.0, 400.0
    bin_ns, window_ns = 0.64, 100.0

    def warm(self) -> Pass:
        p = Pass()
        self._run(p, 50_000, 1)
        return p

    def _run(self, p: Pass, shots: int, seed: int) -> None:
        from qfcsim import montecarlo

        chain = self.cfg.chain
        sim = montecarlo.ExperimentScenario(
            chain=chain, mu_in=self.sim_mu, pump_mw=self.sim_pump, n_shots=shots, seed=seed
        )
        hist = montecarlo.ExperimentScenario(
            chain=chain, mu_in=self.hist_mu, pump_mw=self.hist_pump, n_shots=shots, seed=seed
        )
        p.outputs["sim"] = self._call(p, "simulate", "mc_dense simulate", montecarlo.simulate, sim)
        p.outputs["hist"] = self._call(
            p, "histogram", "mc_dense start_stop_histogram", montecarlo.start_stop_histogram,
            hist, bin_width_ns=self.bin_ns, window_ns=self.window_ns,
        )

    def run_pass(self, k: int, traced: bool = False) -> Pass:
        p = Pass()
        self._run(p, self.shots, pass_seed(self.seed, k))
        return p

    def check(self, p: Pass) -> list[str]:
        np = self.np
        failures = self._simulate_checks(p.outputs["sim"], self.sim_mu, self.sim_pump, self.shots)
        triple = p.outputs["hist"]
        if triple is None:
            return failures
        for name in ("signal_on", "pump_only", "dark_only"):
            if getattr(triple, name).total <= 0:
                failures.append(f"histogram {name} is empty")
        # the signal peak: argmax of a ~10 ns moving average lies within 5 ns
        # of the window centre (the pulse sigma is 12.7 ns)
        h = triple.signal_on
        smooth = np.convolve(h.counts.astype(float), np.ones(15) / 15.0, mode="same")
        peak = float(h.bin_centers[int(np.argmax(smooth))])
        if abs(peak - self.window_ns / 2.0) > 5.0:
            failures.append(f"signal histogram peaks at {peak:.2f} ns, not the window centre")
        return failures

    def digest(self, p: Pass) -> str:
        triple = p.outputs["hist"]
        hists = ["failed"] if triple is None else [
            h.counts.tobytes() for h in (triple.signal_on, triple.pump_only, triple.dark_only)
        ]
        return _digest(self._simulate_digest(p.outputs["sim"]) + hists)

    def named_metrics(self, passes: list[Pass]) -> dict:
        return {
            "mc_shots_per_s": (self.shots / scaled_phase(passes, "simulate"), "1/s"),
            "hist_shots_per_s": (self.shots / scaled_phase(passes, "histogram"), "1/s"),
        }


class AnalyticDense(_InProcess):
    """Dense grids through the scalar analytic API; no Monte Carlo, no import."""

    n_pump, n_bw, n_mu = 30, 12, 40
    n_fit = 40
    n_probe_linear = 16
    n_bound_mu = 2000

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        cas = self.cfg.chain.cascade()
        # unit, external and device efficiencies, as in the fig5a preset
        self.etas = (1.0, cas.eta_ext_max, cas.eta_dev_max)

    def warm(self) -> Pass:
        return self.run_pass(-1)

    def _grid(self, rng, lo: float, hi: float, n: int, log: bool = False):
        """One uniform draw inside each of n equal cells of [lo, hi]."""
        np = self.np
        if log:
            return np.exp(self._grid(rng, math.log(lo), math.log(hi), n))
        edges = np.linspace(lo, hi, n + 1)
        return edges[:-1] + (edges[1:] - edges[:-1]) * rng.uniform(size=n)

    def _fit_dataset(self, rng, lo_w: float, hi_w: float) -> tuple:
        """(truth, x, y): 30 pump powers in [lo_w, hi_w] W, 5% noise."""
        np = self.np
        truth = (rng.uniform(0.2, 0.3), rng.uniform(0.5, 1.0))
        x = np.sort(rng.uniform(lo_w, hi_w, 30))
        noise = 1.0 + 0.05 * rng.standard_normal(30)
        y = truth[0] * np.sin(self.cfg.chain.waveguide.length_cm * np.sqrt(x * truth[1])) ** 2 * noise
        return truth, x, y

    def _inputs(self, k: int) -> dict:
        np = self.np
        rng = np.random.default_rng(pass_seed(self.seed, k))
        return {
            "bws": self._grid(rng, 0.65, 2.3, self.n_bw),
            "pumps": self._grid(rng, 20.0, 600.0, self.n_pump),
            "mus": self._grid(rng, 0.05, 60.0, self.n_mu, log=True),
            # identifiable: the powers span the saturation peak
            "fits": [self._fit_dataset(rng, 0.02, 0.6) for _ in range(self.n_fit)],
            "bound_mus": self._grid(rng, 1.0, 25.0, self.n_bound_mu),
            "phases": rng.uniform(0.0, 2.0 * math.pi, (self.n_bound_mu, 2)),
        }

    def run_pass(self, k: int, traced: bool = False) -> Pass:
        from qfcsim import fitting, noise, optics, timebin

        np = self.np
        inp = self._inputs(k)
        bws, pumps, mus = (inp[n].tolist() for n in ("bws", "pumps", "mus"))
        chain = self.cfg.chain
        wg = chain.waveguide
        nan = math.nan
        p = Pass(outputs={"inputs": inp})
        clock = time.perf_counter
        start = clock()

        # rates: detection probabilities and dark-subtracted SNR per point
        t0 = clock()
        p_sig, snrs, eta_ext = [], [], []
        for pump in pumps:
            p.attempted += 1
            try:
                eta_ext.append(optics.external_efficiency(pump * 1e-3, wg))
            except Exception:
                p.failed += 1
                report_exception("analytic external_efficiency")
                eta_ext.append(nan)
        chains = []
        for bw in bws:
            p.attempted += 1
            try:
                ch = chain.with_filter_bandwidth(bw)
            except Exception:
                p.failed += 1
                report_exception("analytic with_filter_bandwidth")
                ch = None
            chains.append(ch)
            for pump in pumps:
                for mu in mus:
                    p.attempted += 1
                    p.points += 1
                    try:
                        rb = noise.detection_probabilities(mu, pump, ch)
                        p_sig.append(rb.p_signal)
                        snrs.append(noise.snr(rb))
                    except Exception:
                        p.failed += 1
                        report_exception("analytic rate point")
                        p_sig.append(nan)
                        snrs.append(nan)
        p.phases["rates"] = clock() - t0

        # mu_1: closed form against a zero-intercept fit of SNR(mu)
        t0 = clock()
        mu_arr = np.asarray(mus)
        mu1s, fitted = [], []
        row = 0
        for ch in chains:
            for pump in pumps:
                p.attempted += 1
                try:
                    mu1s.append(noise.mu1(ch, pump))
                    snr_row = np.asarray(snrs[row:row + len(mus)])
                    fitted.append(fitting.extract_mu1(fitting.Dataset(x=mu_arr, y=snr_row))[0])
                except Exception:
                    p.failed += 1
                    report_exception("analytic mu_1")
                    mu1s.append(nan)
                    fitted.append(nan)
                row += len(mus)
        p.phases["mu1"] = clock() - t0

        # conversion fits on identifiable data
        t0 = clock()
        fits = []
        for _, x, y in inp["fits"]:
            p.attempted += 1
            try:
                fits.append(fitting.fit_conversion(fitting.Dataset(x=x, y=y), wg.length_cm))
            except Exception:
                p.failed += 1
                report_exception("analytic fit_conversion")
                fits.append(None)
        p.phases["fits"] = clock() - t0

        # classical fidelity bounds and slot statistics over the fig5a mu range
        t0 = clock()
        bounds, slots = [], []
        bound_mus = inp["bound_mus"].tolist()
        for eta in self.etas:
            for mu in bound_mus:
                p.attempted += 1
                try:
                    bounds.append(timebin.classical_fidelity_bound(mu, eta))
                except Exception:
                    p.failed += 1
                    report_exception("analytic classical_fidelity_bound")
                    bounds.append(nan)
        p.phases["bounds"] = clock() - t0

        t0 = clock()
        phase_pairs = inp["phases"].tolist()
        for eta in self.etas:
            for mu, (phi, gamma) in zip(bound_mus, phase_pairs):
                p.attempted += 1
                try:
                    qubit = timebin.TimeBinQubit(phase=phi, separation_ns=50.0)
                    ifm = timebin.Interferometer(delay_ns=50.0, phase=gamma)
                    sc = timebin.slot_statistics(qubit, ifm, mu * eta)
                    slots.append((sc.early, sc.central, sc.late))
                except Exception:
                    p.failed += 1
                    report_exception("analytic slot_statistics")
                    slots.append((nan, nan, nan))
        p.phases["slots"] = clock() - t0
        p.wall_s = clock() - start
        # a 0.5 s pass is scaled whole, by the kernel samples around it
        self.calibrator.sample_after(p.wall_s)
        p.scaled_s = self.calibrator.scale_last(p.wall_s)

        p.outputs.update(p_sig=p_sig, snrs=snrs, eta_ext=eta_ext, mu1s=mu1s, fitted=fitted,
                         fits=fits, bounds=bounds, slots=slots)
        return p

    def probe_known_defects(self) -> dict:
        """Fit noisy linear-regime data, untimed and outside the operations.

        ``fit_conversion`` should return these fits flagged
        ``ill_conditioned``, but it raises ``FitConvergenceError`` on about
        30% of them (README, Known defects).  Every outcome is counted and
        reported, and none fails the run; any other exception does.
        """
        from qfcsim import fitting

        rng = self.np.random.default_rng(pass_seed(self.seed, -2))
        length_cm = self.cfg.chain.waveguide.length_cm
        outcomes = dict.fromkeys(("flagged", "unflagged", "nonconverged", "errors"), 0)
        times = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the ill-conditioned warning
            for _ in range(self.n_probe_linear):
                # all powers far below the saturation peak
                _, x, y = self._fit_dataset(rng, 0.001, 0.02)
                start = time.perf_counter()
                try:
                    fit = fitting.fit_conversion(fitting.Dataset(x=x, y=y), length_cm)
                    outcomes["flagged" if fit.ill_conditioned else "unflagged"] += 1
                except fitting.FitConvergenceError:
                    outcomes["nonconverged"] += 1
                except Exception:
                    outcomes["errors"] += 1
                    report_exception("linear-regime fit_conversion")
                times.append(time.perf_counter() - start)
        return {
            "fitting.fit_conversion.ill_conditioned": (outcomes["flagged"], "count"),
            "fitting.linear_regime.unflagged": (outcomes["unflagged"], "count"),
            "fitting.linear_regime.nonconverged": (outcomes["nonconverged"], "count"),
            "fitting.linear_regime.errors": (outcomes["errors"], "count"),
            "fitting.linear_regime.fit_ms": (1e3 * statistics.median(times), "ms"),
        }

    def check(self, p: Pass) -> list[str]:
        np = self.np
        out, inp = p.outputs, p.outputs["inputs"]
        failures = []
        wg = self.cfg.chain.waveguide
        pumps_w = inp["pumps"] * 1e-3
        frac = np.sin(wg.length_cm * np.sqrt(pumps_w * wg.normalized_efficiency)) ** 2
        if not np.allclose(out["eta_ext"], wg.max_external_efficiency * frac, rtol=1e-12, atol=0):
            failures.append("external_efficiency disagrees with eta_max sin^2")
        # dark-subtracted SNR is mu / mu_1 exactly, so the fit recovers mu_1
        mu1s, fitted = np.asarray(out["mu1s"]), np.asarray(out["fitted"])
        bad = ~(np.abs(fitted - mu1s) <= 1e-6 * mu1s)
        if bad.any():
            failures.append(f"extract_mu1 misses mu1 at {int(bad.sum())} grid points")
        snr = np.asarray(out["snrs"]).reshape(len(mu1s), -1)
        if not np.allclose(snr, inp["mus"][None, :] / mu1s[:, None], rtol=1e-9, atol=0):
            failures.append("dark-subtracted SNR is not mu / mu_1")
        for (truth, _, _), fit in zip(inp["fits"], out["fits"]):
            if fit is not None:
                failures += fit_recovery_failures(
                    fit.params[0], fit.params[1], fit.ci95[0], fit.ci95[1],
                    fit.ill_conditioned, *truth,
                )
        bounds = np.asarray(out["bounds"]).reshape(len(self.etas), -1)
        if not np.all((bounds >= 2.0 / 3.0 - 1e-12) & (bounds <= 1.0)):
            failures.append("classical fidelity bound outside [2/3, 1]")
        # the bound rises as the efficiency falls (etas are in falling order)
        if not np.all(np.diff(bounds, axis=0) >= -1e-12):
            failures.append("classical fidelity bound does not rise as eta falls")
        slots = np.asarray(out["slots"]).reshape(len(self.etas), -1, 3)
        mu_eta = np.asarray(self.etas)[:, None] * inp["bound_mus"][None, :]
        dphi = inp["phases"][:, 0] - inp["phases"][:, 1]
        expected = np.stack([mu_eta / 4.0, mu_eta / 2.0 * (1.0 + np.cos(dphi))[None, :], mu_eta / 4.0], axis=-1)
        if not np.allclose(slots, expected, rtol=1e-9, atol=1e-12):
            failures.append("slot statistics differ from (mu/4, mu/2 (1 + cos), mu/4)")
        return failures

    def digest(self, p: Pass) -> str:
        out = p.outputs
        fits = [f.params.tobytes() + f.ci95.tobytes() if f is not None else b"failed" for f in out["fits"]]
        keys = ("p_sig", "snrs", "eta_ext", "mu1s", "fitted", "bounds", "slots")
        return _digest([self.np.asarray(out[k]).tobytes() for k in keys] + fits)

    def named_metrics(self, passes: list[Pass]) -> dict:
        def rate(phase, count):
            return count / scaled_phase(passes, phase), "1/s"

        return {
            "analytic_points_per_s": rate("rates", self.n_pump * self.n_bw * self.n_mu),
            "fits_per_s": rate("fits", self.n_fit),
            "bounds_per_s": rate("bounds", len(self.etas) * self.n_bound_mu),
        }


WORKLOADS = {
    "desk_cli": DeskCli,
    "mc_operating_point": McOperatingPoint,
    "mc_dense": McDense,
    "analytic_dense": AnalyticDense,
}
