"""Command-line orchestration: simulate, sweep, fit, report.

All outputs are byte-deterministic for a given (config, seed): CSV with
a single header row and values at 9 significant digits, plus a JSON
bundle carrying the config hash, the seed and the toolkit version.

Each command only computes.  ``run`` loads the config, calls the
command, writes its files and then its JSON bundle into ``--out``, and
prints only once everything is written.  A command that fails creates
no directory and prints nothing on stdout; its message goes to stderr.

Exit codes: 0 success, 1 usage error, 2 validation error (a ``ValueError``,
an ``OSError``, or a warning raised as an error, as under ``python -W
error``), 3 numerical failure (an ``ArithmeticError``: a division by zero,
an overflow, or ``FitConvergenceError``, which a fit with non-finite
estimates raises).  The exception's class alone picks the code.

Every command but ``simulate`` runs without numpy: ``fit`` reads its CSV
into a ``Dataset`` and calls the fitting core directly, with no
``FitResult``, and so does ``fig3b``, which takes its fitted curve and 95%
band from ``fitting`` and draws its normals by Box-Muller from ``random``.
numpy, ``fitting``, ``montecarlo`` and ``timebin`` are imported only inside
the commands that use them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .chain import ExperimentScenario
from .config import (
    REFERENCE_CONFIG,
    ConfigError,
    config_hash,
    load_config,
    parse_config,
    with_overrides,
)
from .noise import (
    FILTER_BANDWIDTH_MAX_NM,
    FILTER_BANDWIDTH_MIN_NM,
    ExtrapolationWarning,
    detection_probabilities,
    mu1,
    projected_noise_floor,
    snr,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# Flags every command takes to override one config value:
# (flag name, type, qualified config key).  The config checks each value.
_OVERRIDES = (
    ("seed", int, "montecarlo_seed"),
    ("shots", int, "montecarlo_shots"),
    ("gate", float, "detector_gate_width"),
    ("pump_mw", float, "pump_power"),
    ("mu", float, "source_mean_photon_number"),
    ("bandwidth_nm", float, "filter_bandwidth"),
)


def _fmt(v) -> str:
    # the values are Python ints and floats
    if isinstance(v, int):
        return str(v)
    return f"{v:.9g}"


def _rounded(v) -> float:
    """A JSON number at the 9 significant digits of the CSV files."""
    return float(_fmt(v))


def _csv(columns: list[str] | tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _load(args) -> ExperimentScenario:
    cfg = parse_config(REFERENCE_CONFIG) if args.config is None else load_config(args.config)
    overrides = {
        key: getattr(args, flag)
        for flag, _, key in _OVERRIDES
        if getattr(args, flag) is not None
    }
    if overrides:
        cfg = with_overrides(cfg, **overrides)
    return cfg


def _linspace(start: float, stop: float, num: int, endpoint: bool = True) -> list[float]:
    """``numpy.linspace`` bit for bit: ``i * step + start``, with the last
    point set to ``stop`` when it is included."""
    step = (stop - start) / (num - 1 if endpoint else num)
    points = [i * step + start for i in range(num)]
    if endpoint:
        points[-1] = stop
    return points


def _normals(seed: int, n: int) -> list[float]:
    """``n`` standard normal draws, in Box-Muller pairs from the uniforms of
    ``random.Random(seed)``, whose stream Python keeps across versions (that
    of ``gauss`` it does not keep)."""
    import random

    uniform = random.Random(seed).random
    draws = []
    while len(draws) < n:
        r = math.sqrt(-2.0 * math.log(1.0 - uniform()))  # 1 - u lies in (0, 1]
        theta = 2.0 * math.pi * uniform()
        draws += (r * math.cos(theta), r * math.sin(theta))
    return draws[:n]


# Each command takes (cfg, args) and returns (bundle name, {file name:
# text}, bundle payload, stdout text); ``run`` writes and prints them.

# ---------------------------------------------------------------- simulate

# simulate.csv columns, each a SimulationResult attribute
_SIMULATE_COLUMNS = (
    "p_signal", "p_signal_err", "p_noise", "p_noise_err", "snr", "snr_err",
    "alive_signal", "alive_noise", "skipped_signal", "skipped_noise",
)


def _cmd_simulate(cfg: ExperimentScenario, args):
    from .montecarlo import simulate

    res = simulate(cfg)
    csv = _csv(_SIMULATE_COLUMNS, [tuple(getattr(res, name) for name in _SIMULATE_COLUMNS)])
    payload = {
        "shots": cfg.n_shots,
        "p_signal": _rounded(res.p_signal),
        "p_noise": _rounded(res.p_noise),
    }
    text = (f"simulate: p_S = {res.p_signal:.6g}, p_N = {res.p_noise:.6g} "
            f"({cfg.n_shots} shots, seed {cfg.seed})")
    return "simulate", {"simulate.csv": csv}, payload, text


# ------------------------------------------------------------------- sweep


def _preset_fig3a(cfg: ExperimentScenario):
    """Click probabilities versus pump power, input on / blocked."""
    rows = []
    for p in [20.0 * i for i in range(31)]:  # 0 to 600 mW
        rb = detection_probabilities(cfg.mu_in, p, cfg.chain)
        rows.append((p, rb.p_signal, rb.p_noise, rb.p_net))
    return ["P_p_mW", "p_signal", "p_noise", "p_net"], rows


def _preset_fig3b(cfg: ExperimentScenario):
    """Conversion-efficiency fit band and dark-subtracted SNR versus pump.

    A synthetic 5% relative-noise measurement of the sin^2 curve is drawn
    from the configured seed, fitted, and reported with a pointwise 95%
    confidence band.
    """
    from .fitting import Dataset, _conversion_band, _conversion_values, conversion_model

    chain = cfg.chain
    wg = chain.waveguide
    pumps_mw = [20.0 * i for i in range(1, 31)]
    pumps_w = [p * 1e-3 for p in pumps_mw]
    truth = conversion_model(pumps_w, wg.max_external_efficiency, wg.normalized_efficiency, wg.length_cm)
    y = [t * (1.0 + 0.05 * n) for t, n in zip(truth, _normals(cfg.seed, len(truth)))]
    fit = _conversion_values(Dataset(pumps_w, y, xlabel="P_p_W", ylabel="eta_ext"), wg.length_cm)
    rows = []
    for p, (eta, band) in zip(pumps_mw, _conversion_band(fit, pumps_w, wg.length_cm)):
        rb = detection_probabilities(cfg.mu_in, p, chain)
        rows.append((p, eta, eta - band, eta + band, snr(rb, subtract_dark=False)))
    return ["P_p_mW", "eta_ext", "eta_ext_ci_lo", "eta_ext_ci_hi", "snr_dc"], rows


def _preset_fig4a(cfg: ExperimentScenario):
    """SNR = 1 crossing versus filter bandwidth at the configured pump."""
    bandwidths = _linspace(FILTER_BANDWIDTH_MIN_NM, FILTER_BANDWIDTH_MAX_NM, 12)
    rows = []
    for bw in bandwidths:
        chain = cfg.chain.with_filter_bandwidth(bw)
        rows.append((bw, mu1(chain, cfg.pump_mw)))
    return ["bandwidth_nm", "mu_1"], rows


def _preset_fig5a(cfg: ExperimentScenario):
    """Visibility, fidelity and classical bounds versus input photon number."""
    from .timebin import quantum_regime_report, visibility_model

    m1 = mu1(cfg.chain, cfg.pump_mw)
    cas = cfg.chain.cascade()
    mus = _linspace(1.0, 25.0, 25)
    vis = [visibility_model(mu, m1, 1.0) for mu in mus]
    rows = [
        (r.mu_in, r.visibility, r.fidelity, r.bound_unit, r.bound_ext, r.bound_dev)
        for r in quantum_regime_report(mus, vis, cas.eta_ext_max, cas.eta_dev_max)
    ]
    return ["mu_in", "visibility", "fidelity", "bound_unit", "bound_ext", "bound_dev"], rows


PRESETS = {
    "fig3a": _preset_fig3a,
    "fig3b": _preset_fig3b,
    "fig4a": _preset_fig4a,
    "fig5a": _preset_fig5a,
}


def _cmd_sweep(cfg: ExperimentScenario, args):
    columns, rows = PRESETS[args.preset](cfg)
    csv_name = f"{args.preset}.csv"
    payload = {"preset": args.preset, "rows": len(rows)}
    text = f"sweep: wrote {csv_name} ({len(rows)} rows)"
    return args.preset, {csv_name: _csv(columns, rows)}, payload, text


# --------------------------------------------------------------------- fit


def _read_dataset_csv(path: Path):
    """The ``Dataset`` of a CSV file, its labels from the header."""
    from .fitting import RAGGED, Dataset

    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty dataset file")
    if len(lines) == 1:
        raise ConfigError(f"{path}: no data rows below the header")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) not in (2, 3):
        raise ConfigError(f"{path}: expected 2 or 3 columns (x,y[,sigma])")
    try:
        rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric dataset entry: {exc}") from exc
    if any(len(row) != len(header) for row in rows):  # zip would cut every column short
        raise ConfigError(RAGGED)
    x, y, *sigma = zip(*rows)
    return Dataset(x, y, sigma[0] if sigma else None, header[0], header[1])


def _cmd_fit(cfg: ExperimentScenario, args):
    from .fitting import _conversion_values

    fit = _conversion_values(_read_dataset_csv(Path(args.data)), cfg.chain.waveguide.length_cm)
    names, extras = fit["param_names"], fit["extras"]
    payload = {
        "data": str(args.data),
        "params": dict(zip(names, map(_rounded, fit["params"]))),
        "ci95": dict(zip(names, map(_rounded, fit["ci95"]))),
        "total_normalized_per_w": _rounded(extras["total_normalized_per_w"]),
        "total_normalized_ci95": _rounded(extras["total_normalized_ci95"]),
        "ill_conditioned": fit["ill_conditioned"],
        "rss": _rounded(fit["rss"]),
        "dof": fit["dof"],
    }
    lines = [
        f"{name} = {value:.6g} +- {ci:.3g}"
        for name, value, ci in zip(names, fit["params"], fit["ci95"])
    ]
    lines.append(f"total normalized conversion = "
                 f"{extras['total_normalized_per_w']:.6g} /W "
                 f"+- {extras['total_normalized_ci95']:.3g}")
    if fit["ill_conditioned"]:
        lines.append("warning: fit is ill-conditioned (saturation not resolved)")
    return "fit", {}, payload, "\n".join(lines)


# ------------------------------------------------------------------ report

def _report_values(cfg: ExperimentScenario) -> list[tuple]:
    """The report's rows for this configuration: (name, value, printed
    target, check, a, b).  Check "+-" passes when |value - a| <= b, check
    "in" when a <= value <= b.  The printed targets stay literal because
    some ("2.6e-3 +- 1e-4") do not come back from a float format."""
    from .timebin import Interferometer, TimeBinQubit, classical_fidelity_bound, slot_statistics

    chain = cfg.chain
    cas = chain.cascade()

    pumps = _linspace(1.0, 600.0, 600)
    rates = [detection_probabilities(cfg.mu_in, p, chain) for p in pumps]
    # The SNR rows are ratios of SNRs, which a zero signal mean does not
    # give (``detection_probabilities`` rejects a subnormal one).
    if not min(rb.signal for rb in rates) > 0:
        raise ConfigError(
            f"source_mean_photon_number = {cfg.mu_in:g} gives no signal at some pump "
            "power; the report cannot resolve it"
        )
    snrs = [snr(rb, subtract_dark=False) for rb in rates]
    # the first peak, as numpy's argmax finds it
    peak = max(range(len(snrs)), key=snrs.__getitem__)
    if not snrs[peak] > 0:  # the snr_400mW_over_peak row divides by it
        raise ConfigError(
            f"the noise (pump-noise mean {rates[peak].pump_noise:g}, dark mean "
            f"{rates[peak].dark:g} per gate) swamps the signal at every pump power; the "
            "report cannot resolve its SNR rows: noise_alpha_detected, noise_reference_gate, "
            "noise_reference_bandwidth and detector_dark_rate set the noise"
        )

    with warnings.catch_warnings():
        # the 50 MHz projection is a deliberate extrapolation
        warnings.simplefilter("ignore", ExtrapolationWarning)
        alpha_scaled, photons = projected_noise_floor(0.05, chain.with_gate_width(50.0))

    qubit = TimeBinQubit(phase=0.0, separation_ns=50.0)
    early = central = late = 0.0
    for g in _linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        sc = slot_statistics(qubit, Interferometer(delay_ns=50.0, phase=g), 1.0)
        early += sc.early
        central += sc.central
        late += sc.late

    return [
        ("eta_ext_max", cas.eta_ext_max, "0.25 +- 0.005", "+-", 0.25, 0.005),
        ("eta_dev_max", cas.eta_dev_max, "0.066 +- 0.002", "+-", 0.066, 0.002),
        ("eta_tot_max", cas.eta_tot_max, "2.6e-3 +- 1e-4", "+-", 2.6e-3, 1e-4),
        ("optimal_pump_mw", chain.optimal_pump_mw, "[360, 440] mW", "in", 360.0, 440.0),
        ("beta_20ns", chain.with_gate_width(20.0).beta, "0.57 +- 0.01", "+-", 0.57, 0.01),
        ("beta_50ns", chain.with_gate_width(50.0).beta, "0.95 +- 0.03", "+-", 0.95, 0.03),
        (f"mu_1_at_{cfg.pump_mw:g}mW", mu1(chain, cfg.pump_mw), "[0.6, 0.8]", "in", 0.6, 0.8),
        ("snr_peak_pump_mw", pumps[peak], "[80, 130] mW", "in", 80.0, 130.0),
        ("snr_400mW_over_peak", snrs[pumps.index(400.0)] / snrs[peak], "[0.4, 0.6]", "in",
         0.4, 0.6),
        ("alpha_crystal_50MHz", alpha_scaled, "[2.5, 3.5]e-9 /mW/ns", "in", 2.5e-9, 3.5e-9),
        ("noise_photons_50MHz_50ns", photons, "6e-5 +- 1e-5", "+-", 6e-5, 1e-5),
        ("classical_bound_mu_to_0", classical_fidelity_bound(1e-6, 1.0), "2/3 +- 1e-6", "+-",
         2.0 / 3.0, 1e-6),
        ("slot_fraction_central", central / (early + central + late), "1/2 (gamma-averaged)",
         "+-", 0.5, 1e-12),
    ]


def _cmd_report(cfg: ExperimentScenario, args):
    rows = []
    for name, v, target, check, a, b in _report_values(cfg):
        ok = abs(v - a) <= b if check == "+-" else a <= v <= b
        rows.append((name, v, target, "PASS" if ok else "FAIL"))
    width = max(len(r[0]) for r in rows)
    lines = ["quantity".ljust(width) + "  value         target              status"]
    for name, value, target, status in rows:
        lines.append(f"{name.ljust(width)}  {value:<12.6g}  {target:<18}  {status}")
    table = "\n".join(lines)
    payload = {
        "rows": [
            {"name": name, "value": _rounded(value), "target": target, "status": status}
            for name, value, target, status in rows
        ],
    }
    text = (table + "\n\n(statistical checks: fit recovery, Monte Carlo consistency,\n"
            " histogram shape and determinism run in the pytest suite)")
    return "report", {"report.txt": table + "\n"}, payload, text


# -------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qfcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None, help="scenario config file")
        p.add_argument("--out", default=".", help="output directory")
        for flag, kind, _ in _OVERRIDES:
            p.add_argument("--" + flag.replace("_", "-"), type=kind, default=None)
        return p

    # The handlers are read from the module when the parser is built, so
    # that a wrapper installed on a module attribute is the one called.
    command("simulate", _cmd_simulate, "Monte Carlo click-probability estimate")
    command("sweep", _cmd_sweep, "named figure-reproduction dataset").add_argument(
        "--preset", required=True, choices=PRESETS
    )
    command("fit", _cmd_fit, "fit the conversion curve to a CSV dataset").add_argument(
        "data", help="CSV with columns P_p_W,eta_ext[,sigma]"
    )
    command("report", _cmd_report, "model-number reproduction table")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load(args)
        name, files, payload, text = args.handler(cfg, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for file_name, content in files.items():
            (out / file_name).write_text(content, encoding="utf-8")
        bundle = {
            "config_hash": config_hash(cfg),
            "seed": cfg.seed,
            "version": __version__,
            "command": args.command,
            **payload,
        }
        (out / f"{name}.json").write_text(
            json.dumps(bundle, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    except ArithmeticError as exc:  # covers FitConvergenceError and overflows
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, Warning) as exc:  # ConfigError, file errors, -W error
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(text)
    return EXIT_OK


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
