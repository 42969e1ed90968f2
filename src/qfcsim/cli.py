"""Command-line orchestration: simulate, sweep, fit, report.

All outputs are byte-deterministic for a given (config, seed): CSV with
a single header row and values at 9 significant digits, plus a JSON
bundle carrying the config hash, the seed and the toolkit version.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    REFERENCE_CONFIG,
    ConfigError,
    ScenarioConfig,
    config_hash,
    load_config,
    parse_config,
    with_overrides,
)
from .fitting import (
    Dataset,
    FitConvergenceError,
    _conversion_jacobian,
    conversion_model,
    fit_conversion,
)
from .montecarlo import ExperimentScenario, simulate
from .noise import (
    DegenerateDenominatorError,
    ExtrapolationWarning,
    beta_factor,
    detection_probabilities,
    mu1,
    projected_noise_floor,
    snr,
)
from .timebin import (
    Interferometer,
    TimeBinQubit,
    classical_fidelity_bound,
    quantum_regime_report,
    slot_statistics,
    visibility_model,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

PRESETS = ("fig3a", "fig3b", "fig4a", "fig5a")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.9g}"


def _write_csv(path: Path, columns: list[str], rows: list[tuple]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_bundle(path: Path, cfg: ScenarioConfig, payload: dict) -> None:
    bundle = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "version": __version__,
    }
    bundle.update(payload)
    path.write_text(
        json.dumps(bundle, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _load(args) -> ScenarioConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = parse_config(REFERENCE_CONFIG)
    overrides = {}
    if args.seed is not None:
        overrides["montecarlo_seed"] = args.seed
    if args.shots is not None:
        overrides["montecarlo_shots"] = args.shots
    if args.gate is not None:
        overrides["detector_gate_width"] = float(args.gate)
    if args.pump_mw is not None:
        overrides["pump_power"] = args.pump_mw
    if args.mu is not None:
        overrides["source_mean_photon_number"] = args.mu
    if args.bandwidth_nm is not None:
        overrides["filter_bandwidth"] = args.bandwidth_nm
    if overrides:
        cfg = with_overrides(cfg, **overrides)
    return cfg


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    scenario = ExperimentScenario(
        chain=cfg.chain,
        mu_in=cfg.mu_in,
        pump_mw=cfg.pump_mw,
        n_shots=cfg.shots,
        seed=cfg.seed,
    )
    res = simulate(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "simulate.csv",
        [
            "p_signal",
            "p_signal_err",
            "p_noise",
            "p_noise_err",
            "snr",
            "snr_err",
            "alive_signal",
            "alive_noise",
            "skipped_signal",
            "skipped_noise",
        ],
        [
            (
                res.p_signal,
                res.p_signal_err,
                res.p_noise,
                res.p_noise_err,
                res.snr,
                res.snr_err,
                res.alive_signal,
                res.alive_noise,
                res.skipped_signal,
                res.skipped_noise,
            )
        ],
    )
    _write_bundle(
        out / "simulate.json",
        cfg,
        {
            "command": "simulate",
            "shots": cfg.shots,
            "p_signal": float(_fmt(res.p_signal)),
            "p_noise": float(_fmt(res.p_noise)),
        },
    )
    print(f"simulate: p_S = {res.p_signal:.6g}, p_N = {res.p_noise:.6g} "
          f"({cfg.shots} shots, seed {cfg.seed})")
    return EXIT_OK


# ------------------------------------------------------------------- sweep


def _preset_fig3a(cfg: ScenarioConfig):
    """Click probabilities versus pump power, input on / blocked."""
    pumps = np.arange(0.0, 601.0, 20.0)
    rows = []
    for p in pumps:
        rb = detection_probabilities(cfg.mu_in, float(p), cfg.chain)
        rows.append((p, rb.p_signal, rb.p_noise, rb.p_signal - rb.p_noise))
    return ["P_p_mW", "p_signal", "p_noise", "p_net"], rows


def _preset_fig3b(cfg: ScenarioConfig):
    """Conversion-efficiency fit band and dark-subtracted SNR versus pump.

    A synthetic 5% relative-noise measurement of the sin^2 curve is drawn
    from the configured seed, fitted, and reported with a pointwise 95%
    confidence band.
    """
    chain = cfg.chain
    wg = chain.waveguide
    pumps_mw = np.arange(20.0, 601.0, 20.0)
    pumps_w = pumps_mw * 1e-3
    truth = conversion_model(pumps_w, wg.max_external_efficiency, wg.normalized_efficiency, wg.length_cm)
    rng = np.random.default_rng(cfg.seed)
    y = truth * (1.0 + 0.05 * rng.standard_normal(truth.size))
    fit = fit_conversion(Dataset(x=pumps_w, y=y, xlabel="P_p_W", ylabel="eta_ext"), wg.length_cm)
    pred = conversion_model(pumps_w, fit.params[0], fit.params[1], wg.length_cm)
    jac = _conversion_jacobian(pumps_w, fit.params[0], fit.params[1], wg.length_cm)
    band = 1.96 * np.sqrt(np.einsum("ij,jk,ik->i", jac, fit.cov, jac))
    rows = []
    for i, p in enumerate(pumps_mw):
        rb = detection_probabilities(cfg.mu_in, float(p), chain)
        rows.append(
            (p, pred[i], pred[i] - band[i], pred[i] + band[i], snr(rb, subtract_dark=False))
        )
    return ["P_p_mW", "eta_ext", "eta_ext_ci_lo", "eta_ext_ci_hi", "snr_dc"], rows


def _preset_fig4a(cfg: ScenarioConfig):
    """SNR = 1 crossing versus filter bandwidth at the configured pump."""
    bandwidths = np.linspace(0.65, 2.3, 12)
    rows = []
    for bw in bandwidths:
        chain = cfg.chain.with_filter_bandwidth(float(bw))
        rows.append((bw, mu1(chain, cfg.pump_mw)))
    return ["bandwidth_nm", "mu_1"], rows


def _preset_fig5a(cfg: ScenarioConfig):
    """Visibility, fidelity and classical bounds versus input photon number."""
    m1 = mu1(cfg.chain, cfg.pump_mw)
    cas = cfg.chain.cascade()
    mus = np.linspace(1.0, 25.0, 25)
    vis = Dataset(x=mus, y=[visibility_model(float(mu), m1, 1.0) for mu in mus])
    rows = [
        (r.mu_in, r.visibility, r.fidelity, r.bound_unit, r.bound_ext, r.bound_dev)
        for r in quantum_regime_report(vis, cas.eta_ext_max, cas.eta_dev_max)
    ]
    return ["mu_in", "visibility", "fidelity", "bound_unit", "bound_ext", "bound_dev"], rows


def _cmd_sweep(args) -> int:
    if args.preset not in PRESETS:
        print(f"unknown preset {args.preset!r}; choose from {', '.join(PRESETS)}",
              file=sys.stderr)
        return EXIT_USAGE
    cfg = _load(args)
    builder = {
        "fig3a": _preset_fig3a,
        "fig3b": _preset_fig3b,
        "fig4a": _preset_fig4a,
        "fig5a": _preset_fig5a,
    }[args.preset]
    columns, rows = builder(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"{args.preset}.csv", columns, rows)
    _write_bundle(
        out / f"{args.preset}.json",
        cfg,
        {"command": "sweep", "preset": args.preset, "rows": len(rows)},
    )
    print(f"sweep: wrote {args.preset}.csv ({len(rows)} rows)")
    return EXIT_OK


# --------------------------------------------------------------------- fit


def _read_dataset_csv(path: Path) -> Dataset:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty dataset file")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) not in (2, 3):
        raise ConfigError(f"{path}: expected 2 or 3 columns (x,y[,sigma])")
    try:
        data = np.array(
            [[float(c) for c in ln.split(",")] for ln in lines[1:]], dtype=float
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric dataset entry: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ConfigError(f"{path}: ragged rows in dataset")
    sigma = data[:, 2] if len(header) == 3 else None
    return Dataset(x=data[:, 0], y=data[:, 1], sigma=sigma,
                   xlabel=header[0], ylabel=header[1])


def _cmd_fit(args) -> int:
    cfg = _load(args)
    data = _read_dataset_csv(Path(args.data))
    fit = fit_conversion(data, cfg.chain.waveguide.length_cm)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": "fit",
        "data": str(args.data),
        "params": {
            name: float(_fmt(fit.params[i]))
            for i, name in enumerate(fit.param_names)
        },
        "ci95": {
            name: float(_fmt(fit.ci95[i]))
            for i, name in enumerate(fit.param_names)
        },
        "total_normalized_per_w": float(_fmt(fit.extras["total_normalized_per_w"])),
        "total_normalized_ci95": float(_fmt(fit.extras["total_normalized_ci95"])),
        "ill_conditioned": bool(fit.ill_conditioned),
        "rss": float(_fmt(fit.rss)),
        "dof": fit.dof,
    }
    _write_bundle(out / "fit.json", cfg, payload)
    for i, name in enumerate(fit.param_names):
        print(f"{name} = {fit.params[i]:.6g} +- {fit.ci95[i]:.3g}")
    print(f"total normalized conversion = "
          f"{fit.extras['total_normalized_per_w']:.6g} /W "
          f"+- {fit.extras['total_normalized_ci95']:.3g}")
    if fit.ill_conditioned:
        print("warning: fit is ill-conditioned (saturation not resolved)")
    return EXIT_OK


# ------------------------------------------------------------------ report


def _report_rows(cfg: ScenarioConfig) -> list[tuple[str, float, str, bool]]:
    """(name, value, target description, passed) rows for the summary table."""
    chain = cfg.chain
    cas = chain.cascade()
    rows = [
        ("eta_ext_max", cas.eta_ext_max, "0.25 +- 0.005",
         abs(cas.eta_ext_max - 0.25) <= 0.005),
        ("eta_dev_max", cas.eta_dev_max, "0.066 +- 0.002",
         abs(cas.eta_dev_max - 0.066) <= 0.002),
        ("eta_tot_max", cas.eta_tot_max, "2.6e-3 +- 1e-4",
         abs(cas.eta_tot_max - 2.6e-3) <= 1e-4),
        ("optimal_pump_mw", chain.optimal_pump_mw, "[360, 440] mW",
         360.0 <= chain.optimal_pump_mw <= 440.0),
    ]
    b20 = beta_factor(chain.pulse, replace(chain.detector, gate_width_ns=20.0))
    b50 = beta_factor(chain.pulse, replace(chain.detector, gate_width_ns=50.0))
    rows.append(("beta_20ns", b20, "0.57 +- 0.01", abs(b20 - 0.57) <= 0.01))
    rows.append(("beta_50ns", b50, "0.95 +- 0.03", abs(b50 - 0.95) <= 0.03))

    m1 = mu1(chain, cfg.pump_mw)
    rows.append((f"mu_1_at_{cfg.pump_mw:g}mW", m1, "[0.6, 0.8]", 0.6 <= m1 <= 0.8))

    pumps = np.linspace(1.0, 600.0, 600)
    snrs = np.array([
        snr(detection_probabilities(cfg.mu_in, float(p), chain), subtract_dark=False)
        for p in pumps
    ])
    p_best = float(pumps[np.argmax(snrs)])
    ratio = snr(
        detection_probabilities(cfg.mu_in, 400.0, chain), subtract_dark=False
    ) / float(np.max(snrs))
    rows.append(("snr_peak_pump_mw", p_best, "[80, 130] mW", 80.0 <= p_best <= 130.0))
    rows.append(("snr_400mW_over_peak", ratio, "[0.4, 0.6]", 0.4 <= ratio <= 0.6))

    with warnings.catch_warnings():
        # the 50 MHz projection is a deliberate extrapolation
        warnings.simplefilter("ignore", ExtrapolationWarning)
        alpha_scaled, photons = projected_noise_floor(0.05, chain.with_gate_width(50.0))
    rows.append(("alpha_crystal_50MHz", alpha_scaled, "[2.5, 3.5]e-9 /mW/ns",
                 2.5e-9 <= alpha_scaled <= 3.5e-9))
    rows.append(("noise_photons_50MHz_50ns", photons, "6e-5 +- 1e-5",
                 abs(photons - 6e-5) <= 1e-5))

    fb = classical_fidelity_bound(1e-6, 1.0)
    rows.append(("classical_bound_mu_to_0", fb, "2/3 +- 1e-6",
                 abs(fb - 2.0 / 3.0) <= 1e-6))

    qubit = TimeBinQubit(phase=0.0, separation_ns=50.0)
    gammas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    frac = np.zeros(3)
    for g in gammas:
        sc = slot_statistics(qubit, Interferometer(delay_ns=50.0, phase=float(g)), 1.0)
        frac += np.array([sc.early, sc.central, sc.late])
    frac /= frac.sum()
    ok = np.allclose(frac, [0.25, 0.5, 0.25], atol=1e-12)
    rows.append(("slot_fraction_central", float(frac[1]), "1/2 (gamma-averaged)", bool(ok)))
    return rows


def _cmd_report(args) -> int:
    cfg = _load(args)
    rows = _report_rows(cfg)
    width = max(len(r[0]) for r in rows)
    lines = ["quantity".ljust(width) + "  value         target              status"]
    for name, value, target, ok in rows:
        lines.append(
            f"{name.ljust(width)}  {value:<12.6g}  {target:<18}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
    text = "\n".join(lines)
    print(text)
    print("\n(statistical checks: fit recovery, Monte Carlo consistency,")
    print(" histogram shape and determinism run in the pytest suite)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(text + "\n", encoding="utf-8")
    _write_bundle(
        out / "report.json",
        cfg,
        {
            "command": "report",
            "rows": [
                {
                    "name": name,
                    "value": float(_fmt(value)),
                    "target": target,
                    "status": "PASS" if ok else "FAIL",
                }
                for name, value, target, ok in rows
            ],
        },
    )
    return EXIT_OK


# -------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qfcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="scenario config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--gate", type=int, choices=(20, 50, 100), default=None)
        p.add_argument("--pump-mw", type=float, default=None)
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--bandwidth-nm", type=float, default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo click-probability estimate")
    common(p_sim)
    p_sweep = sub.add_parser("sweep", help="named figure-reproduction dataset")
    common(p_sweep)
    p_sweep.add_argument("--preset", required=True, choices=PRESETS)
    p_fit = sub.add_parser("fit", help="fit the conversion curve to a CSV dataset")
    common(p_fit)
    p_fit.add_argument("data", help="CSV with columns P_p_W,eta_ext[,sigma]")
    p_rep = sub.add_parser("report", help="model-number reproduction table")
    common(p_rep)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "fit": _cmd_fit,
        "report": _cmd_report,
    }[args.command]
    try:
        return handler(args)
    except (FitConvergenceError, DegenerateDenominatorError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, FileNotFoundError) as exc:
        # covers ConfigError; kept after the numerical clause because
        # LinAlgError subclasses ValueError
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
