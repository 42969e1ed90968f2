"""Acceptance suite: one test per acceptance criterion, with pinned
tolerances and an explicit [PASS]/[FAIL] line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.
Criterion 4 is split: 4a checks the absolute SNR = 1 crossing at the
documented 120 mW operating point, 4b the exact linearity of that
crossing in the filter bandwidth.
"""

import json
import math

import numpy as np
import pytest
from scipy.stats import chi2 as _chi2

from oracles import classical_bound_bruteforce, interferometer_slots
from qfcsim import reference_chain
from qfcsim.cli import run
from qfcsim.fitting import Dataset, conversion_model, fit_conversion
from qfcsim.montecarlo import ExperimentScenario, simulate, start_stop_histogram
from qfcsim.noise import detection_probabilities, mu1, projected_noise_floor, snr
from qfcsim.optics import optimal_pump_power
from qfcsim.timebin import (
    Interferometer,
    TimeBinQubit,
    classical_fidelity_bound,
    quantum_regime_report,
    slot_statistics,
    visibility_model,
)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_01_cascade_reproduction():
    cas = reference_chain().cascade()
    ok = (
        abs(cas.eta_ext_max - 0.25) <= 0.005
        and abs(cas.eta_dev_max - 0.066) <= 0.002
        and abs(cas.eta_tot_max - 2.6e-3) <= 1e-4
    )
    assert _report(
        "1",
        ok,
        f"eta_ext={cas.eta_ext_max:.4f} (0.25+-0.005), "
        f"eta_dev={cas.eta_dev_max:.4f} (0.066+-0.002), "
        f"eta_tot={cas.eta_tot_max:.4e} (2.6e-3+-1e-4)",
    )


def test_criterion_02_optimal_pump():
    p_mw = optimal_pump_power(reference_chain().waveguide) * 1e3
    ok = 360.0 <= p_mw <= 440.0
    assert _report("2", ok, f"optimal pump {p_mw:.1f} mW in [360, 440]")


def test_criterion_03_fit_recovery():
    target = 0.72 * 9.0  # eta_n * L^2
    pumps = np.linspace(0.02, 0.6, 15)
    truth = np.asarray(conversion_model(pumps, 0.25, 0.72, 3.0))
    estimates = []
    covered = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        y = truth * (1.0 + 0.05 * rng.standard_normal(truth.size))
        res = fit_conversion(Dataset(x=pumps, y=y), length_cm=3.0)
        est = res.extras["total_normalized_per_w"]
        half = res.extras["total_normalized_ci95"]
        estimates.append(est)
        if abs(est - target) <= half:
            covered += 1
    bias = abs(np.mean(estimates) - target) / target
    coverage = covered / 200.0
    ok = bias < 0.03 and 0.88 <= coverage <= 0.99
    assert _report(
        "3",
        ok,
        f"mean bias {bias * 100:.2f}% (< 3%), CI coverage "
        f"{coverage * 100:.1f}% (in [88, 99]%), 200 seeds",
    )


def test_criterion_04a_mu1_reference_point():
    """Absolute SNR = 1 crossing at the 120 mW operating point.

    The closed-form crossing with the documented constants (alpha =
    6e-6/mW, DC = 2e-4, eta_tot = 2.6e-3, conversion fraction 0.596 at
    120 mW) gives about 0.47, below the measured band [0.6, 0.8].  The
    measured band corresponds to a lower conversion efficiency than the
    documented curve predicts at 120 mW; the model is implemented
    faithfully, so this criterion fails honestly rather than being tuned.
    """
    m1 = mu1(reference_chain(), 120.0)
    ok = 0.6 <= m1 <= 0.8
    assert _report("4a", ok, f"mu_1(120 mW) = {m1:.4f}, band [0.6, 0.8]")


def test_criterion_04b_mu1_linear_in_bandwidth():
    chain = reference_chain()
    bandwidths = np.linspace(0.65, 2.3, 12)
    values = np.array([mu1(chain.with_filter_bandwidth(float(b)), 120.0) for b in bandwidths])
    slope = float(np.sum(bandwidths * values) / np.sum(bandwidths**2))
    resid = np.max(np.abs(values - slope * bandwidths) / values)
    ok = resid < 1e-12
    assert _report(
        "4b", ok, f"mu_1 vs bandwidth linear through origin, max rel residual {resid:.2e}"
    )


def test_criterion_05_snr_tradeoff():
    chain = reference_chain()
    pumps = np.arange(1.0, 600.0, 0.25)
    snrs = np.array(
        [snr(detection_probabilities(6.1, float(p), chain), subtract_dark=False) for p in pumps]
    )
    p_peak = float(pumps[np.argmax(snrs)])
    at_400 = snr(detection_probabilities(6.1, 400.0, chain), subtract_dark=False)
    ratio = at_400 / float(np.max(snrs))
    ok = 80.0 <= p_peak <= 130.0 and 0.4 <= ratio <= 0.6
    assert _report(
        "5",
        ok,
        f"SNR peak at {p_peak:.1f} mW (in [80, 130]), "
        f"SNR(400 mW)/peak = {ratio:.3f} (in [0.4, 0.6])",
    )


def test_criterion_06_beta_factors():
    chain = reference_chain()
    b20 = chain.with_gate_width(20.0).beta
    b50 = chain.with_gate_width(50.0).beta
    ok = abs(b20 - 0.57) <= 0.01 and abs(b50 - 0.95) <= 0.03
    assert _report(
        "6", ok, f"beta(30, 20) = {b20:.4f} (0.57+-0.01), beta(30, 50) = {b50:.4f} (0.95+-0.03)"
    )


def test_criterion_07_montecarlo_vs_analytic():
    chain = reference_chain()
    worst = 0.0
    for i, pump in enumerate((50.0, 120.0, 200.0, 380.0, 550.0)):
        sc = ExperimentScenario(chain=chain, mu_in=6.1, pump_mw=pump, n_shots=1000000, seed=100 + i)
        res = simulate(sc)
        rb = detection_probabilities(6.1, pump, chain)
        z_s = abs(res.p_signal - rb.p_signal) / res.p_signal_err
        z_n = abs(res.p_noise - rb.p_noise) / res.p_noise_err
        worst = max(worst, z_s, z_n)
    ok = worst < 3.0
    assert _report(
        "7", ok, f"5-point pump sweep at 1e6 shots, worst |z| = {worst:.2f} (< 3 sigma)"
    )


def test_criterion_08_histogram_shape():
    sc = ExperimentScenario(
        chain=reference_chain(), mu_in=5.0, pump_mw=120.0, n_shots=4000000, seed=8
    )
    triple = start_stop_histogram(sc, bin_width_ns=0.64, window_ns=100.0)
    centers = triple.signal_on.bin_centers
    counts = triple.signal_on.counts.astype(float)

    # pedestal level from the signal-free outer bins of the same pass
    # (the pump-only pass has a different dead-time fraction, so its
    # pedestal does not subtract cleanly bin by bin)
    pedestal = counts[np.abs(centers - 50.0) > 45.0].mean()
    sig = counts - pedestal
    central = np.abs(centers - 50.0) <= 40.0
    mean = float(np.sum(centers[central] * sig[central]) / np.sum(sig[central]))
    var = float(
        np.sum((centers[central] - mean) ** 2 * sig[central]) / np.sum(sig[central])
    )
    fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0)) * math.sqrt(var)

    ped = triple.pump_only.counts
    expected = ped.mean()
    stat = float(np.sum((ped - expected) ** 2 / expected))
    p_flat = float(_chi2.sf(stat, ped.size - 1))

    n_bins = triple.signal_on.counts.size
    ok = abs(fwhm - 30.0) <= 2.0 and p_flat > 0.01 and n_bins == int(100.0 / 0.64)
    assert _report(
        "8",
        ok,
        f"signal FWHM {fwhm:.1f} ns (30+-2), pedestal flatness p = {p_flat:.3f} "
        f"(> 0.01), {n_bins} bins of 0.64 ns",
    )


def test_criterion_09_visibility_quantum_regime():
    vis_ok = all(visibility_model(float(m), 0.7, 1.0) > 0.9 for m in np.arange(7.0, 25.5, 0.5))
    mus = np.linspace(2.0, 25.0, 24)
    vis = np.array([visibility_model(float(m), 0.7, 1.0) for m in mus])
    rows = quantum_regime_report(mus, vis, eta_ext=0.11, eta_dev=0.066)
    regime_ok = all(r.exceeds_ext for r in rows)
    ok = vis_ok and regime_ok
    assert _report(
        "9",
        ok,
        f"V > 0.9 for mu >= 7: {vis_ok}; fidelity exceeds the eta_ext = 0.11 "
        f"classical bound for all mu in [2, 25]: {regime_ok}",
    )


def test_criterion_10_classical_bound_anchors():
    low = classical_fidelity_bound(1e-6, 1.0)
    anchor_ok = abs(low - 2.0 / 3.0) <= 1e-6
    grid = np.linspace(0.1, 50.0, 100)
    vals = [classical_fidelity_bound(float(m), 1.0) for m in grid]
    monotone_ok = all(b > a for a, b in zip(vals, vals[1:]))
    worst = max(
        abs(classical_fidelity_bound(float(m), eta) - classical_bound_bruteforce(float(m), eta))
        for m in (0.1, 1.0, 6.1, 25.0)
        for eta in (1.0, 0.25, 0.066)
    )
    oracle_ok = worst < 1e-10
    ok = anchor_ok and monotone_ok and oracle_ok
    assert _report(
        "10",
        ok,
        f"F(1e-6) - 2/3 = {low - 2.0 / 3.0:.2e} (|.| <= 1e-6), monotone on "
        f"[0.1, 50]: {monotone_ok}, max |diff| vs n<=200 oracle {worst:.2e} (< 1e-10)",
    )


def test_criterion_11_noise_floor_extrapolation():
    chain = reference_chain().with_gate_width(50.0)
    with pytest.warns(UserWarning):
        alpha, photons = projected_noise_floor(0.05, chain)
    ok = 2.5e-9 <= alpha <= 3.5e-9 and abs(photons - 6e-5) <= 1e-5
    assert _report(
        "11",
        ok,
        f"alpha'(50 MHz) = {alpha:.3e} /mW/ns (in [2.5, 3.5]e-9), "
        f"{photons:.2e} photons per 50 ns gate at peak conversion (6e-5+-1e-5)",
    )


def test_criterion_12_interferometer_oracle():
    phis = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    gammas = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
    worst = 0.0
    for phi in phis:
        qubit = TimeBinQubit(phase=float(phi), separation_ns=50.0)
        for gamma in gammas:
            sc = slot_statistics(qubit, Interferometer(delay_ns=50.0, phase=float(gamma)), 1.7)
            e, c, l = interferometer_slots(float(phi), float(gamma), 1.7)
            worst = max(worst, abs(sc.early - e), abs(sc.central - c), abs(sc.late - l))
    frac = np.zeros(3)
    qubit = TimeBinQubit(phase=0.9, separation_ns=50.0)
    for gamma in gammas:
        sc = slot_statistics(qubit, Interferometer(delay_ns=50.0, phase=float(gamma)), 1.0)
        frac += [sc.early, sc.central, sc.late]
    frac /= frac.sum()
    fractions_ok = np.allclose(frac, [0.25, 0.5, 0.25], atol=1e-12)
    ok = worst < 1e-10 and fractions_ok
    assert _report(
        "12",
        ok,
        f"20x20 phase grid, max |diff| vs amplitude oracle {worst:.2e} (< 1e-10); "
        f"gamma-averaged fractions (1/4, 1/2, 1/4): {fractions_ok}",
    )


def test_criterion_13_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert run(["simulate", "--out", str(d1), "--shots", "200000", "--seed", "13"]) == 0
    assert run(["simulate", "--out", str(d2), "--shots", "200000", "--seed", "13"]) == 0
    same = (d1 / "simulate.csv").read_bytes() == (d2 / "simulate.csv").read_bytes()
    assert _report("13", same, "identical config + seed give byte-identical simulate CSV")


def test_report_agrees_with_acceptance_bounds(tmp_path, capsys):
    """``qfcsim report`` marks a row PASS exactly when its value lies within
    the literal bounds of the criterion above that checks the quantity."""
    bounds = {
        "eta_ext_max": lambda v: abs(v - 0.25) <= 0.005,  # 1
        "eta_dev_max": lambda v: abs(v - 0.066) <= 0.002,  # 1
        "eta_tot_max": lambda v: abs(v - 2.6e-3) <= 1e-4,  # 1
        "optimal_pump_mw": lambda v: 360.0 <= v <= 440.0,  # 2
        "beta_20ns": lambda v: abs(v - 0.57) <= 0.01,  # 6
        "beta_50ns": lambda v: abs(v - 0.95) <= 0.03,  # 6
        "mu_1_at_120mW": lambda v: 0.6 <= v <= 0.8,  # 4a
        "snr_peak_pump_mw": lambda v: 80.0 <= v <= 130.0,  # 5
        "snr_400mW_over_peak": lambda v: 0.4 <= v <= 0.6,  # 5
        "alpha_crystal_50MHz": lambda v: 2.5e-9 <= v <= 3.5e-9,  # 11
        "noise_photons_50MHz_50ns": lambda v: abs(v - 6e-5) <= 1e-5,  # 11
        "classical_bound_mu_to_0": lambda v: abs(v - 2.0 / 3.0) <= 1e-6,  # 10
        "slot_fraction_central": lambda v: abs(v - 0.5) <= 1e-12,  # 12
    }
    assert run(["report", "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [r["name"] for r in rows] == list(bounds)
    for r in rows:
        assert r["status"] == ("PASS" if bounds[r["name"]](r["value"]) else "FAIL"), r["name"]
    failing = [r["name"] for r in rows if r["status"] == "FAIL"]
    assert _report("report", failing == ["mu_1_at_120mW"], f"failing rows {failing} (4a only)")
