"""``sweep --preset fig3b``'s synthetic measurement: the standard normal
draws behind its 5% noise, and the fit of its recipe over many seeds."""

import random
import statistics

from scipy import stats

from qfcsim import REFERENCE_CONFIG, parse_config
from qfcsim.cli import _normals, run
from qfcsim.fitting import Dataset, _conversion_values, conversion_model

WAVEGUIDE = parse_config(REFERENCE_CONFIG).chain.waveguide

# the first draws for seed 3, the seed of fig3b's golden
SEED_3 = ["-0x1.6afc440e79022p-1", "-0x1.9e36ab334561dp-3",
          "-0x1.86e7b7fb5298cp-1", "-0x1.2afda54f351d3p-1"]


def test_normals_are_standard_normal():
    draws = _normals(0, 100_000)
    assert len(draws) == 100_000
    # the cosine and the sine halves of the Box-Muller pairs, and both
    for sample in (draws, draws[0::2], draws[1::2]):
        assert stats.kstest(sample, "norm").pvalue > 0.01


def test_normals_pinned_bits():
    # a change to the uniform stream or to the transform moves these bits
    assert [v.hex() for v in _normals(3, 4)] == SEED_3
    assert _normals(3, 3) == _normals(3, 4)[:3]  # an odd count drops the last sine


def test_fit_recovery():
    # criterion 3's bounds (mean bias below 3%, 95% CI coverage in
    # [88, 99]%) on fig3b's recipe: 30 pumps, 20 to 600 mW, 5% noise
    pumps_w = [20.0 * i * 1e-3 for i in range(1, 31)]
    wg = WAVEGUIDE
    truth = conversion_model(pumps_w, wg.max_external_efficiency, wg.normalized_efficiency,
                             wg.length_cm)
    targets = (wg.max_external_efficiency, wg.normalized_efficiency * wg.length_cm**2)
    estimates, covered = ([], []), [0, 0]
    for seed in range(200):
        y = [t * (1.0 + 0.05 * n) for t, n in zip(truth, _normals(seed, len(truth)))]
        fit = _conversion_values(Dataset(pumps_w, y, xlabel="P_p_W", ylabel="eta_ext"),
                                 wg.length_cm)
        extras = fit["extras"]
        for i, (est, half) in enumerate(((fit["params"][0], fit["ci95"][0]),
                                         (extras["total_normalized_per_w"],
                                          extras["total_normalized_ci95"]))):
            estimates[i].append(est)
            covered[i] += abs(est - targets[i]) <= half
    for target, values, hits in zip(targets, estimates, covered):
        assert abs(statistics.fmean(values) - target) / target < 0.03
        assert 0.88 <= hits / 200 <= 0.99


def test_exits_0_on_1000_seeds(tmp_path, capsys):
    # the benchmark draws a fresh 60-bit seed for each pass
    rng = random.Random(0)
    seeds = [rng.getrandbits(60) for _ in range(1000)]
    failed = [seed for seed in seeds
              if run(["sweep", "--preset", "fig3b", "--seed", str(seed), "--out", str(tmp_path)])]
    assert failed == []
