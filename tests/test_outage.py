import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from lsrsim import (
    ChannelConfig,
    draw,
    estimate_outage,
    gmi_histogram,
    gmi_samples_multi_b,
    lmmse_coefficient,
    sample_realization,
    statistics,
    substream,
    theta_star,
    wilson_interval,
)


def perfect_csi_config(power=10.0, n_r=1):
    return ChannelConfig(
        n_r=n_r, power=power, noise_var=1.0, pilot_noise_var=0.0,
        fading_var=1.0, pilot=1.0,
    )


def analytic_perfect_csi_outage(rate_nats, power, noise_var=1.0, fading_var=1.0):
    """Closed-form p(log(1 + P|S|^2/noise_var) < R) for n_r = 1 Rayleigh.

    |S|^2 is exponential with mean fading_var, so the outage is the CDF
    1 - exp(-noise_var (e^R - 1) / (P fading_var)); derived independently of
    the simulator and used as its oracle.
    """
    return 1.0 - math.exp(-noise_var * (math.exp(rate_nats) - 1.0) / (power * fading_var))


def analytic_perfect_csi_cdf(x, power):
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.0, 1.0 - np.exp(-(np.exp(x) - 1.0) / power))


class TestWilsonInterval:
    def test_matches_normal_quantile(self):
        z = scipy_stats.norm.ppf(0.975)
        n, k = 500, 37
        low, high = wilson_interval(k, n)
        p = k / n
        denom = 1 + z**2 / n
        center = (p + z**2 / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
        assert low == pytest.approx(center - half, abs=1e-12)
        assert high == pytest.approx(center + half, abs=1e-12)

    @pytest.mark.parametrize("k,n", [(0, 10), (10, 10), (3, 7), (1, 100000)])
    def test_brackets_point_estimate(self, k, n):
        low, high = wilson_interval(k, n)
        assert 0.0 <= low <= k / n <= high <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

    def test_coverage_on_analytic_oracle(self):
        # nominal 95% interval should cover the analytic value in >= 93/100
        # independent-seed repetitions of the perfect-CSI experiment
        cfg = perfect_csi_config()
        rate = math.log(2.0)
        truth = analytic_perfect_csi_outage(rate, cfg.power)
        a = abs(lmmse_coefficient(cfg))
        covered = 0
        for seed in range(100):
            est = draw(cfg, 4000, seed).outage(a, rate)
            covered += est.ci95_low <= truth <= est.ci95_high
        assert covered >= 93


class TestEstimateOutage:
    def test_zero_rate_never_fires(self):
        cfg = perfect_csi_config()
        est = draw(cfg, 2000, 3).outage(1.0, 0.0)
        assert est.failures == 0
        assert est.p_hat == 0.0

    def test_matches_analytic_oracle_within_interval(self):
        cfg = perfect_csi_config()
        rate = math.log(2.0)
        truth = analytic_perfect_csi_outage(rate, cfg.power)
        est = draw(cfg, 50_000, 99).outage(abs(lmmse_coefficient(cfg)), rate)
        assert est.ci95_low <= truth <= est.ci95_high

    def test_per_trial_contract_matches_scalar_path(self):
        # the draw's V and Y reproduce the sums over sample_realization bit
        # for bit, trial by trial; its GMI agrees with statistics ->
        # theta_star up to rounding, since the two paths form the GMI's
        # inputs from different sums
        cfg = ChannelConfig(
            n_r=5, power=4.0, noise_var=1.5, pilot_noise_var=0.8,
            fading_var=1.2, pilot=1.3 - 0.4j,
        )
        b = 0.35 + 0.05j
        trials, seed = 800, 42
        d = draw(cfg, trials, seed)
        a = lmmse_coefficient(cfg)
        batch = d.gmi(b)
        for i in range(trials):
            real = sample_realization(cfg, substream(seed, i))
            assert d.v_energy[i] == np.sum(np.abs(real.v) ** 2)
            assert d.residual[i] == np.sum(np.conj(real.s - a * real.v) * real.v)
            res = theta_star(statistics(real, b), cfg.power, cfg.noise_var)
            assert batch[i] == pytest.approx(res.gmi_nats, rel=1e-12, abs=0.0)

    def test_single_point_helper_reads_one_draw(self):
        cfg = perfect_csi_config(power=4.0)
        assert estimate_outage(cfg, 0.9, 0.7, 3000, 5) == draw(cfg, 3000, 5).outage(0.9, 0.7)

    def test_common_random_numbers_across_b(self):
        cfg = ChannelConfig(
            n_r=4, power=5.0, noise_var=1.0, pilot_noise_var=1.0,
            fading_var=1.0, pilot=2.0,
        )
        joint = gmi_samples_multi_b(cfg, [0.2, 0.3], 1500, 7)
        np.testing.assert_array_equal(joint[0], draw(cfg, 1500, 7).gmi(0.2))
        np.testing.assert_array_equal(joint[1], draw(cfg, 1500, 7).gmi(0.3))

    def test_monotone_in_rate(self):
        cfg = perfect_csi_config(power=4.0)
        rates = [0.1, 0.3, 0.694, 1.2, 2.0]
        d = draw(cfg, 4000, 17)
        estimates = [d.outage(1.0, r) for r in rates]
        p = [e.p_hat for e in estimates]
        assert p == sorted(p)

    def test_worker_count_invariance(self):
        cfg = ChannelConfig(
            n_r=3, power=6.0, noise_var=1.0, pilot_noise_var=1.0,
            fading_var=1.0, pilot=2.449,
        )
        d = draw(cfg, 10_000, 21, workers=1)
        base = d.outage(0.3, math.log(2))
        for workers in (2, 3, 8):
            other = draw(cfg, 10_000, 21, workers=workers)
            np.testing.assert_array_equal(other.gmi(0.3), d.gmi(0.3))
            assert other.outage(0.3, math.log(2)) == base

    def test_rejects_bad_arguments(self):
        cfg = perfect_csi_config()
        with pytest.raises(ValueError):
            draw(cfg, 0, 1)
        with pytest.raises(ValueError):
            gmi_samples_multi_b(cfg, [], 10, 1)
        with pytest.raises(ValueError):
            draw(cfg, 10, 1, workers=0)
        d = draw(cfg, 10, 1)
        for b in (math.nan, math.inf, complex(0.5, math.nan)):
            with pytest.raises(ValueError, match="b must be finite"):
                d.gmi(b)
            with pytest.raises(ValueError, match="b must be finite"):
                d.outage(b, 0.5)
        for rate in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="rate_nats"):
                d.outage(1.0, rate)


class TestGmiHistogram:
    def test_zero_coefficient_all_mass_in_first_bin(self):
        cfg = perfect_csi_config()
        hist = gmi_histogram(draw(cfg, 500, 9).gmi(0.0), bins=10)
        assert hist.counts[0] == 500
        assert hist.counts[1:].sum() == 0
        assert hist.mean == 0.0
        assert hist.variance == 0.0

    def test_counts_sum_and_edges(self):
        cfg = perfect_csi_config(power=5.0)
        hist = gmi_histogram(draw(cfg, 4000, 10).gmi(1.0), bins=24)
        assert int(hist.counts.sum()) == 4000
        assert np.all(np.diff(hist.edges) > 0)
        assert len(hist.edges) == len(hist.counts) + 1
        assert hist.edges[0] == 0.0

    def test_moments_match_samples(self):
        cfg = perfect_csi_config(power=5.0)
        g = draw(cfg, 4000, 10).gmi(1.0)
        hist = gmi_histogram(g, bins=24)
        assert hist.mean == pytest.approx(float(np.mean(g)), rel=1e-12)
        assert hist.variance == pytest.approx(float(np.var(g)), rel=1e-12)

    def test_empirical_cdf_matches_analytic(self):
        # Kolmogorov-Smirnov distance below 0.01 at 1e5 trials
        cfg = perfect_csi_config()
        g = draw(cfg, 100_000, 123).gmi(1.0)
        ks = scipy_stats.kstest(g, lambda x: analytic_perfect_csi_cdf(x, cfg.power))
        assert ks.statistic < 0.01

    def test_rejects_too_few_bins(self):
        with pytest.raises(ValueError):
            gmi_histogram(draw(perfect_csi_config(), 100, 1).gmi(1.0), bins=1)
