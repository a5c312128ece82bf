import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from lsrsim import (
    ChannelConfig,
    ConfigError,
    Draw,
    build_channel_config,
    draw,
    draw_many,
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
from lsrsim import outage


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
            with pytest.raises(ValueError, match="b: must be finite"):
                d.gmi(b)
            with pytest.raises(ValueError, match="b: must be finite"):
                d.outage(b, 0.5)
        for rate in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="rate_nats"):
                d.outage(1.0, rate)


def complex_pilot_config(n_r=5):
    return ChannelConfig(
        n_r=n_r, power=4.0, noise_var=1.5, pilot_noise_var=0.8,
        fading_var=1.2, pilot=1.3 - 0.4j,
    )


def whole_array_gmi(d: Draw, b: complex) -> np.ndarray:
    """The GMI formula of ``Draw.gmi`` on whole arrays, without blocks or a
    workspace, written out as a fixed reference."""
    cfg = d.config
    power, noise_var = cfg.power, cfg.noise_var
    a = lmmse_coefficient(cfg)
    b_abs2 = b.real * b.real + b.imag * b.imag
    v, y = d.v_energy, d.residual
    r = (b * a.conjugate()).real * v + (b * y).real
    e = (b - a).conjugate() * v - y
    dd = b_abs2 * (e.real * e.real + e.imag * e.imag)
    c = b_abs2 * v
    p = power / noise_var
    qa = p * c * (c + p * dd)
    qb = p * c * c - 2.0 * c - 2.0 * p * dd
    qc = -2.0 * r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sqrt_d = np.sqrt(qb * qb - 4.0 * qa * qc)
        root = np.where(qb < 0.0, 2.0 * qc / (sqrt_d - qb), (-qb - sqrt_d) / (2.0 * qa))
        theta = root / noise_var
        w = -theta * power * c
        val = np.log1p(w) + theta * power * (
            c - 2.0 * r - noise_var * theta * c - power * theta * dd
        ) / (1.0 + w)
    attained = np.isfinite(theta) & (theta < 0.0) & np.isfinite(val) & (val > 0.0)
    return np.where(attained, val, 0.0)


class TestBlocks:
    """The sampler and the solve run in fixed blocks; no block size changes a bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block_trials", [1, 3, None])
    def test_draw_matches_scalar_path_across_block_edges(self, monkeypatch, workers, block_trials):
        # 11 trials: no multiple of a 3-trial block, and split unevenly over
        # 2 and 3 workers; None keeps the default block (all 11 in one).
        # Each case has its own seed, so that a trial the sampler skipped
        # cannot pass by reading memory freed by the previous case.
        cfg = complex_pilot_config()
        if block_trials is not None:
            monkeypatch.setattr(outage, "_CHUNK_FLOATS", 4 * cfg.n_r * block_trials)
        a = lmmse_coefficient(cfg)
        trials, seed = 11, 100 * workers + (block_trials or 0)
        d = draw(cfg, trials, seed, workers=workers)
        for i in range(trials):
            real = sample_realization(cfg, substream(seed, i))
            assert d.v_energy[i] == np.sum(np.abs(real.v) ** 2)
            assert d.residual[i] == np.sum(np.conj(real.s - a * real.v) * real.v)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_one_antenna_one_trial_blocks_match_scalar_path(self, monkeypatch, workers):
        # a one-trial block at n_r = 1 reduces one-element arrays, which
        # numpy multiplies in place with a different rounding
        cfg = complex_pilot_config(n_r=1)
        monkeypatch.setattr(outage, "_CHUNK_FLOATS", 4)
        a = lmmse_coefficient(cfg)
        trials, seed = 40, 22
        d = draw(cfg, trials, seed, workers=workers)
        for i in range(trials):
            real = sample_realization(cfg, substream(seed, i))
            assert d.v_energy[i] == np.sum(np.abs(real.v) ** 2)
            assert d.residual[i] == np.sum(np.conj(real.s - a * real.v) * real.v)

    def test_large_antenna_count_one_trial_per_block(self):
        # at n_r = 8192 a block is one trial
        cfg = build_channel_config(3.0, 8192)
        a = lmmse_coefficient(cfg)
        d = draw(cfg, 3, 5)
        for i in range(3):
            real = sample_realization(cfg, substream(5, i))
            assert d.v_energy[i] == np.sum(np.abs(real.v) ** 2)
            assert d.residual[i] == np.sum(np.conj(real.s - a * real.v) * real.v)

    @pytest.mark.parametrize("block", [7, None])
    def test_gmi_matches_whole_array_formula(self, monkeypatch, block):
        # trials = 2 blocks + 1, so the last block holds one trial
        if block is None:
            block = outage._GMI_BLOCK
        else:
            monkeypatch.setattr(outage, "_GMI_BLOCK", block)
        cfg = complex_pilot_config(n_r=1)
        d = draw(cfg, 2 * block + 1, 3)
        a = lmmse_coefficient(cfg)
        for b in (a, 0.7 * a, -a, 1.3 * a * 1j, 0.0, 1e6 * a):
            got = d.gmi(b)
            assert got.tobytes() == whole_array_gmi(d, complex(b)).tobytes()

    def test_draw_memory_does_not_grow_with_trials(self):
        # n_r = 1024, 2000 trials: the result takes 48 kB and the sampling
        # buffers about 0.7 MB; a reduction over all trials at once would
        # take over 100 MB
        cfg = build_channel_config(0.0, 1024)
        tracemalloc.start()
        try:
            draw(cfg, 2000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_repeated_gmi_allocates_little_beyond_its_result(self):
        # after the first call has made the workspace, a call allocates its
        # result and numpy's bounded cast buffer: at most 4 arrays of length
        # trials, where a solve on whole arrays takes 16
        trials = 100_000
        rng = np.random.default_rng(0)
        cfg = build_channel_config(5.0, 8)
        d = Draw(cfg, rng.gamma(8.0, size=trials), rng.normal(size=trials) + 1j * rng.normal(size=trials))
        b = 0.9 * lmmse_coefficient(cfg)
        first = d.gmi(b)
        tracemalloc.start()
        try:
            second = d.gmi(b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * trials
        np.testing.assert_array_equal(first, second)


class TestDrawMany:
    """Configs that share n_r are sampled once and reduced once each."""

    @staticmethod
    def configs(n_r):
        base = complex_pilot_config(n_r)
        return [
            base,
            replace(base, fading_var=0.6),
            replace(base, pilot_noise_var=0.0),
            build_channel_config(9.0, n_r),
            base,
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_r", [1, 5])
    @pytest.mark.parametrize("block_trials", [3, None])
    def test_same_bytes_as_separate_draws(self, monkeypatch, workers, n_r, block_trials):
        # 11 trials: no multiple of a 3-trial block, and split unevenly over
        # 2 and 3 workers
        if block_trials is not None:
            monkeypatch.setattr(outage, "_CHUNK_FLOATS", 4 * n_r * block_trials)
        configs = self.configs(n_r)
        trials, seed = 11, 7 * workers + n_r
        joint = draw_many(configs, trials, seed, workers=workers)
        assert [d.config for d in joint] == configs
        for d, cfg in zip(joint, configs):
            alone = draw(cfg, trials, seed)
            assert d.v_energy.tobytes() == alone.v_energy.tobytes()
            assert d.residual.tobytes() == alone.residual.tobytes()

    def test_each_trial_sampled_once(self, monkeypatch):
        indices = []

        class CountingSampler(outage.BlockSampler):
            def normals(self, index, out):
                indices.append(index)
                super().normals(index, out)

        monkeypatch.setattr(outage, "BlockSampler", CountingSampler)
        draw_many(self.configs(3), 40, 1, workers=2)
        assert sorted(indices) == list(range(40))

    def test_refuses_empty_and_mixed_antenna_counts(self):
        for configs in ([], [complex_pilot_config(4), complex_pilot_config(5)]):
            with pytest.raises(ConfigError) as exc:
                draw_many(configs, 10, 1)
            assert exc.value.path == "configs"


class TestArgumentTypes:
    @pytest.mark.parametrize("seed", [1.7, -0.5, True, 1.0, "3"])
    def test_draw_refuses_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            draw(perfect_csi_config(), 10, seed)

    @pytest.mark.parametrize("trials", [10.5, 10.0, True])
    def test_draw_refuses_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            draw(perfect_csi_config(), trials, 1)

    @pytest.mark.parametrize("workers", [True, 2.0, 1.5])
    def test_draw_refuses_non_integer_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            draw(perfect_csi_config(), 10, 1, workers=workers)

    def test_numpy_integers_accepted(self):
        cfg = perfect_csi_config()
        d = draw(cfg, np.int64(10), np.uint64(3), workers=np.int32(2))
        ref = draw(cfg, 10, 3)
        np.testing.assert_array_equal(d.v_energy, ref.v_energy)
        np.testing.assert_array_equal(d.residual, ref.residual)


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
