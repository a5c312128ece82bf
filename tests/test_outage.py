import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from lsrsim import (
    ChannelConfig,
    ChannelRealization,
    ConfigError,
    Draw,
    build_channel_config,
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
from lsrsim import outage
from lsrsim.channel import gram_variances
from lsrsim.streams import CHUNK_TRIALS


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
        # each trial's GMI agrees with statistics -> theta_star on a
        # one-antenna realization with the trial's Gram numbers,
        # v = sqrt(V) and s = a v + conj(Y) / sqrt(V), up to rounding, since
        # the two paths form the GMI's inputs from different sums; 2C + 3
        # trials cross two chunk edges
        cfg = complex_pilot_config()
        b = 0.35 + 0.05j
        trials, seed = 2 * CHUNK_TRIALS + 3, 42
        d = draw(cfg, trials, seed)
        a = lmmse_coefficient(cfg)
        batch = d.gmi(b)
        for i in range(0, trials, 7):
            root = math.sqrt(d.v_energy[i])
            real = ChannelRealization(s=[a * root + d.residual[i].conjugate() / root], v=[root])
            assert np.sum(np.abs(real.v) ** 2) == pytest.approx(d.v_energy[i], rel=1e-15)
            assert np.sum(np.conj(real.s - a * real.v) * real.v) == pytest.approx(d.residual[i], rel=1e-12)
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
        # workers is checked and ignored
        np.testing.assert_array_equal(gmi_samples_multi_b(cfg, [0.2, 0.3], 1500, 7, workers=2), joint)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_multi_b_ignores_worker_count(self, workers):
        # the harness's workers input changes no bit of any row
        cfg = ChannelConfig(
            n_r=3, power=6.0, noise_var=1.0, pilot_noise_var=1.0,
            fading_var=1.0, pilot=2.449,
        )
        d = draw(cfg, 10_000, 21)
        joint = gmi_samples_multi_b(cfg, [0.3, 0.6], 10_000, 21, workers=workers)
        np.testing.assert_array_equal(joint[0], d.gmi(0.3))
        np.testing.assert_array_equal(joint[1], d.gmi(0.6))

    def test_monotone_in_rate(self):
        cfg = perfect_csi_config(power=4.0)
        rates = [0.1, 0.3, 0.694, 1.2, 2.0]
        d = draw(cfg, 4000, 17)
        estimates = [d.outage(1.0, r) for r in rates]
        p = [e.p_hat for e in estimates]
        assert p == sorted(p)

    def test_rejects_bad_arguments(self):
        cfg = perfect_csi_config()
        with pytest.raises(ValueError):
            draw(cfg, 0, 1)
        with pytest.raises(ValueError):
            gmi_samples_multi_b(cfg, [], 10, 1)
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pdelta = p * dd / c
        qa = p * (1.0 + pdelta)
        qb = p * c - 2.0 - 2.0 * pdelta
        qc = -2.0 * r
        sqrt_d = np.sqrt(qb * qb - 4.0 * qa * qc)
        root = np.where(qb < 0.0, 2.0 * qc / (sqrt_d - qb), (-qb - sqrt_d) / (2.0 * qa))
        theta = root / (c * noise_var)
        w = -theta * power * c
        val = np.log1p(w) + theta * power * (
            c - 2.0 * r - noise_var * theta * c - power * theta * dd
        ) / (1.0 + w)
    attained = np.isfinite(theta) & (theta < 0.0) & np.isfinite(val) & (val > 0.0)
    return np.where(attained, val, 0.0)


C = CHUNK_TRIALS


def contract_trial(cfg: ChannelConfig, seed: int, i: int) -> tuple[float, complex]:
    """Trial ``i``'s ``(V, Y)`` by the documented recipe, from a fresh
    substream and with Python floats."""
    rng = substream(seed, i // C)
    g = rng.standard_gamma(cfg.n_r, size=C)
    z = rng.standard_normal(2 * C)
    j = i % C
    pilot_var, error_var = gram_variances(cfg)
    v = pilot_var * float(g[j])
    t = math.sqrt(error_var / 2.0 * v)
    return v, complex(t * float(z[j]), t * float(z[C + j]))


def contract_chunk(cfg: ChannelConfig, seed: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n`` trials of chunk ``k`` by the documented recipe, from
    a fresh substream, as whole arrays."""
    rng = substream(seed, k)
    g = rng.standard_gamma(cfg.n_r, size=C)
    z = rng.standard_normal(2 * C)
    pilot_var, error_var = gram_variances(cfg)
    v = pilot_var * g[:n]
    t = np.sqrt(error_var / 2.0 * v)
    y = np.empty(n, dtype=np.complex128)
    y.real, y.imag = t * z[:n], t * z[C : C + n]
    return v, y


class TestStreamContract:
    """Trial ``i`` is row ``i % C`` of chunk ``i // C``, read from substream
    ``(seed, i // C)``: gamma variates first, then normals."""

    @pytest.mark.parametrize("seed_offset", [1, 2, 3])
    @pytest.mark.parametrize("n_r", [1, 8, 1024])
    def test_trials_follow_the_documented_recipe(self, n_r, seed_offset):
        # 2C + 2 trials make three chunks, the last of two trials
        cfg = replace(complex_pilot_config(), n_r=n_r)
        seed = 10 * n_r + seed_offset
        d = draw(cfg, 2 * C + 2, seed)
        for i in (0, C - 1, C, C + 1, 2 * C + 1):
            v, y = contract_trial(cfg, seed, i)
            assert d.v_energy[i] == v
            assert d.residual[i] == y

    @pytest.mark.parametrize("trials", [C - 1, 3 * C + 5, 4 * C])
    @pytest.mark.parametrize("n_r", [1, 8])
    def test_every_trial_follows_the_recipe(self, n_r, trials):
        # one short chunk, four chunks ending in a short one, and four
        # whole chunks: every byte of every chunk matches its substream
        cfg = complex_pilot_config(n_r=n_r)
        seed = 7 * trials + n_r
        d = draw(cfg, trials, seed)
        for k, lo in enumerate(range(0, trials, C)):
            v, y = contract_chunk(cfg, seed, k, min(C, trials - lo))
            assert d.v_energy[lo : lo + C].tobytes() == v.tobytes()
            assert d.residual[lo : lo + C].tobytes() == y.tobytes()

    @pytest.mark.parametrize("trials", [1, C - 1, C, 2 * C])
    def test_prefix_stable(self, trials):
        cfg = complex_pilot_config(n_r=3)
        short, long = draw(cfg, trials, 8), draw(cfg, trials + 1, 8)
        assert short.v_energy.tobytes() == long.v_energy[:trials].tobytes()
        assert short.residual.tobytes() == long.residual[:trials].tobytes()

    def test_noiseless_pilot_gives_zero_residual(self):
        cfg = replace(complex_pilot_config(), pilot_noise_var=0.0)
        d = draw(cfg, 1000, 4)
        assert np.all(d.residual == 0)
        assert np.all(d.v_energy > 0)

    def test_snr_points_of_one_antenna_count_share_variates(self):
        # G = V / sigma_v^2 and z = Y / sqrt(sigma_e^2 V / 2) depend on
        # (seed, n_r, i) only, so every config of one n_r reads them
        base = complex_pilot_config(n_r=6)
        configs = [base, replace(base, fading_var=0.6), build_channel_config(9.0, 6),
                   build_channel_config(-3.0, 6)]
        standardized = []
        for cfg in configs:
            d = draw(cfg, C + 5, 12)
            pilot_var, error_var = gram_variances(cfg)
            standardized.append((d.v_energy / pilot_var, d.residual / np.sqrt(error_var / 2.0 * d.v_energy)))
        for g, z in standardized[1:]:
            np.testing.assert_allclose(g, standardized[0][0], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(z, standardized[0][1], rtol=1e-14, atol=0.0)


def oracle_draw(cfg: ChannelConfig, trials: int, seed: int) -> Draw:
    """A :class:`Draw` made by the per-antenna path: independent
    ``sample_realization`` calls on one stream, each reduced by
    ``statistics`` at ``b = a`` to ``V = ||a v||^2 / |a|^2`` and
    ``Y = (s - a v)^H (a v) / a``."""
    a = lmmse_coefficient(cfg)
    rng = substream(seed, 0)
    v = np.empty(trials)
    y = np.empty(trials, dtype=np.complex128)
    for i in range(trials):
        st = statistics(sample_realization(cfg, rng), a)
        v[i] = st.csi_energy / abs(a) ** 2
        y[i] = st.error_cross / a
    return Draw(cfg, v, y)


class TestLawAgreement:
    """The two-draw sampler and the per-antenna oracle draw one law."""

    # (config, rate in bits) with the outage at b = a away from 0 and 1
    POINTS = {
        "nr1_5dB": (build_channel_config(5.0, 1), 0.5),
        "nr8_5dB": (build_channel_config(5.0, 8), 3.0),
        "nr8_9dB": (build_channel_config(9.0, 8), 4.4),
        "nr64_-3dB": (build_channel_config(-3.0, 64), 2.8),
        "nr1024_0dB": (build_channel_config(0.0, 1024), 8.0),
        "perfect_csi": (perfect_csi_config(power=10.0, n_r=2), 3.0),
    }

    @pytest.mark.parametrize("point", POINTS)
    def test_same_law_as_per_antenna_oracle(self, point):
        cfg, rate_bits = self.POINTS[point]
        new, ref = draw(cfg, 200_000, 2024), oracle_draw(cfg, 20_000, 2024)
        pilot_var, error_var = gram_variances(cfg)
        law = scipy_stats.gamma(cfg.n_r, scale=pilot_var)
        for d in (new, ref):
            # V ~ sigma_v^2 Gamma(n_r), for each sampler
            assert scipy_stats.kstest(d.v_energy, law.cdf).pvalue > 1e-3
            # E|Y|^2 = sigma_e^2 E V: the mean of |Y|^2 - sigma_e^2 V is 0
            excess = np.abs(d.residual) ** 2 - error_var * d.v_energy
            if error_var == 0.0:
                assert np.all(np.abs(excess) <= 1e-24 * d.v_energy**2)
            else:
                assert abs(excess.mean()) <= 4.0 * excess.std() / math.sqrt(excess.size)
        # 12 outage comparisons over the points, each at 99.9% (z = 3.29)
        a = abs(lmmse_coefficient(cfg))
        rate = rate_bits * math.log(2.0)
        for ratio in (1.0, 0.758875):
            p_new, p_ref = new.outage(ratio * a, rate), ref.outage(ratio * a, rate)
            se = math.sqrt(sum(e.p_hat * (1.0 - e.p_hat) / e.trials for e in (p_new, p_ref)))
            assert abs(p_new.p_hat - p_ref.p_hat) <= 3.29 * se, (ratio, p_new.p_hat, p_ref.p_hat)


class TestBlocks:
    """The solve runs in fixed blocks; no block size changes a bit."""

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

    @pytest.mark.parametrize("n_r", [1024, 2**40])
    def test_draw_memory_does_not_grow_with_trials(self, n_r):
        # 2000 trials: the result takes 48 kB and the sampling one chunk's
        # variates and their temporaries, about 0.25 MB, whatever n_r
        cfg = build_channel_config(0.0, n_r)
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


class TestArgumentTypes:
    @pytest.mark.parametrize("seed", [1.7, -0.5, True, 1.0, "3"])
    def test_draw_refuses_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            draw(perfect_csi_config(), 10, seed)

    @pytest.mark.parametrize("trials", [10.5, 10.0, True])
    def test_draw_refuses_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            draw(perfect_csi_config(), trials, 1)

    @pytest.mark.parametrize("trials", [2**60, 2**64 - 1])
    def test_draw_refuses_trials_beyond_an_array(self, trials):
        # 16 bytes a trial overflow numpy's array size; refused before any
        # allocation, where numpy's own ValueError would name no field
        with pytest.raises(ConfigError) as exc:
            draw(perfect_csi_config(), trials, 1)
        assert exc.value.path == "trials"

    @pytest.mark.parametrize("workers", [True, 2.0, 1.5, 0])
    def test_multi_b_refuses_bad_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            gmi_samples_multi_b(perfect_csi_config(), [0.5], 10, 1, workers=workers)

    def test_numpy_integers_accepted(self):
        cfg = perfect_csi_config()
        d = draw(cfg, np.int64(10), np.uint64(3))
        ref = draw(cfg, 10, 3)
        np.testing.assert_array_equal(d.v_energy, ref.v_energy)
        np.testing.assert_array_equal(d.residual, ref.residual)
        joint = gmi_samples_multi_b(cfg, [0.5], np.int64(10), np.uint64(3), workers=np.int32(2))
        np.testing.assert_array_equal(joint[0], ref.gmi(0.5))


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
