import math

import pytest

from lsrsim import (
    ChannelConfig,
    SearchSpec,
    b_sweep,
    build_channel_config,
    estimate_outage,
    lmmse_coefficient,
    optimize_b,
)


def perfect_pilot_config(power=10.0, n_r=1):
    return ChannelConfig(
        n_r=n_r, power=power, noise_var=1.0, pilot_noise_var=0.0,
        fading_var=1.0, pilot=math.sqrt(power),
    )


class TestSearchSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ratio_low=1.0, ratio_high=1.0),
            dict(ratio_low=-0.5, ratio_high=1.0),
            dict(coarse_points=2),
            dict(refine_iters=-1),
            dict(trials=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        params = dict(trials=100, seed=0)
        params.update(kwargs)
        trials, seed = params.pop("trials"), params.pop("seed")
        with pytest.raises(ValueError):
            optimize_b(build_channel_config(0.0, 2), 0.5, trials, seed, SearchSpec(**params))


class TestOptimizeB:
    def test_perfect_pilot_recovers_lmmse_point(self):
        # the common-random-number objective ties on a plateau around the
        # optimum, and ties resolve toward smaller b, so b* can sit slightly
        # left of a; it must stay within one coarse grid step and match the
        # outage at a exactly
        cfg = perfect_pilot_config()
        a = abs(lmmse_coefficient(cfg))
        spec = SearchSpec(refine_iters=3)
        opt = optimize_b(cfg, math.log(2.0), 100_000, 5, spec)
        coarse_step = (spec.ratio_high - spec.ratio_low) / (spec.coarse_points - 1)
        assert abs(opt.b_star / a - 1.0) <= coarse_step
        p_at_a = dict(opt.sweep)[a]
        assert opt.outage.p_hat == p_at_a
        assert not opt.degenerate

    def test_perfect_pilot_sweep_minimum_at_lmmse(self):
        # coarse b-sweep oracle: scaling perfect CSI away from a only hurts
        cfg = perfect_pilot_config()
        a = abs(lmmse_coefficient(cfg))
        result = b_sweep(
            cfg, math.log(2.0), [0.6 * a, 0.8 * a, a, 1.2 * a, 1.4 * a], 100_000, 31
        )
        p = [est.p_hat for _, est in result]
        assert min(p) == p[2]
        assert p[0] > p[2] and p[4] > p[2]

    def test_zero_rate_tie_breaks_to_smallest_b(self):
        cfg = perfect_pilot_config()
        opt = optimize_b(cfg, 0.0, 500, 1)
        assert opt.b_star == 0.0
        assert opt.outage.p_hat == 0.0

    def test_optimum_no_worse_than_lmmse_point(self):
        cfg = build_channel_config(5.0, 8)
        a = abs(lmmse_coefficient(cfg))
        rate = 2.0 * math.log(2.0)
        trials, seed = 20_000, 77
        opt = optimize_b(cfg, rate, trials, seed, SearchSpec(refine_iters=1))
        sweep = dict(opt.sweep)
        assert a in sweep
        assert opt.outage.p_hat <= sweep[a]
        # and the sweep value at a agrees exactly with a direct estimate
        direct = estimate_outage(cfg, a, rate, trials, seed)
        assert sweep[a] == direct.p_hat

    def test_bit_exact_reproducibility(self):
        cfg = build_channel_config(4.0, 4)
        spec = SearchSpec(refine_iters=2)
        first = optimize_b(cfg, math.log(2.0), 5000, 13, spec)
        second = optimize_b(cfg, math.log(2.0), 5000, 13, spec)
        assert first.b_star == second.b_star
        assert first.sweep == second.sweep
        assert first.outage == second.outage

    def test_incumbent_minimizes_sweep_with_tie_rule(self):
        cfg = build_channel_config(3.0, 4)
        opt = optimize_b(cfg, math.log(2.0), 2000, 3)
        best = min(opt.sweep, key=lambda pair: (pair[1], pair[0]))
        assert opt.b_star == best[0]


class TestBSweep:
    def test_zero_b_is_certain_outage_for_positive_rate(self):
        cfg = build_channel_config(5.0, 4)
        [(b, est)] = b_sweep(cfg, 0.3, [0.0], 400, 2)
        assert b == 0.0
        assert est.p_hat == 1.0

    def test_duplicate_entries_identical(self):
        cfg = build_channel_config(5.0, 4)
        a = abs(lmmse_coefficient(cfg))
        result = b_sweep(cfg, math.log(2.0), [a, 0.5 * a, a], 1000, 8)
        assert result[0][1] == result[2][1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            b_sweep(build_channel_config(0.0, 2), 0.5, [], 100, 1)

    def test_minimum_strictly_below_lmmse_with_noisy_pilot(self):
        # finite antennas and pilot noise: some b < a strictly beats a
        cfg = build_channel_config(5.0, 8)
        a = abs(lmmse_coefficient(cfg))
        ratios = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        result = b_sweep(
            cfg, 2.0 * math.log(2.0), [r * a for r in ratios], 50_000, 4
        )
        p = [est.p_hat for _, est in result]
        assert min(p) < p[-1]
        assert ratios[p.index(min(p))] < 1.0
