import math

import pytest

from lsrsim import (
    ChannelConfig,
    SearchSpec,
    build_channel_config,
    draw,
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
            optimize_b(draw(build_channel_config(0.0, 2), trials, seed), 0.5, SearchSpec(**params))


class TestOptimizeB:
    def test_perfect_pilot_recovers_lmmse_point(self):
        # the common-random-number objective ties on a plateau around the
        # optimum, and ties resolve toward smaller b, so b* can sit slightly
        # left of a; it must stay within one coarse grid step and match the
        # outage at a exactly
        cfg = perfect_pilot_config()
        a = abs(lmmse_coefficient(cfg))
        spec = SearchSpec(refine_iters=3)
        opt = optimize_b(draw(cfg, 100_000, 5), math.log(2.0), spec)
        coarse_step = (spec.ratio_high - spec.ratio_low) / (spec.coarse_points - 1)
        assert abs(opt.b_star / a - 1.0) <= coarse_step
        p_at_a = dict(opt.sweep)[a]
        assert opt.outage.p_hat == p_at_a

    def test_perfect_pilot_sweep_minimum_at_lmmse(self):
        # coarse b-sweep oracle: scaling perfect CSI away from a only hurts
        cfg = perfect_pilot_config()
        a = abs(lmmse_coefficient(cfg))
        d = draw(cfg, 100_000, 31)
        p = [d.outage(r * a, math.log(2.0)).p_hat for r in (0.6, 0.8, 1.0, 1.2, 1.4)]
        assert min(p) == p[2]
        assert p[0] > p[2] and p[4] > p[2]

    def test_zero_rate_tie_breaks_to_smallest_b(self):
        cfg = perfect_pilot_config()
        opt = optimize_b(draw(cfg, 500, 1), 0.0)
        assert opt.b_star == 0.0
        assert opt.outage.p_hat == 0.0

    def test_optimum_no_worse_than_lmmse_point(self):
        cfg = build_channel_config(5.0, 8)
        a = abs(lmmse_coefficient(cfg))
        rate = 2.0 * math.log(2.0)
        trials, seed = 20_000, 77
        opt = optimize_b(draw(cfg, trials, seed), rate, SearchSpec(refine_iters=1))
        sweep = dict(opt.sweep)
        assert a in sweep
        assert opt.outage.p_hat <= sweep[a]
        # and the sweep value at a agrees exactly with a direct estimate on
        # a fresh draw of the same trials
        direct = draw(cfg, trials, seed).outage(a, rate)
        assert sweep[a] == direct.p_hat

    def test_bit_exact_reproducibility(self):
        cfg = build_channel_config(4.0, 4)
        spec = SearchSpec(refine_iters=2)
        first = optimize_b(draw(cfg, 5000, 13), math.log(2.0), spec)
        second = optimize_b(draw(cfg, 5000, 13), math.log(2.0), spec)
        assert first.b_star == second.b_star
        assert first.sweep == second.sweep
        assert first.outage == second.outage

    def test_collapsed_grid_gives_one_point_sweep(self):
        # every coarse b = r * a (a < 1/2) rounds to 0.0, so the refinement
        # interval is one float and the search stops with a one-point sweep
        cfg = build_channel_config(5.0, 2)
        opt = optimize_b(draw(cfg, 200, 1), 0.5, SearchSpec(ratio_high=math.ulp(0.0)))
        assert opt.sweep == [(0.0, 1.0)]
        assert opt.b_star == 0.0 and opt.outage.p_hat == 1.0

    def test_incumbent_minimizes_sweep_with_tie_rule(self):
        cfg = build_channel_config(3.0, 4)
        opt = optimize_b(draw(cfg, 2000, 3), math.log(2.0))
        best = min(opt.sweep, key=lambda pair: (pair[1], pair[0]))
        assert opt.b_star == best[0]


class TestBSweep:
    def test_zero_b_is_certain_outage_for_positive_rate(self):
        cfg = build_channel_config(5.0, 4)
        est = draw(cfg, 400, 2).outage(0.0, 0.3)
        assert est.p_hat == 1.0

    def test_duplicate_entries_identical(self):
        cfg = build_channel_config(5.0, 4)
        a = abs(lmmse_coefficient(cfg))
        d = draw(cfg, 1000, 8)
        result = [d.outage(b, math.log(2.0)) for b in (a, 0.5 * a, a)]
        assert result[0] == result[2]

    def test_minimum_strictly_below_lmmse_with_noisy_pilot(self):
        # finite antennas and pilot noise: some b < a strictly beats a
        cfg = build_channel_config(5.0, 8)
        a = abs(lmmse_coefficient(cfg))
        ratios = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        d = draw(cfg, 50_000, 4)
        p = [d.outage(r * a, 2.0 * math.log(2.0)).p_hat for r in ratios]
        assert min(p) < p[-1]
        assert ratios[p.index(min(p))] < 1.0
