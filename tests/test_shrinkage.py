import math
import tracemalloc

import numpy as np
import pytest

from lsrsim import (
    ChannelConfig,
    Draw,
    SearchSpec,
    build_channel_config,
    draw,
    lmmse_coefficient,
    optimize_b,
)
from lsrsim.outage import OutageCounter


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
            dict(ratio_low=math.nan),
            dict(ratio_high=math.inf),
            dict(trials=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        params = dict(trials=100, seed=0)
        params.update(kwargs)
        trials, seed = params.pop("trials"), params.pop("seed")
        with pytest.raises(ValueError):
            optimize_b(draw(build_channel_config(0.0, 2), trials, seed), 0.5, SearchSpec(**params))


def step_at(opt, b: float) -> float:
    """The sweep's outage at ``b``."""
    starts, p_hat = opt.sweep
    return float(p_hat[np.searchsorted(starts, b, "right") - 1])


class TestOptimizeB:
    def test_perfect_pilot_optimum_holds_the_lmmse_point(self):
        # with a noiseless pilot every trial's GMI peaks at b = a, so a lies
        # in the step of least outage, and b*, that step's midpoint, reads
        # the outage at a
        cfg = perfect_pilot_config()
        a = abs(lmmse_coefficient(cfg))
        d = draw(cfg, 100_000, 5)
        opt = optimize_b(d, math.log(2.0))
        assert step_at(opt, a) == opt.sweep[1].min() == step_at(opt, opt.b_star)
        assert opt.outage.p_hat == d.outage(a, math.log(2.0)).p_hat

    def test_perfect_pilot_sweep_minimum_at_lmmse(self):
        # coarse b-sweep oracle: scaling perfect CSI away from a only hurts
        cfg = perfect_pilot_config()
        a = abs(lmmse_coefficient(cfg))
        d = draw(cfg, 100_000, 31)
        p = [d.outage(r * a, math.log(2.0)).p_hat for r in (0.6, 0.8, 1.0, 1.2, 1.4)]
        assert min(p) == p[2]
        assert p[0] > p[2] and p[4] > p[2]

    def test_zero_rate_gives_the_domain_midpoint(self):
        # no trial is ever in outage at rate 0, so the sweep is one step and
        # b* its midpoint, the middle of [0, 2a] (the step starts at b_min,
        # about 1e-145, which the sum does not see)
        cfg = perfect_pilot_config()
        opt = optimize_b(draw(cfg, 500, 1), 0.0)
        assert opt.b_star == abs(lmmse_coefficient(cfg))
        assert opt.sweep[1].tolist() == [0.0]
        assert opt.outage.p_hat == 0.0

    def test_optimum_no_worse_than_lmmse_point(self):
        cfg = build_channel_config(5.0, 8)
        a = abs(lmmse_coefficient(cfg))
        rate = 2.0 * math.log(2.0)
        trials, seed = 20_000, 77
        opt = optimize_b(draw(cfg, trials, seed), rate)
        assert opt.outage.p_hat <= step_at(opt, a)
        # and the sweep's value at a agrees exactly with a direct estimate on
        # a fresh draw of the same trials
        assert step_at(opt, a) == draw(cfg, trials, seed).outage(a, rate).p_hat

    def test_bit_exact_reproducibility(self):
        cfg = build_channel_config(4.0, 4)
        first = optimize_b(draw(cfg, 5000, 13), math.log(2.0))
        second = optimize_b(draw(cfg, 5000, 13), math.log(2.0))
        assert first.b_star == second.b_star
        assert all(np.array_equal(x, y) for x, y in zip(first.sweep, second.sweep))
        assert first.outage == second.outage

    def test_collapsed_domain_is_one_step(self):
        # b = ratio_high * a (a < 1/2) rounds to 0.0, so the domain is the
        # one point b = 0, read whole
        cfg = build_channel_config(5.0, 2)
        opt = optimize_b(draw(cfg, 200, 1), 0.5, SearchSpec(ratio_high=math.ulp(0.0)))
        assert [x.tolist() for x in opt.sweep] == [[0.0], [1.0]]
        assert opt.b_star == 0.0 and opt.outage.p_hat == 1.0

    def test_b_star_is_the_midpoint_of_the_leftmost_least_step(self):
        cfg = build_channel_config(3.0, 4)
        a = abs(lmmse_coefficient(cfg))
        opt = optimize_b(draw(cfg, 2000, 3), math.log(2.0))
        starts, p_hat = opt.sweep
        k = int(np.argmin(p_hat))
        end = starts[k + 1] if k + 1 < starts.size else 2.0 * a
        assert opt.b_star == 0.5 * starts[k] + 0.5 * end
        assert opt.outage.p_hat == p_hat[k]
        assert np.all(p_hat[1:] != p_hat[:-1]) and np.all(starts[1:] > starts[:-1])

    def test_falls_back_to_a_when_a_reads_fewer_failures(self, monkeypatch):
        # a search stubbed to pick the one step over [0, a] puts b_star at a / 2,
        # which reads 95 failures against a's 33, so the search keeps a
        cfg = build_channel_config(6.0, 8)
        d, rate = draw(cfg, 2000, 1), 2.0 * math.log(2.0)
        a = abs(lmmse_coefficient(cfg))
        monkeypatch.setattr(OutageCounter, "_least", lambda self, low, high: 0.5 * low + 0.5 * high)
        assert (d.outage(0.5 * a, rate).failures, d.outage(a, rate).failures) == (95, 33)
        opt = optimize_b(d, rate, SearchSpec(0.0, 1.0))
        assert opt.b_star == a
        assert opt.outage == opt.at_a == d.outage(a, rate)

    def test_equal_ends_step_once(self):
        # every trial twice: each end comes in equal pairs, so the sweep
        # steps where the single draw's does, by twice the failures
        cfg = build_channel_config(3.0, 8)
        d = draw(cfg, 3000, 9)
        twice = Draw(cfg, np.tile(d.v_energy, 2), np.tile(d.residual, 2))
        for rate in (0.3, 1.0, 2.0 * math.log(2.0)):
            one, two = optimize_b(d, rate), optimize_b(twice, rate)
            assert two.b_star == one.b_star and two.outage.failures == 2 * one.outage.failures
            assert all(np.array_equal(x, y) for x, y in zip(one.sweep, two.sweep))


# (n_r, snr_db, rate_bits, trials, ratio_low, ratio_high); a perfect pilot
# has n_r = 0 here, standing for perfect_pilot_config()
ORACLE_CASES = [
    pytest.param(1, 5.0, 2.0, 20_000, 0.0, 2.0, id="nr1"),
    pytest.param(4, 5.0, 1.0, 100_000, 0.0, 2.0, id="nr4-1bit-some-re-solved"),
    pytest.param(8, 5.0, 2.0, 20_000, 0.0, 2.0, id="nr8"),
    pytest.param(64, 5.0, 5.0, 20_000, 0.0, 2.0, id="nr64"),
    pytest.param(8, 30.0, 1.0 / math.log(2.0), 2000, 0.0, 2.0, id="nr8-30dB-1nat-all-re-solved"),
    pytest.param(8, 5.0, 0.0, 2000, 0.0, 2.0, id="rate0"),
    pytest.param(8, 5.0, 2.0, 2000, 0.0, math.ulp(0.0), id="collapsed"),
    pytest.param(8, 5.0, 2.0, 5000, 1.2, 2.0, id="without-a"),
    pytest.param(0, 10.0, 1.0, 20_000, 0.0, 2.0, id="perfect-pilot"),
]


@pytest.mark.parametrize("n_r,snr_db,rate_bits,trials,ratio_low,ratio_high", ORACLE_CASES)
def test_exact_optimum_against_brute_force(n_r, snr_db, rate_bits, trials, ratio_low, ratio_high):
    # the oracle reads Draw.outage at 2,001 ratios over the domain; the sweep
    # reaches its minimum or below, re-reads b* exactly, and counts there
    # what it re-reads
    cfg = perfect_pilot_config() if n_r == 0 else build_channel_config(snr_db, n_r)
    a = abs(lmmse_coefficient(cfg))
    rate = rate_bits * math.log(2.0)
    d = draw(cfg, trials, 3)
    opt = optimize_b(d, rate, SearchSpec(ratio_low, ratio_high))
    oracle = min(d.outage(r * a, rate).failures for r in np.linspace(ratio_low, ratio_high, 2001))
    assert opt.outage == d.outage(opt.b_star, rate)
    assert opt.outage.failures <= oracle
    assert step_at(opt, opt.b_star) == opt.outage.p_hat
    assert ratio_low * a <= opt.b_star <= ratio_high * a
    if ratio_low <= 1.0 <= ratio_high:
        assert opt.outage.p_hat <= d.outage(a, rate).p_hat


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


def b_star_from_sweep(counter, low, high):
    """The midpoint of the first least step of the full step function."""
    starts, _, best = counter._sweep(low, high)
    end = starts[best + 1] if best + 1 < starts.size else high
    return 0.5 * float(starts[best]) + 0.5 * float(end)


# (snr_db, n_r, rate_nats, trials, ratio_low, ratio_high, repeat)
LEAST_CASES = [
    pytest.param(6.0, 8, 2.0 * math.log(2.0), 10_000, 0.0, 2.0, 1, id="curve"),
    pytest.param(5.0, 8, 0.0, 2000, 0.0, 2.0, 1, id="rate0"),
    pytest.param(5.0, 8, 1.386, 2000, 0.0, math.ulp(0.0), 1, id="below-b_min"),
    pytest.param(30.0, 8, 1.0, 2000, 0.0, 2.0, 1, id="30dB-1nat-re-solved"),
    pytest.param(5.0, 8, 1.386, 5000, 1.2, 2.0, 1, id="without-a"),
    pytest.param(3.0, 4, 0.5, 4097, 0.0, 2.0, 1, id="below-1-nat"),
    pytest.param(3.0, 8, 1.0, 3000, 0.0, 2.0, 2, id="repeated-twice"),
    pytest.param(5.0, 2, 0.3, 1500, 0.3, 1.7, 3, id="repeated-thrice"),
]


@pytest.mark.parametrize("snr_db,n_r,rate,trials,ratio_low,ratio_high,repeat", LEAST_CASES)
def test_least_step_equals_the_full_sweep(snr_db, n_r, rate, trials, ratio_low, ratio_high, repeat):
    # the search's pick, read with no step function, is the full step
    # function's, and so are the outages optimize_b reads
    cfg = build_channel_config(snr_db, n_r)
    d = draw(cfg, trials, 7)
    if repeat > 1:
        d = Draw(cfg, np.repeat(d.v_energy, repeat), np.repeat(d.residual, repeat))
    a = abs(lmmse_coefficient(cfg))
    low, high = ratio_low * a, ratio_high * a
    counter = OutageCounter(d, rate)
    assert counter._least(low, high) == b_star_from_sweep(counter, low, high)
    opt = optimize_b(d, rate, SearchSpec(ratio_low, ratio_high))
    want = b_star_from_sweep(counter, low, high)
    est, at_a = counter.outages([want, a])
    if low <= a <= high and at_a.failures < est.failures:
        want, est = a, at_a
    assert (opt.b_star, opt.outage, opt.at_a) == (want, est, at_a)


def test_tied_pick_reads_the_sweep(monkeypatch):
    # ends stubbed so that one trial's lower end equals another's upper end
    # where the outage is least: that pick has no width, and the step
    # function, read instead, steps once from 0.2 to 0.5 at one failure
    cfg = build_channel_config(6.0, 8)
    counter = OutageCounter(draw(cfg, 2, 1), 2.0 * math.log(2.0))
    counter._lo, counter._hi = np.array([0.2, 0.3]), np.array([0.3, 0.5])
    calls = []
    sweep = OutageCounter._sweep
    monkeypatch.setattr(OutageCounter, "_sweep", lambda self, *args: calls.append(args) or sweep(self, *args))
    assert counter._least(0.0, 1.0) == 0.5 * 0.2 + 0.5 * 0.5
    assert calls == [(0.0, 1.0)]


class TestLazySweep:
    def test_a_search_builds_no_step_function(self):
        # the counter's sorted ends, 16 bytes a trial, and a constant: a
        # piece of ranks (32 kB), what searchsorted takes for it (about as
        # much) and small objects; the step function would take about 32
        # bytes a trial more
        cfg = build_channel_config(6.0, 8)
        rate = 2.0 * math.log(2.0)
        optimize_b(draw(cfg, 10_000, 1), rate)
        d = draw(cfg, 10_000, 2)
        tracemalloc.start()
        try:
            opt = optimize_b(d, rate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * d.v_energy.size + 80_000
        assert "sweep" not in vars(opt)

    def test_sweep_is_built_once(self):
        opt = optimize_b(draw(build_channel_config(4.0, 4), 3000, 5), math.log(2.0))
        first, second = opt.sweep, opt.sweep
        assert first is second and all(x is y for x, y in zip(first, second))
