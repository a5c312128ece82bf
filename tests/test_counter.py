"""A trial's GMI as a function of real ``b``, and the outage counter built on it.

With ``rho = Re(s^H v)`` and ``kappa = ((Im s^H v)^2 + noise_var V / power)
/ rho^2``, the GMI of real ``b > 0`` depends on ``b`` only through
``q = rho / (b V)``; it peaks at ``b = rho / V`` with ``log1p(1 / kappa)``,
so a trial with ``rho <= 0`` or ``kappa > 1 / expm1(R)`` is in outage at
every ``b``.  :class:`~lsrsim.outage.OutageCounter` counts outages from each
trial's feasible interval and must agree with ``Draw.outage`` failure for
failure.
"""

import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lsrsim import (ChannelConfig, Draw, ExperimentConfig, build_channel_config, draw, lmmse_coefficient,
                    optimize_b, run_experiment)
from lsrsim import outage
from lsrsim.gmi import _END_TABLE_CELLS, _Arena, _end_cells, _end_tables, _feasible_ends
from lsrsim.outage import OutageCounter
from oracles import RATES, literal_gmi_of_draw


def complex_pilot(snr_db: float, n_r: int) -> ChannelConfig:
    # the experiment convention with the pilot turned by 0.15 rad, so that
    # the LMMSE coefficient a is complex; a real b cannot undo the turn, so
    # it costs every trial some GMI
    cfg = build_channel_config(snr_db, n_r)
    return replace(cfg, pilot=cfg.pilot * cmath.exp(0.15j))


def noiseless_pilot(snr_db: float, n_r: int) -> ChannelConfig:
    return replace(complex_pilot(snr_db, n_r), pilot_noise_var=0.0)


def reduction(d: Draw) -> tuple[np.ndarray, np.ndarray]:
    """``(rho, kappa)`` of every trial of ``d``, from ``s^H v = conj(a) V + Y``."""
    x = lmmse_coefficient(d.config).conjugate() * d.v_energy + d.residual
    noise = d.config.noise_var / d.config.power * d.v_energy
    return x.real, (x.imag**2 + noise) / x.real**2


def one_trial(d: Draw, i: int) -> Draw:
    return Draw(d.config, d.v_energy[i : i + 1], d.residual[i : i + 1])


def gmi_of_q(q: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """``sup_{x > 0} [log(1 + x) - x (1 - 2q + x A) / (1 + x)]`` with
    ``A = (1 - q)^2 + kappa q^2``, maximized in closed form: the stationary
    ``y = 1 + x`` solves ``A y^2 - y + (1 - 2q - A) = 0``."""
    big_a = (1.0 - q) ** 2 + kappa * q * q
    y = (1.0 + np.sqrt(1.0 - 4.0 * big_a * (1.0 - 2.0 * q - big_a))) / (2.0 * big_a)
    x = y - 1.0
    value = np.log1p(x) - x * (1.0 - 2.0 * q + x * big_a) / y
    return np.where(x > 0.0, value, 0.0)


FACT_POINTS = [(n_r, snr, pilot) for n_r in (1, 8, 1024) for snr in (-3.0, 5.0, 30.0)
               for pilot in (build_channel_config, complex_pilot)]


class TestGmiOfRealB:
    """The closed-form facts the counter rests on, against ``Draw.gmi``."""

    @pytest.mark.parametrize("n_r,snr_db,pilot", FACT_POINTS)
    def test_peak_at_rho_over_v(self, n_r, snr_db, pilot):
        cfg = pilot(snr_db, n_r)
        d = draw(cfg, 40, 5)
        a = abs(lmmse_coefficient(cfg))
        rho, kappa = reduction(d)
        up = np.flatnonzero(rho > 0.0)
        assert up.size >= 20
        peak = np.array([one_trial(d, i).gmi(rho[i] / d.v_energy[i])[0] for i in up])
        np.testing.assert_allclose(peak, np.log1p(1.0 / kappa[up]), rtol=1e-12, atol=0.0)
        best = np.max([d.gmi(b)[up] for b in np.linspace(0.0, 3.0 * a, 2001)], axis=0)
        assert np.all(best <= peak * (1.0 + 1e-12))

    @pytest.mark.parametrize("n_r,snr_db,pilot", FACT_POINTS)
    def test_outage_at_every_b_below_threshold(self, n_r, snr_db, pilot):
        cfg = pilot(snr_db, n_r)
        d = draw(cfg, 2000, 6)
        a = abs(lmmse_coefficient(cfg))
        rho, kappa = reduction(d)
        for rate in RATES[1:]:
            doomed = (rho <= 0.0) | (kappa > 1.0 / math.expm1(rate))
            for b in np.linspace(0.0, 3.0 * a, 61):
                assert np.all(d.gmi(b)[doomed] < rate)

    @pytest.mark.parametrize("n_r,snr_db,pilot", FACT_POINTS)
    def test_gmi_depends_on_b_only_through_q(self, n_r, snr_db, pilot):
        # Draw.gmi at real b equals a formula of q = rho / (b V) and kappa
        # alone; where rho <= 0 the GMI is 0
        cfg = pilot(snr_db, n_r)
        d = draw(cfg, 300, 7)
        a = abs(lmmse_coefficient(cfg))
        rho, kappa = reduction(d)
        up = rho > 0.0
        for ratio in (0.05, 0.4, 0.9, 1.0, 1.3, 2.5):
            b = ratio * a
            gmi = d.gmi(b)
            assert np.all(gmi[~up] == 0.0)
            expected = gmi_of_q(rho[up] / (b * d.v_energy[up]), kappa[up])
            np.testing.assert_allclose(gmi[up], expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("ratio", [1e-80, 1e-120, 1e-150])
    def test_tiny_b_reads_the_small_b_limit(self, ratio):
        # as b -> 0+ the GMI tends to 1 / (1 + kappa), here 0.42-0.91 nats;
        # the solve reads it while c = b^2 V is a normal float
        cfg = build_channel_config(5.0, 4)
        d = draw(cfg, 5, 2)
        rho, kappa = reduction(d)
        assert np.all(rho > 0.0)
        gmi = d.gmi(ratio * lmmse_coefficient(cfg))
        np.testing.assert_allclose(gmi, 1.0 / (1.0 + kappa), rtol=1e-12, atol=0.0)
        assert d.outage(ratio * lmmse_coefficient(cfg), 0.3).p_hat == 0.0


    @pytest.mark.parametrize("ratio", [1e80, 1e150, 1e300])
    def test_huge_b_reads_zero_without_warning(self, ratio):
        # as b -> inf the GMI tends to 0; from about 1e80 a the reduction's
        # d = |b|^2 |e|^2 overflows to inf, and the solve still reads 0
        # with no numpy warning
        cfg = build_channel_config(5.0, 4)
        d = draw(cfg, 1000, 1)
        b = ratio * lmmse_coefficient(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(d.gmi(b) == 0.0)
            assert d.outage(b, 0.3).p_hat == 1.0


COUNT_POINTS = [(n_r, snr, pilot) for n_r in (1, 8, 1024) for snr in (-3.0, 5.0, 30.0, 150.0)
                for pilot in (build_channel_config, complex_pilot, noiseless_pilot)]


def assert_counts_match(d: Draw, rates, b_values) -> list[OutageCounter]:
    """Each rate's counter gives, at every ``b``, ``Draw.outage``'s failures
    (read from one ``d.gmi(b)`` per ``b``, shared by the rates)."""
    b_values = list(b_values)
    counters = [OutageCounter(d, rate) for rate in rates]
    counted = [c.outages(b_values) for c in counters]
    for k, b in enumerate(b_values):
        gmi = d.gmi(b)
        for rate, estimates in zip(rates, counted):
            assert estimates[k].failures == np.count_nonzero(gmi < rate), (rate, b)
    assert counted[-1][0] == d.outage(b_values[0], rates[-1])
    return counters


def assert_intervals_match(counter: OutageCounter, b_values) -> None:
    """At each ``b``, ``#{lo <= b} - #{hi < b}`` over the counter's
    :meth:`~lsrsim.outage.OutageCounter.intervals` counts the trials that
    ``Draw.outage`` finds feasible, but for trials whose GMI lies within
    ``Draw.gmi``'s own error, 1e-15 (rate + 2) nats, of the rate.  Where the
    GMI is that flat in ``b`` (1 nat near the ``b -> 0+`` limit at 150 dB),
    the direct solve flips such a trial's feasibility over a range of ``b``,
    and a bisected end is one of those flips."""
    lo, hi = counter.intervals()
    d, rate = counter.draw, counter.rate
    assert lo.size == hi.size == d.v_energy.size
    for b in b_values:
        gmi = d.gmi(b)
        feasible = np.searchsorted(lo, b, "right") - np.searchsorted(hi, b, "left")
        edge = np.count_nonzero(np.abs(gmi - rate) <= 1e-15 * (rate + 2.0))
        assert abs(feasible - np.count_nonzero(gmi >= rate)) <= edge, b


def spy_whole_reads(monkeypatch) -> list[float]:
    """The ``b`` of every whole read of a counter from now on."""
    calls, whole = [], OutageCounter._whole

    def spy(self, b):
        calls.append(b)
        return whole(self, b)

    monkeypatch.setattr(OutageCounter, "_whole", spy)
    return calls


class TestOutageCounter:
    """Every count equals ``Draw.outage``'s, at every rate and guard path."""

    @pytest.mark.parametrize("n_r,snr_db,pilot", COUNT_POINTS)
    def test_matches_draw_outage(self, n_r, snr_db, pilot):
        cfg = pilot(snr_db, n_r)
        a = abs(lmmse_coefficient(cfg))
        d = draw(cfg, 4097, 11)
        rng = np.random.default_rng([n_r, int(snr_db) + 10])
        searched = {optimize_b(d, rate).b_star for rate in RATES}
        assert_counts_match(d, RATES, sorted(searched) + list(rng.uniform(0.0, 3.0 * a, 200)))

    @pytest.mark.parametrize("n_r,snr_db,pilot", COUNT_POINTS)
    def test_intervals_count_draw_outage_between_ends(self, n_r, snr_db, pilot):
        # between consecutive ends of the feasible intervals, certified or
        # bisected, the count from the ends is Draw.outage's; a certified end
        # is known to 1.25e-9 relative, so each b stays 2e-8 from the ends
        cfg = pilot(snr_db, n_r)
        d = draw(cfg, 4097, 11)
        rng = np.random.default_rng([n_r, int(snr_db) + 20])
        for rate in RATES[1:]:
            counter = OutageCounter(d, rate)
            ends = np.unique(np.concatenate(counter.intervals()))
            ends = ends[(ends >= counter.b_min) & (ends < math.inf)]
            wide = np.flatnonzero(ends[1:] > ends[:-1] * (1.0 + 4e-8))
            if wide.size:
                k = rng.choice(wide, size=20)
                assert_intervals_match(counter, 0.5 * ends[k] + 0.5 * ends[k + 1])

    # at 1 nat and 20 dB about a third of the trials have certified ends
    # and the rest are re-solved
    @pytest.mark.parametrize("snr_db", [5.0, 20.0])
    @pytest.mark.parametrize("pilot", [build_channel_config, complex_pilot])
    @pytest.mark.parametrize("rate", [0.3, math.log(2.0), 1.0, 2.0 * math.log(2.0)])
    def test_ends_do_not_depend_on_the_blocks(self, rate, pilot, snr_db):
        # the counter builds the ends in blocks and packs each block's
        # certified ends before the sort; counters on uneven pieces of the
        # draw, one of them a single trial, hold the same sorted ends and
        # re-solve the same trials, bit for bit
        d = draw(pilot(snr_db, 8), 2 * outage._SHORT_BLOCK + 3, 22)
        whole = OutageCounter(d, rate)
        bounds = [0, 1, 700, 701, outage._COUNT_BLOCK + 5, outage._SHORT_BLOCK + 5, d.v_energy.size]
        pieces = [OutageCounter(Draw(d.config, d.v_energy[lo:hi], d.residual[lo:hi]), rate)
                  for lo, hi in zip(bounds, bounds[1:])]
        for name in ("_lo", "_hi"):
            joined = np.sort(np.concatenate([getattr(c, name) for c in pieces]))
            assert joined.tobytes() == getattr(whole, name).tobytes()
        unsure = np.concatenate([c._unsure + lo for c, lo in zip(pieces, bounds)])
        assert unsure.tobytes() == whole._unsure.tobytes()
        assert np.count_nonzero(np.isfinite(whole._lo)) + whole._unsure.size > 0

    @pytest.mark.parametrize("pilot", [build_channel_config, complex_pilot])
    def test_one_trial(self, pilot):
        cfg = pilot(5.0, 8)
        a = abs(lmmse_coefficient(cfg))
        for seed in range(8):
            d = draw(cfg, 1, seed)
            assert_counts_match(d, RATES, np.linspace(0.0, 3.0 * a, 61))

    @pytest.mark.parametrize("rate", RATES[1:])
    def test_b_at_a_computed_end(self, rate, monkeypatch):
        # a b within 2e-8 of an end is read by Draw.outage whole; 3e-8 away
        # it is counted
        d = draw(complex_pilot(5.0, 8), 4097, 12)
        counter = OutageCounter(d, rate)
        ends = [e for e in np.concatenate((counter._lo, counter._hi)) if 0.0 < e < math.inf]
        assert len(ends) > 1000
        picks = ends[::97]
        whole = spy_whole_reads(monkeypatch)
        counter.outages(picks)
        assert len(whole) == len(picks)
        shifted = [e * (1.0 + 3e-8) for e in picks] + [e * (1.0 - 3e-8) for e in picks]
        assert_counts_match(d, [rate], picks + shifted)

    def test_trial_at_the_threshold_is_re_solved(self):
        # the rate is trial 0's peak GMI: kappa sits at 1 / expm1(rate)
        d = draw(build_channel_config(5.0, 8), 4097, 13)
        rho, kappa = reduction(d)
        i = int(np.argmax(rho > 0.0))
        rate = math.log1p(1.0 / kappa[i])
        b_values = np.linspace(0.0, 3.0 * rho[i] / d.v_energy[i], 301)
        [counter] = assert_counts_match(d, [rate], b_values)
        assert i in counter._unsure
        assert_intervals_match(counter, b_values[1:])

    def test_zero_and_underflowing_b(self, monkeypatch):
        cfg = build_channel_config(5.0, 4)
        a = abs(lmmse_coefficient(cfg))
        d = draw(cfg, 4097, 14)
        b_values = [0.0, 1e-200 * a, 1e-150 * a, 1e-120 * a, 1e-80 * a, 1e-3 * a]
        counter = OutageCounter(d, 0.3)
        whole = spy_whole_reads(monkeypatch)
        counter.outages(b_values)
        # (b^2 V near underflow: read whole; 1e-3 a: counted)
        assert whole[:2] == [0.0, 1e-200 * a] and 1e-3 * a not in whole
        assert_counts_match(d, RATES, b_values)

    def test_flat_lower_ends_near_one_nat(self):
        # at a rate of 1 nat and high SNR every lower end sits where the GMI
        # is nearly flat in b, so every trial is re-solved, and still exact
        cfg = build_channel_config(30.0, 8)
        d = draw(cfg, 2000, 15)
        b_values = np.linspace(0.0, 2.0 * abs(lmmse_coefficient(cfg)), 41)
        [counter] = assert_counts_match(d, [1.0], b_values)
        assert counter._unsure.size == 2000
        # and their bisected ends count the same
        assert_intervals_match(counter, b_values[1:])

    def test_gmi_error_at_the_ends_is_far_below_the_margin(self):
        # the counter trusts Draw.gmi to 1e-12 (rate + 2) nats where the GMI
        # crosses the rate; against a 50-digit evaluation at certified ends
        # it is within 1e-15 (rate + 2)
        worst = 0.0
        for cfg in (build_channel_config(-3.0, 1), complex_pilot(5.0, 8), build_channel_config(150.0, 64)):
            a = lmmse_coefficient(cfg)
            d = draw(cfg, 60, 16)
            for rate in RATES[1:]:
                trial_ends = []
                for i in range(d.v_energy.size):
                    one = OutageCounter(one_trial(d, i), rate)
                    trial_ends += [(i, e) for e in (one._lo[0], one._hi[0]) if 0.0 < e < math.inf]
                for i, b in trial_ends[:12]:
                    gmi = one_trial(d, i).gmi(b)[0]
                    ref = literal_gmi_of_draw(float(d.v_energy[i]), complex(d.residual[i]), a, complex(b),
                                              cfg.power, cfg.noise_var)
                    assert ref == pytest.approx(rate, rel=1e-9)
                    worst = max(worst, abs(gmi - ref) / (rate + 2.0))
        assert worst <= 1e-15

    def test_rejects_what_draw_outage_rejects(self):
        d = draw(build_channel_config(5.0, 4), 10, 1)
        for rate in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="rate_nats"):
                OutageCounter(d, rate)
        counter = OutageCounter(d, 0.5)
        for b in (math.nan, math.inf):
            with pytest.raises(ValueError, match="b: must be finite"):
                counter.outages([b])

    def test_negative_b_matches_draw_outage(self):
        cfg = complex_pilot(5.0, 4)
        d = draw(cfg, 500, 17)
        assert_counts_match(d, [0.5], [-abs(lmmse_coefficient(cfg)), -1e-3])


def per_trial_reference(counter: OutageCounter) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The counter's sorted ends and re-solved trials as the per-trial rule
    finds them, run once on the whole draw with arrays of its own."""
    d = counter.draw
    lo, hi = np.full(d.v_energy.size, math.inf), np.full(d.v_energy.size, math.inf)
    unsure = counter._ends(d.v_energy, d.residual, lo, hi, _Arena(np.empty(0, np.uint8)))
    return np.sort(lo), np.sort(hi), unsure


def spy_per_trial_rule(monkeypatch) -> list[int]:
    """The number of trials of every call of the per-trial rule from now on."""
    sizes, ends = [], OutageCounter._ends

    def spy(self, v, y, lo, hi, arena):
        sizes.append(v.size)
        return ends(self, v, y, lo, hi, arena)

    monkeypatch.setattr(OutageCounter, "_ends", spy)
    return sizes


SHORT_RATES = [0.3, math.log(2.0), 1.0, 2.0 * math.log(2.0), 4.0 * math.log(2.0), 8.0 * math.log(2.0)]


class TestShortPass:
    """The build's short pass vouches for a trial from one flag per table
    cell and leaves the rest to the per-trial rule: the ends and the
    re-solved trials are the rule's, bit for bit."""

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 6.0, 15.0, 30.0, 60.0])
    @pytest.mark.parametrize("pilot", [build_channel_config, complex_pilot])
    def test_matches_the_per_trial_rule(self, pilot, snr_db):
        for n_r in (1, 2, 8, 64, 1024):
            d = draw(pilot(snr_db, n_r), 4097, 23)
            for rate in SHORT_RATES:
                counter = OutageCounter(d, rate)
                lo, hi, unsure = per_trial_reference(counter)
                assert counter._lo.tobytes() == lo.tobytes(), (n_r, rate)
                assert counter._hi.tobytes() == hi.tobytes(), (n_r, rate)
                assert counter._unsure.tobytes() == unsure.tobytes(), (n_r, rate)

    @pytest.mark.parametrize("rate", SHORT_RATES)
    def test_matches_the_per_trial_rule_over_two_blocks(self, rate, monkeypatch):
        d = draw(build_channel_config(3.0, 8), outage._SHORT_BLOCK + 3, 24)
        blocks = []
        short = OutageCounter._short

        def spy(self, v, *args):
            blocks.append(v.size)
            return short(self, v, *args)

        monkeypatch.setattr(OutageCounter, "_short", spy)
        counter = OutageCounter(d, rate)
        assert len(blocks) == 2
        lo, hi, unsure = per_trial_reference(counter)
        assert (counter._lo.tobytes(), counter._hi.tobytes()) == (lo.tobytes(), hi.tobytes())
        assert counter._unsure.tobytes() == unsure.tobytes()

    @pytest.mark.parametrize("rate", SHORT_RATES)
    def test_settled_cells_pass_the_rule(self, rate):
        # in every settled cell a kappa at its edges and middle, known to
        # _R0 relative, passes the rule's tests on its end
        kappa_max, scale, _ = _end_tables(rate)
        _, tol, _ = outage._rule(rate)
        flags = outage._settled_cells(rate)
        assert 0 < np.count_nonzero(flags) < flags.size
        assert not flags[0] and not flags[_END_TABLE_CELLS]
        for upper in (0, 1):
            cells = np.flatnonzero(flags[upper * _END_TABLE_CELLS:(upper + 1) * _END_TABLE_CELLS])
            places = np.array([1e-9, 0.5, 1.0 - 1e-9])
            t = ((cells[:, None] + places) / scale[upper, 0]).ravel()
            kappa = kappa_max - t * t
            pole = 0.0 if upper or rate > 1.0 else 1.0 / rate - 1.0
            inside = kappa > pole
            kappa, column = kappa[inside], np.repeat(cells, places.size)[inside] + upper * _END_TABLE_CELLS
            read = _end_cells(kappa, rate, _Arena(np.empty(0, np.uint8)))[3][upper]
            assert np.mean(read == column) > 0.99
            kappa = kappa[read == column]
            _, err, slope = (row[upper] for row in _feasible_ends(kappa, kappa * outage._R0, rate))
            assert np.all(err + outage._R0 <= outage._END_WINDOW / 8.0)
            assert np.all(slope * outage._END_WINDOW >= 8.0 * tol)

    @pytest.mark.parametrize("snr_db,trials,seed", [(3.0 + 1.5 * k, 10_000, seed) for seed in (20240, 8191)
                                                    for k in range(5)]
                             + [(3.0 + 0.5 * k, 100_000, 20240) for k in range(13)])
    def test_the_curve_points_need_no_per_trial_rule(self, snr_db, trials, seed, monkeypatch):
        # the benchmark's curve (n_r 8, 2 bits, 3-9 dB, 10,000 trials, at
        # its two seeds) and acceptance criterion 4's (3-9 dB in steps of
        # 0.5, 1e5 trials): the short pass settles every trial of each point
        sizes = spy_per_trial_rule(monkeypatch)
        run_experiment(ExperimentConfig(kind="outage_curve", snr_db=[snr_db], n_r_list=[8], rate_bits=2.0,
                                        trials=trials, seed=seed))
        assert sum(sizes) == 0

    def test_cancelling_trials_are_left_to_the_rule(self):
        # hand-made trials whose rho = V a + Re Y cancels to 2^-44 .. 2^-22
        # of V a, with a kappa a hair past the rule's bound: the rule cannot
        # call the most cancelled ones dead and re-solves them, and the short
        # pass leaves every one to it
        cfg = build_channel_config(150.0, 8)
        a, noise_ratio = lmmse_coefficient(cfg).real, cfg.noise_var / cfg.power
        rate = 2.0 * math.log(2.0)
        kappa_max, _, margin = outage._rule(rate)
        v = 1e30
        y = []
        for shift in (2.0**-44, 2.0**-36, 2.0**-28, 2.0**-22):
            for excess in (1.5e-8, 3e-8, 1e-6, 1e-4):
                y_re = -v * a * (1.0 - shift)
                rho = v * a + y_re
                y.append(complex(y_re, math.sqrt(kappa_max * (1.0 + margin) * (1.0 + excess) * rho * rho
                                                  - v * noise_ratio)))
        counter = OutageCounter(Draw(cfg, np.full(len(y), v), np.array(y)), rate)
        lo, hi, unsure = per_trial_reference(counter)
        assert 0 < unsure.size < len(y)
        assert counter._unsure.tobytes() == unsure.tobytes()
        assert (counter._lo.tobytes(), counter._hi.tobytes()) == (lo.tobytes(), hi.tobytes())

    def test_numbers_beyond_the_range_are_left_to_the_rule(self):
        # a hand-made trial with an infinite Re Y has rho = inf and kappa = 0,
        # whose ends the cells would settle; the rule, whose rounding bound on
        # rho is then inf, re-solves it, and so does the counter
        cfg = build_channel_config(6.0, 8)
        d = draw(cfg, 300, 25)
        y = d.residual.copy()
        y[7] = complex(math.inf, y[7].imag)
        for rate in (0.3, 2.0 * math.log(2.0)):
            counter = OutageCounter(Draw(cfg, d.v_energy, y), rate)
            lo, hi, unsure = per_trial_reference(counter)
            assert 7 in unsure
            assert counter._unsure.tobytes() == unsure.tobytes()
            assert (counter._lo.tobytes(), counter._hi.tobytes()) == (lo.tobytes(), hi.tobytes())
