"""The kept scratch of the b search and the GMI solve: the counter's and
the search's output, pinned bit for bit, and what a search or a solve
allocates and shares between threads.

``optimize_b`` builds its outage counter and sweeps in a buffer that each
thread keeps (``outage._search_scratch``), so a search of 10,000 trials
allocates only the counter's sorted ends and its result, and ``Draw.gmi``
solves there too; every kernel carves the buffer from its start.  The
counter's digests below were taken before the build moved into the
scratch, the re-solved search's before the solve did; any rework of either
must keep every bit.
"""

import cmath
import hashlib
import math
import sys
import threading
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from lsrsim import (Draw, ExperimentConfig, SearchSpec, build_channel_config, draw, lmmse_coefficient, optimize_b,
                    run_experiment)
from lsrsim import outage
from lsrsim.outage import OutageCounter


def complex_pilot(snr_db: float, n_r: int):
    # the pilot turned by 0.15 rad, so that the LMMSE coefficient is complex
    cfg = build_channel_config(snr_db, n_r)
    return replace(cfg, pilot=cfg.pilot * cmath.exp(0.15j))


# sha256 (first 16 hex digits) of the sorted lower ends, the sorted upper
# ends and the re-solved trials, with the number re-solved
@pytest.mark.parametrize("pilot,snr_db,n_r,rate,trials,seed,unsure,digest", [
    (build_channel_config, 6.0, 8, 2.0 * math.log(2.0), 10_000, 20240, 0, "8ae15afb911eabd7"),
    (build_channel_config, 30.0, 8, 1.0, 5_000, 11, 5_000, "26f9a3be3f4466e6"),
    (build_channel_config, 3.0, 4, 0.5, 9_001, 3, 4, "a9850023123ff395"),
    (complex_pilot, 10.0, 1, 0.8, 4_097, 5, 13, "7008c9af89279a20"),
    (build_channel_config, 0.0, 64, math.log(2.0), 20_001, 7, 0, "35d6fe83f5fd0a6a"),
], ids=["curve", "re-solved", "below-1-nat", "complex-pilot", "massive"])
def test_counter_ends_are_pinned_bit_for_bit(pilot, snr_db, n_r, rate, trials, seed, unsure, digest):
    counter = OutageCounter(draw(pilot(snr_db, n_r), trials, seed), rate)
    h = hashlib.sha256()
    for ends, dtype in ((counter._lo, "<f8"), (counter._hi, "<f8"), (np.sort(counter._unsure), "<i8")):
        h.update(np.ascontiguousarray(ends, dtype=dtype).tobytes())
    assert (counter._unsure.size, h.hexdigest()[:16]) == (unsure, digest)


# sha256 (first 16 hex digits) of optimize_b's sweep, b_star, outage and
# at_a and of d.gmi(b_star) after the search, at 30 dB, n_r 8 and 1 nat,
# where the counter re-solves every trial (all but one at 30,000) at every
# b in the scratch.  At 30,000 trials a solve does not fit one block of
# the scratch
@pytest.mark.parametrize("trials,digest", [
    (5_000, "8b7e1d3e41e90d21"),
    (30_000, "7294be359136bb5c"),
], ids=["in-scratch", "beyond-scratch"])
def test_re_solved_search_is_pinned_bit_for_bit(trials, digest):
    d = draw(build_channel_config(30.0, 8), trials, 11)
    opt = optimize_b(d, 1.0)
    h = hashlib.sha256()
    for x in (*opt.sweep, np.array([opt.b_star]), d.gmi(opt.b_star)):
        h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    h.update(repr((astuple(opt.outage), astuple(opt.at_a))).encode())
    assert h.hexdigest()[:16] == digest


def test_outages_reads_a_complex_b_whole():
    # Draw.outage reads any complex b, and the counter gives its failures
    cfg = complex_pilot(5.0, 4)
    d = draw(cfg, 500, 17)
    a = lmmse_coefficient(cfg)
    b_values = [a, 0.9 * abs(a) + 1e-3j, abs(a), -abs(a)]
    assert OutageCounter(d, 0.5).outages(b_values) == [d.outage(b, 0.5) for b in b_values]


class TestKeptScratch:
    """The search builds its counter and sweeps in each thread's kept
    scratch, so a search allocates little beyond its results."""

    def test_search_allocates_only_its_ends_and_results(self):
        cfg = build_channel_config(6.0, 8)
        rate = 2.0 * math.log(2.0)
        optimize_b(draw(cfg, 10_000, 1), rate)  # the end table and the scratch
        d = draw(cfg, 10_000, 2)
        tracemalloc.start()
        try:
            opt = optimize_b(d, rate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the counter's sorted ends, 16 bytes a trial, the sweep's two
        # arrays, and 16 kB of small arrays and objects
        assert peak <= sum(x.nbytes for x in opt.sweep) + 16 * d.v_energy.size + 16_000
        assert outage._KEPT.buf.nbytes == outage._SCRATCH_BYTES <= 1.5 * 2**20

    def test_re_solved_search_solves_in_the_room_left(self):
        # at 30 dB, n_r 8 and 1 nat every trial is re-solved, and the
        # bisection's solves of 40,000 trials take blocks that fit the
        # scratch rather than allocating a 1.28 MB block each time (4.26 MB
        # when they did); the counter's 20,000 sorted ends take 320 kB
        d = draw(build_channel_config(30.0, 8), 20_000, 11)
        for _ in range(2):
            optimize_b(d, 1.0)
        tracemalloc.start()
        try:
            optimize_b(d, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.3e6 + 16 * d.v_energy.size

    def test_kept_scratch_does_not_grow(self):
        # a search too large for the scratch allocates its own arrays and
        # keeps none of them
        cfg = build_channel_config(6.0, 8)
        d = draw(cfg, 60_000, 3)
        optimize_b(d, 1.0)
        buf = outage._KEPT.buf
        opt = optimize_b(d, 2.0 * math.log(2.0))
        assert outage._KEPT.buf is buf and buf.nbytes == outage._SCRATCH_BYTES
        assert opt.outage == d.outage(opt.b_star, 2.0 * math.log(2.0))

    def test_threads_search_in_their_own_scratch(self):
        # searches in more threads than cores, switching often, give each
        # draw's result bit for bit, and each thread keeps its own scratch
        cfg = build_channel_config(5.0, 8)
        draws = [draw(cfg, 9_000 + 500 * k, k) for k in range(6)]
        rate = 2.0 * math.log(2.0)
        expected = [optimize_b(d, rate) for d in draws]
        results, buffers = {}, {}

        def search(k):
            for _ in range(3):
                results[k] = optimize_b(draws[k], rate)
            buffers[k] = outage._KEPT.buf

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=search, args=(k,)) for k in range(len(draws))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for k, want in enumerate(expected):
            got = results[k]
            assert got.b_star == want.b_star and got.outage == want.outage
            assert all(np.array_equal(x, y) for x, y in zip(got.sweep, want.sweep))
        assert len({id(b) for b in buffers.values()}) == len(draws)

    def test_threads_read_one_draw_at_once(self):
        # Draw.gmi solves in the calling thread's scratch, so threads read
        # one draw at once, each getting the sequential result bit for bit;
        # 20,000 trials take two blocks
        cfg = build_channel_config(5.0, 8)
        d = draw(cfg, 20_000, 4)
        a = lmmse_coefficient(cfg)
        b_values = [a * (0.6 + 0.1 * k) for k in range(6)]
        expected = [d.gmi(b) for b in b_values]
        results = {}

        def read(k):
            for _ in range(3):
                results[k] = d.gmi(b_values[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(len(b_values))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for k, want in enumerate(expected):
            assert results[k].tobytes() == want.tobytes()

    def test_first_gmi_of_a_draw_allocates_only_its_result(self):
        # the solve's temporaries are views of the kept scratch, so a fresh
        # draw's first call allocates its 80 kB result and small objects
        cfg = build_channel_config(6.0, 8)
        draw(cfg, 10_000, 1).gmi(1.0)  # the scratch
        d = draw(cfg, 10_000, 2)
        tracemalloc.start()
        try:
            gmi = d.gmi(0.9 * lmmse_coefficient(cfg))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= gmi.nbytes + 16_000

    @pytest.mark.parametrize("rate", [1.0, 2.0 * math.log(2.0)])
    def test_counter_ends_survive_later_use_of_the_scratch(self, rate):
        # a b <= 0, a complex b and a b at an end are read whole, solved in
        # the scratch from its start, as are a solve and a search of
        # another draw in the same thread between reads; none moves the
        # counter's ends
        cfg = complex_pilot(6.0, 8)
        d, other = draw(cfg, 10_000, 5), draw(cfg, 10_000, 6)
        a = lmmse_coefficient(cfg)
        counter = OutageCounter(d, rate)
        lo, hi = counter._lo.copy(), counter._hi.copy()
        ends = [e for e in lo if 0.0 < e < math.inf][::500]
        b_values = [0.0, -abs(a), a, *ends, abs(a)]
        expected = [d.outage(b, rate) for b in b_values]
        for _ in range(2):
            assert counter.outages(b_values) == expected
            assert counter._lo.tobytes() == lo.tobytes() and counter._hi.tobytes() == hi.tobytes()
            d.gmi(0.9 * a)
            optimize_b(other, rate)
        # a domain wholly below b_min is read whole, and a, outside it, after
        opt = optimize_b(d, rate, SearchSpec(0.0, 1e-160))
        assert opt.at_a == d.outage(abs(a), rate) and opt.outage == d.outage(opt.b_star, rate)


class TestBenchmarkTraffic:
    """The blocks that the benchmark's two workloads run in the scratch,
    pinned: a change to the block rule that split them would add numpy
    calls to every point."""

    @pytest.mark.parametrize("seed", [20240, 8191])
    def test_each_curve_point_runs_one_short_pass(self, seed, monkeypatch):
        # curve_n8: n_r 8, 2 bits, 3-9 dB, 10,000 trials a point; the
        # short pass holds each point's draw in one block
        sizes, short = [], OutageCounter._short

        def spy(self, v, *args):
            sizes.append(v.size)
            return short(self, v, *args)

        monkeypatch.setattr(OutageCounter, "_short", spy)
        run_experiment(ExperimentConfig(kind="outage_curve", snr_db=[3.0, 4.5, 6.0, 7.5, 9.0], n_r_list=[8],
                                        rate_bits=2.0, trials=10_000, seed=seed))
        assert sizes == [10_000] * 5

    @pytest.mark.parametrize("seed", [20240, 8191])
    def test_each_scan_solve_runs_in_one_block(self, seed, monkeypatch):
        # scan_massive: 0 dB, n_r 128-1024, 1 bit, 5,000 trials, b_scale 2
        solves, blocks = [], []
        solve, solve_theta = Draw._solve, outage._solve_theta

        def spy_solve(self, b, v, *args):
            solves.append(v.size)
            return solve(self, b, v, *args)

        def spy_block(c, *args):
            blocks.append(c.size)
            return solve_theta(c, *args)

        monkeypatch.setattr(Draw, "_solve", spy_solve)
        monkeypatch.setattr(outage, "_solve_theta", spy_block)
        run_experiment(ExperimentConfig(kind="asymptotic_scan", snr_db=[0.0], n_r_list=[128, 256, 512, 1024],
                                        rate_bits=1.0, trials=5_000, seed=seed, b_scale=2.0))
        assert len(solves) >= 8 and blocks == solves == [5_000] * len(solves)
