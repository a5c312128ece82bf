"""Monte Carlo draws of per-trial statistics; outage and GMI histograms.

With ``a`` the LMMSE coefficient, the GMI of any coefficient ``b`` reads a
trial's realization ``(s, v)`` only through ``V = ||v||^2`` and
``Y = (s - a v)^H v``, so that ``s^H v = conj(a) V + Y``: through
``c = |b|^2 V``, ``r = Re(b conj(a)) V + Re(b Y)`` and
``d = |b|^2 |(conj(b) - conj(a)) V - Y|^2`` (see :mod:`lsrsim.gmi`), none of
which is formed as a difference of nearly equal numbers.  The LMMSE error
``s - a v`` is independent of ``v``, so :func:`draw` samples the pair from
its law, two variates per trial whatever ``n_r``, with ``sigma_v^2`` and
``sigma_e^2`` from :func:`~lsrsim.channel.gram_variances`::

    V = sigma_v^2 G                         G ~ Gamma(n_r, 1)
    Re Y = t z1,  Im Y = t z2,  t = sqrt((sigma_e^2 / 2) V),  z1, z2 ~ N(0, 1)

Stream contract, version 2: trials come in chunks of ``CHUNK_TRIALS = C``
(4096).  Chunk ``k`` reads substream ``(seed, k)`` of :mod:`lsrsim.streams`:
first ``standard_gamma(n_r, size=C)``, then ``standard_normal(2 C)``.  Trial
``i`` is row ``j = i % C`` of chunk ``i // C``: ``G = gamma[j]``,
``z1 = normals[j]`` and ``z2 = normals[C + j]``, so the ``n`` trials of a
chunk read its ``C`` gammas and its first ``C + n`` normals.  A chunk of
``n < C`` trials draws all ``C`` gammas, whose rejection sampler sets where
the normals start, and only those ``C + n`` normals, the first ``C + n`` of
``2 C``.  So trial ``i`` depends only on ``(config, seed, i)``, not on the
trial count or the other configs drawn.  ``G``, ``z1`` and ``z2`` depend
only on ``(seed, n_r, i)``, so every SNR point of one antenna count reads
the same standardized variates, and every ``b`` is read from one
:class:`Draw`: receivers and coefficients are compared on common random
numbers.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (ChannelConfig, ConfigError, _check, _check_bins, _check_integer, _check_real, _check_trials,
                      gram_variances, lmmse_coefficient)
from .gmi import _EPS, _Arena, _feasible_ends, _solve_theta
from .streams import CHUNK_TRIALS, BlockSampler

__all__ = [
    "Draw",
    "OutageCounter",
    "OutageEstimate",
    "GmiHistogram",
    "wilson_interval",
    "draw",
    "gmi_samples_multi_b",
    "estimate_outage",
    "gmi_histogram",
]

# two-sided 95% normal quantile, Phi^{-1}(0.975)
_Z95 = 1.959963984540054

@dataclass
class OutageEstimate:
    """Binomial outage estimate with a Wilson 95% confidence interval."""

    p_hat: float
    trials: int
    failures: int
    ci95_low: float
    ci95_high: float


@dataclass
class GmiHistogram:
    """Equal-width histogram of per-trial GMI values plus sample moments."""

    edges: np.ndarray  # ascending bin edges in nats, length bins + 1
    counts: np.ndarray  # per-bin trial counts, length bins
    mean: float
    variance: float


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion.

    Valid down to zero observed failures, unlike the Wald interval.  Both
    counts must be integers below ``2**64`` (``np.integer`` included, a bool
    or a float refused), ``trials`` positive and ``failures`` at most
    ``trials``.
    """
    trials = _check_integer("trials", trials, low=1)
    failures = _check_integer("failures", failures)
    _check(failures <= trials, "failures", f"must be in [0, trials], got {failures}")
    n = float(trials)
    p = failures / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # the exact interval always brackets p; keep that true under roundoff
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def _check_rate(rate_nats: float) -> None:
    _check_real("rate_nats", rate_nats, 0)


def _check_coefficient(b) -> complex:
    """``b`` as a finite complex number; a str or a bool, which ``complex``
    would read as a number, is refused."""
    try:
        value = cmath.nan if isinstance(b, (str, bool, np.bool_)) else complex(b)
    except (TypeError, ValueError):
        value = cmath.nan
    _check(cmath.isfinite(value), "b", f"must be finite and a number, not a str or bool, got {b!r}")
    return value


@dataclass(frozen=True, eq=False)
class Draw:
    """Per-trial statistics of trials ``0..trials-1`` of one run.

    Entry ``i`` of each array is trial ``i`` of the module's stream
    contract: ``v_energy = V = ||v||^2`` and ``residual = Y = (s - a v)^H v``
    with ``a = lmmse_coefficient(config)``.  Built by :func:`draw`.
    """

    config: ChannelConfig
    v_energy: np.ndarray
    residual: np.ndarray  # complex

    def gmi(self, b: complex) -> np.ndarray:
        """Per-trial GMI (nats) of the decoder scaled by ``b``; shape ``(trials,)``.

        The trials are solved in blocks of at most ``_GMI_BLOCK``, whose
        temporaries, 114 bytes a trial of a block, are views of the calling
        thread's kept scratch (``_search_scratch``, the one the ``b``
        search carves), so a call allocates only its result.  The
        counter's solves, behind its ends, take smaller blocks that fit the
        room left.  Threads, one draw's included, each solve in their own
        scratch.  The block size never changes a result.
        """
        return self._solve(_check_coefficient(b), self.v_energy, self.residual, _search_scratch())

    def _solve(self, b: complex | np.ndarray, v_energy: np.ndarray, residual: np.ndarray,
               arena: _Arena) -> np.ndarray:
        """:meth:`gmi` of the trials ``(v_energy, residual)``, any subset of
        this draw's, each bit-identical to its value in ``gmi(b)``.  ``b`` may
        also hold one real coefficient per trial: the same operations with
        ``Im b = 0``, whose terms drop out exactly, give trial ``i`` the bits
        of ``gmi(b[i])``.  The temporaries of a block are carved from
        ``arena`` once, and every block reuses them."""
        a = lmmse_coefficient(self.config)
        per_trial = isinstance(b, np.ndarray)
        power, noise_var = self.config.power, self.config.noise_var
        trials = v_energy.size
        gmi = np.zeros(trials)
        # a block that fits what the arena has left, each of the three views
        # aligned to 64 bytes, but no smaller than _GMI_FLOOR
        room = (arena.buf.nbytes - arena.used - 3 * 64) // _GMI_BYTES
        m = min(max(trials, 1), _GMI_BLOCK, max(room, _GMI_FLOOR))
        # z forms Re(b Y); rows 0-2 hold c, r and d and rows 3-11 are
        # _solve_theta's scratch, where rows 3 and 4 first hold Re and Im of
        # e = (conj(b) - conj(a)) V - Y and row 11 (Im e)^2
        z, rows, flags = arena.take(m, dtype=np.complex128), arena.take(12, m), arena.take(2, m, dtype=np.bool_)
        for lo in range(0, trials, m):
            hi = min(lo + m, trials)
            if hi - lo < m:
                z, rows, flags = z[: hi - lo], rows[:, : hi - lo], flags[:, : hi - lo]
            c, r, d, e_re, e_im = rows[:5]
            v, y = v_energy[lo:hi], residual[lo:hi]
            bk = b[lo:hi] if per_trial else b
            br, bi = (bk, 0.0) if per_trial else (b.real, b.imag)
            # a large b overflows d and c to inf, and the GMI reads 0
            with np.errstate(over="ignore", invalid="ignore"):
                b_abs2 = br * br + bi * bi
                # r = Re(b conj(a)) V + Re(b Y)
                np.multiply(br * a.real + bi * a.imag, v, out=r)
                np.add(r, np.multiply(bk, y, out=z).real, out=r)
                # d = |b|^2 |e|^2
                np.subtract(np.multiply(br - a.real, v, out=e_re), y.real, out=e_re)
                np.subtract(np.multiply(a.imag - bi, v, out=e_im), y.imag, out=e_im)
                np.multiply(e_re, e_re, out=d)
                np.add(d, np.multiply(e_im, e_im, out=rows[11]), out=d)
                np.multiply(b_abs2, d, out=d)
                np.multiply(b_abs2, v, out=c)
            _, val, attained = _solve_theta(c, r, d, power, noise_var, rows[3:], flags)
            np.copyto(gmi[lo:hi], val, where=attained)
        return gmi

    def outage(self, b: complex, rate_nats: float) -> OutageEstimate:
        """Monte Carlo outage probability ``p(GMI(b) < rate_nats)``.

        The outage event uses a strict inequality, so a zero rate can never
        count an outage (the GMI is nonnegative).
        """
        _check_rate(rate_nats)
        gmi = self.gmi(b)
        return _estimate(int(np.count_nonzero(gmi < rate_nats)), gmi.size)


def _estimate(failures: int, trials: int) -> OutageEstimate:
    low, high = wilson_interval(failures, trials)
    return OutageEstimate(
        p_hat=failures / trials,
        trials=trials,
        failures=failures,
        ci95_low=low,
        ci95_high=high,
    )


# relative half-width, in b, of the window around each end of a trial's
# feasible interval inside which the counter does not trust the end
_END_WINDOW = 1e-8
# absolute GMI margin, in units of (rate + 2) nats, that a certified trial
# keeps from the rate outside those windows; Draw.gmi's own error where the
# GMI crosses the rate stays below 1e-15 in the same units (tests/test_counter.py)
_GMI_MARGIN = 1e-12
# largest first-order relative error of a trial's kappa (from cancellation
# in Re and Im of s^H v) for which the counter certifies its ends
_KAPPA_ERROR = 1e-13
# most trials per block of the counter's build.  A block's temporaries take
# 207 bytes a trial of it, all carved from the kept scratch, so the block
# size is set by the scratch: smaller blocks pay numpy's per-call overhead,
# about 0.1 ms a block, more often.  At 10,000 trials (5 SNR points, n_r 8,
# 2 bits, interleaved medians on a 2-core x86-64 VM) a build took 2.30 ms in
# blocks of 1,024, 1.58 ms in blocks of 2,048, 1.34 ms in 3 blocks (at most
# 4,096), 1.22 ms in 2 blocks (at most 6,144) and 1.13 ms in one block
_COUNT_BLOCK = 6144
# bytes of each thread's kept scratch, 1.5 MiB: a block's 207 bytes a
# trial and room for the ends.  optimize_b carves from it its counter's
# sorted ends, 16 bytes a trial, then the build's temporaries, and after the
# build the sweep's arrays, 25 bytes an end, and the counter's solves; so a
# search of up to about 20,000 trials allocates only its results, and a
# larger one allocates what does not fit.  Draw.gmi solves in it too
_SCRATCH_BYTES = 256 * _COUNT_BLOCK
# most trials per block of Draw.gmi's solve, whose temporaries take 114 bytes
# a trial of a block: one block, 1.45 MiB, fits the scratch.  On a 2-core
# x86-64 VM (medians of 60 calls in each of 4 processes, interleaved with
# the 32,768-trial blocks of the earlier per-draw workspace) 1e5 trials at
# n_r 8 took 31.2-32.5 ns a trial (31.5-36.9 ns before) and 5,000 trials at
# n_r 128, one block, 43.7-46.2 ns (42.6-53.5 ns)
_GMI_BLOCK = 13_312
# bytes of the solve's temporaries a trial of a block, and the fewest trials
# a block holds.  A solve behind a counter's ends in the scratch (16 bytes a
# trial) takes a block that fits the room they leave, 11,000 trials behind
# 20,000 ends, and allocates its block only behind more than about 91,000
_GMI_BYTES = 114
_GMI_FLOOR = 1024
_KEPT = threading.local()


def _search_scratch() -> _Arena:
    """An arena over this thread's kept scratch, allocated on its first use
    and kept for the thread's life, that carves after the bytes
    :func:`_holding` holds.  Its views are valid until the scratch is carved
    again in the same thread."""
    buf = getattr(_KEPT, "buf", None)
    if buf is None:
        buf = _KEPT.buf = np.empty(_SCRATCH_BYTES, np.uint8)
    return _Arena(buf, getattr(_KEPT, "held", 0))


@contextlib.contextmanager
def _holding(end: int):
    """Hold the first ``end`` bytes of this thread's kept scratch: inside,
    every arena of :func:`_search_scratch`, ``Draw.gmi``'s included,
    carves after them."""
    held = getattr(_KEPT, "held", 0)
    _KEPT.held = max(held, end)
    try:
        yield
    finally:
        _KEPT.held = held


# smallest b^2 min(V) the counter reads from its ends; below it c = b^2 V
# nears underflow and Draw.gmi no longer reads the small-b limit
_TINY_C = 1e-290


class OutageCounter:
    """Outage of one draw at one rate for any real ``b``, counted from each
    trial's feasible interval in ``b``.

    Every estimate equals ``d.outage(b, rate_nats)``, failure for failure.
    A trial's set ``{b > 0 : GMI(b) >= rate}`` is one interval
    ``[lo, hi]`` (see :mod:`lsrsim.gmi`), so the feasible trials at ``b``
    number ``#{lo <= b} - #{hi < b}``: two binary searches on the sorted
    ends.  The ends are built once from each trial's ``rho = Re(s^H v)``
    and ``kappa``, read from the per-rate table of ``gmi._end_tables`` and
    kept for the trials that pass the tests on ``rho`` and ``kappa`` below.
    The build runs in the fewest evenly sized blocks of at most
    ``_COUNT_BLOCK`` trials, whose temporaries, 207 bytes a trial of a
    block (1.27 MB at most), are views of a scratch of ``_SCRATCH_BYTES``
    (1.5 MiB) that each thread allocates once and keeps; so a build
    allocates only the counter's own 16 bytes per trial, the sorted ends.
    Every solve the counter runs takes its temporaries from the same
    scratch, after the counter's ends when they are views of it.  Counters
    may be built and read in several threads at once, each in its own
    thread's scratch.

    A trial's ends are certified when they are known to within a relative
    ``_END_WINDOW / 8`` and its GMI stays ``_GMI_MARGIN (rate + 2)`` nats
    away from the rate outside a window of ``_END_WINDOW`` around each end.
    A trial that cannot be certified is re-solved by ``Draw.gmi``'s own
    solve at every ``b``: a peak GMI within a small margin of the rate, an
    end where the GMI is nearly flat in ``b`` or that the table's error
    bound cannot place that closely (a ``kappa`` a hair below the peak's,
    whose ``t`` is too small to carry its error, or an end near the lower
    branch's pole), or Gram numbers whose ``s^H v`` cancels.  A ``b`` with
    any end within ``2 _END_WINDOW`` of it, a ``b <= 0`` and a ``b`` below
    ``b_min``, where ``b^2 V`` nears underflow, are read by ``d.outage``
    whole.
    """

    def __init__(self, d: Draw, rate_nats: float):
        trials = d.v_energy.size
        self._build(d, rate_nats, np.empty(trials), np.empty(trials), _search_scratch())

    @classmethod
    def _in_scratch(cls, d: Draw, rate_nats: float, arena: _Arena) -> OutageCounter:
        """A counter whose sorted ends are views carved from ``arena``, in
        front of the build's own temporaries and of every later solve of
        the counter: valid until anything else carves the arena's buffer
        again.  :func:`~lsrsim.shrinkage.optimize_b` builds its counter so,
        from the thread's kept scratch."""
        counter = cls.__new__(cls)
        trials = d.v_energy.size
        counter._build(d, rate_nats, arena.take(trials), arena.take(trials), arena)
        return counter

    def _build(self, d: Draw, rate_nats: float, lo: np.ndarray, hi: np.ndarray, arena: _Arena) -> None:
        _check_rate(rate_nats)
        self.draw, self.rate = d, float(rate_nats)
        trials = d.v_energy.size
        # where the ends stop in the scratch, 0 for ends of their own: the
        # counter's solves, d.outage's among them, carve after them
        self._lo, self._hi, self._end = lo, hi, arena.used
        lo.fill(0.0 if self.rate == 0.0 else np.inf)  # a GMI is never below 0
        hi.fill(np.inf)
        unsure = [np.zeros(0, dtype=np.intp)]
        if self.rate > 0.0:
            # the fewest blocks of at most _COUNT_BLOCK trials, evenly sized;
            # an uncertified trial keeps ends of inf, which sort last.  Each
            # block's temporaries are carved afresh after what the arena holds
            blocks = -(-trials // _COUNT_BLOCK)
            bounds = [trials * k // blocks for k in range(blocks + 1)]
            for start, stop in zip(bounds, bounds[1:]):
                unsure.append(self._ends(start, stop, _Arena(arena.buf, arena.used)) + start)
        self._unsure = np.concatenate(unsure)
        lo.sort()
        hi.sort()
        v_min = float(d.v_energy.min())
        # the smallest b counted from the ends
        self.b_min = math.sqrt(_TINY_C / v_min) if v_min > 0.0 else math.inf

    def _ends(self, start: int, stop: int, arena: _Arena) -> np.ndarray:
        """Write the ends of the certified trials among ``start..stop-1``
        into the same entries of ``_lo`` and ``_hi``, and return the offsets
        from ``start`` of the trials left to re-solve.  Every temporary is
        carved from ``arena``."""
        d, rate = self.draw, self.rate
        a = lmmse_coefficient(d.config)
        n = stop - start
        v, y = d.v_energy[start:stop], d.residual[start:stop]
        rho, im, rho_err, im_err, noise, kappa, rel, k_err, w1, w2 = (arena.take(n) for _ in range(10))
        certified, ok, dead = (arena.take(n, dtype=np.bool_) for _ in range(3))
        sure, sure_hi = (arena.take(2, n, dtype=np.bool_) for _ in range(2))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # s^H v = conj(a) V + Y = rho + i im, each with a rounding bound
            np.add(np.multiply(v, a.real, out=rho), y.real, out=rho)
            np.subtract(y.imag, np.multiply(v, a.imag, out=im), out=im)
            for bound, part, coef in ((rho_err, y.real, a.real), (im_err, y.imag, a.imag)):
                np.add(np.multiply(v, abs(coef), out=bound), np.abs(part, out=w1), out=bound)
                np.multiply(bound, 4.0 * _EPS, out=bound)
            np.multiply(v, d.config.noise_var / d.config.power, out=noise)
            num = np.add(np.multiply(im, im, out=w1), noise, out=w1)
            np.divide(num, np.multiply(rho, rho, out=kappa), out=kappa)
            np.divide(np.multiply(rho_err, 2.0, out=rel), np.abs(rho, out=w2), out=rel)
            np.multiply(np.multiply(np.abs(im, out=w2), 2.0, out=w2), im_err, out=w2)
            np.add(np.add(rel, np.divide(w2, num, out=w2), out=rel), 8.0 * _EPS, out=rel)

            # a peak GMI log1p(1 / kappa) a margin below the rate, or rho < 0
            # (a GMI of 0), is an outage at every b; one a margin above it
            # has an interval with two ends
            kappa_max = 1.0 / math.expm1(rate)
            tol = _GMI_MARGIN * (rate + 2.0)
            margin = 1e-7 + 4.0 * tol * (1.0 + kappa_max)
            np.greater(rho, 0.0, out=certified)
            np.logical_and(certified, np.less_equal(rel, _KAPPA_ERROR, out=ok), out=certified)
            np.multiply(kappa, np.add(rel, 1.0, out=w1), out=w1)
            np.logical_and(certified, np.less(w1, kappa_max * (1.0 - margin), out=ok), out=certified)

            # every trial's ends are read, the few uncertified ones' unused:
            # cheaper than gathering the rest
            np.multiply(kappa, rel, out=k_err)
            p, err, slope = _feasible_ends(kappa, k_err, rate, arena)
            np.less_equal(np.add(err, rel, out=err), _END_WINDOW / 8.0, out=sure)
            np.greater_equal(np.multiply(slope, _END_WINDOW, out=slope), 8.0 * tol, out=sure_hi)
            np.logical_and(sure, sure_hi, out=sure)
            # for kappa <= 1/rate - 1 the interval reaches b -> 0+, where the
            # GMI tends to 1 / (1 + kappa); above 1 nat no kappa >= 0 does
            if 1.0 / rate - 1.0 >= 0.0:
                to_zero = np.less_equal(kappa, 1.0 / rate - 1.0, out=ok)
                np.copyto(p[0], 0.0, where=to_zero)
                np.multiply(np.add(np.add(kappa, 1.0, out=w1), k_err, out=w1), rate + 2.0 * tol, out=w1)
                np.copyto(sure[0], np.less_equal(w1, 1.0, out=dead), where=to_zero)
            np.logical_and(certified, np.logical_and(sure[0], sure[1], out=ok), out=certified)
            # b = (rho / V) p, with rho / V the peak
            np.multiply(p, np.divide(rho, v, out=w1), out=p)
            np.copyto(self._lo[start:stop], p[0], where=certified)
            np.copyto(self._hi[start:stop], p[1], where=certified)

            # the rest are re-solved, but for the dead: rho < 0 beyond its
            # rounding, or kappa at its least a margin past the peak's
            rest = np.flatnonzero(np.logical_not(certified, out=ok))
            m = rest.size
            if not m:
                return rest
            rho, rho_err, im, im_err, noise = (
                np.take(x, rest, mode="clip", out=w[:m])
                for x, w in ((rho, kappa), (rho_err, rel), (im, k_err), (im_err, w1), (noise, w2)))
            low = np.maximum(np.subtract(np.abs(im, out=im), im_err, out=im), 0.0, out=im)
            np.add(np.multiply(low, low, out=low), noise, out=low)
            dead = np.less(rho, np.negative(rho_err, out=im_err), out=dead[:m])
            np.logical_and(dead, rate > tol, out=dead)
            high = np.add(np.abs(rho, out=rho), rho_err, out=rho)
            np.divide(low, np.multiply(high, high, out=high), out=low)
            np.logical_or(dead, np.greater(low, kappa_max * (1.0 + margin), out=ok[:m]), out=dead)
        return rest[np.logical_not(dead, out=dead)]

    def outages(self, b_values: Sequence[float]) -> list[OutageEstimate]:
        """``[d.outage(b, rate_nats) for b in b_values]``, counted.  Each
        ``b`` is checked as ``d.outage`` checks it, and a ``b`` with an
        imaginary part is read by ``d.outage`` whole."""
        values = [_check_coefficient(x) for x in b_values]
        b = np.array([x.real for x in values])
        lo, hi = self._lo, self._hi
        w_lo, w_hi = b * (1.0 - 2.0 * _END_WINDOW), b * (1.0 + 2.0 * _END_WINDOW)
        counted = np.array([x.imag == 0.0 for x in values], dtype=bool) & (b > 0.0) & (b >= self.b_min)
        # #{ends <= x} (side "right") and #{ends < x} (side "left"), as lists
        searches = ((lo, b, "right"), (hi, b, "left"),
                    (lo, w_hi, "right"), (lo, w_lo, "left"), (hi, w_hi, "right"), (hi, w_lo, "left"))
        lo_le, hi_lt, lo_le_w, lo_lt_w, hi_le_w, hi_lt_w = (
            np.searchsorted(ends, x, side).tolist() for ends, x, side in searches)
        trials = lo.size
        d, redo = self.draw, self._unsure
        estimates = []
        with _holding(self._end):
            for i, bi in enumerate(b.tolist()):
                near = lo_le_w[i] != lo_lt_w[i] or hi_le_w[i] != hi_lt_w[i]
                if near or not counted[i]:
                    estimates.append(d.outage(values[i], self.rate))
                    continue
                failures = trials - (lo_le[i] - hi_lt[i])
                if redo.size:
                    gmi = d._solve(complex(bi), d.v_energy[redo], d.residual[redo], _search_scratch())
                    failures -= int(np.count_nonzero(gmi >= self.rate))
                estimates.append(_estimate(failures, trials))
        return estimates

    def intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Every trial's feasible interval ``[lo, hi]`` in ``b >= b_min``: the
        sorted lower ends and the sorted upper ends, ``inf`` for a trial
        feasible at no such ``b`` and a lower end 0 for one feasible down to
        ``b_min``.  The trials the counter re-solves are bisected in
        ``log b`` by ``Draw.gmi``'s own solve, from their peak ``b = rho / V``
        down to ``b_min`` and as far up, all at once, to ``2**-40`` relative.
        """
        d, rate, b_min, n = self.draw, self.rate, self.b_min, self._unsure.size
        if not n:
            return self._lo, self._hi
        v, y = np.tile(d.v_energy[self._unsure], 2), np.tile(d.residual[self._unsure], 2)
        peak = np.maximum((lmmse_coefficient(d.config).real * v[:n] + y[:n].real) / v[:n], b_min)
        with _holding(self._end):
            # a trial infeasible at its peak is feasible at no b
            ok = d._solve(np.r_[peak, np.full(n, b_min)], v, y, _search_scratch()) >= rate
            alive, down = ok[:n] & (peak > b_min), ok[n:]
            inside, outside = np.r_[peak, peak], np.r_[np.full(n, b_min), peak * (peak / b_min)]
            for _ in range(math.ceil(math.log2(max(math.log(peak.max() / b_min), 1.0))) + 40):
                mid = np.sqrt(inside) * np.sqrt(outside)
                ok = d._solve(mid, v, y, _search_scratch()) >= rate
                np.copyto(inside, mid, where=ok)
                np.copyto(outside, mid, where=~ok)
        lo = np.where(alive, np.where(down, 0.0, inside[:n]), np.inf)
        hi = np.where(alive, inside[n:], np.inf)
        # the re-solved trials' inf ends are the last sorted; a stable sort
        # merges two sorted runs
        keep = self._lo.size - n
        return (np.sort(np.r_[self._lo[:keep], lo], kind="stable"),
                np.sort(np.r_[self._hi[:keep], hi], kind="stable"))


def _sample(n_r: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The first stage of :func:`draw`: the standardized variates ``G`` and
    ``z1 + i z2`` of trials ``0..trials-1``, which depend on ``(seed, n_r)``
    alone, filled one chunk at a time by the contract: ``Generator`` draws
    normals in sequence, so a chunk's first ``C + n`` normals are those of
    ``2 C``."""
    gamma, normals = np.empty(trials), np.empty(trials, dtype=np.complex128)
    stream = BlockSampler(seed).stream
    for k, lo in enumerate(range(0, trials, CHUNK_TRIALS)):
        rng = stream(k)
        n = min(CHUNK_TRIALS, trials - lo)
        if n == CHUNK_TRIALS:
            rng.standard_gamma(n_r, out=gamma[lo : lo + n])
        else:
            gamma[lo:] = rng.standard_gamma(n_r, size=CHUNK_TRIALS)[:n]
        z = rng.standard_normal(CHUNK_TRIALS + n)
        normals.real[lo : lo + n] = z[:n]
        normals.imag[lo : lo + n] = z[CHUNK_TRIALS:]
    return gamma, normals


def _scale(config: ChannelConfig, gamma: np.ndarray, normals: np.ndarray, out: tuple[np.ndarray, np.ndarray]) -> Draw:
    """The second stage of :func:`draw`: the draw of ``config`` from the
    variates of :func:`_sample` for its ``n_r``, written into the arrays
    ``out = (v, y)`` and kept as the draw's.  It scales one chunk at a time,
    so that the temporaries stay one chunk's, and ``out`` may be the
    variates themselves, which it then overwrites."""
    pilot_var, error_var = gram_variances(config)
    half_error_var = error_var / 2.0
    v, y = out
    for lo in range(0, gamma.size, CHUNK_TRIALS):
        rows = slice(lo, lo + CHUNK_TRIALS)
        t = np.sqrt(half_error_var * np.multiply(pilot_var, gamma[rows], out=v[rows]))
        np.multiply(t, normals.real[rows], out=y.real[rows])
        np.multiply(t, normals.imag[rows], out=y.imag[rows])
    return Draw(config, v, y)


def draw(config: ChannelConfig, trials: int, seed: int) -> Draw:
    """Draw trials ``0..trials-1`` of ``(config, seed)``, each as its ``(V, Y)``.

    Two stages: it samples the standardized variates ``G`` and
    ``z1 + i z2``, which depend on ``(seed, n_r)`` alone, into the result's
    arrays, then scales them to ``config`` in place.  The SNR points of one
    antenna count can so share the first stage, as
    :func:`~lsrsim.experiments.run_experiment` does, and each still gets
    this draw bit for bit.

    The result takes 24 bytes per trial, and the sampling about 0.15 MB
    (one chunk's variates and their temporaries, tracemalloc) whatever
    ``trials`` and ``n_r``; a chunk of ``n`` trials draws all ``C`` of its
    gammas but only the ``C + n`` normals its trials read.  Its first ``T``
    trials are those of ``draw(config, T, seed)``.  ``trials`` and ``seed`` are refused with
    a :class:`~lsrsim.channel.ConfigError` naming them unless they are
    integers below ``2**64`` (``np.integer`` included), ``trials`` positive
    and at most ``channel._MAX_TRIALS``, whose arrays numpy can describe.
    """
    trials = _check_trials("trials", trials)
    seed = _check_integer("seed", seed)
    variates = _sample(config.n_r, trials, seed)
    return _scale(config, *variates, out=variates)


def gmi_samples_multi_b(
    config: ChannelConfig,
    b_values: Sequence[complex],
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Per-trial GMI values for several coefficients on one draw.

    Returns an array of shape ``(len(b_values), trials)``; row ``k`` is
    ``draw(config, trials, seed).gmi(b_values[k])``.  ``workers`` must be
    a positive integer below ``2**64``, as for ``draw``'s counts, and is
    otherwise ignored: sampling runs on one thread.  It stays only because
    ``perfbench/probes.py`` passes it, and goes when the benchmark is
    rewritten (ROADMAP item 1).
    """
    _check_integer("workers", workers, low=1)
    _check(len(b_values) > 0, "b_values", "must be nonempty")
    d = draw(config, trials, seed)
    return np.stack([d.gmi(b) for b in b_values])


def estimate_outage(
    config: ChannelConfig, b: complex, rate_nats: float, trials: int, seed: int
) -> OutageEstimate:
    """Outage at one coefficient from its own draw:
    ``draw(config, trials, seed).outage(b, rate_nats)``.

    For one point only (``perfbench/make_reference.py`` uses it); to compare
    coefficients, draw once and read each from the :class:`Draw`.
    """
    return draw(config, trials, seed).outage(b, rate_nats)


def gmi_histogram(gmi: np.ndarray, bins: int) -> GmiHistogram:
    """Equal-width histogram of per-trial GMI values over ``[0, max]`` plus moments.

    When every trial yields zero GMI the bin range degenerates; a unit upper
    edge is used so all mass lands in the first bin.  An empty ``gmi``, or
    one with an entry that is not finite, is refused.
    """
    bins = _check_bins("bins", bins)
    try:
        gmi = np.asarray(gmi, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("gmi", f"must be an array of real numbers, got {gmi!r}") from None
    _check(gmi.size > 0, "gmi", "must hold at least one value")
    _check(bool(np.isfinite(gmi).all()), "gmi", "must hold finite values only")
    top = float(gmi.max())
    edges = np.linspace(0.0, top if top > 0.0 else 1.0, bins + 1)
    counts, _ = np.histogram(gmi, bins=edges)
    return GmiHistogram(
        edges=edges,
        counts=counts,
        mean=float(np.mean(gmi)),
        variance=float(np.var(gmi)),
    )
