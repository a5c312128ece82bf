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
import functools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (ChannelConfig, ConfigError, _check, _check_bins, _check_integer, _check_rate, _check_trials,
                      gram_variances, lmmse_coefficient)
from .gmi import _END_TABLE_CELLS, _EPS, _Arena, _end_cells, _end_tables, _feasible_ends, _solve_theta
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
        thread's kept scratch (``_search_scratch``), carved from its start,
        so a call allocates only its result.  The counter's solves, which
        carve after its ends, take smaller blocks that fit the room left.
        Threads, one draw's included, each solve in their own scratch.  The
        block size never changes a result.
        """
        return self._solve(_check_coefficient(b), self.v_energy, self.residual)

    def _solve(self, b: complex | np.ndarray, v_energy: np.ndarray, residual: np.ndarray,
               start: int = 0) -> np.ndarray:
        """:meth:`gmi` of the trials ``(v_energy, residual)``, any subset of
        this draw's, each bit-identical to its value in ``gmi(b)``.  ``b`` may
        also hold one real coefficient per trial: the same operations with
        ``Im b = 0``, whose terms drop out exactly, give trial ``i`` the bits
        of ``gmi(b[i])``.  The temporaries of a block are carved once from
        the thread's kept scratch, from byte ``start`` on, and every block
        reuses them."""
        arena = _search_scratch(start)
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
        _check_rate("rate_nats", rate_nats)
        return self._outage(_check_coefficient(b), rate_nats)

    def _outage(self, b: complex, rate_nats: float, start: int = 0) -> OutageEstimate:
        """:meth:`outage` of a checked ``b`` and rate, solved in the kept
        scratch from byte ``start`` on."""
        gmi = self._solve(b, self.v_energy, self.residual, start)
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
# the largest relative error of a trial's kappa that the build's short pass
# vouches for without forming it, 512 eps (5.7e-14).  With a real and
# positive, a trial whose rho = V a + Re Y is at least V a / 16 has no
# cancellation: rho's rounding bound is at most 124 eps of it, Im(s^H v) =
# Im Y is exact, and the rule's rel reads at most 264 eps, below both _R0
# and _KAPPA_ERROR
_R0 = 512 * _EPS
# most trials per block of the build's short pass and of its per-trial rule
# (OutageCounter._short and _ends), whose temporaries take _SHORT_BYTES and
# _ENDS_BYTES a trial of a block, all carved from the kept scratch; a trial
# that a short-pass block gathers for the rule takes 40 bytes more.  Every
# run of blocks is the fewest evenly sized ones that fit what the scratch
# has left, but none smaller than _GMI_FLOOR: smaller blocks pay numpy's
# per-call overhead, about 0.1 ms a short-pass block, more often.  At
# 10,000 trials (5 SNR points, n_r 8, 2 bits, interleaved medians on a
# 2-core x86-64 VM) a build took 0.96 ms in short-pass blocks of 1,024,
# 0.70 ms in blocks of 2,048, 0.60 ms in 3 blocks (at most 4,096), 0.55 ms
# in 2 blocks (at most 6,144) and 0.52 ms in one block; the per-trial rule
# in 2 blocks of at most 6,144 took 0.87-0.90 ms
_SHORT_BLOCK = 10_240
_COUNT_BLOCK = 6144
_SHORT_BYTES = 134
_ENDS_BYTES = 191
# bytes of each thread's kept scratch, 1.5 MiB: a short-pass block of
# 10,240 trials, 134 bytes each, and room for the ends.  A counter built for
# optimize_b carves from it its sorted ends, 16 bytes a trial, then the
# build's temporaries, and after the build its sweep's arrays, 25 bytes an
# end, and its solves, each after its ends; so a search of up to about
# 20,000 trials allocates only its results, and a larger one allocates what
# does not fit.  Draw.gmi solves in it too, from its start
_SCRATCH_BYTES = 256 * _COUNT_BLOCK
# most trials per block of Draw.gmi's solve, whose temporaries take 114 bytes
# a trial of a block: one block, 1.45 MiB, fits the scratch.  On a 2-core
# x86-64 VM (medians of 60 calls in each of 4 processes, interleaved with
# the 32,768-trial blocks of the earlier per-draw workspace) 1e5 trials at
# n_r 8 took 31.2-32.5 ns a trial (31.5-36.9 ns before) and 5,000 trials at
# n_r 128, one block, 43.7-46.2 ns (42.6-53.5 ns)
_GMI_BLOCK = 13_312
# bytes of the solve's temporaries a trial of a block, and the fewest trials
# a block of the solve or of the counter's build holds.  A solve behind a counter's ends in the scratch (16 bytes a
# trial) takes a block that fits the room they leave, 11,000 trials behind
# 20,000 ends, and allocates its block only behind more than about 91,000
_GMI_BYTES = 114
_GMI_FLOOR = 1024
_KEPT = threading.local()


def _search_scratch(start: int = 0) -> _Arena:
    """An arena over this thread's kept scratch, allocated on its first use
    and kept for the thread's life, that carves from byte ``start`` on.  Its
    views are valid until the scratch is carved there again in the same
    thread.  Only this module carves it: a counter in the scratch passes
    the end of its ends to every solve it runs."""
    buf = getattr(_KEPT, "buf", None)
    if buf is None:
        buf = _KEPT.buf = np.empty(_SCRATCH_BYTES, np.uint8)
    return _Arena(buf, start)


# smallest b^2 min(V) the counter reads from its ends; below it c = b^2 V
# nears underflow and Draw.gmi no longer reads the small-b limit
_TINY_C = 1e-290


# the short pass runs on a draw whose V a and V sigma^2 / P lie in
# [1 / _SHORT_RANGE, _SHORT_RANGE] and whose |Re Y| and |Im Y| are at most
# _SHORT_RANGE: there every product and quotient of the per-trial rule is a
# finite normal float, or a small term it adds to a normal one
_SHORT_RANGE = 1e100


def _rule(rate: float) -> tuple[float, float, float]:
    """``(kappa_max, tol, margin)`` of the per-trial rule at ``rate``: the
    peak's ``kappa``, the GMI margin in nats and the relative margin on
    ``kappa``."""
    kappa_max = 1.0 / math.expm1(rate)
    tol = _GMI_MARGIN * (rate + 2.0)
    return kappa_max, tol, 1e-7 + 4.0 * tol * (1.0 + kappa_max)


@functools.lru_cache(maxsize=32)
def _settled_cells(rate: float) -> np.ndarray:
    """Whether each cell of ``gmi._end_tables(rate)``, column
    ``k * _END_TABLE_CELLS + j`` for cell ``j`` of branch ``k``, settles
    the end of every trial that falls in it with ``kappa < kappa_max`` and
    a relative error of ``kappa`` of at most ``_R0``: whether the per-trial
    rule's tests on the end's ``err`` and ``slope`` pass everywhere in the
    cell with ``rel = _R0``.

    With ``t >= j / scale`` in cell ``j``, the end's ``err`` is at most the
    cell's ``err + gain (kappa_max _R0 + 4 eps kappa_max) scale / j``, and
    its slope at least the least of the cell's quadratic over
    ``0 <= f <= 1``, less 16 ulps of the sum of its coefficients' sizes;
    each test keeps a relative 1e-6 for the roundings of the rule.  (A
    trial's ``f`` passes 1 only in the lower branch's last cell below
    1 nat, beyond its pole, where the rule reads the end at ``b -> 0+``
    instead.)  Cell 0 of each branch, at the peak, where ``t`` may be 0,
    never settles, its ``scale / j`` being infinite, nor does any cell if
    ``_R0`` exceeds ``_KAPPA_ERROR``.  Built from elementwise ufuncs only,
    once per rate, and shared by every counter of the rate, like the
    tables.
    """
    kappa_max, scale, table = _end_tables(rate)
    _, tol, _ = _rule(rate)
    err, gain, s0, s1, s2 = table[4:]
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = ((kappa_max * _R0 + 4.0 * _EPS * kappa_max) * (scale / np.arange(_END_TABLE_CELLS))).ravel()
        sure = err + gain * spread + _R0 <= _END_WINDOW / 8.0 * (1.0 - 1e-6)
        # the quadratic's least on [0, 1]: at f = 0, at f = 1 or at its
        # vertex -s1 / (2 s2), where a convex one has it inside
        least = np.fmin(s0, s0 + s1 + s2)
        vertex = -s1 / (2.0 * s2)
        inside = (s2 > 0.0) & (vertex > 0.0) & (vertex < 1.0)
        least = np.where(inside, np.fmin(least, s0 - s1 * s1 / (4.0 * s2)), least)
        least -= 16.0 * _EPS * (np.abs(s0) + np.abs(s1) + np.abs(s2))
        sure &= least >= 8.0 * tol / _END_WINDOW * (1.0 + 1e-6)
    sure &= _R0 <= _KAPPA_ERROR
    sure.flags.writeable = False
    return sure


def _blocks(trials: int, most: int, per_trial: int, arena: _Arena) -> list[int]:
    """The bounds of the fewest evenly sized blocks of ``trials`` trials
    that hold at most ``most`` and, at ``per_trial`` bytes a trial, fit what
    ``arena`` has left, but hold no fewer than ``_GMI_FLOOR``."""
    room = (arena.buf.nbytes - arena.used - 32 * 64) // per_trial
    blocks = -(-trials // min(most, max(room, _GMI_FLOOR)))
    return [trials * k // blocks for k in range(blocks + 1)]


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
    Those tests, the per-trial rule (:meth:`_ends`), bound the rounding of
    ``rho`` and ``kappa`` trial by trial.  Where ``a`` is real and positive
    a short pass (:meth:`_short`) runs first: a trial whose ``rho`` cannot
    cancel has a relative error of ``kappa`` of at most ``_R0``, and one
    flag per table cell (:func:`_settled_cells`) says whether the rule's
    tests on an end in the cell pass with that error; so the pass certifies
    a trial, or finds it dead, only where the rule would, and gathers the
    rest, none at the benchmark's curve points, for the rule.  The build
    runs in the fewest evenly sized blocks that fit the scratch, of at most
    ``_SHORT_BLOCK`` (short pass, 134 bytes a trial, 1.37 MB at most) or
    ``_COUNT_BLOCK`` trials (rule, 191 bytes a trial), whose temporaries
    are views of a scratch of ``_SCRATCH_BYTES`` (1.5 MiB) that each thread
    allocates once and keeps; so a build allocates only the counter's own
    16 bytes per trial, the sorted ends, and the offsets of the trials
    that the rule reads or re-solves.  Every solve the counter runs takes
    its temporaries from the same scratch, after the counter's ends when
    they are views of it: the counter passes where its ends stop to each.
    Counters may be built and read in several threads at once, each in its
    own thread's scratch.

    A trial's ends are certified when they are known to within a relative
    ``_END_WINDOW / 8`` and its GMI stays ``_GMI_MARGIN (rate + 2)`` nats
    away from the rate outside a window of ``_END_WINDOW`` around each end.
    A trial that cannot be certified is re-solved by ``Draw.gmi``'s own
    solve at every ``b``: a peak GMI within a small margin of the rate, an
    end where the GMI is nearly flat in ``b`` or that the table's error
    bound cannot place that closely (a ``kappa`` a hair below the peak's,
    whose ``t`` is too small to carry its error, or an end near the lower
    branch's pole), or Gram numbers whose ``s^H v`` cancels.  A ``b`` with
    any end within ``2 _END_WINDOW`` of it, a ``b <= 0``, a complex ``b``
    and a ``b`` below ``b_min``, where ``b^2 V`` nears underflow, are read
    whole, as ``d.outage`` reads them.
    """

    def __init__(self, d: Draw, rate_nats: float):
        trials = d.v_energy.size
        self._build(d, rate_nats, np.empty(trials), np.empty(trials), _search_scratch())

    @classmethod
    def _in_scratch(cls, d: Draw, rate_nats: float) -> OutageCounter:
        """A counter whose sorted ends are views carved from the front of
        the thread's kept scratch, in front of the build's own temporaries
        and of every later solve and sweep of the counter: valid until
        anything else carves the scratch from its start again, as
        ``Draw.gmi`` does.  :func:`~lsrsim.shrinkage.optimize_b` builds its
        counter so."""
        counter, arena, trials = cls.__new__(cls), _search_scratch(), d.v_energy.size
        counter._build(d, rate_nats, arena.take(trials), arena.take(trials), arena)
        return counter

    def _build(self, d: Draw, rate_nats: float, lo: np.ndarray, hi: np.ndarray, arena: _Arena) -> None:
        _check_rate("rate_nats", rate_nats)
        self.draw, self.rate = d, float(rate_nats)
        trials = d.v_energy.size
        # where the ends stop in the scratch, 0 for ends of their own: the
        # counter's solves and its sweep carve after them
        self._lo, self._hi, self._end = lo, hi, arena.used
        lo.fill(0.0 if self.rate == 0.0 else np.inf)  # a GMI is never below 0
        hi.fill(np.inf)
        v_min = float(d.v_energy.min())
        unsure = [np.zeros(0, dtype=np.intp)]
        if self.rate > 0.0:
            # an uncertified trial keeps ends of inf, which sort last.  Each
            # block's temporaries are carved afresh after what the arena holds
            short = self._short_applies(v_min)
            ends = self._short if short else self._ends
            most, per_trial = (_SHORT_BLOCK, _SHORT_BYTES) if short else (_COUNT_BLOCK, _ENDS_BYTES)
            bounds = _blocks(trials, most, per_trial, arena)
            for start, stop in zip(bounds, bounds[1:]):
                block = d.v_energy[start:stop], d.residual[start:stop], lo[start:stop], hi[start:stop]
                unsure.append(ends(*block, _Arena(arena.buf, arena.used)) + start)
        self._unsure = np.concatenate(unsure)
        lo.sort()
        hi.sort()
        # the smallest b counted from the ends
        self.b_min = math.sqrt(_TINY_C / v_min) if v_min > 0.0 else math.inf

    def _short_applies(self, v_min: float) -> bool:
        """Whether the build runs the short pass: ``a`` real and positive,
        a rate above the rule's GMI margin, and the draw's numbers inside
        ``_SHORT_RANGE``, its ``Y`` read as one contiguous array."""
        d, rate = self.draw, self.rate
        a, noise = lmmse_coefficient(d.config), d.config.noise_var / d.config.power
        if not (a.imag == 0.0 and a.real > 0.0 and rate > _rule(rate)[1] and d.residual.flags.c_contiguous):
            return False
        y = d.residual.view(np.float64)
        v_max = float(d.v_energy.max())
        return (v_min * min(a.real, noise) >= 1.0 / _SHORT_RANGE and v_max * max(a.real, noise) <= _SHORT_RANGE
                and -_SHORT_RANGE <= float(y.min()) and float(y.max()) <= _SHORT_RANGE)

    def _short(self, v: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray, arena: _Arena) -> np.ndarray:
        """:meth:`_ends` of the trials ``(v, y)``, into ``lo`` and ``hi``,
        with the same result bit for bit: a trial is certified where the
        rule would certify it with any ``rel <= _R0`` and dead where the
        rule finds it dead, and only the rest are gathered for the rule
        (:meth:`_settle`).  Needs ``a`` real and positive.

        Every test of the rule is monotone in ``rel``, and so is every
        rounding, so reading ``_R0`` for a ``rel`` known to be at most
        ``_R0`` only makes a test stricter: a trial with no cancellation
        (``rho >= V a / 16``) whose cells :func:`_settled_cells` flags and
        whose ``kappa (1 + _R0)`` passes the rule's test on the peak is
        certified by the rule.  Dead, as the rule finds them, are a trial
        with ``rho < -V a / 16``, negative well beyond its rounding, and one
        with ``|rho| >= V a / 2^20``, whose ``rho`` the rule so knows to
        within 1e-9 relative, and a ``kappa`` a relative 1e-8 past the
        rule's bound.  ``rho``, ``kappa`` and the ends are formed by the
        rule's own operations, so they have its bits."""
        d, rate = self.draw, self.rate
        a = lmmse_coefficient(d.config).real
        kappa_max, tol, margin = _rule(rate)
        n, used = v.size, arena.used
        rho, kappa, w = (arena.take(n) for _ in range(3))
        sure, dead, ok, zero = (arena.take(n, dtype=np.bool_) for _ in range(4))
        settled = arena.take(2, n, dtype=np.bool_)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            va = np.multiply(v, a, out=w)
            np.add(va, y.real, out=rho)
            # rho >= V a / 16: no cancellation; rho < -V a / 16: dead;
            # |rho| >= V a / 2^20: rho known to 1e-9 relative
            sixteenth = np.multiply(va, 0.0625, out=kappa)
            np.greater_equal(rho, sixteenth, out=sure)
            np.less(np.add(rho, sixteenth, out=kappa), 0.0, out=dead)
            known = np.greater_equal(np.multiply(np.abs(rho, out=kappa), 2.0**20, out=kappa), va, out=zero)
            noise = np.multiply(v, d.config.noise_var / d.config.power, out=w)
            np.add(np.multiply(y.imag, y.imag, out=kappa), noise, out=kappa)
            np.divide(kappa, np.multiply(rho, rho, out=w), out=kappa)
            past = np.greater(kappa, kappa_max * (1.0 + margin) * (1.0 + 1e-8), out=ok)
            np.logical_or(dead, np.logical_and(known, past, out=ok), out=dead)
            np.multiply(kappa, 1.0 + _R0, out=w)
            np.logical_and(sure, np.less(w, kappa_max * (1.0 - margin), out=ok), out=sure)

            p, t, _, index, _ = _end_cells(kappa, rate, arena)
            _settled_cells(rate).take(index, mode="clip", out=settled)
            # the rule's test of a lower end at b -> 0+, with _R0 for rel
            if 1.0 / rate - 1.0 >= 0.0:
                to_zero = np.less_equal(kappa, 1.0 / rate - 1.0, out=ok)
                np.copyto(p[0], 0.0, where=to_zero)
                np.add(np.add(kappa, 1.0, out=t), np.multiply(kappa, _R0, out=w), out=t)
                np.multiply(t, rate + 2.0 * tol, out=t)
                np.copyto(settled[0], np.less_equal(t, 1.0, out=zero), where=to_zero)
            np.logical_and(sure, settled[0], out=sure)
            np.logical_and(sure, settled[1], out=sure)
            np.multiply(p, np.divide(rho, v, out=w), out=p)
            np.copyto(lo, p[0], where=sure)
            np.copyto(hi, p[1], where=sure)
        rest = np.flatnonzero(np.logical_not(np.logical_or(sure, dead, out=dead), out=dead))
        return self._settle(v, y, rest, lo, hi, _Arena(arena.buf, used)) if rest.size else rest

    def _settle(self, v: np.ndarray, y: np.ndarray, rest: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                arena: _Arena) -> np.ndarray:
        """:meth:`_ends` of the trials ``rest`` of ``(v, y)``, gathered into
        ``arena`` in the fewest evenly sized pieces that fit it, and their
        ends put back into ``lo`` and ``hi``; returns those of ``rest`` left
        to re-solve."""
        bounds = _blocks(rest.size, _COUNT_BLOCK, _ENDS_BYTES + 40, arena)
        unsure = []
        for start, stop in zip(bounds, bounds[1:]):
            part, m, scratch = rest[start:stop], stop - start, _Arena(arena.buf, arena.used)
            v_part, lo_part, hi_part = scratch.take(m), scratch.take(m), scratch.take(m)
            y_part = np.take(y, part, mode="clip", out=scratch.take(m, dtype=np.complex128))
            np.take(v, part, mode="clip", out=v_part)
            lo_part.fill(np.inf)
            hi_part.fill(np.inf)
            unsure.append(part[self._ends(v_part, y_part, lo_part, hi_part, scratch)])
            np.put(lo, part, lo_part, mode="clip")
            np.put(hi, part, hi_part, mode="clip")
        return np.concatenate(unsure)

    def _ends(self, v: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray, arena: _Arena) -> np.ndarray:
        """The per-trial rule: write the ends of the certified trials among
        ``(v, y)``, a block's ``V`` and ``Y``, into the same entries of
        ``lo`` and ``hi``, and return the offsets of the trials left to
        re-solve.  Every temporary is carved from ``arena``."""
        d, rate = self.draw, self.rate
        a = lmmse_coefficient(d.config)
        n = v.size
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
            kappa_max, tol, margin = _rule(rate)
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
            np.copyto(lo, p[0], where=certified)
            np.copyto(hi, p[1], where=certified)

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
        imaginary part is read whole (:meth:`_whole`)."""
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
        for i, bi in enumerate(b.tolist()):
            near = lo_le_w[i] != lo_lt_w[i] or hi_le_w[i] != hi_lt_w[i]
            if near or not counted[i]:
                estimates.append(self._whole(values[i]))
                continue
            failures = trials - (lo_le[i] - hi_lt[i])
            if redo.size:
                gmi = d._solve(complex(bi), d.v_energy[redo], d.residual[redo], self._end)
                failures -= int(np.count_nonzero(gmi >= self.rate))
            estimates.append(_estimate(failures, trials))
        return estimates

    def _whole(self, b: complex) -> OutageEstimate:
        """``d.outage(b, rate_nats)`` of a checked ``b``, solved for every
        trial in the scratch after the counter's ends."""
        return self.draw._outage(b, self.rate, self._end)

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
        # a trial infeasible at its peak is feasible at no b
        ok = d._solve(np.r_[peak, np.full(n, b_min)], v, y, self._end) >= rate
        alive, down = ok[:n] & (peak > b_min), ok[n:]
        inside, outside = np.r_[peak, peak], np.r_[np.full(n, b_min), peak * (peak / b_min)]
        for _ in range(math.ceil(math.log2(max(math.log(peak.max() / b_min), 1.0))) + 40):
            mid = np.sqrt(inside) * np.sqrt(outside)
            ok = d._solve(mid, v, y, self._end) >= rate
            np.copyto(inside, mid, where=ok)
            np.copyto(outside, mid, where=~ok)
        lo = np.where(alive, np.where(down, 0.0, inside[:n]), np.inf)
        hi = np.where(alive, inside[n:], np.inf)
        # the re-solved trials' inf ends are the last sorted; a stable sort
        # merges two sorted runs
        keep = self._lo.size - n
        return (np.sort(np.r_[self._lo[:keep], lo], kind="stable"),
                np.sort(np.r_[self._hi[:keep], hi], kind="stable"))

    def _sweep(self, low: float, high: float) -> tuple[np.ndarray, np.ndarray, int]:
        """The outage over ``b`` in ``[low, high]``, ``0 <= low <= high``, as a
        step function ``(starts, p_hat)``, ``p_hat[k]`` from ``starts[k]``
        to ``starts[k + 1]`` (the last to ``high``), each step a change;
        and the index of its first step of least outage.

        It counts the outage between consecutive ends of
        :meth:`intervals` from ``max(low, b_min)`` on; a domain wholly
        below ``b_min`` is one step, read whole at its midpoint.  Its
        arrays, 25 bytes an end, are views of the kept scratch after the
        counter's ends, so only ``starts`` and ``p_hat``, 16 bytes a step,
        are new."""
        if high <= self.b_min:
            return np.array([low]), np.array([self._whole(complex(0.5 * low + 0.5 * high)).p_hat]), 0
        start = max(low, self.b_min)
        lo, hi = self.intervals()
        i, i_end = np.searchsorted(lo, start, "right"), np.searchsorted(lo, high, "left")
        j, j_end = np.searchsorted(hi, start, "right"), np.searchsorted(hi, high, "left")
        ends = 1 + (i_end - i) + (j_end - j)
        # every end lies above start > 0, so the bits of start and of the
        # ends, shifted up one with a low bit 1 for an upper end, sort as
        # their values do, start first and a lower end before an equal upper
        # one: the order of a stable sort of start, the lower and the upper
        # ends, sorted in place with no index array
        arena = _search_scratch(self._end)
        key, one = arena.take(ends, dtype=np.uint64), np.uint64(1)
        key[0] = np.float64(start).view(np.uint64) << one
        np.left_shift(lo[i:i_end].view(np.uint64), one, out=key[1 : 1 + i_end - i])
        upper = key[1 + i_end - i :]
        np.bitwise_or(np.left_shift(hi[j:j_end].view(np.uint64), one, out=upper), one, out=upper)
        key.sort(kind="stable")
        # just above start #{lo <= start} - #{hi <= start} trials are
        # feasible; each lower end passed adds one, each upper end takes one
        # away
        steps = arena.take(ends, dtype=np.int64)
        np.bitwise_and(key, one, out=steps.view(np.uint64))
        np.subtract(np.left_shift(steps, 1, out=steps), 1, out=steps)
        steps[0] = lo.size - i + j
        # into a second array: an accumulate in place may copy its input
        failures = np.cumsum(steps, out=arena.take(ends, dtype=np.int64))
        starts = np.right_shift(key, one, out=key).view(np.float64)
        # a step starts after the last of equal ends, where the outage
        # changes; equal ends are rare, and only they allocate here
        step = arena.take(ends, dtype=np.bool_)
        step[-1] = True
        if not np.not_equal(starts[1:], starts[:-1], out=step[:-1]).all():
            starts, failures = starts[step], failures[step]
            step = step[: starts.size]
        step[0] = True
        np.not_equal(failures[1:], failures[:-1], out=step[1:])
        # the first least count starts a step
        best = int(np.count_nonzero(step[: int(np.argmin(failures))]))
        # the steps' starts are copied out before p_hat overwrites them
        return starts[step], np.divide(failures, lo.size, out=starts)[step], best


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
