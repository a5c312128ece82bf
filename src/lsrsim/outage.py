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

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import (ChannelConfig, _check, _check_bins, _check_complex, _check_integer, _check_rate,
                      _check_trials, gram_variances, lmmse_coefficient)
from .gmi import _END_TABLE_CELLS, _EPS, _Arena, _end_bounds, _end_cells, _end_tables, _solve_theta
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


@dataclass(frozen=True, eq=False)
class Draw:
    """Per-trial statistics of trials ``0..trials-1`` of one run.

    Entry ``i`` of each array is trial ``i`` of the module's stream
    contract: ``v_energy = V = ||v||^2`` and ``residual = Y = (s - a v)^H v``
    with ``a = lmmse_coefficient(config)``.  Built by :func:`draw`.  A
    draw built by hand is refused, with a :class:`ConfigError` naming the
    array, unless ``v_energy`` is a 1-d float64 array of at least one
    ``V >= 0`` and ``residual`` a complex128 array of its shape, neither
    with a NaN; ``inf`` is accepted.  A strided ``residual`` is kept as a
    contiguous copy, so that every draw reads ``Y`` in one memory layout;
    :func:`draw`'s is contiguous and kept as it is.  The least ``V`` and the
    least of ``Re Y`` and ``Im Y``, which the checks reduce, are kept for the
    outage counter; a draw's arrays are not to change once it is built.
    """

    config: ChannelConfig
    v_energy: np.ndarray
    residual: np.ndarray  # complex
    _v_min: float = field(init=False, repr=False)
    _y_min: float = field(init=False, repr=False)

    def __post_init__(self):
        v, y = self.v_energy, self.residual
        _check(isinstance(v, np.ndarray) and v.dtype == np.float64 and v.ndim == 1 and v.size > 0, "v_energy",
               "must be a nonempty 1-d float64 array")
        _check(isinstance(y, np.ndarray) and y.dtype == np.complex128 and y.shape == v.shape, "residual",
               "must be a complex128 array of v_energy's shape")
        object.__setattr__(self, "_v_min", float(v.min()))
        _check(self._v_min >= 0.0, "v_energy", "must hold no V < 0 and no NaN")
        # a strided Y is kept as a contiguous copy, so that its float64 view
        # reads Re Y and Im Y; a NaN min reads a NaN anywhere
        y = np.ascontiguousarray(y)
        object.__setattr__(self, "residual", y)
        object.__setattr__(self, "_y_min", float(y.view(np.float64).min()))
        _check(not math.isnan(self._y_min), "residual", "must hold no NaN")

    def gmi(self, b: complex) -> np.ndarray:
        """Per-trial GMI (nats) of the decoder scaled by ``b``; shape ``(trials,)``.

        The trials are solved in the fewest evenly sized blocks that fit
        the calling thread's kept scratch (``_search_scratch``, 1.5 MiB),
        114 bytes a trial of a block (:func:`_blocks`), so 13,779 trials a
        block; their temporaries are views of it, carved from its start, so
        a call allocates only its result.  The counter's solves run the
        same way.  Threads, one draw's included, each solve in their own
        scratch.  The block size never changes a result.
        """
        return self._solve(_check_complex("b", b), self.v_energy, self.residual)

    def _solve(self, b: complex | np.ndarray, v_energy: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """:meth:`gmi` of the trials ``(v_energy, residual)``, any subset of
        this draw's, each bit-identical to its value in ``gmi(b)``.  ``b`` may
        also hold one real coefficient per trial: the same operations with
        ``Im b = 0``, whose terms drop out exactly, give trial ``i`` the bits
        of ``gmi(b[i])``.  The temporaries of a block are carved once from
        the thread's kept scratch, and every block reuses them."""
        arena = _search_scratch()
        a = lmmse_coefficient(self.config)
        per_trial = isinstance(b, np.ndarray)
        power, noise_var = self.config.power, self.config.noise_var
        trials = v_energy.size
        gmi = np.zeros(trials)
        bounds = _blocks(trials, _GMI_BYTES)
        # z forms Re(b Y); rows 0-2 hold c, r and d and rows 3-11 are
        # _solve_theta's scratch, where rows 3 and 4 first hold Re and Im of
        # e = (conj(b) - conj(a)) V - Y and row 11 (Im e)^2.  They are carved
        # once, for the last block, the largest, and each block slices its own
        m = bounds[-1] - bounds[-2]
        z_m, rows_m, flags_m = arena.take(m, dtype=np.complex128), arena.take(12, m), arena.take(2, m, dtype=np.bool_)
        for lo, hi in zip(bounds, bounds[1:]):
            z, rows, flags = z_m[: hi - lo], rows_m[:, : hi - lo], flags_m[:, : hi - lo]
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
# the largest relative error of a trial's kappa that the build's short pass
# vouches for without forming it, 512 eps (5.7e-14).  With a real and
# positive, a trial whose rho = V a + Re Y is at least V a / 16 has no
# cancellation: rho's rounding bound is at most 124 eps of it, Im(s^H v) =
# Im Y is exact, and the rule's rel reads at most 264 eps, below both _R0
# and _KAPPA_ERROR
_R0 = 512 * _EPS
# bytes of each thread's kept scratch, 1.5 MiB.  Every kernel that runs in
# it carves its temporaries from its start, and nothing stays in it from one
# kernel to the next: the build's blocks, every solve, Draw.gmi's included,
# and a counter's sweep, 25 bytes an end, so that a sweep of more than about
# 62,000 ends allocates what does not fit
_SCRATCH_BYTES = 3 * 2**19
# bytes a trial of a block of each kernel that runs in the scratch, all in
# the blocks of _blocks: the build's short pass (OutageCounter._short), its
# per-trial rule (_ends; a trial that a short-pass block gathers for the
# rule takes 40 bytes more) and Draw.gmi's solve
_SHORT_BYTES = 134
_ENDS_BYTES = 191
_GMI_BYTES = 114
_KEPT = threading.local()
# upper ends a piece of the search's ranks (OutageCounter._least), 32 kB,
# and the ranks 0..piece-1 that each piece subtracts from its own
_RANK_PIECE = 4096
_RANKS = np.arange(_RANK_PIECE)
_RANKS.flags.writeable = False


def _search_scratch() -> _Arena:
    """An arena over this thread's kept scratch, allocated on its first use
    and kept for the thread's life, that carves from its start.  Its views
    are valid until the next arena of the same thread carves the scratch
    again; only this module carves it."""
    buf = getattr(_KEPT, "buf", None)
    if buf is None:
        buf = _KEPT.buf = np.empty(_SCRATCH_BYTES, np.uint8)
    return _Arena(buf)


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


def _blocks(trials: int, per_trial: int) -> list[int]:
    """The bounds of the fewest evenly sized blocks of ``trials`` trials
    that, at ``per_trial`` bytes a trial and with room to align 32 views,
    fit the kept scratch; the last block is the largest.  Every kernel that
    runs in the scratch sizes its blocks so, and no block size changes a
    result."""
    room = (_SCRATCH_BYTES - 32 * 64) // per_trial
    blocks = -(-trials // room)
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
    rest, none at the benchmark's curve points, for the rule.  Both write
    a trial's ends, and test a lower end at ``b -> 0+``, through one method
    (:meth:`_write_ends`).  The build runs in the blocks of :func:`_blocks`,
    the fewest evenly sized ones that fit the scratch at 134 bytes a trial
    (short pass) or 191 (rule), whose temporaries are views of a scratch of
    ``_SCRATCH_BYTES`` (1.5 MiB) that each thread allocates once and keeps;
    so a build allocates only the counter's own sorted ends, 16 bytes a
    trial, and the offsets of the trials that the rule reads or re-solves.
    Every solve and sweep the counter runs carves its temporaries from the
    same scratch's start, as every kernel does: nothing of the counter is
    kept there.  The search reads its first least step from the sorted
    ends with :meth:`_least`, which builds no step function; :meth:`_sweep`
    builds the whole one, and :meth:`_least` defers to it where ends tie
    at its pick.  Counters may be built and read in several threads at
    once, each in its own thread's scratch.

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
        _check_rate("rate_nats", rate_nats)
        self.draw, self.rate = d, float(rate_nats)
        trials = d.v_energy.size
        self._lo = lo = np.full(trials, 0.0 if self.rate == 0.0 else np.inf)  # a GMI is never below 0
        self._hi = hi = np.full(trials, np.inf)
        v_min = d._v_min
        unsure = [np.zeros(0, dtype=np.intp)]
        if self.rate > 0.0:
            # an uncertified trial keeps ends of inf, which sort last.  Each
            # block carves its temporaries afresh from the scratch's start
            ends, per_trial = (self._short, _SHORT_BYTES) if self._short_applies() else (self._ends, _ENDS_BYTES)
            bounds = _blocks(trials, per_trial)
            for start, stop in zip(bounds, bounds[1:]):
                block = d.v_energy[start:stop], d.residual[start:stop], lo[start:stop], hi[start:stop]
                unsure.append(ends(*block, _search_scratch()) + start)
        self._unsure = np.concatenate(unsure)
        lo.sort()
        hi.sort()
        # the smallest b counted from the ends, sqrt(_TINY_C / min V); where
        # that quotient is below the least normal float, 2^-1022, the root is
        # taken of each side so that it keeps its digits.  A min V of 0 or
        # inf reads inf, and every b is read whole
        tiny = _TINY_C / v_min if 0.0 < v_min < math.inf else math.inf
        self.b_min = math.sqrt(tiny) if tiny >= 2.0**-1022 else math.sqrt(_TINY_C) / math.sqrt(v_min)

    def _short_applies(self) -> bool:
        """Whether the build runs the short pass: ``a`` real and positive,
        a rate above the rule's GMI margin, and the draw's numbers inside
        ``_SHORT_RANGE``, read from ``V`` and from the float64 view of its
        contiguous ``Y``; their least values are the draw's own."""
        d, rate = self.draw, self.rate
        a, noise = lmmse_coefficient(d.config), d.config.noise_var / d.config.power
        if not (a.imag == 0.0 and a.real > 0.0 and rate > _rule(rate)[1]):
            return False
        v_max = float(d.v_energy.max())
        return (d._v_min * min(a.real, noise) >= 1.0 / _SHORT_RANGE and v_max * max(a.real, noise) <= _SHORT_RANGE
                and -_SHORT_RANGE <= d._y_min and float(d.residual.view(np.float64).max()) <= _SHORT_RANGE)

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
        kappa_max, _, margin = _rule(rate)
        n = v.size
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
            self._write_ends(v, rho, kappa, _R0, p, settled, sure, lo, hi, (t, w), ok)
        rest = np.flatnonzero(np.logical_not(np.logical_or(sure, dead, out=dead), out=dead))
        return self._settle(v, y, rest, lo, hi) if rest.size else rest

    def _settle(self, v: np.ndarray, y: np.ndarray, rest: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """:meth:`_ends` of the trials ``rest`` of ``(v, y)``, gathered into
        the kept scratch in the fewest evenly sized pieces that fit it, and
        their ends put back into ``lo`` and ``hi``; returns those of
        ``rest`` left to re-solve."""
        bounds = _blocks(rest.size, _ENDS_BYTES + 40)
        unsure = []
        for start, stop in zip(bounds, bounds[1:]):
            part, m, scratch = rest[start:stop], stop - start, _search_scratch()
            v_part, lo_part, hi_part = scratch.take(m), scratch.take(m), scratch.take(m)
            y_part = np.take(y, part, mode="clip", out=scratch.take(m, dtype=np.complex128))
            np.take(v, part, mode="clip", out=v_part)
            lo_part.fill(np.inf)
            hi_part.fill(np.inf)
            unsure.append(part[self._ends(v_part, y_part, lo_part, hi_part, scratch)])
            np.put(lo, part, lo_part, mode="clip")
            np.put(hi, part, hi_part, mode="clip")
        return np.concatenate(unsure)

    def _write_ends(self, v, rho, kappa, rel, p, settled, certified, lo, hi, work, to_zero) -> None:
        """Write the ends ``b = (rho / V) p`` of the ``certified`` trials
        whose two ends are ``settled``, ``p`` and ``settled`` one row an end,
        into the same entries of ``lo`` and ``hi``: the one place where the
        short pass and the per-trial rule test a lower end at ``b -> 0+``
        and write an end.  ``rel`` bounds the relative error of ``kappa``,
        one for every trial or one a trial.  ``p``, ``settled`` and
        ``certified`` are overwritten, and ``work``, two arrays like
        ``kappa``, and the mask ``to_zero`` are scratch."""
        rate, w = self.rate, work[0]
        # for kappa <= 1/rate - 1 the interval reaches b -> 0+, where the GMI
        # tends to 1 / (1 + kappa); above 1 nat no kappa >= 0 does.  There
        # the end is settled if (kappa + 1 + kappa rel)(rate + 2 tol) <= 1
        if 1.0 / rate - 1.0 >= 0.0:
            np.less_equal(kappa, 1.0 / rate - 1.0, out=to_zero)
            np.copyto(p[0], 0.0, where=to_zero)
            np.add(np.add(kappa, 1.0, out=w), np.multiply(kappa, rel, out=work[1]), out=w)
            np.multiply(w, rate + 2.0 * _rule(rate)[1], out=w)
            np.less_equal(w, 1.0, out=settled[0], where=to_zero)
        np.logical_and(certified, settled[0], out=certified)
        np.logical_and(certified, settled[1], out=certified)
        # b = (rho / V) p, with rho / V the peak
        np.multiply(p, np.divide(rho, v, out=w), out=p)
        np.copyto(lo, p[0], where=certified)
        np.copyto(hi, p[1], where=certified)

    def _ends(self, v: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray, arena: _Arena) -> np.ndarray:
        """The per-trial rule: write the ends of the certified trials among
        ``(v, y)``, a block's ``V`` and ``Y``, into the same entries of
        ``lo`` and ``hi``, and return the offsets of the trials left to
        re-solve, those neither certified nor dead.  Every trial's ends,
        and its dead test, are read in the rows that hold its numbers, with
        no gather; every temporary is carved from ``arena``."""
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
            ends = _end_cells(kappa, rate, arena)
            err, slope = _end_bounds(ends, k_err, rate)
            np.less_equal(np.add(err, rel, out=err), _END_WINDOW / 8.0, out=sure)
            np.greater_equal(np.multiply(slope, _END_WINDOW, out=slope), 8.0 * tol, out=sure_hi)
            np.logical_and(sure, sure_hi, out=sure)
            self._write_ends(v, rho, kappa, rel, ends[0], sure, certified, lo, hi, (w1, k_err), ok)

            # the rest are re-solved, but for the dead: rho < 0 beyond its
            # rounding, or kappa at its least a margin past the peak's.  The
            # test runs on every trial, in the rows that hold its numbers
            low = np.maximum(np.subtract(np.abs(im, out=im), im_err, out=im), 0.0, out=im)
            np.add(np.multiply(low, low, out=low), noise, out=low)
            np.less(rho, np.negative(rho_err, out=im_err), out=dead)
            np.logical_and(dead, rate > tol, out=dead)
            high = np.add(np.abs(rho, out=rho), rho_err, out=rho)
            np.divide(low, np.multiply(high, high, out=high), out=low)
            np.logical_or(dead, np.greater(low, kappa_max * (1.0 + margin), out=ok), out=dead)
        return np.flatnonzero(np.logical_not(np.logical_or(certified, dead, out=dead), out=dead))

    def outages(self, b_values: Sequence[float]) -> list[OutageEstimate]:
        """``[d.outage(b, rate_nats) for b in b_values]``, counted.  Each
        ``b`` is checked as ``d.outage`` checks it, and a ``b`` with an
        imaginary part is read whole (:meth:`_whole`)."""
        values = [_check_complex("b", x) for x in b_values]
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
                gmi = d._solve(complex(bi), d.v_energy[redo], d.residual[redo])
                failures -= int(np.count_nonzero(gmi >= self.rate))
            estimates.append(_estimate(failures, trials))
        return estimates

    def _whole(self, b: complex) -> OutageEstimate:
        """``d.outage(b, rate_nats)``, solved for every trial."""
        return self.draw.outage(b, self.rate)

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
        ok = d._solve(np.r_[peak, np.full(n, b_min)], v, y) >= rate
        alive, down = ok[:n] & (peak > b_min), ok[n:]
        inside, outside = np.r_[peak, peak], np.r_[np.full(n, b_min), peak * (peak / b_min)]
        for _ in range(math.ceil(math.log2(max(math.log(peak.max() / b_min), 1.0))) + 40):
            mid = np.sqrt(inside) * np.sqrt(outside)
            ok = d._solve(mid, v, y) >= rate
            np.copyto(inside, mid, where=ok)
            np.copyto(outside, mid, where=~ok)
        lo = np.where(alive, np.where(down, 0.0, inside[:n]), np.inf)
        hi = np.where(alive, inside[n:], np.inf)
        # the re-solved trials' inf ends are the last sorted; a stable sort
        # merges two sorted runs
        keep = self._lo.size - n
        return (np.sort(np.r_[self._lo[:keep], lo], kind="stable"),
                np.sort(np.r_[self._hi[:keep], hi], kind="stable"))

    def _window(self, low: float, high: float) -> tuple[float, np.ndarray, np.ndarray, int]:
        """The ends of :meth:`intervals` inside ``(start, high)``, ``start =
        max(low, b_min)`` and ``b_min < high``: ``(start, lower, upper,
        failures)``, the sorted lower and upper ends as views, and the
        failures just above ``start``, ``#{lo > start} + #{hi <= start}``."""
        start = max(low, self.b_min)
        lo, hi = self.intervals()
        i, i_end = np.searchsorted(lo, start, "right"), np.searchsorted(lo, high, "left")
        j, j_end = np.searchsorted(hi, start, "right"), np.searchsorted(hi, high, "left")
        return start, lo[i:i_end], hi[j:j_end], lo.size - i + j

    def _least(self, low: float, high: float) -> float:
        """The midpoint of the first step of least outage of :meth:`_sweep`
        over ``[low, high]``, found with no step function.

        Just below the ``k``-th upper end (from 0) the failures are those
        just above ``start``, plus the ``k`` upper ends passed, less the
        lower ends passed, ``#{lower <= upper[k]}``: a lower end sorts before
        an equal upper one.  After the last end they are those plus
        ``#{upper} - #{lower}``.  The first least of these is the first
        least of the outage, and its step runs from the end before it to
        ``upper[k]``, or to ``high``.  The ranks are read ``_RANK_PIECE``
        upper ends at a time, 8 bytes a rank, so that a search allocates
        no array that grows with its trials.  Where that step has no width,
        the end before it being equal to ``upper[k]``, the step function
        tells which step is least, and :meth:`_sweep` is read instead."""
        if high <= self.b_min:
            return 0.5 * low + 0.5 * high
        start, lower, upper, _ = self._window(low, high)
        # failures less those just above start: k - #{lower <= upper[k]}
        least, pick = math.inf, 0
        for first in range(0, upper.size, _RANK_PIECE):
            delta = np.searchsorted(lower, upper[first : first + _RANK_PIECE], "right")
            np.subtract(_RANKS[: delta.size], delta, out=delta)
            k = int(delta.argmin())
            if delta[k] + first < least:
                least, pick = int(delta[k]) + first, first + k
        if upper.size - lower.size < least:
            last = max(lower[-1] if lower.size else start, upper[-1] if upper.size else start)
            return 0.5 * float(last) + 0.5 * high
        passed = pick - least
        before = max(lower[passed - 1] if passed else start, upper[pick - 1] if pick else start)
        if before == upper[pick]:
            starts, _, best = self._sweep(low, high)
            after = starts[best + 1] if best + 1 < starts.size else high
            return 0.5 * float(starts[best]) + 0.5 * float(after)
        return 0.5 * float(before) + 0.5 * float(upper[pick])

    def _sweep(self, low: float, high: float) -> tuple[np.ndarray, np.ndarray, int]:
        """The outage over ``b`` in ``[low, high]``, ``0 <= low <= high``, as a
        step function ``(starts, p_hat)``, ``p_hat[k]`` from ``starts[k]``
        to ``starts[k + 1]`` (the last to ``high``), each step a change;
        and the index of its first step of least outage.

        It counts the outage between consecutive ends of
        :meth:`intervals` from ``max(low, b_min)`` on; a domain wholly
        below ``b_min`` is one step, read whole at its midpoint.  Its
        arrays, 25 bytes an end, are views of the kept scratch, carved from
        its start, so only ``starts`` and ``p_hat``, 16 bytes a step, are
        new."""
        if high <= self.b_min:
            return np.array([low]), np.array([self._whole(complex(0.5 * low + 0.5 * high)).p_hat]), 0
        start, lower, upper, above = self._window(low, high)
        ends = 1 + lower.size + upper.size
        # every end lies above start > 0, so the bits of start and of the
        # ends, shifted up one with a low bit 1 for an upper end, sort as
        # their values do, start first and a lower end before an equal upper
        # one: the order of a stable sort of start, the lower and the upper
        # ends, sorted in place with no index array
        arena = _search_scratch()
        key, one = arena.take(ends, dtype=np.uint64), np.uint64(1)
        key[0] = np.float64(start).view(np.uint64) << one
        np.left_shift(lower.view(np.uint64), one, out=key[1 : 1 + lower.size])
        tagged = key[1 + lower.size :]
        np.bitwise_or(np.left_shift(upper.view(np.uint64), one, out=tagged), one, out=tagged)
        key.sort(kind="stable")
        # just above start #{lo > start} + #{hi <= start} trials fail; each
        # lower end passed takes one away, each upper end adds one
        steps = arena.take(ends, dtype=np.int64)
        np.bitwise_and(key, one, out=steps.view(np.uint64))
        np.subtract(np.left_shift(steps, 1, out=steps), 1, out=steps)
        steps[0] = above
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
        return starts[step], np.divide(failures, self._lo.size, out=starts)[step], best


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
    edge is used so all mass lands in the first bin.  An empty ``gmi``, one
    with an entry that is not finite, and one whose dtype is not integer or
    float (strs, bools and complex numbers, which numpy would read as real
    numbers) are refused.
    """
    bins = _check_bins("bins", bins)
    try:
        array = np.asarray(gmi)
    except (TypeError, ValueError):  # a ragged list
        array = np.asarray(None)
    _check(array.dtype.kind in "iuf", "gmi", f"must be an array of real numbers, got {gmi!r}")
    gmi = array.astype(float, copy=False)
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
