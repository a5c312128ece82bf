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
``z1 = normals[j]`` and ``z2 = normals[C + j]``.  Every chunk is drawn
whole, so trial ``i`` depends only on ``(config, seed, i)``, not on the
trial count or the other configs drawn.  ``G``, ``z1`` and ``z2`` depend
only on ``(seed, n_r, i)``, so every SNR point of one antenna count reads
the same standardized variates, and every ``b`` is read from one
:class:`Draw`: receivers and coefficients are compared on common random
numbers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import (ChannelConfig, _check, _check_integer, _check_real, _check_trials, gram_variances,
                      lmmse_coefficient)
from .gmi import _EPS, _end_tables, _feasible_ends, _solve_theta, _Workspace
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

# trials per block of Draw.gmi's solve; its workspace (gmi._Workspace says
# why it stays) takes 114 bytes per trial of a block (3.7 MB at this cap).
# Larger blocks fall out of cache and smaller ones pay the per-block call
# overhead: on a 2-core x86-64 VM, 1e5 trials at n_r = 8 took about 42 ns
# per trial with blocks of 2**14 or 2**15, 52 ns with 2**16 and 60 ns with
# 2**11
_GMI_BLOCK = 2**15


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

        The trials are solved in blocks of at most ``_GMI_BLOCK`` in a
        workspace that the draw allocates on its first call and reuses, so
        a call allocates only its result.  The block size never changes a
        result.  A draw's workspace is not shared safely across threads:
        do not call ``gmi`` or ``outage`` of one draw from two at once.
        """
        return self._solve(_check_coefficient(b), self.v_energy, self.residual)

    def _solve(self, b: complex | np.ndarray, v_energy: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """:meth:`gmi` of the trials ``(v_energy, residual)``, any subset of
        this draw's, each bit-identical to its value in ``gmi(b)``.  ``b`` may
        also hold one real coefficient per trial: the same operations with
        ``Im b = 0``, whose terms drop out exactly, give trial ``i`` the bits
        of ``gmi(b[i])``."""
        a = lmmse_coefficient(self.config)
        per_trial = isinstance(b, np.ndarray)
        power, noise_var = self.config.power, self.config.noise_var
        trials = v_energy.size
        gmi = np.zeros(trials)
        for lo in range(0, trials, self._workspace.size):
            hi = min(lo + self._workspace.size, trials)
            ws = self._workspace.first(hi - lo)
            v, y = v_energy[lo:hi], residual[lo:hi]
            bk = b[lo:hi] if per_trial else b
            br, bi = (bk, 0.0) if per_trial else (b.real, b.imag)
            # a large b overflows d and c to inf, and the GMI reads 0
            with np.errstate(over="ignore", invalid="ignore"):
                b_abs2 = br * br + bi * bi
                # r = Re(b conj(a)) V + Re(b Y)
                r = np.multiply(br * a.real + bi * a.imag, v, out=ws.r)
                np.add(r, np.multiply(bk, y, out=ws.z).real, out=r)
                # d = |b|^2 |e|^2 with e = (conj(b) - conj(a)) V - Y
                e_re = np.subtract(np.multiply(br - a.real, v, out=ws.qa), y.real, out=ws.qa)
                e_im = np.subtract(np.multiply(a.imag - bi, v, out=ws.qb), y.imag, out=ws.qb)
                d = np.multiply(e_re, e_re, out=ws.d)
                np.add(d, np.multiply(e_im, e_im, out=ws.t), out=d)
                np.multiply(b_abs2, d, out=d)
                c = np.multiply(b_abs2, v, out=ws.c)
            _, val, attained = _solve_theta(c, r, d, power, noise_var, ws)
            np.copyto(gmi[lo:hi], val, where=attained)
        return gmi

    @cached_property
    def _workspace(self) -> _Workspace:
        return _Workspace.empty(min(max(self.v_energy.size, 1), _GMI_BLOCK))

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
# most trials per block of the counter's build.  Smaller blocks pay numpy's
# per-call overhead more often, larger ones page-fault on their temporaries:
# at 10,000 trials on a 2-core x86-64 VM a build took 6.5 ms in blocks of
# 1,024, 4.7 ms in 3 blocks (at most 4,096) and 5.6 ms in one block
_COUNT_BLOCK = 4096
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
    and ``kappa``, in the fewest evenly sized blocks of at most
    ``_COUNT_BLOCK`` trials, whose temporaries take about 1 MB; only the
    trials that pass the tests on ``rho`` and ``kappa`` below have their
    ends read, from the per-rate table of ``gmi._end_tables``.  The counter
    keeps 16 bytes per trial, the sorted ends.

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
        _check_rate(rate_nats)
        self.draw, self.rate = d, float(rate_nats)
        trials = d.v_energy.size
        self._lo, self._hi = np.full(trials, np.inf), np.full(trials, np.inf)
        unsure = [np.zeros(0, dtype=np.intp)]
        if self.rate == 0.0:
            self._lo.fill(0.0)  # a GMI is never below 0
        else:
            # the fewest blocks of at most _COUNT_BLOCK trials, evenly sized.
            # Only the multiset of the ends counts, so the certified ends of
            # each block are packed at the front and the inf rest sorts last
            blocks = -(-trials // _COUNT_BLOCK)
            bounds = [trials * k // blocks for k in range(blocks + 1)]
            kept = 0
            for start, stop in zip(bounds, bounds[1:]):
                lo, hi, redo = self._ends(start, stop)
                self._lo[kept : kept + lo.size], self._hi[kept : kept + hi.size] = lo, hi
                kept += lo.size
                unsure.append(redo + start)
        self._unsure = np.concatenate(unsure)
        self._lo.sort()
        self._hi.sort()
        v_min = float(d.v_energy.min())
        # the smallest b counted from the ends
        self.b_min = math.sqrt(_TINY_C / v_min) if v_min > 0.0 else math.inf

    @staticmethod
    def prepare(rate_nats: float) -> None:
        """Build the tables that every counter of ``rate_nats`` reads now;
        they are cached for the process."""
        _check_rate(rate_nats)
        if rate_nats > 0.0:
            _end_tables(float(rate_nats))

    def _ends(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lower and upper ends of the certified trials among
        ``start..stop-1``, and the offsets from ``start`` of the trials left
        to re-solve."""
        d, rate = self.draw, self.rate
        a = lmmse_coefficient(d.config)
        v, y = d.v_energy[start:stop], d.residual[start:stop]
        # s^H v = conj(a) V + Y = rho + i im, each with a rounding bound
        rho = a.real * v + y.real
        im = y.imag - a.imag * v
        rho_err = 4.0 * _EPS * (abs(a.real) * v + np.abs(y.real))
        im_err = 4.0 * _EPS * (abs(a.imag) * v + np.abs(y.imag))
        noise = (d.config.noise_var / d.config.power) * v
        num = im * im + noise
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            kappa = num / (rho * rho)
            rel = 2.0 * rho_err / np.abs(rho) + 2.0 * np.abs(im) * im_err / num + 8.0 * _EPS
            kappa_low = (np.maximum(np.abs(im) - im_err, 0.0) ** 2 + noise) / (np.abs(rho) + rho_err) ** 2

            # a peak GMI log1p(1 / kappa) a margin below the rate, or rho < 0
            # (a GMI of 0), is an outage at every b; one a margin above it
            # has an interval with two ends
            kappa_max = 1.0 / math.expm1(rate)
            tol = _GMI_MARGIN * (rate + 2.0)
            margin = 1e-7 + 4.0 * tol * (1.0 + kappa_max)
            dead = ((rho < -rho_err) & (rate > tol)) | (kappa_low > kappa_max * (1.0 + margin))
            certified = (rho > 0.0) & (rel <= _KAPPA_ERROR)
            certified &= kappa * (1.0 + rel) < kappa_max * (1.0 - margin)

            # only the trials certified so far have their ends read, with the
            # pre-tests' temporaries freed (fewer pages to fault in)
            del im, rho_err, im_err, noise, num, kappa_low
            live = np.flatnonzero(certified)
            kappa, rel = kappa[live], rel[live]
            k_err = kappa * rel
            p, err, slope = _feasible_ends(kappa, k_err, rate)
            sure_lo, sure_hi = (err + rel <= _END_WINDOW / 8.0) & (slope * _END_WINDOW >= 8.0 * tol)
            # for kappa <= 1/rate - 1 the interval reaches b -> 0+, where the
            # GMI tends to 1 / (1 + kappa)
            to_zero = kappa <= 1.0 / rate - 1.0
            p[0, to_zero] = 0.0
            sure_lo[to_zero] = (rate + 2.0 * tol) * (1.0 + kappa + k_err)[to_zero] <= 1.0
            sure = sure_lo & sure_hi
            certified[live] = sure
            # b = (rho / V) p, with rho / V the peak
            live = live[sure]
            lo, hi = (rho[live] / v[live]) * p[:, sure]
        return lo, hi, np.flatnonzero(~(dead | certified))

    def outages(self, b_values: Sequence[float]) -> list[OutageEstimate]:
        """``[d.outage(b, rate_nats) for b in b_values]``, counted."""
        b = np.asarray(b_values, dtype=float)
        lo, hi = self._lo, self._hi
        w_lo, w_hi = b * (1.0 - 2.0 * _END_WINDOW), b * (1.0 + 2.0 * _END_WINDOW)
        counted = np.isfinite(b) & (b > 0.0) & (b >= self.b_min)
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
                estimates.append(d.outage(bi, self.rate))
                continue
            failures = trials - (lo_le[i] - hi_lt[i])
            if redo.size:
                gmi = d._solve(complex(bi), d.v_energy[redo], d.residual[redo])
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


def _sample(n_r: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The first stage of :func:`draw`: the standardized variates ``G`` and
    ``z1 + i z2`` of trials ``0..trials-1``, which depend on ``(seed, n_r)``
    alone, filled one chunk at a time by the contract."""
    gamma, normals = np.empty(trials), np.empty(trials, dtype=np.complex128)
    stream = BlockSampler(seed).stream
    for k, lo in enumerate(range(0, trials, CHUNK_TRIALS)):
        rng = stream(k)
        n = min(CHUNK_TRIALS, trials - lo)
        gamma[lo : lo + n] = rng.standard_gamma(n_r, size=CHUNK_TRIALS)[:n]
        z = rng.standard_normal(2 * CHUNK_TRIALS)
        normals.real[lo : lo + n] = z[:n]
        normals.imag[lo : lo + n] = z[CHUNK_TRIALS : CHUNK_TRIALS + n]
    return gamma, normals


def _scale(config: ChannelConfig, gamma: np.ndarray, normals: np.ndarray, *, in_place: bool = False) -> Draw:
    """The second stage of :func:`draw`: the draw of ``config`` from the
    variates of :func:`_sample` for its ``n_r``, scaled one chunk at a time
    so that the temporaries stay one chunk's.  With ``in_place`` it
    overwrites the variates and keeps them as its arrays."""
    pilot_var, error_var = gram_variances(config)
    half_error_var = error_var / 2.0
    if in_place:
        v, y = gamma, normals
    else:
        v, y = np.empty_like(gamma), np.empty_like(normals)
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
    ``trials`` and ``n_r``; a draw of fewer trials than a chunk still
    samples the whole chunk, 0.2-0.5 ms.  Its first ``T`` trials are those
    of ``draw(config, T, seed)``.  ``trials`` and ``seed`` are refused with
    a :class:`~lsrsim.channel.ConfigError` naming them unless they are
    integers below ``2**64`` (``np.integer`` included), ``trials`` positive
    and at most ``channel._MAX_TRIALS``, whose arrays numpy can describe.
    """
    trials = _check_trials("trials", trials)
    seed = _check_integer("seed", seed)
    return _scale(config, *_sample(config.n_r, trials, seed), in_place=True)


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
    _check_integer("bins", bins, low=2)
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
