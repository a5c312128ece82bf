"""Monte Carlo draws reduced to per-trial statistics; outage and GMI histograms.

Trial ``i`` of a run draws its realization ``(s, v)`` from the substream
derived from ``(seed, i)`` (see :mod:`lsrsim.streams`).  With ``a`` the LMMSE
coefficient, write ``s^H v = conj(a) V + Y`` where ``V = ||v||^2`` and
``Y = (s - a v)^H v``.  For any coefficient ``b`` the GMI reads a trial only
through ``c = |b|^2 V``, ``r = Re(b conj(a)) V + Re(b Y)`` and
``d = |b|^2 |(conj(b) - conj(a)) V - Y|^2`` (see :mod:`lsrsim.gmi`), and none
of these is formed as a difference of nearly equal numbers.
:func:`draw_many` reduces each trial once per config to ``(V, Y)``, and
every ``b`` is then read from that :class:`Draw`, so all coefficients share
the same realizations (common random numbers) and per-trial outcomes are a
pure function of ``(config, b, seed, trial index)``, independent of worker
count, block sizes, the configs drawn together and execution order.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import ChannelConfig, _check, _check_integer, _component_scales, lmmse_coefficient
from .gmi import _solve_theta, _Workspace
from .streams import BlockSampler

__all__ = [
    "Draw",
    "OutageEstimate",
    "GmiHistogram",
    "wilson_interval",
    "draw",
    "draw_many",
    "gmi_samples_multi_b",
    "estimate_outage",
    "gmi_histogram",
]

# two-sided 95% normal quantile, Phi^{-1}(0.975)
_Z95 = 1.959963984540054

# normals per sampling block (256 KB); with the temporaries of its
# reduction a block peaks at about 1.1 MB per worker (tracemalloc), whatever
# the trial count (one trial's worth, about 100 n_r bytes, when n_r exceeds
# 8192)
_CHUNK_FLOATS = 32_768

# trials per block of Draw.gmi's solve; its workspace takes 114 bytes per
# trial of a block (3.7 MB at this cap).  Larger blocks fall out of cache
# and smaller ones pay the per-block call overhead: on a 2-core x86-64 VM,
# 1e5 trials at n_r = 8 took about 42 ns per trial with blocks of 2**14 or
# 2**15, 52 ns with 2**16 and 60 ns with 2**11
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

    Valid down to zero observed failures, unlike the Wald interval.
    """
    _check(trials >= 1, "trials", f"must be positive, got {trials}")
    _check(0 <= failures <= trials, "failures", f"must be in [0, trials], got {failures}")
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

    Entry ``i`` of each array belongs to the realization ``(s, v)`` of
    substream ``(seed, i)``: ``v_energy = ||v||^2`` and
    ``residual = (s - a v)^H v`` with ``a = lmmse_coefficient(config)``.
    Built by :func:`draw` or :func:`draw_many`.
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
        do not call ``gmi`` or ``outage`` of one draw concurrently.
        """
        b = complex(b)
        _check(cmath.isfinite(b), "b", f"must be finite, got {b}")
        a = lmmse_coefficient(self.config)
        b_abs2 = b.real * b.real + b.imag * b.imag
        b_a = (b * a.conjugate()).real
        b_minus_a = (b - a).conjugate()
        power, noise_var = self.config.power, self.config.noise_var
        trials = self.v_energy.size
        gmi = np.zeros(trials)
        for lo in range(0, trials, self._workspace.size):
            hi = min(lo + self._workspace.size, trials)
            ws = self._workspace.first(hi - lo)
            v, y = self.v_energy[lo:hi], self.residual[lo:hi]
            # r = Re(b conj(a)) V + Re(b Y)
            r = np.add(np.multiply(b_a, v, out=ws.r), np.multiply(b, y, out=ws.z).real, out=ws.r)
            # d = |b|^2 |e|^2 with e = (conj(b) - conj(a)) V - Y
            e = np.subtract(np.multiply(b_minus_a, v, out=ws.z), y, out=ws.z)
            d = np.multiply(e.real, e.real, out=ws.d)
            np.add(d, np.multiply(e.imag, e.imag, out=ws.t), out=d)
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
        _check(0 <= rate_nats < math.inf, "rate_nats",
               f"must be finite and nonnegative, got {rate_nats}")
        gmi = self.gmi(b)
        failures = int(np.count_nonzero(gmi < rate_nats))
        low, high = wilson_interval(failures, gmi.size)
        return OutageEstimate(
            p_hat=failures / gmi.size,
            trials=gmi.size,
            failures=failures,
            ci95_low=low,
            ci95_high=high,
        )


def _draw_block(draws: Sequence[Draw], seed: int, start: int, stop: int) -> None:
    """Fill the statistics of trials ``[start, stop)`` of every draw in ``draws``.

    The draws share ``n_r``, so each trial's normals are sampled once and
    reduced once per draw.  The trials are sampled in blocks of about
    ``_CHUNK_FLOATS`` normals into one buffer allocated once, and each block
    is reduced while it is still in cache by ``sample_realization``'s own
    expressions, one trial per row, with ``V = sum |v|^2`` and
    ``Y = sum conj(s - a v) v`` summed over each row.  So ``V`` and ``Y``
    are bit-identical to those sums for any block size and any set of draws
    sampled together.
    """
    n = draws[0].config.n_r
    normals = BlockSampler(seed).normals
    rows = min(max(1, _CHUNK_FLOATS // (4 * n)), stop - start)
    w = np.empty((rows, 4 * n))
    w_rows = list(w)
    for lo in range(start, stop, rows):
        wb = w[: min(rows, stop - lo)]
        hi = lo + len(wb)
        for index, row in zip(range(lo, hi), w_rows):
            normals(index, row)
        for d in draws:
            scale_s, scale_z = _component_scales(d.config)
            s = (wb[:, :n] + 1j * wb[:, n : 2 * n]) * scale_s
            v = s * d.config.pilot + (wb[:, 2 * n : 3 * n] + 1j * wb[:, 3 * n :]) * scale_z
            d.v_energy[lo:hi] = np.sum(np.abs(v) ** 2, axis=1)
            d.residual[lo:hi] = np.sum(np.conj(s - lmmse_coefficient(d.config) * v) * v, axis=1)


def draw_many(
    configs: Sequence[ChannelConfig], trials: int, seed: int, *, workers: int = 1
) -> list[Draw]:
    """Draw trials ``0..trials-1`` of ``seed`` once and reduce them to one
    :class:`Draw` per config.

    The configs must share ``n_r``: trial ``i``'s normals depend only on
    ``n_r`` and ``(seed, i)``, so they are sampled once and reduced once per
    config, and entry ``k`` of the result is bit-identical to
    ``draw(configs[k], trials, seed)``.  Each block of about
    ``_CHUNK_FLOATS / (4 n_r)`` trials is reduced by ``sample_realization``'s
    expressions, one trial per row.  Besides the results (24 bytes per trial
    each), each worker then holds about 100 ``n_r`` bytes per trial of a
    block, about 1.1 MB whatever the trial count, and the block size never
    changes a result.  ``workers`` only splits the trial range across
    threads; the result is bit-identical for any worker count.  An empty
    ``configs``, or one that mixes antenna counts, is refused with a
    :class:`~lsrsim.channel.ConfigError` naming ``configs``; so are
    ``trials``, ``seed`` and ``workers`` unless they are integers below
    ``2**64`` (``np.integer`` included).
    """
    configs = list(configs)
    _check(len(configs) > 0, "configs", "must be nonempty")
    antennas = sorted({c.n_r for c in configs})
    _check(len(antennas) == 1, "configs", f"must share one n_r, got {antennas}")
    trials = _check_integer("trials", trials, low=1)
    workers = _check_integer("workers", workers, low=1)
    seed = _check_integer("seed", seed)

    draws = [Draw(c, np.empty(trials), np.empty(trials, dtype=np.complex128)) for c in configs]
    nw = min(workers, trials)
    if nw == 1:
        _draw_block(draws, seed, 0, trials)
        return draws
    bounds = [trials * k // nw for k in range(nw + 1)]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        futures = [pool.submit(_draw_block, draws, seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        for f in futures:
            f.result()
    return draws


def draw(config: ChannelConfig, trials: int, seed: int, *, workers: int = 1) -> Draw:
    """Draw trials ``0..trials-1`` of ``(config, seed)`` and reduce each to
    ``(V, Y)``: ``draw_many([config], trials, seed, workers=workers)[0]``.

    :func:`draw_many` is the only sampling path of the package; it samples
    the normals of several configs that share ``n_r`` once.  The result
    takes 24 bytes per trial, and the sampling about 1.1 MB per worker
    whatever the trial count.  Neither the block size nor
    ``workers`` (threads that split the trial range) changes a bit of the
    result.
    """
    return draw_many([config], trials, seed, workers=workers)[0]


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
    ``draw(config, trials, seed, workers=workers).gmi(b_values[k])``.
    """
    _check(len(b_values) > 0, "b_values", "must be nonempty")
    d = draw(config, trials, seed, workers=workers)
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
    edge is used so all mass lands in the first bin.
    """
    _check_integer("bins", bins, low=2)
    top = float(gmi.max())
    edges = np.linspace(0.0, top if top > 0.0 else 1.0, bins + 1)
    counts, _ = np.histogram(gmi, bins=edges)
    return GmiHistogram(
        edges=edges,
        counts=counts,
        mean=float(np.mean(gmi)),
        variance=float(np.var(gmi)),
    )
