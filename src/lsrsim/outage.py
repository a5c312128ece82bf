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
trial count, the worker count or the other configs drawn.  ``G``, ``z1``
and ``z2`` depend only on ``(seed, n_r, i)``, so every SNR point of one
antenna count reads the same standardized variates, and every ``b`` is read
from one :class:`Draw`: receivers and coefficients are compared on common
random numbers.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import ChannelConfig, _check, _check_integer, gram_variances, lmmse_coefficient
from .gmi import _solve_theta, _Workspace
from .streams import CHUNK_TRIALS, BlockSampler

__all__ = [
    "Draw",
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


def _draw_chunks(d: Draw, seed: int, first: int, stop: int) -> None:
    """Fill the trials of chunks ``[first, stop)`` of ``d`` by the contract."""
    pilot_var, error_var = gram_variances(d.config)
    half_error_var = error_var / 2.0
    stream = BlockSampler(seed).stream
    for k in range(first, stop):
        rng = stream(k)
        g = rng.standard_gamma(d.config.n_r, size=CHUNK_TRIALS)
        z = rng.standard_normal(2 * CHUNK_TRIALS)
        lo = k * CHUNK_TRIALS
        n = min(CHUNK_TRIALS, d.v_energy.size - lo)
        rows = slice(lo, lo + n)
        v = d.v_energy[rows] = pilot_var * g[:n]
        t = np.sqrt(half_error_var * v)
        d.residual.real[rows] = t * z[:n]
        d.residual.imag[rows] = t * z[CHUNK_TRIALS : CHUNK_TRIALS + n]


def draw(config: ChannelConfig, trials: int, seed: int, *, workers: int = 1) -> Draw:
    """Draw trials ``0..trials-1`` of ``(config, seed)``, each as its ``(V, Y)``.

    The result takes 24 bytes per trial, and the sampling about 0.25 MB
    per worker (one chunk's variates and their temporaries) whatever
    ``trials`` and ``n_r``; a draw of fewer trials than a chunk still
    samples the whole chunk, 0.2-0.5 ms.  ``workers`` threads split the
    chunk range; the result is bit-identical for any worker count, and its
    first ``T`` trials are those of ``draw(config, T, seed)``.  ``trials``,
    ``seed`` and ``workers`` are refused with a
    :class:`~lsrsim.channel.ConfigError` naming them unless they are
    integers below ``2**64`` (``np.integer`` included), the counts positive.
    """
    trials = _check_integer("trials", trials, low=1)
    workers = _check_integer("workers", workers, low=1)
    seed = _check_integer("seed", seed)

    d = Draw(config, np.empty(trials), np.empty(trials, dtype=np.complex128))
    chunks = -(-trials // CHUNK_TRIALS)
    nw = min(workers, chunks)
    if nw == 1:
        _draw_chunks(d, seed, 0, chunks)
        return d
    bounds = [chunks * k // nw for k in range(nw + 1)]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        futures = [pool.submit(_draw_chunks, d, seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        for f in futures:
            f.result()
    return d


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
