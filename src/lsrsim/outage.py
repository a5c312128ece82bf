"""Monte Carlo draws reduced to per-trial statistics; outage and GMI histograms.

Trial ``i`` of a run draws its realization ``(s, v)`` from the substream
derived from ``(seed, i)`` (see :mod:`lsrsim.streams`).  With ``a`` the LMMSE
coefficient, write ``s^H v = conj(a) V + Y`` where ``V = ||v||^2`` and
``Y = (s - a v)^H v``.  For any coefficient ``b`` the GMI reads a trial only
through ``c = |b|^2 V``, ``r = Re(b conj(a)) V + Re(b Y)`` and
``d = |b|^2 |(conj(b) - conj(a)) V - Y|^2`` (see :mod:`lsrsim.gmi`), and none
of these is formed as a difference of nearly equal numbers.
:func:`draw` reduces each trial once to ``(V, Y)``, and every ``b`` is then
read from that :class:`Draw`, so all coefficients share the same
realizations (common random numbers) and per-trial outcomes are a pure
function of ``(config, b, seed, trial index)``, independent of worker count
and execution order.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelConfig, _component_scales, lmmse_coefficient
from .gmi import _solve_theta
from .streams import BlockSampler, _check_index, _check_seed

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

# float budget per sampled chunk (bounds memory at ~64 MB per worker)
_CHUNK_FLOATS = 8_000_000


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
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not (0 <= failures <= trials):
        raise ValueError(f"failures must be in [0, trials], got {failures}")
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
    Built by :func:`draw`.
    """

    config: ChannelConfig
    v_energy: np.ndarray
    residual: np.ndarray  # complex

    def gmi(self, b: complex) -> np.ndarray:
        """Per-trial GMI (nats) of the decoder scaled by ``b``; shape ``(trials,)``."""
        b = complex(b)
        if not cmath.isfinite(b):
            raise ValueError(f"b must be finite, got {b}")
        a = lmmse_coefficient(self.config)
        b_abs2 = b.real * b.real + b.imag * b.imag
        v, y = self.v_energy, self.residual
        r = (b * a.conjugate()).real * v + (b * y).real
        e = (b - a).conjugate() * v - y
        d = b_abs2 * (e.real * e.real + e.imag * e.imag)
        _, gmi, _ = _solve_theta(b_abs2 * v, r, d, self.config.power, self.config.noise_var)
        return gmi

    def outage(self, b: complex, rate_nats: float) -> OutageEstimate:
        """Monte Carlo outage probability ``p(GMI(b) < rate_nats)``.

        The outage event uses a strict inequality, so a zero rate can never
        count an outage (the GMI is nonnegative).
        """
        if not 0 <= rate_nats < math.inf:
            raise ValueError(f"rate_nats must be finite and nonnegative, got {rate_nats}")
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


def _draw_block(d: Draw, seed: int, start: int, stop: int) -> None:
    """Fill the statistics of trials ``[start, stop)`` of ``d``.

    The rows of ``s`` and ``v`` are bit-identical to ``sample_realization(
    config, substream(seed, i))``.
    """
    config = d.config
    n = config.n_r
    scale_s, scale_z = _component_scales(config)
    a = lmmse_coefficient(config)
    sampler = BlockSampler(seed)
    chunk = max(1, _CHUNK_FLOATS // (4 * n))
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        w = np.empty((hi - lo, 4 * n))
        for j in range(hi - lo):
            sampler.normals(lo + j, w[j])
        s = (w[:, :n] + 1j * w[:, n : 2 * n]) * scale_s
        v = s * config.pilot + (w[:, 2 * n : 3 * n] + 1j * w[:, 3 * n :]) * scale_z
        d.v_energy[lo:hi] = np.sum(np.abs(v) ** 2, axis=1)
        s -= a * v  # s now holds the estimation error s - a v
        d.residual[lo:hi] = np.sum(np.conj(s) * v, axis=1)


def draw(config: ChannelConfig, trials: int, seed: int, *, workers: int = 1) -> Draw:
    """Draw trials ``0..trials-1`` of ``(config, seed)`` and reduce each to
    ``(V, Y)``.

    This is the only sampling path of the package.  ``workers`` only splits
    the trial range across threads; the result is bit-identical for any
    worker count.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    _check_seed(seed)
    _check_index(trials - 1)

    d = Draw(config, np.empty(trials), np.empty(trials, dtype=np.complex128))
    nw = min(workers, trials)
    if nw == 1:
        _draw_block(d, seed, 0, trials)
        return d
    bounds = [trials * k // nw for k in range(nw + 1)]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        futures = [pool.submit(_draw_block, d, seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
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
    if len(b_values) == 0:
        raise ValueError("b_values must be nonempty")
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
    if bins < 2:
        raise ValueError(f"bins must be at least 2, got {bins}")
    top = float(gmi.max())
    edges = np.linspace(0.0, top if top > 0.0 else 1.0, bins + 1)
    counts, _ = np.histogram(gmi, bins=edges)
    return GmiHistogram(
        edges=edges,
        counts=counts,
        mean=float(np.mean(gmi)),
        variance=float(np.var(gmi)),
    )
