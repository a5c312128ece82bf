"""Monte Carlo outage estimation, GMI sampling, and histogram extraction.

Trial ``i`` of a run draws its realization from the substream derived from
``(seed, i)`` (see :mod:`lsrsim.streams`), so per-trial outcomes are a pure
function of ``(config, b, seed, trial index)``: results do not depend on
worker count or execution order, and two runs that share a seed consume
identical fading/pilot noise per trial regardless of ``b`` (common random
numbers).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelConfig, _component_scales
from .gmi import _solve_theta
from .streams import BlockSampler, _check_index, _check_seed

__all__ = [
    "OutageEstimate",
    "GmiHistogram",
    "wilson_interval",
    "gmi_samples",
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


def _outage_estimate(gmi: np.ndarray, rate_nats: float) -> OutageEstimate:
    """Outage count ``GMI < rate_nats`` over per-trial GMI values, with its
    Wilson interval."""
    trials = gmi.size
    failures = int(np.count_nonzero(gmi < rate_nats))
    low, high = wilson_interval(failures, trials)
    return OutageEstimate(
        p_hat=failures / trials,
        trials=trials,
        failures=failures,
        ci95_low=low,
        ci95_high=high,
    )


def _sample_block(
    config: ChannelConfig, sampler: BlockSampler, start: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw realizations for trials [start, start+count) as (S, V) row arrays.

    Row ``j`` is bit-identical to ``sample_realization(config,
    substream(seed, start + j))``.
    """
    n = config.n_r
    scale_s, scale_z = _component_scales(config)
    w = np.empty((count, 4 * n))
    for j in range(count):
        sampler.normals(start + j, w[j])
    s = (w[:, :n] + 1j * w[:, n : 2 * n]) * scale_s
    z = (w[:, 2 * n : 3 * n] + 1j * w[:, 3 * n :]) * scale_z
    return s, s * config.pilot + z


def _gmi_block(
    config: ChannelConfig,
    b_values: Sequence[complex],
    seed: int,
    start: int,
    count: int,
    out: np.ndarray,
) -> None:
    """Fill ``out[k, :count]`` with GMI values for each b over one trial span."""
    sampler = BlockSampler(seed)
    chunk = max(1, _CHUNK_FLOATS // (4 * config.n_r))
    power, noise_var = config.power, config.noise_var
    done = 0
    while done < count:
        m = min(chunk, count - done)
        s, v = _sample_block(config, sampler, start + done, m)
        s_energy = np.sum(np.abs(s) ** 2, axis=1)
        for k, b in enumerate(b_values):
            bv = b * v
            csi_energy = np.sum(np.abs(bv) ** 2, axis=1)
            cross = np.sum(np.conj(s) * bv, axis=1)
            cross_abs2 = cross.real * cross.real + cross.imag * cross.imag
            mismatch = np.sum(np.abs(s - bv) ** 2, axis=1)
            _, gmi, _ = _solve_theta(
                s_energy, csi_energy, cross_abs2, mismatch, power, noise_var
            )
            out[k, done : done + m] = gmi
        done += m


def gmi_samples_multi_b(
    config: ChannelConfig,
    b_values: Sequence[complex],
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Per-trial GMI values for several coefficients on shared realizations.

    Returns an array of shape ``(len(b_values), trials)``; column ``i`` of
    every row is computed from the same ``(S, V)`` draw of substream
    ``(seed, i)``.  ``workers`` only splits the trial range across threads;
    the result is bit-identical for any worker count.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if len(b_values) == 0:
        raise ValueError("b_values must be nonempty")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    _check_seed(seed)
    _check_index(trials - 1)

    bs = [complex(b) for b in b_values]
    out = np.empty((len(bs), trials))
    nw = min(workers, trials)
    if nw == 1:
        _gmi_block(config, bs, seed, 0, trials, out)
        return out

    bounds = [trials * k // nw for k in range(nw + 1)]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        futures = [
            pool.submit(
                _gmi_block,
                config,
                bs,
                seed,
                bounds[k],
                bounds[k + 1] - bounds[k],
                out[:, bounds[k] : bounds[k + 1]],
            )
            for k in range(nw)
        ]
        for f in futures:
            f.result()
    return out


def gmi_samples(
    config: ChannelConfig,
    b: complex,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Per-trial GMI values (nats) for one coefficient; shape ``(trials,)``."""
    return gmi_samples_multi_b(config, [b], trials, seed, workers=workers)[0]


def estimate_outage(
    config: ChannelConfig,
    b: complex,
    rate_nats: float,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> OutageEstimate:
    """Monte Carlo outage probability ``p(GMI < rate_nats)``.

    The outage event uses a strict inequality, so a zero rate can never
    count an outage (the GMI is nonnegative).
    """
    return _outage_estimate(gmi_samples(config, b, trials, seed, workers=workers), rate_nats)


def gmi_histogram(
    config: ChannelConfig,
    b: complex,
    trials: int,
    seed: int,
    bins: int,
    *,
    workers: int = 1,
) -> GmiHistogram:
    """Equal-width GMI histogram over ``[0, max observed]`` plus moments.

    When every trial yields zero GMI the bin range degenerates; a unit upper
    edge is used so all mass lands in the first bin.
    """
    if bins < 2:
        raise ValueError(f"bins must be at least 2, got {bins}")
    gmi = gmi_samples(config, b, trials, seed, workers=workers)
    top = float(gmi.max())
    edges = np.linspace(0.0, top if top > 0.0 else 1.0, bins + 1)
    counts, _ = np.histogram(gmi, bins=edges)
    return GmiHistogram(
        edges=edges,
        counts=counts,
        mean=float(np.mean(gmi)),
        variance=float(np.var(gmi)),
    )
