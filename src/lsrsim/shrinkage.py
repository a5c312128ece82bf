"""The outage-minimizing real shrinkage coefficient of one draw.

Every ``b`` reads the same :class:`~lsrsim.outage.Draw`, so the Monte Carlo
outage is a step function of ``b`` that steps at the ends of the trials'
feasible intervals.  One :class:`~lsrsim.outage.OutageCounter` sweeps its
sorted ends for that step function, and :func:`optimize_b` chooses ``b*``
from it: the exact minimizer, the sample-average-approximation optimum
(Kleywegt, Shapiro & Homem-de-Mello, SIAM J. Optim. 12(2), 2002).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _check, _check_real, lmmse_coefficient
from .outage import Draw, OutageCounter, OutageEstimate

__all__ = ["SearchSpec", "BOptimum", "optimize_b"]


@dataclass(frozen=True)
class SearchSpec:
    """Search domain ``[ratio_low, ratio_high] * a`` of :func:`optimize_b`,
    ``a`` the LMMSE coefficient magnitude, validated on construction.

    Errors name the field as ``search.<field>``, its path in an experiment
    config.
    """

    ratio_low: float = 0.0
    ratio_high: float = 2.0

    def __post_init__(self):
        _check_real("search.ratio_low", self.ratio_low, 0)
        _check_real("search.ratio_high", self.ratio_high)
        _check(self.ratio_low < self.ratio_high, "search.ratio_low", "need ratio_low < ratio_high")


@dataclass(eq=False)
class BOptimum:
    """The minimizer, its outage estimate, the outage as a step function
    ``sweep = (b, p_hat)``: ``p_hat[k]`` holds from ``b[k]`` to ``b[k + 1]``
    (the last to the domain's end), and each step changes it; and the
    outage ``at_a`` at ``b = |a|``, the LMMSE coefficient's magnitude, in
    the domain or not, which the search reads to compare with ``b_star``.
    ``at_a`` is the LMMSE receiver's outage only where ``a`` is real and
    positive, as for every config the CLI builds."""

    b_star: float
    outage: OutageEstimate
    sweep: tuple[np.ndarray, np.ndarray]
    at_a: OutageEstimate


def optimize_b(d: Draw, rate_nats: float, spec: SearchSpec = SearchSpec()) -> BOptimum:
    """Minimize the outage of draw ``d`` over real ``b`` in ``[ratio_low, ratio_high] * a``.

    The outage counter of ``d`` at ``rate_nats`` sweeps the domain for the
    outage's step function (:class:`~lsrsim.outage.OutageCounter`, whose
    build and sweep run in the calling thread's kept scratch, so a search
    of up to about 30,000 trials allocates only the counter's sorted ends,
    16 bytes a trial, freed on return, and its results).
    ``b_star`` is the midpoint of the leftmost step of least outage, or
    ``|a|`` when ``|a|`` lies in the domain and reads fewer failures: with
    ratio 1 in the domain the optimum is never worse than ``b = |a|``.
    ``outage`` equals ``d.outage(b_star, rate_nats)`` and ``at_a`` equals
    ``d.outage(abs(a), rate_nats)``, failure for failure.  Only real ``b``
    are searched, so where ``a`` is not real and positive ``b = |a|`` is not
    the LMMSE receiver, and ``b_star`` may read more outage than
    ``d.outage(a, rate_nats)``.  Searches may run in several threads at
    once.  A ``spec`` that is not a :class:`SearchSpec` is refused.
    """
    _check(isinstance(spec, SearchSpec), "spec", f"must be a SearchSpec, got {spec!r}")
    a = abs(lmmse_coefficient(d.config))
    low, high = spec.ratio_low * a, spec.ratio_high * a
    counter = OutageCounter(d, rate_nats)
    starts, p_hat, best = counter._sweep(low, high)
    end = starts[best + 1] if best + 1 < starts.size else high
    b_star = 0.5 * float(starts[best]) + 0.5 * float(end)
    est, at_a = counter.outages([b_star, a])
    if low <= a <= high and at_a.failures < est.failures:
        b_star, est = a, at_a
    return BOptimum(b_star=b_star, outage=est, sweep=(starts, p_hat), at_a=at_a)
