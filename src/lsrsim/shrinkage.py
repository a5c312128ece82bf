"""The outage-minimizing real shrinkage coefficient of one draw.

Every ``b`` reads the same :class:`~lsrsim.outage.Draw`, so the Monte Carlo
outage is a step function of ``b`` that steps at the ends of the trials'
feasible intervals.  :func:`optimize_b` reads the first step of least
outage from one :class:`~lsrsim.outage.OutageCounter`'s sorted ends, each
upper end ranked among the lower ends, and chooses ``b*`` from it: the exact
minimizer, the sample-average-approximation optimum (Kleywegt, Shapiro &
Homem-de-Mello, SIAM J. Optim. 12(2), 2002).  The whole step function is
built from the same ends only when it is read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
    """The minimizer, its outage estimate and the outage ``at_a`` at
    ``b = |a|``, the LMMSE coefficient's magnitude, in the domain or not,
    which the search reads to compare with ``b_star``.  ``at_a`` is the
    LMMSE receiver's outage only where ``a`` is real and positive, as for
    every config the CLI builds.

    :attr:`sweep` is the outage over the domain as a step function, built
    on its first read from the search's counter and kept."""

    b_star: float
    outage: OutageEstimate
    at_a: OutageEstimate
    _counter: OutageCounter = field(repr=False)
    _domain: tuple[float, float] = field(repr=False)

    @functools.cached_property
    def sweep(self) -> tuple[np.ndarray, np.ndarray]:
        """``(b, p_hat)``: ``p_hat[k]`` holds from ``b[k]`` to ``b[k + 1]``
        (the last to the domain's end), and each step changes it; 16 bytes
        a step, about two steps a trial.  It reads the counter's ends and
        the draw, which must not have changed since the search."""
        starts, p_hat, _ = self._counter._sweep(*self._domain)
        return starts, p_hat


def optimize_b(d: Draw, rate_nats: float, spec: SearchSpec = SearchSpec()) -> BOptimum:
    """Minimize the outage of draw ``d`` over real ``b`` in ``[ratio_low, ratio_high] * a``.

    The outage counter of ``d`` at ``rate_nats``
    (:class:`~lsrsim.outage.OutageCounter`, built in the calling thread's
    kept scratch) ranks each upper end of its trials' feasible intervals in
    the domain among the lower ends, which reads the outage just below that
    end with no step function.  So a search allocates only the counter's
    sorted ends, 16 bytes a trial, which the result keeps for its
    :attr:`~BOptimum.sweep`, about 64 kB for a piece of 4,096 ranks, and
    its results.
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
    b_star = counter._least(low, high)
    est, at_a = counter.outages([b_star, a])
    if low <= a <= high and at_a.failures < est.failures:
        b_star, est = a, at_a
    return BOptimum(b_star=b_star, outage=est, at_a=at_a, _counter=counter, _domain=(low, high))
