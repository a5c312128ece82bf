"""The outage-minimizing real shrinkage coefficient of one draw.

Every ``b`` reads the same :class:`~lsrsim.outage.Draw`, so the Monte Carlo
outage is a step function of ``b`` that steps at the ends of the trials'
feasible intervals.  :func:`optimize_b` sweeps the sorted ends of one
:class:`~lsrsim.outage.OutageCounter` for the exact minimizer, the
sample-average-approximation optimum (Kleywegt, Shapiro & Homem-de-Mello,
SIAM J. Optim. 12(2), 2002).
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
    outage ``at_a`` of the LMMSE coefficient ``b = a``, in the domain or
    not, which the search reads to compare with ``b_star``."""

    b_star: float
    outage: OutageEstimate
    sweep: tuple[np.ndarray, np.ndarray]
    at_a: OutageEstimate


def optimize_b(d: Draw, rate_nats: float, spec: SearchSpec = SearchSpec()) -> BOptimum:
    """Minimize the outage of draw ``d`` over real ``b`` in ``[ratio_low, ratio_high] * a``.

    The sweep counts the outage between consecutive ends of the trials'
    feasible intervals (:meth:`~lsrsim.outage.OutageCounter.intervals`),
    from ``max(ratio_low a, b_min)`` on; a domain wholly below ``b_min``,
    where ``b^2 V`` nears underflow, is one step read by ``d.outage`` at
    its midpoint.  ``b_star`` is the midpoint of the leftmost step of least
    outage, or ``a`` when ``a`` lies in the domain and reads fewer failures:
    with ratio 1 in the domain the optimum is never worse than the LMMSE
    point.  ``outage`` equals ``d.outage(b_star, rate_nats)`` and ``at_a``
    equals ``d.outage(a, rate_nats)``, failure for failure.
    """
    a = abs(lmmse_coefficient(d.config))
    low, high = spec.ratio_low * a, spec.ratio_high * a
    counter = OutageCounter(d, rate_nats)
    if high <= counter.b_min:
        starts, failures = np.array([low]), np.array([counter.outages([0.5 * low + 0.5 * high])[0].failures])
    else:
        start = max(low, counter.b_min)
        lo, hi = counter.intervals()
        i, i_end = np.searchsorted(lo, start, "right"), np.searchsorted(lo, high, "left")
        j, j_end = np.searchsorted(hi, start, "right"), np.searchsorted(hi, high, "left")
        ends = np.concatenate(([start], lo[i:i_end], hi[j:j_end]))
        order = np.argsort(ends, kind="stable")
        # just above start #{lo <= start} - #{hi <= start} trials are
        # feasible; each lower end passed adds one, each upper end takes one
        # away (every end lies above start, which stays first)
        failures = np.where(order > i_end - i, 1, -1)
        failures[0] = lo.size - i + j
        np.cumsum(failures, out=failures)
        starts = ends[order]
        del ends, order  # 8 bytes per end each, at the search's memory peak
        # a step starts after the last of equal ends, where the outage changes
        last = np.r_[starts[1:] != starts[:-1], True]
        starts, failures = starts[last], failures[last]
        step = np.r_[True, failures[1:] != failures[:-1]]
        starts, failures = starts[step], failures[step]
    best = int(np.argmin(failures))
    end = starts[best + 1] if best + 1 < starts.size else high
    b_star = 0.5 * float(starts[best]) + 0.5 * float(end)
    est, at_a = counter.outages([b_star, a])
    if low <= a <= high and at_a.failures < est.failures:
        b_star, est = a, at_a
    return BOptimum(b_star=b_star, outage=est, sweep=(starts, failures / d.v_energy.size), at_a=at_a)
