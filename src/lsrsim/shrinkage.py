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
from .outage import Draw, OutageCounter, OutageEstimate, _search_scratch

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

    The counter's sorted ends (16 bytes a trial), the build's temporaries
    and, after the build, the sweep's arrays (25 bytes an end) and the
    temporaries of the counter's solves are views of the calling thread's
    kept scratch (``outage._search_scratch``, 1.5 MiB), so a search of up to
    about 20,000 trials, few of them re-solved, allocates only its results:
    ``sweep``, 16 bytes a step.  A larger search allocates what does not
    fit, as a plain numpy search would, and the scratch does not grow.
    Searches may run in several threads at once.  A thread's scratch serves
    one search at a time, whose counter's ends stay at its front: every
    solve of the counter, ``d.outage``'s included, carves after them, and
    the search calls nothing that carves the scratch from its start.
    """
    a = abs(lmmse_coefficient(d.config))
    low, high = spec.ratio_low * a, spec.ratio_high * a
    # the counter's ends and the sweep's arrays are views of the thread's
    # kept scratch, the sweep's after the ends; only the results are new
    arena = _search_scratch()
    counter = OutageCounter._in_scratch(d, rate_nats, arena)
    if high <= counter.b_min:
        best, starts = 0, np.array([low])
        p_hat = np.array([counter.outages([0.5 * low + 0.5 * high])[0].p_hat])
    else:
        start = max(low, counter.b_min)
        lo, hi = counter.intervals()
        i, i_end = np.searchsorted(lo, start, "right"), np.searchsorted(lo, high, "left")
        j, j_end = np.searchsorted(hi, start, "right"), np.searchsorted(hi, high, "left")
        ends = 1 + (i_end - i) + (j_end - j)
        # every end lies above start > 0, so the bits of start and of the
        # ends, shifted up one with a low bit 1 for an upper end, sort as
        # their values do, start first and a lower end before an equal upper
        # one: the order of a stable sort of start, the lower and the upper
        # ends, sorted in place with no index array
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
        starts, p_hat = starts[step], np.divide(failures, d.v_energy.size, out=starts)[step]
    end = starts[best + 1] if best + 1 < starts.size else high
    b_star = 0.5 * float(starts[best]) + 0.5 * float(end)
    est, at_a = counter.outages([b_star, a])
    if low <= a <= high and at_a.failures < est.failures:
        b_star, est = a, at_a
    return BOptimum(b_star=b_star, outage=est, sweep=(starts, p_hat), at_a=at_a)
