"""Line search for the outage-minimizing real shrinkage coefficient.

The objective ``b -> p(GMI(b) < rate)`` is evaluated by common-random-number
Monte Carlo: every evaluation reads the same :class:`~lsrsim.outage.Draw`,
which makes the objective a deterministic step function of ``b`` whose
steps sit at the ends of the trials' feasible intervals.  :func:`optimize_b`
reads a coarse grid over ``b / a`` (``a`` = LMMSE coefficient magnitude) and
grids refined around the incumbent from one
:class:`~lsrsim.outage.OutageCounter`, two binary searches per ``b`` on the
sorted ends, instead of solving every trial at every ``b``.  The exact
minimizer of the step function would be a sweep over those ends; the grid
is kept, and with it every result table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import _check, _check_integer, _check_real, lmmse_coefficient
from .outage import Draw, OutageCounter, OutageEstimate

__all__ = ["SearchSpec", "BOptimum", "optimize_b"]


@dataclass(frozen=True)
class SearchSpec:
    """Search domain of :func:`optimize_b`, validated on construction.

    Errors name the field as ``search.<field>``, its path in an experiment
    config.
    """

    ratio_low: float = 0.0
    ratio_high: float = 2.0
    coarse_points: int = 41
    refine_iters: int = 3

    def __post_init__(self):
        _check_real("search.ratio_low", self.ratio_low, 0)
        _check_real("search.ratio_high", self.ratio_high)
        _check(self.ratio_low < self.ratio_high, "search.ratio_low", "need ratio_low < ratio_high")
        _check_integer("search.coarse_points", self.coarse_points, 3)
        _check_integer("search.refine_iters", self.refine_iters)


@dataclass
class BOptimum:
    """Optimization result: incumbent, its outage estimate, and the trace."""

    b_star: float
    outage: OutageEstimate
    sweep: list[tuple[float, float]] = field(default_factory=list)


def _coarse_grid(spec: SearchSpec) -> np.ndarray:
    grid = np.linspace(spec.ratio_low, spec.ratio_high, spec.coarse_points)
    if spec.ratio_low <= 1.0 <= spec.ratio_high:
        # pin the LMMSE point: nearest coarse ratio snaps to exactly 1
        grid[int(np.argmin(np.abs(grid - 1.0)))] = 1.0
    return grid


def optimize_b(d: Draw, rate_nats: float, spec: SearchSpec = SearchSpec()) -> BOptimum:
    """Minimize the outage of draw ``d`` over real ``b`` in ``[ratio_low, ratio_high] * a``.

    The coarse grid always contains ``b = a`` exactly (when ratio 1 is inside
    the search interval), so the optimum can never be worse than the LMMSE
    point.  Each refinement pass re-grids ``coarse_points`` values across the
    interval spanned by the evaluated neighbors of the incumbent.  Ties are
    broken toward smaller ``b``.  Fully deterministic for fixed arguments.
    Every outage is read from one :class:`~lsrsim.outage.OutageCounter`
    and equals ``d.outage(b, rate_nats)``.
    """
    a = abs(lmmse_coefficient(d.config))
    counter = OutageCounter(d, rate_nats)
    evaluated: dict[float, OutageEstimate] = {}

    def run(b_list: list[float]) -> None:
        new = [b for b in dict.fromkeys(b_list) if b not in evaluated]
        evaluated.update(zip(new, counter.outages(new)))

    def incumbent() -> float:
        return min(evaluated, key=lambda b: (evaluated[b].p_hat, b))

    run([float(r) * a for r in _coarse_grid(spec)])

    for _ in range(spec.refine_iters):
        best = incumbent()
        points = sorted(evaluated)
        i = points.index(best)
        lo = points[i - 1] if i > 0 else points[i]
        hi = points[i + 1] if i + 1 < len(points) else points[i]
        before = len(evaluated)
        run([float(b) for b in np.linspace(lo, hi, spec.coarse_points)])
        if len(evaluated) == before:
            break  # interval no longer resolves new points

    best = incumbent()
    return BOptimum(
        b_star=best,
        outage=evaluated[best],
        sweep=[(b, evaluated[b].p_hat) for b in sorted(evaluated)],
    )
