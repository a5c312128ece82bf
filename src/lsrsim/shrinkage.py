"""Line search for the outage-minimizing real shrinkage coefficient.

The objective ``b -> p(GMI(b) < rate)`` is evaluated by common-random-number
Monte Carlo: every evaluation reuses the same per-trial realizations (one
seed shared across the whole search), which makes the objective a
deterministic piecewise-constant function of ``b``.  A coarse grid over
``b / a`` (``a`` = LMMSE coefficient magnitude) followed by grid refinement
around the incumbent is therefore more robust than bracketing line searches
that assume smoothness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, lmmse_coefficient
from .outage import OutageEstimate, _outage_estimate, gmi_samples_multi_b

__all__ = ["ConfigError", "SearchSpec", "BOptimum", "optimize_b", "b_sweep"]


class ConfigError(ValueError):
    """Invalid configuration value; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _check(ok: bool, path: str, message: str) -> None:
    if not ok:
        raise ConfigError(path, message)


def _check_real(path: str, value, low: float | None = None) -> None:
    """``value`` must be a finite int or float, not a bool, and ``>= low``."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not (ok and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(path, f"must be a finite number{bound}, got {value!r}")


def _check_int(path: str, value, low: int) -> None:
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and value >= low):
        raise ConfigError(path, f"must be an integer >= {low}, got {value!r}")


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
        _check_int("search.coarse_points", self.coarse_points, 3)
        _check_int("search.refine_iters", self.refine_iters, 0)


@dataclass
class BOptimum:
    """Optimization result: incumbent, its outage estimate, and the trace."""

    b_star: float
    outage: OutageEstimate
    sweep: list[tuple[float, float]] = field(default_factory=list)
    degenerate: bool = False


def _coarse_grid(spec: SearchSpec) -> np.ndarray:
    grid = np.linspace(spec.ratio_low, spec.ratio_high, spec.coarse_points)
    if spec.ratio_low <= 1.0 <= spec.ratio_high:
        # pin the LMMSE point: nearest coarse ratio snaps to exactly 1
        grid[int(np.argmin(np.abs(grid - 1.0)))] = 1.0
    return grid


def optimize_b(
    config: ChannelConfig,
    rate_nats: float,
    trials: int,
    seed: int,
    spec: SearchSpec = SearchSpec(),
    *,
    workers: int = 1,
) -> BOptimum:
    """Minimize Monte Carlo outage over real ``b`` in ``[ratio_low, ratio_high] * a``.

    The coarse grid always contains ``b = a`` exactly (when ratio 1 is inside
    the search interval), so the optimum can never be worse than the LMMSE
    point.  Each refinement pass re-grids ``coarse_points`` values across the
    interval spanned by the evaluated neighbors of the incumbent.  Ties are
    broken toward smaller ``b``.  Fully deterministic for fixed arguments.
    """
    a = abs(lmmse_coefficient(config))
    evaluated: dict[float, OutageEstimate] = {}

    def run(b_list: list[float]) -> None:
        todo = [b for b in b_list if b not in evaluated]
        if not todo:
            return
        gmi = gmi_samples_multi_b(config, todo, trials, seed, workers=workers)
        for k, b in enumerate(todo):
            evaluated[b] = _outage_estimate(gmi[k], rate_nats)

    def incumbent() -> float:
        return min(evaluated, key=lambda b: (evaluated[b].p_hat, b))

    run([float(r) * a for r in _coarse_grid(spec)])

    degenerate = False
    for _ in range(spec.refine_iters):
        best = incumbent()
        points = sorted(evaluated)
        i = points.index(best)
        lo = points[i - 1] if i > 0 else points[i]
        hi = points[i + 1] if i + 1 < len(points) else points[i]
        if not lo < hi:
            degenerate = True
            break
        before = len(evaluated)
        run([float(b) for b in np.linspace(lo, hi, spec.coarse_points)])
        if len(evaluated) == before:
            break  # interval no longer resolves new points

    best = incumbent()
    return BOptimum(
        b_star=best,
        outage=evaluated[best],
        sweep=[(b, evaluated[b].p_hat) for b in sorted(evaluated)],
        degenerate=degenerate,
    )


def b_sweep(
    config: ChannelConfig,
    rate_nats: float,
    b_values,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> list[tuple[float, OutageEstimate]]:
    """Common-seed outage estimates at each requested coefficient.

    Input order (and any duplicates) is preserved; duplicate entries yield
    identical estimates because all evaluations share realizations.
    """
    bs = [float(b) for b in b_values]
    if not bs:
        raise ValueError("b_values must be nonempty")
    gmi = gmi_samples_multi_b(config, bs, trials, seed, workers=workers)
    return [(b, _outage_estimate(gmi[k], rate_nats)) for k, b in enumerate(bs)]
