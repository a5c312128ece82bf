"""GMI of the scaled nearest-neighbor decoder: rate functional and maximizer.

For statistics ``(s, c, q, m) = (s_energy, csi_energy, |cross|^2, mismatch)``,
transmit power ``P`` and noise variance ``sigma2``, the achievable rate of the
decoder is ``sup_{theta < 0} k_ls(theta)`` with

    k_ls = theta * P * (m - s) + log(1 - P * theta * c)
           - P * theta^2 * (c * sigma2 + P * q) / (1 - P * theta * c).

The stationary points of ``k_ls`` solve a quadratic whose leading
coefficient is positive for ``c > 0`` and whose constant term is
``-2 Re(cross)``.  So the GMI is positive exactly when ``Re(cross) > 0``,
attained at the smaller (and only negative) root; otherwise it is 0, the
limit ``theta -> 0``.

:func:`theta_star` solves the stationary-point problem in closed form;
:func:`gmi_grid_oracle` maximizes over an explicit theta grid and exists to
cross-check the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import GmiStatistics

__all__ = ["GmiResult", "GridSpec", "k_ls", "theta_star", "gmi_grid_oracle"]


@dataclass
class GmiResult:
    """Maximized GMI in nats and, when attained, the maximizing theta.

    ``theta_star`` is ``None`` when the supremum is approached only in the
    limit ``theta -> 0`` (then ``gmi_nats`` is 0); otherwise it is strictly
    negative and ``k_ls`` evaluated there equals ``gmi_nats`` exactly.
    """

    theta_star: float | None
    gmi_nats: float


@dataclass
class GridSpec:
    """Log-spaced theta grid ``[-theta_max, -theta_min]`` for the oracle."""

    theta_min: float
    theta_max: float
    points: int = 2000
    refine_iters: int = 128

    def __post_init__(self):
        if not (0 < self.theta_min < self.theta_max):
            raise ValueError(
                f"grid bounds must satisfy 0 < theta_min < theta_max, got "
                f"[{self.theta_min}, {self.theta_max}]"
            )
        if self.points < 1000:
            raise ValueError(f"grid needs at least 1000 points, got {self.points}")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be nonnegative")


def _abs2(z: complex) -> float:
    # explicit products, as in Draw.gmi, so both paths round |cross|^2 the
    # same way; they still differ in the last bits, because Draw.gmi forms
    # |b|^2 V where this path sums |b v_k|^2 (tests compare them to 1e-12
    # relative)
    return z.real * z.real + z.imag * z.imag


def _k_ls_core(theta, s_energy, csi_energy, cross_abs2, mismatch, power, noise_var):
    """Rate functional; vectorizes over any broadcastable mix of arguments.

    Uses log1p so the theta -> 0 limit is computed without cancellation.
    """
    pc = power * csi_energy
    den = 1.0 - theta * pc
    return (
        theta * power * (mismatch - s_energy)
        + np.log1p(-theta * pc)
        - power * theta * theta * (csi_energy * noise_var + power * cross_abs2) / den
    )


def _solve_theta(s_energy, csi_energy, cross_abs2, mismatch, power, noise_var):
    """Vectorized closed-form maximization of the rate functional.

    Returns ``(theta, gmi, attained)`` arrays.  Where no strictly negative
    stationary point yields a positive rate, ``gmi`` is 0, ``theta`` is NaN
    and ``attained`` is False.

    The stationary points solve ``A t^2 + B t + C = 0`` in the unit-noise
    parameterization ``t = noise_var * theta`` with reduced power
    ``p = power / noise_var`` (an exact reparameterization of ``k_ls``):

        u1 = m - s,  u2 = c + p q,
        A = p^2 u1 c^2 + u2 p c,  B = p c^2 - 2 u2 - 2 p u1 c,  C = u1 - c.

    With ``x`` the cross statistic, ``A = p c (c + p |c - x|^2) > 0``
    whenever ``c > 0``, and ``C = -2 Re x``.  Since ``log(1 + y) <= y``,
    ``k_ls(t) <= p t C``, so ``C >= 0`` gives a GMI of 0.  If ``C < 0`` then
    ``Q(0) = C < 0 < Q(-inf)``: the quadratic has exactly one negative root,
    the smaller one, ``k_ls`` rises up to it and falls toward 0 as
    ``t -> 0``, so that root is the maximizer and its value is positive.
    Only the smaller root, in cancellation-free form, is therefore solved
    for.  Where ``c`` is so small that ``c^2`` underflows, that root is not
    resolved and the GMI, then below about 1e-160 nats, may read 0.
    """
    s = np.asarray(s_energy, dtype=np.float64)
    c = np.asarray(csi_energy, dtype=np.float64)
    q = np.asarray(cross_abs2, dtype=np.float64)
    m = np.asarray(mismatch, dtype=np.float64)
    p = power / noise_var

    u1 = m - s
    u2 = c + p * q
    qa = p * p * u1 * c * c + u2 * p * c
    qb = p * c * c - 2.0 * u2 - 2.0 * p * u1 * c
    qc = u1 - c
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sqrt_d = np.sqrt(qb * qb - 4.0 * qa * qc)
        root = np.where(qb < 0.0, 2.0 * qc / (sqrt_d - qb), (-qb - sqrt_d) / (2.0 * qa))
        theta = root / noise_var
        val = _k_ls_core(theta, s, c, q, m, power, noise_var)

    attained = np.isfinite(theta) & (theta < 0.0) & np.isfinite(val) & (val > 0.0)
    gmi = np.where(attained, val, 0.0)
    theta_out = np.where(attained, theta, np.nan)
    return theta_out, gmi, attained


def k_ls(stats: GmiStatistics, power: float, noise_var: float, theta: float) -> float:
    """Evaluate the rate functional at a strictly negative theta (in nats).

    For ``theta < 0`` the log argument is >= 1, so the evaluation can never
    leave the domain; ``theta >= 0`` violates the contract.
    """
    if theta >= 0:
        raise ValueError(f"theta must be strictly negative, got {theta}")
    q = _abs2(stats.cross)
    return float(
        _k_ls_core(
            theta, stats.s_energy, stats.csi_energy, q, stats.mismatch, power, noise_var
        )
    )


def theta_star(stats: GmiStatistics, power: float, noise_var: float) -> GmiResult:
    """Closed-form GMI: maximize the rate functional over ``theta < 0``.

    Returns the maximizing theta and the rate in nats; when no strictly
    negative stationary point gives a positive rate, the supremum is the
    ``theta -> 0`` limit and the result is ``GmiResult(None, 0.0)``.
    """
    q = _abs2(stats.cross)
    theta, gmi, attained = _solve_theta(
        stats.s_energy, stats.csi_energy, q, stats.mismatch, power, noise_var
    )
    if bool(attained):
        return GmiResult(theta_star=float(theta), gmi_nats=float(gmi))
    return GmiResult(theta_star=None, gmi_nats=0.0)


def gmi_grid_oracle(
    stats: GmiStatistics, power: float, noise_var: float, grid: GridSpec
) -> float:
    """Brute-force GMI: maximize ``k_ls`` over an explicit theta grid.

    Scans a log-spaced grid over ``[-theta_max, -theta_min]`` and then
    ternary-refines around the grid argmax (the functional has a single
    interior maximum between grid neighbors).  Returns ``max(0, best)``;
    intended for tests and validation sweeps, independent of
    :func:`theta_star`.
    """
    q = _abs2(stats.cross)
    args = (stats.s_energy, stats.csi_energy, q, stats.mismatch, power, noise_var)

    thetas = -np.logspace(
        math.log10(grid.theta_min), math.log10(grid.theta_max), grid.points
    )
    vals = _k_ls_core(thetas, *args)
    i = int(np.argmax(vals))
    best = float(vals[i])

    # bracket the argmax with its grid neighbors (thetas is descending)
    lo = float(thetas[i + 1]) if i + 1 < grid.points else float(thetas[i])
    hi = float(thetas[i - 1]) if i > 0 else float(thetas[i])
    for _ in range(grid.refine_iters):
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        f1 = float(_k_ls_core(m1, *args))
        f2 = float(_k_ls_core(m2, *args))
        best = max(best, f1, f2)
        if f1 < f2:
            lo = m1
        else:
            hi = m2

    return max(0.0, best)
