"""GMI of the scaled nearest-neighbor decoder: rate functional and maximizer.

For a realization ``(s, v)`` and coefficient ``b``, the decoder's rate reads
the realization only through ``c = ||b v||^2``, ``r = Re x`` and
``d = |c - x|^2``, with ``x = s^H (b v)``.  With transmit power ``P`` and
noise variance ``sigma2``, the achievable rate is
``sup_{theta < 0} k_ls(theta)`` with ``w = -P theta c`` and

    k_ls = log(1 + w) + P theta (c - 2 r - sigma2 theta c - P theta d) / (1 + w),

which is the literal functional

    theta P (||s - b v||^2 - ||s||^2) + log(1 - P theta c)
    - P theta^2 (c sigma2 + P |x|^2) / (1 - P theta c)

rewritten with ``||s - b v||^2 - ||s||^2 = c - 2 r`` and
``c (c - 2 r) + |x|^2 = d``, so ``||s||^2`` never enters it.

The stationary points of ``k_ls`` solve a quadratic whose leading
coefficient is positive for ``c > 0`` and whose constant term is ``-2 r``.
So the GMI is positive exactly when ``r > 0``, attained at the smaller (and
only negative) root; otherwise it is 0, the limit ``theta -> 0``.

:func:`theta_star` solves the stationary-point problem in closed form;
:func:`gmi_grid_oracle` maximizes over an explicit theta grid and exists to
cross-check the closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import GmiStatistics, _check, _check_integer

__all__ = ["GmiResult", "GridSpec", "k_ls", "theta_star", "gmi_grid_oracle"]

# unit roundoff of float64
_EPS = 2.0**-53


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
        _check(0 < self.theta_min < self.theta_max, "theta_min",
               f"need 0 < theta_min < theta_max, got [{self.theta_min}, {self.theta_max}]")
        _check_integer("points", self.points, 1000)
        _check_integer("refine_iters", self.refine_iters)


def _reduce(stats: GmiStatistics) -> tuple[float, float, float]:
    # (c, r, d) = (||b v||^2, Re x, |c - x|^2) with x = s^H (b v); c - x is
    # minus the error inner product, which statistics() sums per antenna, so
    # d does not cancel at high SNR
    e = stats.error_cross
    return stats.csi_energy, stats.cross.real, e.real * e.real + e.imag * e.imag


# The workspace outlived the grid search it was built for: the scan, the
# histograms, b-sweep, the LMMSE-only curve and the counter's re-solved
# trials still solve through Draw.gmi.  Written as plain expressions
# through _k_ls_core, every bit kept, the solve took 101-124 ns per trial
# at n_r 128 and 5,000 trials (scan_massive's shape) against 44-56 ns with
# the workspace, and a call at 1e5 trials peaked at 6.1 MB of temporaries
# against 0.8 MB (quartiles of 400 interleaved calls and tracemalloc, one
# core of a 2-core x86-64 VM)
class _Workspace:
    """Scratch arrays of the vectorized solve, one entry per trial.

    ``c``, ``r``, ``d`` hold the solve's inputs, ``z`` (complex) is scratch
    for forming them, ``qa`` to ``t`` are float64 scratch and ``mask``/``ok``
    boolean.  :meth:`first` views the first ``m`` entries of each, so a
    shorter block reuses the same memory.
    """

    __slots__ = ("c", "r", "d", "z", "qa", "qb", "qc", "sq", "root", "val", "w", "x", "t", "mask", "ok")
    _DTYPES = {"z": np.complex128, "mask": np.bool_, "ok": np.bool_}

    def __init__(self, arrays):
        for name, array in zip(self.__slots__, arrays):
            setattr(self, name, array)

    @classmethod
    def empty(cls, size: int) -> _Workspace:
        return cls(np.empty(size, cls._DTYPES.get(name, np.float64)) for name in cls.__slots__)

    @property
    def size(self) -> int:
        return self.c.size

    def first(self, m: int) -> _Workspace:
        if m == self.size:
            return self
        return _Workspace(getattr(self, name)[:m] for name in self.__slots__)


def _k_ls_core(theta, c, r, d, power, noise_var):
    """Rate functional; vectorizes over any broadcastable mix of arguments.

    Uses log1p so the theta -> 0 limit is computed without cancellation.
    """
    w = -theta * power * c
    return np.log1p(w) + theta * power * (
        c - 2.0 * r - noise_var * theta * c - power * theta * d
    ) / (1.0 + w)


def _k_ls_into(ws: _Workspace, theta, c, r, d, power, noise_var) -> np.ndarray:
    """:func:`_k_ls_core` written into ``ws.val`` without allocating.

    The same operations on the same operands in the same order, with
    ``ws.w``, ``ws.x`` and ``ws.t`` as scratch, so the two agree bit for bit.
    """
    w, x, t = ws.w, ws.x, ws.t
    np.multiply(np.multiply(np.negative(theta, out=w), power, out=w), c, out=w)
    np.subtract(c, np.multiply(2.0, r, out=x), out=x)
    np.subtract(x, np.multiply(np.multiply(noise_var, theta, out=t), c, out=t), out=x)
    np.subtract(x, np.multiply(np.multiply(power, theta, out=t), d, out=t), out=x)
    np.multiply(np.multiply(theta, power, out=t), x, out=t)
    np.divide(t, np.add(1.0, w, out=x), out=t)
    return np.add(np.log1p(w, out=ws.val), t, out=ws.val)


def _solve_theta(c, r, d, power, noise_var, ws: _Workspace):
    """Vectorized closed-form maximization of the rate functional.

    Returns ``(theta, gmi, attained)``, views of the workspace: where
    ``attained`` is True, ``theta`` is the maximizing theta and ``gmi`` the
    positive rate; elsewhere the GMI is 0, the ``theta -> 0`` limit, and
    ``theta`` and ``gmi`` hold no meaning.

    In the unit-noise parameterization ``t = noise_var * theta`` with
    reduced power ``p = power / noise_var`` (an exact reparameterization of
    ``k_ls``), the stationary points solve

        p c (c + p d) t^2 + (p c^2 - 2 c - 2 p d) t - 2 r = 0.

    With ``tau = c t`` and ``delta = d / c`` this is ``A tau^2 + B tau + C = 0``:

        A = p (1 + p delta),  B = p c - 2 - 2 p delta,  C = -2 r,

    which is solved for ``tau``, and ``theta = tau / (c noise_var)``.
    ``A > 0`` whenever ``c > 0``.  Since ``log(1 + y) <= y``,
    ``k_ls(t) <= p t C``, so ``C >= 0`` gives a GMI of 0.  If ``C < 0`` then
    ``Q(0) = C < 0 < Q(-inf)``: the quadratic has exactly one negative root,
    the smaller one, ``k_ls`` rises up to it and falls toward 0 as
    ``t -> 0``, so that root is the maximizer and its value is positive.
    Only the smaller root, in cancellation-free form, is therefore solved
    for.  No coefficient is a power of ``c``, so the root is resolved as
    long as ``c = |b|^2 V`` is a normal float: below about
    ``|b| = 1e-150 |a|`` the GMI reads its ``b -> 0`` limit.  Where ``c``
    itself underflows, ``|b|^2 V`` below about 1e-308, ``delta`` is not
    finite and the GMI reads 0.

    Every intermediate is written into the workspace, whose shape is that of
    the arguments, so a call allocates no array.
    """
    p = power / noise_var
    t = ws.t

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # p delta = p d / c
        pdelta = np.divide(np.multiply(p, d, out=ws.qa), c, out=ws.qa)
        qb = np.subtract(np.multiply(p, c, out=ws.qb), 2.0, out=ws.qb)
        np.subtract(qb, np.multiply(2.0, pdelta, out=t), out=qb)
        qa = np.multiply(p, np.add(1.0, pdelta, out=ws.qa), out=ws.qa)
        qc = np.multiply(-2.0, r, out=ws.qc)
        sq = np.multiply(qb, qb, out=ws.sq)
        np.sqrt(np.subtract(sq, np.multiply(np.multiply(4.0, qa, out=t), qc, out=t), out=sq), out=sq)
        # the smaller root: 2 C / (sq - B) where B < 0, else (-B - sq) / (2 A)
        root = np.subtract(np.negative(qb, out=ws.root), sq, out=ws.root)
        np.divide(root, np.multiply(2.0, qa, out=t), out=root)
        np.divide(np.multiply(2.0, qc, out=t), np.subtract(sq, qb, out=ws.x), out=t)
        np.copyto(root, t, where=np.less(qb, 0.0, out=ws.mask))
        theta = np.divide(root, np.multiply(c, noise_var, out=t), out=root)
        val = _k_ls_into(ws, theta, c, r, d, power, noise_var)

    ok, mask = ws.ok, ws.mask
    np.isfinite(theta, out=ok)
    np.logical_and(ok, np.less(theta, 0.0, out=mask), out=ok)
    np.logical_and(ok, np.isfinite(val, out=mask), out=ok)
    np.logical_and(ok, np.greater(val, 0.0, out=mask), out=ok)
    return theta, val, ok


# A trial's GMI as a function of real b > 0.  With rho = Re(s^H v) > 0 and
# kappa = ((Im s^H v)^2 + noise_var ||v||^2 / power) / rho^2, it depends on b
# only through q = rho / (b ||v||^2):
#
#     GMI = sup_{x > 0} [log(1 + x) - x (1 - 2q + x ((1 - q)^2 + kappa q^2)) / (1 + x)],
#
# peaks at q = 1 with log1p(1 / kappa), and tends to 1 / (1 + kappa) as
# b -> 0+.  The set {GMI >= R} is one interval of q around 1 (README, "How
# the search counts outages").  Its ends lie on the curve traced, for
# s = log(1 + x) at the maximizing x, by
#
#     q(s) = 1 + (e^s + 1)(R - s) / (2 expm1(s)),
#     kappa(s) = [(1 + (R - s) / expm1(s)) / expm1(s) - (q - 1)^2] / q^2,
#
# (kappa's bracket equals (s + 2q - R) / (2 expm1(s)) - (1 - q)^2, the form
# in the README, with q(s) substituted), with kappa monotone on each of two branches.  On 0 < s < R, the lower end
# in b (q > 1), kappa rises from 1/R - 1 at s -> 0 to 1 / expm1(R) at s = R;
# on s > R, the upper end (q < 1), it falls from 1 / expm1(R) to 0, which it
# meets at some q > 0.

# nodes per branch of the table that starts each end's Newton step; with
# 513 the step leaves ends within 3e-12 relative, 400 times inside the
# counter's tolerance
_END_TABLE_POINTS = 513


def _end_kappa(s, rate):
    """``kappa`` at ``s`` of the end curve and the terms it is made of:
    ``(kappa, x, v, u, q, big, qq, uu)`` with ``x = expm1(s)``,
    ``v = (rate - s) / x``, ``u = q - 1``, ``big = (1 + v) / x``,
    ``qq = q^2`` and ``uu = u^2``, so that ``kappa = (big - uu) / qq``."""
    x = np.expm1(s)
    v = (rate - s) / x
    u = 0.5 * (x + 2.0) * v
    q = 1.0 + u
    big = (1.0 + v) / x
    uu = u * u
    qq = q * q
    return (big - uu) / qq, x, v, u, q, big, qq, uu


def _end_curve(s, rate):
    """``(x, q, kappa, dq/ds, dkappa/ds, big, qq, uu)`` at ``s`` of the end
    curve, with ``big``, ``qq = q^2`` and ``uu = (q - 1)^2`` of
    :func:`_end_kappa`: ``(|big| + uu) / qq`` is the size of the terms that
    ``kappa`` is the difference of, over ``q^2``, which bounds its rounding
    error."""
    kappa, x, v, u, q, big, qq, uu = _end_kappa(s, rate)
    y = x + 1.0
    dv = -(1.0 + v * y) / x
    du = 0.5 * (y * v + (x + 2.0) * dv)
    dkappa = (dv / x - big * y / x - 2.0 * du * (u + kappa * q)) / qq
    return x, q, kappa, du, dkappa, big, qq, uu


@functools.lru_cache(maxsize=32)
def _end_tables(rate: float):
    """``(kappa_max, step, s)``: the largest feasible ``kappa``,
    ``1 / expm1(rate)``, and rows ``s[0]`` (lower branch) and ``s[1]``
    (upper branch) with ``s[:, j]`` the points of the end curve where
    ``kappa = kappa_max - (j step)^2``.

    The nodes are uniform in ``sqrt(kappa_max - kappa)``, in which ``s`` is
    smooth through the peak ``s = rate``, down to ``kappa = 0``; each is
    bisected to about 1e-9, since ``kappa`` is monotone on each branch.  The
    upper branch meets ``kappa = 0`` before ``s = rate + 3``.  The lower one
    tends to ``kappa = 1/rate - 1`` as ``s -> 0``, so for a rate below 1
    nat its nodes under that ``kappa`` sit at ``s`` near 0.
    """
    kappa_max = 1.0 / math.expm1(rate)
    t = np.linspace(0.0, math.sqrt(kappa_max), _END_TABLE_POINTS)
    target = kappa_max - t * t
    near_side = np.full((2, t.size), rate)
    far_side = np.array([[0.0], [rate + 3.0]]).repeat(t.size, axis=1)
    with np.errstate(all="ignore"):
        for _ in range(32):
            mid = 0.5 * (near_side + far_side)
            above = _end_kappa(mid, rate)[0] > target
            near_side = np.where(above, mid, near_side)
            far_side = np.where(above, far_side, mid)
    return kappa_max, t[1], 0.5 * (near_side + far_side)


def _feasible_ends(kappa, kappa_err, rate: float):
    """Both ends of each trial's feasible interval, as their ``q``: the
    lower end (``q > 1``) first, then the upper one (``q < 1``).

    A ``kappa`` (with absolute error ``kappa_err``) in
    ``(max(1/rate - 1, 0), 1 / expm1(rate))`` has both ends; for any other
    the results hold no meaning.  Each end starts from the table of
    :func:`_end_tables`, at the same position in both branches, and takes
    one Newton step on ``kappa(s)``.  Returns ``(q, err, slope, ok)`` per
    end: ``err`` bounds the end's relative error in ``b``, ``slope`` is
    ``|dGMI / dlog b|`` there, and ``ok`` is False where the step left the
    branch or produced a non-finite number.
    """
    kappa_max, step, nodes = _end_tables(rate)
    pos = np.sqrt(np.fmax(kappa_max - kappa, 0.0)) / step
    cell = np.minimum(np.floor(pos), nodes.shape[1] - 2.0)
    j = cell.astype(np.intp)
    frac = pos - cell
    with np.errstate(all="ignore"):
        return [_newton_end(branch[j], branch[j + 1], frac, kappa, kappa_err, rate, upper)
                for upper, branch in enumerate(nodes)]


def _newton_end(left, right, frac, kappa, kappa_err, rate: float, upper: int):
    """One end of :func:`_feasible_ends`, from the table nodes ``left`` and
    ``right`` around it; its temporaries are freed when it returns."""
    s = left + frac * (right - left)
    _, _, k, _, dk, *_ = _end_curve(s, rate)
    s = s - (k - kappa) / dk
    x, q, k, dq, dk, big, qq, uu = _end_curve(s, rate)
    # the end moves by (kappa error) / (dkappa/ds) in s, times dlog q/ds in log b
    miss = np.abs(k - kappa) + 8.0 * _EPS * ((np.abs(big) + uu) / qq + np.abs(k)) + kappa_err
    err = np.abs(dq / q) * miss / np.abs(dk) + 16.0 * _EPS
    # dGMI/dlog b = -q dh/dq at the maximizing x (envelope theorem)
    slope = q * (2.0 * x / (x + 1.0)) * np.abs(1.0 + x * (1.0 - q) - x * kappa * q)
    ok = np.isfinite(err) & np.isfinite(slope) & (q > 0.0) & ((q < 1.0) if upper else (q > 1.0))
    return q, err, slope, ok


def k_ls(stats: GmiStatistics, power: float, noise_var: float, theta: float) -> float:
    """Evaluate the rate functional at a strictly negative theta (in nats).

    For ``theta < 0`` the log argument is >= 1, so the evaluation can never
    leave the domain; ``theta >= 0`` violates the contract.
    """
    _check(theta < 0, "theta", f"must be strictly negative, got {theta}")
    return float(_k_ls_core(theta, *_reduce(stats), power, noise_var))


def theta_star(stats: GmiStatistics, power: float, noise_var: float) -> GmiResult:
    """Closed-form GMI: maximize the rate functional over ``theta < 0``.

    Returns the maximizing theta and the rate in nats; when no strictly
    negative stationary point gives a positive rate, the supremum is the
    ``theta -> 0`` limit and the result is ``GmiResult(None, 0.0)``.
    """
    theta, gmi, attained = _solve_theta(*_reduce(stats), power, noise_var, _Workspace.empty(1))
    if attained[0]:
        return GmiResult(theta_star=float(theta[0]), gmi_nats=float(gmi[0]))
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
    args = (*_reduce(stats), power, noise_var)

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
