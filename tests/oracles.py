"""Independent reference paths that the tests check the library against.

None of this is on the library's path.  ``lsrsim`` draws each trial as the
two numbers the receiver reads, ``V = ||v||^2`` and ``Y = (s - a v)^H v``,
and solves the GMI of a whole draw at once.  The oracles here take the long
way round:

* :func:`substream` opens a chunk's stream by the README's literal recipe,
  a ``SeedSequence`` key and a ``uint64`` counter ``[0, 0, 0, index]``;
* :func:`sample_realization` draws the per-antenna fading and pilot noise
  ``(s, v)`` of one trial, and :func:`statistics` sums it over the antennas
  to the numbers the GMI reads, :class:`GmiStatistics`;
* :func:`theta_star` is the closed-form GMI of one such trial,
  :func:`k_ls` the rate functional and :func:`gmi_grid_oracle` its
  brute-force maximum over an explicit theta grid;
* :func:`literal_gmi` and :func:`literal_gmi_of_draw` evaluate the literal
  functional at 50 digits, from ``(s, v)`` and from ``(V, Y)``.

:func:`feasible_ends` is no oracle: it reads the library's end tables for
the tests that check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from lsrsim.channel import ChannelConfig, _check, _check_integer
from lsrsim.gmi import _Arena, _end_bounds, _end_cells, _solve_theta

# the code rates, in nats, at which the outage counter is checked
RATES = [0.0, 0.3, math.log(2.0), 1.0, 2.0 * math.log(2.0), 3.0 * math.log(2.0)]


def feasible_ends(kappa, kappa_err, rate: float):
    """``(p, err, slope)`` of each trial's ends, as ``gmi._end_cells`` and
    ``gmi._end_bounds`` read them, in arrays of their own."""
    ends = _end_cells(kappa, rate, _Arena(np.empty(0, np.uint8)))
    return (ends[0], *_end_bounds(ends, kappa_err, rate))


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent random stream for ``(seed, index)``: the Philox key
    ``SeedSequence(seed).generate_state(2, uint64)`` with the counter
    started at ``index << 192``.

    Two calls with the same arguments yield generators that produce
    bit-identical sequences; distinct indices yield independent streams.
    """
    key = np.random.SeedSequence(_check_integer("seed", seed)).generate_state(2, np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = _check_integer("stream index", index)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@dataclass
class ChannelRealization:
    """One draw of the fading vector and its noisy pilot observation."""

    s: np.ndarray  # fading coefficients, complex, length n_r
    v: np.ndarray  # received pilot v = s * pilot + z_p, same length

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.complex128)
        self.v = np.asarray(self.v, dtype=np.complex128)
        _check(self.s.shape == self.v.shape and self.s.ndim == 1, "v",
               f"must be a 1-d vector of the length of s, got shapes {self.s.shape} and {self.v.shape}")


@dataclass
class GmiStatistics:
    """The scalars of a scaled realization that determine the GMI.

    For a realization ``(s, v)`` and scaling coefficient ``b`` these are
    ``||s||^2``, ``||b v||^2``, the inner product ``s^* (b v)``,
    ``||s - b v||^2`` and the inner product ``(s - b v)^* (b v)`` of the
    estimation error with the estimate.  The mismatch satisfies the exact
    identity ``mismatch = s_energy + csi_energy - 2 Re(cross)``, the error
    inner product ``error_cross = cross - csi_energy``, and Cauchy-Schwarz
    bounds ``|cross|^2 <= s_energy * csi_energy``.  :func:`statistics` sums
    ``error_cross`` over the antennas rather than forming that difference,
    which cancels at high SNR.
    """

    s_energy: float
    csi_energy: float
    cross: complex
    mismatch: float
    error_cross: complex


def sample_realization(
    config: ChannelConfig, stream: np.random.Generator
) -> ChannelRealization:
    """Draw one ``(s, v)`` pair from a random stream.

    Consumes exactly one ``standard_normal(4 * n_r)`` call: the first
    ``2 n_r`` variates are the real then imaginary parts of ``s``, the last
    ``2 n_r`` those of the pilot noise.  ``lsrsim.draw`` does not call it:
    it draws each trial's ``V = ||v||^2`` and ``(s - a v)^H v`` from their
    law, and this per-antenna path is the oracle for that law.
    """
    n = config.n_r
    # per-component std dev of S and Z_p (variance split evenly over Re/Im)
    scale_s = math.sqrt(config.fading_var / 2.0)
    scale_z = math.sqrt(config.pilot_noise_var / 2.0)
    w = stream.standard_normal(4 * n)
    s = (w[:n] + 1j * w[n : 2 * n]) * scale_s
    z = (w[2 * n : 3 * n] + 1j * w[3 * n :]) * scale_z
    return ChannelRealization(s=s, v=s * config.pilot + z)


def statistics(real: ChannelRealization, b: complex) -> GmiStatistics:
    """Reduce a realization and a scaling coefficient to its GMI statistics.

    The mismatch and the error inner product are summed directly over the
    antennas rather than formed from the energy/cross identities, so the
    identities can serve as independent consistency checks, and the GMI's
    ``|c - x|^2 = |error_cross|^2`` (see :mod:`lsrsim.gmi`) does not cancel
    at high SNR.
    """
    bv = complex(b) * real.v
    error = real.s - bv
    return GmiStatistics(
        s_energy=float(np.sum(np.abs(real.s) ** 2)),
        csi_energy=float(np.sum(np.abs(bv) ** 2)),
        cross=complex(np.sum(np.conj(real.s) * bv)),
        mismatch=float(np.sum(np.abs(error) ** 2)),
        error_cross=complex(np.sum(np.conj(error) * bv)),
    )


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


# the theta grid of every closed-form-versus-grid comparison
WIDE_GRID = GridSpec(theta_min=1e-8, theta_max=1e6, points=3000, refine_iters=120)


def _reduce(stats: GmiStatistics) -> tuple[float, float, float]:
    # (c, r, d) = (||b v||^2, Re x, |c - x|^2) with x = s^H (b v); c - x is
    # minus the error inner product, which statistics() sums per antenna, so
    # d does not cancel at high SNR
    e = stats.error_cross
    return stats.csi_energy, stats.cross.real, e.real * e.real + e.imag * e.imag


def _k_ls_core(theta, c, r, d, power, noise_var):
    """Rate functional; vectorizes over any broadcastable mix of arguments.

    Uses log1p so the theta -> 0 limit is computed without cancellation.
    The same operations in the same order as ``lsrsim.gmi._k_ls_into``, so
    that ``k_ls`` at :func:`theta_star`'s maximizer equals its GMI exactly.
    """
    w = -theta * power * c
    return np.log1p(w) + theta * power * (
        c - 2.0 * r - noise_var * theta * c - power * theta * d
    ) / (1.0 + w)


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
    theta, gmi, attained = _solve_theta(*_reduce(stats), power, noise_var, np.empty((9, 1)), np.empty((2, 1), bool))
    if attained[0]:
        return GmiResult(theta_star=float(theta[0]), gmi_nats=float(gmi[0]))
    return GmiResult(theta_star=None, gmi_nats=0.0)


def gmi_grid_oracle(
    stats: GmiStatistics, power: float, noise_var: float, grid: GridSpec
) -> float:
    """Brute-force GMI: maximize ``k_ls`` over an explicit theta grid.

    Scans a log-spaced grid over ``[-theta_max, -theta_min]`` and then
    ternary-refines around the grid argmax (the functional has a single
    interior maximum between grid neighbors).  Returns ``max(0, best)``,
    independent of :func:`theta_star`.
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


def literal_gmi(real: ChannelRealization, b: complex, power: float, noise_var: float) -> float:
    """GMI of ``(s, v)`` and ``b`` from the literal functional at 50 digits.

    Every float input is converted exactly; the statistics are summed over
    the antennas, the smaller stationary root is solved in the unit-noise
    form and the functional is evaluated there, all in ``decimal``.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        br, bi = Decimal(b.real), Decimal(b.imag)
        s_energy = c = xr = xi = m = Decimal(0)
        for sk, vk in zip(real.s, real.v):
            sr, si = Decimal(sk.real), Decimal(sk.imag)
            vr, vi = Decimal(vk.real), Decimal(vk.imag)
            ur, ui = br * vr - bi * vi, br * vi + bi * vr  # b v_k
            s_energy += sr * sr + si * si
            c += ur * ur + ui * ui
            xr += sr * ur + si * ui  # conj(s_k) b v_k
            xi += sr * ui - si * ur
            m += (sr - ur) ** 2 + (si - ui) ** 2
        return _literal_functional(c, xr, xi, m - s_energy, power, noise_var)


def literal_gmi_of_draw(v_energy: float, residual: complex, a: complex, b: complex,
                        power: float, noise_var: float) -> float:
    """GMI of one trial of a draw, ``(V, Y)``, and ``b`` at 50 digits.

    With ``s^H v = conj(a) V + Y``: ``c = |b|^2 V``, the cross term
    ``x = b s^H v`` and ``||s - b v||^2 - ||s||^2 = c - 2 Re x``.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        br, bi = Decimal(b.real), Decimal(b.imag)
        v = Decimal(v_energy)
        # s^H v = conj(a) V + Y
        gr = Decimal(a.real) * v + Decimal(residual.real)
        gi = -Decimal(a.imag) * v + Decimal(residual.imag)
        c = (br * br + bi * bi) * v
        xr, xi = br * gr - bi * gi, br * gi + bi * gr
        return _literal_functional(c, xr, xi, c - 2 * xr, power, noise_var)


def _literal_functional(c, xr, xi, u1, power: float, noise_var: float) -> float:
    """The functional at its smaller stationary root, in the current
    ``decimal`` context, from ``c = ||b v||^2``, ``x = s^H (b v)`` and
    ``u1 = ||s - b v||^2 - ||s||^2``."""
    pw, nv = Decimal(power), Decimal(noise_var)
    p, q = pw / nv, xr * xr + xi * xi
    u2 = c + p * q
    qa = p * p * u1 * c * c + u2 * p * c
    qb = p * c * c - 2 * u2 - 2 * p * u1 * c
    qc = u1 - c
    if qc >= 0:
        return 0.0
    theta = (-qb - (qb * qb - 4 * qa * qc).sqrt()) / (2 * qa) / nv
    den = 1 - pw * theta * c
    value = theta * pw * u1 + den.ln() - pw * theta * theta * (c * nv + pw * q) / den
    return float(value)
