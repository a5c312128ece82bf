"""Channel scenario, pilot-based CSI sampling, and per-realization statistics.

The model is a single-input multiple-output block-fading channel: the data
phase sees ``Y = S x + Z`` with i.i.d. circularly symmetric complex Gaussian
noise of per-antenna variance ``noise_var``, and the receiver learns the
fading vector ``S`` only through one received pilot vector
``V = S * pilot + Z_p``.  Fading stays fixed over a codeword and is redrawn
independently across codewords, so each Monte Carlo trial draws one ``(S, V)``
pair.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelConfig",
    "ChannelRealization",
    "GmiStatistics",
    "lmmse_coefficient",
    "sample_realization",
    "statistics",
]


@dataclass
class ChannelConfig:
    """Static scenario parameters.

    Attributes
    ----------
    n_r : int
        Number of receive antennas.
    power : float
        Average transmit power (linear scale).
    noise_var : float
        Data-phase noise variance per antenna.
    pilot_noise_var : float
        Pilot-phase noise variance per antenna; zero gives the perfect-CSI
        limit.
    fading_var : float
        Per-antenna fading variance (Rayleigh fading, spatially independent).
    pilot : complex
        Transmitted pilot symbol; must be nonzero.
    """

    n_r: int
    power: float
    noise_var: float
    pilot_noise_var: float
    fading_var: float
    pilot: complex

    def __post_init__(self):
        n_r = self.n_r
        if (
            isinstance(n_r, bool)
            or not isinstance(n_r, numbers.Real)
            or not (1 <= n_r < math.inf and int(n_r) == n_r)
        ):
            raise ValueError(f"n_r must be a positive integer, got {n_r!r}")
        self.n_r = int(n_r)
        # NaN fails every comparison, so each check is written as what must hold
        for name in ("power", "noise_var", "fading_var"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.pilot_noise_var < math.inf:
            raise ValueError(
                f"pilot_noise_var must be finite and nonnegative, got {self.pilot_noise_var}"
            )
        self.pilot = complex(self.pilot)
        if not (cmath.isfinite(self.pilot) and self.pilot != 0):
            raise ValueError(f"pilot must be finite and nonzero, got {self.pilot}")


@dataclass
class ChannelRealization:
    """One draw of the fading vector and its noisy pilot observation."""

    s: np.ndarray  # fading coefficients, complex, length n_r
    v: np.ndarray  # received pilot v = s * pilot + z_p, same length

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=np.complex128)
        self.v = np.asarray(self.v, dtype=np.complex128)
        if self.s.shape != self.v.shape or self.s.ndim != 1:
            raise ValueError(
                f"s and v must be 1-d vectors of equal length, got shapes "
                f"{self.s.shape} and {self.v.shape}"
            )


@dataclass
class GmiStatistics:
    """The four scalars of a scaled realization that determine the GMI.

    For a realization ``(s, v)`` and scaling coefficient ``b`` these are
    ``||s||^2``, ``||b v||^2``, the inner product ``s^* (b v)`` and
    ``||s - b v||^2``.  The mismatch satisfies the exact identity
    ``mismatch = s_energy + csi_energy - 2 Re(cross)`` and Cauchy-Schwarz
    bounds ``|cross|^2 <= s_energy * csi_energy``.
    """

    s_energy: float
    csi_energy: float
    cross: complex
    mismatch: float


def lmmse_coefficient(config: ChannelConfig) -> complex:
    """Scalar coefficient of the linear MMSE fading estimate ``a * v``.

    ``a = fading_var * conj(pilot) / (fading_var * |pilot|^2 +
    pilot_noise_var)``; with a noiseless pilot this reduces to ``1 / pilot``.
    """
    xp = config.pilot
    denom = config.fading_var * (xp.real**2 + xp.imag**2) + config.pilot_noise_var
    return config.fading_var * xp.conjugate() / denom


def _component_scales(config: ChannelConfig) -> tuple[float, float]:
    # per-component std dev of S and Z_p (variance split evenly over Re/Im)
    return (
        math.sqrt(config.fading_var / 2.0),
        math.sqrt(config.pilot_noise_var / 2.0),
    )


def sample_realization(
    config: ChannelConfig, stream: np.random.Generator
) -> ChannelRealization:
    """Draw one ``(s, v)`` pair from a random stream.

    Consumes exactly one ``standard_normal(4 * n_r)`` call: the first
    ``2 n_r`` variates are the real then imaginary parts of ``s``, the last
    ``2 n_r`` those of the pilot noise.  This draw layout is part of the
    reproducibility contract and matches the batched sampler used by the
    Monte Carlo engine bit for bit.
    """
    n = config.n_r
    scale_s, scale_z = _component_scales(config)
    w = stream.standard_normal(4 * n)
    s = (w[:n] + 1j * w[n : 2 * n]) * scale_s
    z = (w[2 * n : 3 * n] + 1j * w[3 * n :]) * scale_z
    return ChannelRealization(s=s, v=s * config.pilot + z)


def statistics(real: ChannelRealization, b: complex) -> GmiStatistics:
    """Reduce a realization and a scaling coefficient to its GMI statistics.

    The mismatch term is computed directly from the vectors rather than via
    the energy/cross identity, so the identity can serve as an independent
    consistency check.
    """
    bv = complex(b) * real.v
    s_energy = float(np.sum(np.abs(real.s) ** 2))
    csi_energy = float(np.sum(np.abs(bv) ** 2))
    cross = complex(np.sum(np.conj(real.s) * bv))
    mismatch = float(np.sum(np.abs(real.s - bv) ** 2))
    return GmiStatistics(
        s_energy=s_energy, csi_energy=csi_energy, cross=cross, mismatch=mismatch
    )
