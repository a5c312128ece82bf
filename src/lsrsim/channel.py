"""Channel scenario, the LMMSE estimate and the law of what the receiver reads.

The model is a single-input multiple-output block-fading channel: the data
phase sees ``Y = S x + Z`` with i.i.d. circularly symmetric complex Gaussian
noise of per-antenna variance ``noise_var``, and the receiver learns the
fading vector ``S`` only through one received pilot vector
``V = S * pilot + Z_p``.  Fading stays fixed over a codeword and is redrawn
independently across codewords, so each Monte Carlo trial is one independent
``(S, V)`` pair, which :func:`gram_variances` reduces to the law of the two
numbers the decoder's rate reads.

It also owns input validation: :class:`ConfigError` and the ``_check*``
helpers, which every other module calls instead of defining its own rules.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["ConfigError", "ChannelConfig", "lmmse_coefficient", "gram_variances"]

_U64_MAX = 2**64 - 1


class ConfigError(ValueError):
    """Invalid configuration value or argument; carries the offending field path.

    ``args`` is ``(path, message)``, so the error survives pickling (and a
    process pool); ``str`` reads ``"path: message"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(path, message)

    def __str__(self) -> str:
        return f"{self.path}: {self.args[1]}"


def _check(ok: bool, path: str, message: str) -> None:
    if not ok:
        raise ConfigError(path, message)


def _check_real(path: str, value, low: float | None = None) -> None:
    """``value`` must be a finite int or float, not a bool (``np.bool_``
    included), and ``>= low``."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not (ok and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise ConfigError(path, f"must be a finite number{bound}, got {value!r}")


def _check_complex(path: str, value) -> complex:
    """``value`` as a finite complex number; a str or a bool (``np.bool_``
    included), which ``complex`` would read as a number, is refused."""
    try:
        number = cmath.nan if isinstance(value, (str, bool, np.bool_)) else complex(value)
    except (TypeError, ValueError):
        number = cmath.nan
    _check(cmath.isfinite(number), path, f"must be finite and a number, not a str or bool, got {value!r}")
    return number


def _check_integer(path: str, value, low: int = 0) -> int:
    """``value`` as an int in ``[low, 2**64)``; a bool, a float (even an
    integral one) or any other non-integer is refused, ``np.integer`` is
    accepted."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or not low <= value <= _U64_MAX
    ):
        raise ConfigError(path, f"must be an integer in [{low}, 2**64), got {value!r}")
    return int(value)


# the most trials whose complex128 array, 16 bytes a trial, numpy can describe
_MAX_TRIALS = np.iinfo(np.intp).max // 16
# the most histogram bins whose bins + 1 float64 edges numpy can describe
_MAX_BINS = np.iinfo(np.intp).max // 8 - 1


def _check_size(path: str, value, low: int, most: int, what: str) -> int:
    """``value`` as a count: an integer in ``[low, 2**64)``, as
    :func:`_check_integer` reads it, of at most ``most``, the most ``what``
    numpy can describe."""
    count = _check_integer(path, value, low=low)
    _check(count <= most, path, f"must be at most {most}, the most {what} numpy can describe, got {count}")
    return count


def _check_trials(path: str, value) -> int:
    return _check_size(path, value, 1, _MAX_TRIALS, "whose complex128 array")


def _check_bins(path: str, value) -> int:
    return _check_size(path, value, 2, _MAX_BINS, "whose bins + 1 float64 edges")


def _check_antennas(path: str, value) -> int:
    """``value`` as an int antenna count: any integral real number in
    ``[1, 2**64)``, so ``8.0`` is accepted and a bool, NaN or fraction is
    refused."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    _check(ok and 1 <= value <= _U64_MAX and int(value) == value, path,
           f"must be an integer in [1, 2**64), got {value!r}")
    return int(value)


# the largest rate, ln of the largest float64: 709.78 nats, 1,024 bits.
# Above it exp(rate) overflows, and no GMI comes anywhere near it
_MAX_RATE_NATS = math.log(sys.float_info.max)


def _check_rate(path: str, value, nats_per_unit: float = 1.0) -> None:
    """``value`` must be a finite rate ``>= 0`` whose ``value *
    nats_per_unit`` nats are at most ``_MAX_RATE_NATS``."""
    _check_real(path, value, 0)
    _check(value * nats_per_unit <= _MAX_RATE_NATS, path,
           f"must be at most {_MAX_RATE_NATS!r} nats (1,024 bits), where exp(rate) overflows, got {value!r}")


def _check_list(path: str, values, check, *args) -> None:
    """``values`` must be a nonempty list; ``check(f"{path}[{i}]", entry, *args)``
    validates each entry."""
    _check(isinstance(values, (list, tuple)) and len(values) > 0, path,
           f"must be a nonempty list, got {values!r}")
    for i, value in enumerate(values):
        check(f"{path}[{i}]", value, *args)


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
        self.n_r = _check_antennas("n_r", self.n_r)
        for name in ("power", "noise_var", "fading_var"):
            value = getattr(self, name)
            _check_real(name, value)
            _check(value > 0, name, f"must be positive, got {value!r}")
        _check_real("pilot_noise_var", self.pilot_noise_var, 0)
        self.pilot = _check_complex("pilot", self.pilot)
        _check(self.pilot != 0, "pilot", "must be nonzero")


def lmmse_coefficient(config: ChannelConfig) -> complex:
    """Scalar coefficient of the linear MMSE fading estimate ``a * v``.

    ``a = fading_var * conj(pilot) / (fading_var * |pilot|^2 +
    pilot_noise_var)``; with a noiseless pilot this reduces to ``1 / pilot``.
    """
    pilot_var, _ = gram_variances(config)
    return config.fading_var * config.pilot.conjugate() / pilot_var


def gram_variances(config: ChannelConfig) -> tuple[float, float]:
    """Per-antenna variances ``(sigma_v^2, sigma_e^2)`` of the pilot
    observation ``v`` and of the LMMSE error ``s - a v``.

    ``sigma_v^2 = fading_var |pilot|^2 + pilot_noise_var`` and
    ``sigma_e^2 = fading_var pilot_noise_var / sigma_v^2``.  The error is
    independent of ``v``, so ``V = ||v||^2`` is ``sigma_v^2`` times a
    ``Gamma(n_r, 1)`` variate and, given ``V``, ``Y = (s - a v)^H v`` is
    ``CN(0, sigma_e^2 V)``; a noiseless pilot gives ``sigma_e^2 = 0``.
    """
    xp = config.pilot
    pilot_var = config.fading_var * (xp.real**2 + xp.imag**2) + config.pilot_noise_var
    return pilot_var, config.fading_var * config.pilot_noise_var / pilot_var
