"""Outage simulation for linear-shrinkage nearest-neighbor receivers.

A SIMO block-fading link with pilot-based imperfect CSI is simulated by
Monte Carlo: each trial draws the two numbers of a fading/pilot
realization that the receiver reads, ``||v||^2`` and ``(s - a v)^H v``,
from their law; the achievable rate of the scaled nearest-neighbor
decoder is computed from them in closed form for every coefficient, and
outage statistics, optimal shrinkage coefficients, and antenna-scaling
trends are derived from the per-trial rates.

The package holds that computation only.  The per-antenna sampler, the
scalar GMI path and the theta-grid maximization that the test suite checks
it against live in ``tests/oracles.py``.
"""

from .channel import ChannelConfig, ConfigError, lmmse_coefficient
from .experiments import (
    ExperimentConfig,
    NotBracketedError,
    ResultTable,
    build_channel_config,
    curve_points,
    emit_results,
    rate_bits_to_nats,
    read_results,
    run_experiment,
    snr_gain,
)
from .outage import (
    Draw,
    GmiHistogram,
    OutageEstimate,
    draw,
    estimate_outage,
    gmi_histogram,
    gmi_samples_multi_b,
    wilson_interval,
)
from .shrinkage import BOptimum, SearchSpec, optimize_b
from .streams import BlockSampler, philox_key

__all__ = [
    "ChannelConfig",
    "lmmse_coefficient",
    "Draw",
    "OutageEstimate",
    "GmiHistogram",
    "wilson_interval",
    "draw",
    "estimate_outage",
    "gmi_histogram",
    "gmi_samples_multi_b",
    "SearchSpec",
    "BOptimum",
    "optimize_b",
    "ExperimentConfig",
    "ResultTable",
    "ConfigError",
    "NotBracketedError",
    "build_channel_config",
    "rate_bits_to_nats",
    "run_experiment",
    "curve_points",
    "snr_gain",
    "emit_results",
    "read_results",
    "philox_key",
    "BlockSampler",
]

__version__ = "0.2.0"
