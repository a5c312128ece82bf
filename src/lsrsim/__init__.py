"""Outage simulation for linear-shrinkage nearest-neighbor receivers.

A SIMO block-fading link with pilot-based imperfect CSI is simulated by
Monte Carlo: each trial draws a fading/pilot realization, reduced once to
its Gram statistics, the achievable rate of the scaled nearest-neighbor
decoder is computed from them in closed form for every coefficient, and
outage statistics, optimal shrinkage coefficients, and antenna-scaling
trends are derived from the per-trial rates.
"""

from .channel import (
    ChannelConfig,
    ChannelRealization,
    GmiStatistics,
    lmmse_coefficient,
    sample_realization,
    statistics,
)
from .experiments import (
    ConfigError,
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
from .gmi import GmiResult, GridSpec, gmi_grid_oracle, k_ls, theta_star
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
from .streams import BlockSampler, philox_key, substream

__all__ = [
    "ChannelConfig",
    "ChannelRealization",
    "GmiStatistics",
    "lmmse_coefficient",
    "sample_realization",
    "statistics",
    "GmiResult",
    "GridSpec",
    "k_ls",
    "theta_star",
    "gmi_grid_oracle",
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
    "substream",
    "philox_key",
    "BlockSampler",
]

__version__ = "0.1.0"
