"""The package's public names: the computation, and nothing only tests call."""

import lsrsim
from lsrsim import channel, gmi, streams

# lsrsim.__all__, in its order
PUBLIC = """ChannelConfig lmmse_coefficient Draw OutageEstimate GmiHistogram wilson_interval draw
estimate_outage gmi_histogram gmi_samples_multi_b SearchSpec BOptimum optimize_b ExperimentConfig
ResultTable ConfigError NotBracketedError build_channel_config rate_bits_to_nats run_experiment
curve_points snr_gain emit_results read_results philox_key BlockSampler""".split()

# the reference paths of tests/oracles.py, which the package does not hold
ORACLES = """ChannelRealization GmiStatistics sample_realization statistics GmiResult GridSpec
k_ls theta_star gmi_grid_oracle substream _reduce _k_ls_core""".split()


def test_all_lists_the_public_names():
    assert lsrsim.__all__ == PUBLIC


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lsrsim import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(lsrsim, name)


def test_no_oracle_is_in_the_package():
    for module in (lsrsim, channel, gmi, streams):
        for name in ORACLES:
            assert not hasattr(module, name), (module.__name__, name)
