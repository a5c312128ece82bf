import math

import numpy as np
import pytest

from lsrsim import ChannelConfig, ConfigError, lmmse_coefficient
from oracles import ChannelRealization, sample_realization, statistics, substream


def make_config(**overrides):
    params = dict(
        n_r=4, power=2.0, noise_var=1.0, pilot_noise_var=1.0, fading_var=1.0, pilot=1.0
    )
    params.update(overrides)
    return ChannelConfig(**params)


class TestChannelConfig:
    def test_valid_config_roundtrips(self):
        cfg = make_config(pilot=1 + 2j)
        assert cfg.pilot == 1 + 2j
        assert cfg.n_r == 4

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_r", 0),
            ("n_r", -3),
            ("n_r", math.inf),
            ("n_r", math.nan),
            ("n_r", None),
            ("n_r", True),
            ("n_r", 2**64),
            ("power", 0.0),
            ("power", -1.0),
            ("noise_var", 0.0),
            ("pilot_noise_var", -0.1),
            ("fading_var", 0.0),
            ("pilot", 0.0),
            ("power", math.nan),
            ("power", math.inf),
            ("noise_var", math.nan),
            ("noise_var", math.inf),
            ("pilot_noise_var", math.nan),
            ("pilot_noise_var", math.inf),
            ("fading_var", math.nan),
            ("fading_var", math.inf),
            ("pilot", math.nan),
            ("pilot", complex(1.0, math.inf)),
            *((field, value) for field in ("power", "noise_var", "fading_var", "pilot_noise_var")
              for value in ("3", None, 1 + 0j, [1.0], np.True_)),
            ("power", True),
            ("pilot_noise_var", False),
            ("pilot", "2"),
            ("pilot", True),
            ("pilot", np.True_),
        ],
    )
    def test_invalid_configs_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field) as exc:
            make_config(**{field: value})
        assert exc.value.path == field

    def test_realization_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChannelRealization(np.zeros(3, complex), np.zeros(4, complex))


class TestLmmseCoefficient:
    def test_noiseless_pilot_identity(self):
        cfg = make_config(fading_var=1.0, pilot=1.0, pilot_noise_var=0.0)
        assert lmmse_coefficient(cfg) == 1.0

    def test_unit_values(self):
        cfg = make_config(fading_var=1.0, pilot=1.0, pilot_noise_var=1.0)
        assert lmmse_coefficient(cfg) == 0.5

    def test_pilot_two(self):
        cfg = make_config(fading_var=1.0, pilot=2.0, pilot_noise_var=1.0)
        assert lmmse_coefficient(cfg) == pytest.approx(0.4, abs=1e-15)

    def test_zero_pilot_noise_inverts_pilot(self):
        cfg = make_config(pilot=1.5 - 0.7j, pilot_noise_var=0.0)
        assert lmmse_coefficient(cfg) == pytest.approx(1.0 / (1.5 - 0.7j), rel=1e-15)


class TestSampleRealization:
    def test_noiseless_pilot_gives_exact_v(self):
        cfg = make_config(pilot_noise_var=0.0, pilot=2 - 1j)
        real = sample_realization(cfg, substream(5, 0))
        np.testing.assert_array_equal(real.v, real.s * (2 - 1j))

    def test_deterministic_for_identical_streams(self):
        cfg = make_config()
        a = sample_realization(cfg, substream(5, 3))
        b = sample_realization(cfg, substream(5, 3))
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.v, b.v)

    def test_fading_energy_law_of_large_numbers(self):
        # mean of ||S||^2 / n_r over many draws ~ fading_var, se = eta^2/sqrt(n_r N)
        cfg = make_config(n_r=4, fading_var=1.0)
        n_draws = 100_000
        rng = substream(17, 0)
        total = 0.0
        for _ in range(n_draws):
            real = sample_realization(cfg, rng)
            total += float(np.sum(np.abs(real.s) ** 2))
        mean = total / (n_draws * cfg.n_r)
        se = cfg.fading_var / math.sqrt(cfg.n_r * n_draws)
        assert abs(mean - cfg.fading_var) < 3 * se

    def test_per_entry_second_moments(self):
        # E|S_k|^2 = fading_var, E|V_k|^2 = |pilot|^2 fading_var + pilot_noise_var
        cfg = make_config(n_r=8, fading_var=1.3, pilot=1.5, pilot_noise_var=0.7)
        n_draws = 20_000
        rng = substream(29, 0)
        s2 = v2 = 0.0
        for _ in range(n_draws):
            real = sample_realization(cfg, rng)
            s2 += float(np.sum(np.abs(real.s) ** 2))
            v2 += float(np.sum(np.abs(real.v) ** 2))
        n_samples = n_draws * cfg.n_r
        target_v = abs(cfg.pilot) ** 2 * cfg.fading_var + cfg.pilot_noise_var
        assert abs(s2 / n_samples - cfg.fading_var) < 3 * cfg.fading_var / math.sqrt(n_samples)
        assert abs(v2 / n_samples - target_v) < 3 * target_v / math.sqrt(n_samples)


class TestStatistics:
    def test_zero_coefficient(self):
        cfg = make_config()
        real = sample_realization(cfg, substream(1, 0))
        st = statistics(real, 0.0)
        assert st.csi_energy == 0.0
        assert st.cross == 0.0
        assert st.mismatch == st.s_energy

    def test_perfect_csi_statistics(self):
        cfg = make_config(pilot=2.0, pilot_noise_var=0.0)
        real = sample_realization(cfg, substream(1, 1))
        st = statistics(real, 0.5)  # b = 1 / pilot
        assert st.mismatch == 0.0
        assert st.csi_energy == pytest.approx(st.s_energy, rel=1e-14)
        assert complex(st.cross) == pytest.approx(st.s_energy, rel=1e-14)

    def test_matches_elementwise_recomputation(self):
        cfg = make_config(n_r=6, pilot=1 - 0.5j)
        real = sample_realization(cfg, substream(2, 9))
        b = 0.4 + 0.3j
        st = statistics(real, b)
        # independent scalar-loop oracle
        s_energy = sum(abs(x) ** 2 for x in real.s)
        bv = [b * x for x in real.v]
        csi = sum(abs(x) ** 2 for x in bv)
        cross = sum(x.conjugate() * y for x, y in zip(real.s, bv))
        mismatch = sum(abs(x - y) ** 2 for x, y in zip(real.s, bv))
        assert st.s_energy == pytest.approx(s_energy, rel=1e-12)
        assert st.csi_energy == pytest.approx(csi, rel=1e-12)
        assert complex(st.cross) == pytest.approx(cross, rel=1e-12)
        assert st.mismatch == pytest.approx(mismatch, rel=1e-12)

    def test_identities_hold_over_random_cases(self):
        # mismatch identity and Cauchy-Schwarz, 1e-12 relative, many draws
        rng = np.random.default_rng(404)
        cfg = make_config(n_r=5, pilot=1.2 + 0.4j, pilot_noise_var=0.8)
        for i in range(10_000):
            real = sample_realization(cfg, substream(33, i))
            b = complex(rng.normal(), rng.normal())
            st = statistics(real, b)
            identity = st.s_energy + st.csi_energy - 2.0 * st.cross.real
            scale = max(st.s_energy, st.csi_energy, 1e-300)
            assert abs(st.mismatch - identity) <= 1e-12 * scale
            cross2 = st.cross.real**2 + st.cross.imag**2
            assert cross2 <= st.s_energy * st.csi_energy * (1 + 1e-12)

    def test_error_cross_is_summed_per_antenna(self):
        # error_cross = (s - b v)^H (b v) against a scalar-loop oracle, and
        # the identity error_cross = cross - csi_energy to 1e-12 of the scale
        cfg = make_config(n_r=6, pilot=1 - 0.5j)
        for i, b in enumerate((0.4 + 0.3j, 0.0, -1.7, 2j)):
            real = sample_realization(cfg, substream(2, i))
            st = statistics(real, b)
            bv = [b * x for x in real.v]
            oracle = sum((x - y).conjugate() * y for x, y in zip(real.s, bv))
            assert complex(st.error_cross) == pytest.approx(oracle, rel=1e-12, abs=0.0)
            scale = max(st.s_energy, st.csi_energy, 1e-300)
            assert abs(st.error_cross - (st.cross - st.csi_energy)) <= 1e-12 * scale
