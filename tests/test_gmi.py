import cmath
import math

import numpy as np
import pytest

from lsrsim import (
    ChannelRealization,
    GmiStatistics,
    GridSpec,
    build_channel_config,
    gmi_grid_oracle,
    k_ls,
    lmmse_coefficient,
    sample_realization,
    statistics,
    theta_star,
    substream,
)

WIDE_GRID = GridSpec(theta_min=1e-8, theta_max=1e6, points=3000, refine_iters=120)


def perfect_csi_stats(s_energy: float) -> GmiStatistics:
    return GmiStatistics(
        s_energy=s_energy,
        csi_energy=s_energy,
        cross=complex(s_energy),
        mismatch=0.0,
    )


def random_instance(index: int, seed: int = 4242):
    """Random (stats, power, noise_var) drawn from the experiment conventions."""
    rng = np.random.default_rng(seed + index)
    n_r = int(rng.integers(1, 17))
    snr_db = float(rng.uniform(-5.0, 20.0))
    ratio = float(rng.uniform(0.1, 2.0))
    # half the instances keep a positive real b; the negative and complex
    # rest often give Re(b s^H v) <= 0, where the GMI is 0
    phase = (1.0, 1.0, -1.0, cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))[
        rng.integers(4)
    ]
    cfg = build_channel_config(snr_db, n_r)
    a = abs(lmmse_coefficient(cfg))
    real = sample_realization(cfg, substream(seed, index))
    return statistics(real, ratio * a * phase), cfg.power, cfg.noise_var


class TestKls:
    def test_rejects_nonnegative_theta(self):
        st = perfect_csi_stats(1.0)
        with pytest.raises(ValueError):
            k_ls(st, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            k_ls(st, 1.0, 1.0, 0.5)

    def test_vanishes_in_theta_to_zero_limit(self):
        st, power, noise_var = random_instance(0)
        assert abs(k_ls(st, power, noise_var, -1e-12)) <= 1e-9

    def test_zero_csi_gives_identically_zero(self):
        st = GmiStatistics(s_energy=2.5, csi_energy=0.0, cross=0j, mismatch=2.5)
        for theta in (-1e-6, -0.5, -3.0, -100.0):
            assert k_ls(st, 4.0, 1.0, theta) == 0.0

    def test_perfect_csi_at_inverse_noise_var(self):
        # theta = -1/noise_var recovers log(1 + P ||S||^2 / noise_var)
        for s2, power, noise_var in [(0.7, 3.0, 1.0), (2.2, 10.0, 0.5)]:
            value = k_ls(perfect_csi_stats(s2), power, noise_var, -1.0 / noise_var)
            assert value == pytest.approx(math.log1p(power * s2 / noise_var), rel=1e-12)

    def test_noise_rescaling_identity(self):
        # k_ls(P, noise_var, theta) == k_ls(P/noise_var, 1, noise_var*theta);
        # 1e-12 relative to the term scale (the summands cancel, so relative
        # to the tiny result the identity is not representable in float64)
        rng = np.random.default_rng(7)
        for i in range(10_000):
            st, power, _ = random_instance(i, seed=888)
            noise_var = float(rng.uniform(0.2, 5.0))
            theta = -float(rng.uniform(1e-4, 10.0)) / noise_var
            lhs = k_ls(st, power, noise_var, theta)
            rhs = k_ls(st, power / noise_var, 1.0, noise_var * theta)
            scale = max(
                1.0, abs(lhs), abs(rhs),
                abs(theta) * power * (st.mismatch + st.s_energy),
            )
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestThetaStar:
    def test_perfect_csi_unit_noise(self):
        res = theta_star(perfect_csi_stats(1.7), 5.0, 1.0)
        assert res.theta_star == pytest.approx(-1.0, rel=1e-9)
        assert res.gmi_nats == pytest.approx(math.log1p(5.0 * 1.7), rel=1e-12)

    def test_zero_csi_returns_absent_theta(self):
        st = GmiStatistics(s_energy=1.0, csi_energy=0.0, cross=0j, mismatch=1.0)
        res = theta_star(st, 2.0, 1.0)
        assert res.theta_star is None
        assert res.gmi_nats == 0.0

    def test_result_invariants_over_random_instances(self):
        for i in range(2000):
            st, power, noise_var = random_instance(i)
            res = theta_star(st, power, noise_var)
            assert res.gmi_nats >= 0.0
            if res.theta_star is not None:
                assert res.theta_star < 0.0
                # exact by construction: the value is k_ls at the maximizer
                assert k_ls(st, power, noise_var, res.theta_star) == res.gmi_nats

    def test_stationarity_at_maximizer(self):
        # centered difference at theta* is ~0 relative to the curvature scale
        checked = 0
        for i in range(600):
            st, power, noise_var = random_instance(i, seed=99)
            res = theta_star(st, power, noise_var)
            if res.theta_star is None:
                continue
            th, h = res.theta_star, 1e-6 * abs(res.theta_star)
            f0 = res.gmi_nats
            fp = k_ls(st, power, noise_var, th + h)
            fm = k_ls(st, power, noise_var, th - h)
            slope = (fp - fm) / (2 * h)
            curvature = abs(fp - 2 * f0 + fm) / (h * h)
            assert abs(slope) <= 1e-4 * max(1.0, curvature * abs(th))
            checked += 1
        assert checked > 200

    def test_attained_exactly_when_re_cross_positive(self):
        # C = -2 Re(cross) in the stationary-point quadratic: the maximizer
        # is attained (at the smaller root) exactly when Re(cross) > 0;
        # instances within rounding of Re(cross) = 0 are skipped
        sides = set()
        for i in range(4000):
            st, power, noise_var = random_instance(i, seed=31)
            if st.csi_energy <= 0.0:
                continue
            if abs(st.cross.real) <= 1e-9 * math.sqrt(st.s_energy * st.csi_energy):
                continue
            attained = theta_star(st, power, noise_var).theta_star is not None
            assert attained == (st.cross.real > 0.0)
            sides.add(attained)
        assert sides == {True, False}

    def test_matches_grid_oracle(self):
        for i in range(2000):
            st, power, noise_var = random_instance(i)
            closed = theta_star(st, power, noise_var).gmi_nats
            oracle = gmi_grid_oracle(st, power, noise_var, WIDE_GRID)
            scale = max(closed, oracle, 1e-300)
            assert abs(closed - oracle) <= 1e-6 * scale
            assert oracle - closed <= 1e-6 * scale

    def test_unitary_invariance(self):
        # rotating (s, v) jointly leaves the GMI unchanged
        rng = np.random.default_rng(12)
        cfg = build_channel_config(8.0, 6)
        a = abs(lmmse_coefficient(cfg))
        for i in range(200):
            real = sample_realization(cfg, substream(77, i))
            z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            u, _ = np.linalg.qr(z)
            rotated = ChannelRealization(u @ real.s, u @ real.v)
            g0 = theta_star(statistics(real, a), cfg.power, cfg.noise_var).gmi_nats
            g1 = theta_star(statistics(rotated, a), cfg.power, cfg.noise_var).gmi_nats
            assert g1 == pytest.approx(g0, rel=1e-9, abs=1e-9)

    def test_perfect_csi_dominates_other_scalings(self):
        # with a noiseless pilot, b = 1/pilot maximizes the per-realization GMI
        from lsrsim import ChannelConfig

        cfg = ChannelConfig(
            n_r=3, power=8.0, noise_var=1.0, pilot_noise_var=0.0,
            fading_var=1.0, pilot=2.0,
        )
        b_perfect = 0.5
        for i in range(100):
            real = sample_realization(cfg, substream(55, i))
            best = theta_star(statistics(real, b_perfect), cfg.power, cfg.noise_var)
            for scale in np.linspace(0.1, 1.9, 19):
                other = theta_star(
                    statistics(real, scale * b_perfect), cfg.power, cfg.noise_var
                )
                assert other.gmi_nats <= best.gmi_nats * (1 + 1e-12)


class TestGridOracle:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(theta_min=0.0, theta_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(theta_min=2.0, theta_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(theta_min=1e-6, theta_max=1.0, points=100)

    def test_perfect_csi_recovers_closed_form(self):
        for s2, power, noise_var in [(1.3, 4.0, 1.0), (0.4, 20.0, 2.0)]:
            grid = GridSpec(1e-6 / noise_var, 10.0 / noise_var, points=2000)
            oracle = gmi_grid_oracle(perfect_csi_stats(s2), power, noise_var, grid)
            expected = math.log1p(power * s2 / noise_var)
            assert oracle == pytest.approx(expected, rel=1e-6)

    def test_zero_csi_gives_zero(self):
        st = GmiStatistics(s_energy=1.0, csi_energy=0.0, cross=0j, mismatch=1.0)
        assert gmi_grid_oracle(st, 3.0, 1.0, WIDE_GRID) == 0.0
