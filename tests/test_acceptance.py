"""End-to-end acceptance runs at the advertised tolerances.

Each test covers one numbered acceptance criterion, is self-contained, and
prints a PASS line with the measured quantities (run ``pytest -v -s
tests/test_acceptance.py`` to see them).  Several are heavy Monte Carlo runs;
the whole module takes a few minutes.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lsrsim import (
    ChannelConfig,
    ExperimentConfig,
    build_channel_config,
    curve_points,
    draw,
    gmi_histogram,
    lmmse_coefficient,
    optimize_b,
    run_experiment,
    snr_gain,
)
from lsrsim.cli import main
from oracles import (
    WIDE_GRID,
    ChannelRealization,
    gmi_grid_oracle,
    k_ls,
    sample_realization,
    statistics,
    substream,
    theta_star,
)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def random_instance(index: int, seed: int = 4242):
    """Random (stats, power, noise_var) over the stated parameter ranges."""
    rng = np.random.default_rng(seed + index)
    n_r = int(rng.integers(1, 17))
    snr_db = float(rng.uniform(-5.0, 20.0))
    ratio = float(rng.uniform(0.1, 2.0))
    cfg = build_channel_config(snr_db, n_r)
    a = abs(lmmse_coefficient(cfg))
    real = sample_realization(cfg, substream(seed, index))
    return statistics(real, ratio * a), cfg.power, cfg.noise_var


def test_criterion_1_perfect_csi_oracle():
    # sigma_p^2 = 0, b = a, n_r = 1, R = 1 bit, SNR = 10 dB, 1e5 trials:
    # the estimate must cover the analytic Rayleigh outage and finish in < 5 s
    power = 10.0
    cfg = ChannelConfig(
        n_r=1, power=power, noise_var=1.0, pilot_noise_var=0.0,
        fading_var=1.0, pilot=1.0,
    )
    a = abs(lmmse_coefficient(cfg))
    rate_nats = 1.0 * math.log(2.0)
    analytic = 1.0 - math.exp(-(math.exp(rate_nats) - 1.0) / power)

    start = time.perf_counter()
    est = draw(cfg, 100_000, 20260).outage(a, rate_nats)
    elapsed = time.perf_counter() - start

    assert est.ci95_low <= analytic <= est.ci95_high
    assert elapsed < 5.0
    report(1, f"p_hat={est.p_hat:.5f} covers analytic {analytic:.5f} "
              f"in [{est.ci95_low:.5f}, {est.ci95_high:.5f}]; {elapsed:.2f}s")


def test_criterion_2_closed_form_matches_grid_oracle():
    # 1e4 random instances: closed form and refined grid oracle within 1e-6
    # relative, and the oracle never exceeds the closed form beyond tolerance
    worst = 0.0
    oracle_excess = 0
    for i in range(10_000):
        stats, power, noise_var = random_instance(i)
        closed = theta_star(stats, power, noise_var).gmi_nats
        oracle = gmi_grid_oracle(stats, power, noise_var, WIDE_GRID)
        scale = max(closed, oracle, 1e-300)
        worst = max(worst, abs(closed - oracle) / scale)
        if oracle - closed > 1e-6 * scale:
            oracle_excess += 1
    assert worst <= 1e-6
    assert oracle_excess == 0
    report(2, f"10^4 instances, worst relative gap {worst:.3e}, "
              f"oracle exceedances {oracle_excess}")


def test_criterion_3_invariant_suite(tmp_path):
    rng = np.random.default_rng(606)

    # mismatch identity + Cauchy-Schwarz over 1e4 random (realization, b)
    cfg = build_channel_config(6.0, 5)
    for i in range(10_000):
        real = sample_realization(cfg, substream(31337, i))
        b = complex(rng.normal(), rng.normal())
        st = statistics(real, b)
        identity = st.s_energy + st.csi_energy - 2.0 * st.cross.real
        scale = max(st.s_energy, st.csi_energy, 1e-300)
        assert abs(st.mismatch - identity) <= 1e-12 * scale
        cross2 = st.cross.real**2 + st.cross.imag**2
        assert cross2 <= st.s_energy * st.csi_energy * (1 + 1e-12)

    # noise-rescaling identity and GMI nonnegativity over 1e4 instances
    for i in range(10_000):
        stats, power, _ = random_instance(i, seed=909)
        noise_var = float(rng.uniform(0.2, 5.0))
        theta = -float(rng.uniform(1e-4, 10.0)) / noise_var
        lhs = k_ls(stats, power, noise_var, theta)
        rhs = k_ls(stats, power / noise_var, 1.0, noise_var * theta)
        scale = max(1.0, abs(lhs), abs(rhs),
                    abs(theta) * power * (stats.mismatch + stats.s_energy))
        assert abs(lhs - rhs) <= 1e-12 * scale
        assert theta_star(stats, power, noise_var).gmi_nats >= 0.0

    # unitary invariance of the GMI at 1e-9
    ucfg = build_channel_config(8.0, 6)
    a = abs(lmmse_coefficient(ucfg))
    for i in range(200):
        real = sample_realization(ucfg, substream(55, i))
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u, _ = np.linalg.qr(z)
        rotated = ChannelRealization(u @ real.s, u @ real.v)
        g0 = theta_star(statistics(real, a), ucfg.power, ucfg.noise_var).gmi_nats
        g1 = theta_star(statistics(rotated, a), ucfg.power, ucfg.noise_var).gmi_nats
        assert abs(g1 - g0) <= 1e-9 * max(1.0, g0)

    # determinism under varying worker counts (bit-exact), at the CLI, the
    # one surface that still takes a count
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"snr_db": [5.0], "n_r_list": [4], "rate_bits": 1.0, "trials": 10_000}))
    tables = []
    for workers in (1, 2, 3, 7):
        out = tmp_path / f"workers{workers}.csv"
        assert main(["outage-curve", "--config", str(cfg_path), "--seed", "424242",
                     "--out", str(out), "--workers", str(workers)]) == 0
        tables.append(out.read_bytes())
    assert tables.count(tables[0]) == len(tables)

    report(3, "identities, rescaling, nonnegativity (10^4 each), unitary "
              "invariance (200), byte-identical CLI tables at --workers 1/2/3/7 all hold")


def test_criterion_4_outage_curve_and_snr_gain():
    # n_r = 8, R = 2 bits, SNR grid step 0.5 dB, 1e5 trials per point:
    # shrinkage never loses under common seeds, and the SNR gain at outage
    # 1e-2 falls in [0.5, 2.5] dB
    start = time.perf_counter()
    cfg = ExperimentConfig(
        kind="outage_curve",
        snr_db=[3.0 + 0.5 * i for i in range(13)],
        n_r_list=[8],
        rate_bits=2.0,
        trials=100_000,
        seed=20240,
    )
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - start

    for row in table.rows:
        assert row["p_lsr"] <= row["p_lmmse"]

    # statistical monotonicity in SNR under common seeds (3 combined se slack)
    for col in ("p_lmmse", "p_lsr"):
        rows = table.rows
        for r0, r1 in zip(rows, rows[1:]):
            se = math.sqrt(
                r0[col] * (1 - r0[col]) / r0["trials"]
                + r1[col] * (1 - r1[col]) / r1["trials"]
            )
            assert r1[col] <= r0[col] + 3.0 * se

    gain = snr_gain(
        curve_points(table, "p_lmmse"), curve_points(table, "p_lsr"), 1e-2
    )
    assert 0.5 <= gain <= 2.5
    report(4, f"p_lsr <= p_lmmse at all 13 points; gain at 1e-2 = "
              f"{gain:.3f} dB in [0.5, 2.5]; {elapsed:.0f}s")


def test_criterion_5_shrinkage_approaches_lmmse_with_antennas():
    # fixed SNR = 5 dB with the paired settings (4,1), (8,2), (16,3) bits:
    # |b*-a|/a strictly positive at n_r=4 and nonincreasing in n_r
    deviations = []
    for n_r, rate_bits in [(4, 1.0), (8, 2.0), (16, 3.0)]:
        cfg = build_channel_config(5.0, n_r)
        a = abs(lmmse_coefficient(cfg))
        opt = optimize_b(draw(cfg, 100_000, 2024), rate_bits * math.log(2.0))
        deviations.append(abs(opt.b_star - a) / a)
    assert deviations[0] > 0.0
    assert deviations[0] >= deviations[1] >= deviations[2]
    report(5, "relative deviation |b*-a|/a = "
              + ", ".join(f"{d:.3f}" for d in deviations)
              + " over n_r = 4, 8, 16")


def test_criterion_6_gmi_histogram_mean_variance_tradeoff():
    # n_r = 8, R = 2 bits, SNR = 5 dB, 1e5 trials: shrinkage trades a lower
    # mean for a thinned lower tail, with significantly lower outage
    cfg = build_channel_config(5.0, 8)
    a = abs(lmmse_coefficient(cfg))
    rate = 2.0 * math.log(2.0)
    trials, seed = 100_000, 31

    d = draw(cfg, trials, seed)
    opt = optimize_b(d, rate)
    hist_lmmse = gmi_histogram(d.gmi(a), bins=60)
    hist_lsr = gmi_histogram(d.gmi(opt.b_star), bins=60)
    est_lmmse = d.outage(a, rate)
    est_lsr = d.outage(opt.b_star, rate)

    assert opt.b_star < a  # genuine shrinkage in this regime
    # golden value recorded from this deterministic pipeline; a change means
    # the sampler, solver, or search changed behavior (0.7745 from the grid
    # search the exact sweep replaced, at the same outage, and 0.758875 under
    # the per-antenna stream contract, version 1)
    assert opt.b_star / a == pytest.approx(0.774511904, abs=1e-9)

    assert hist_lsr.mean <= hist_lmmse.mean
    diff = est_lmmse.p_hat - est_lsr.p_hat
    se = math.sqrt(
        est_lmmse.p_hat * (1 - est_lmmse.p_hat) / trials
        + est_lsr.p_hat * (1 - est_lsr.p_hat) / trials
    )
    assert est_lsr.p_hat < est_lmmse.p_hat
    assert diff > 3.0 * se
    report(6, f"b*/a = {opt.b_star / a:.4f}; mean {hist_lsr.mean:.4f} <= "
              f"{hist_lmmse.mean:.4f}; outage {est_lsr.p_hat:.5f} < "
              f"{est_lmmse.p_hat:.5f} (diff {diff:.5f} = {diff / se:.0f} se)")


def test_criterion_7_massive_antenna_dichotomy():
    # SNR = 0 dB, 1e4 trials: matched rule gains >= 0.5 nats per doubling
    # from 256 to 1024 antennas; the 2a rule moves <= 0.1 nats from 512 to 1024
    start = time.perf_counter()
    cfg = ExperimentConfig(
        kind="asymptotic_scan",
        snr_db=[0.0],
        n_r_list=[128, 256, 512, 1024],
        rate_bits=1.0,
        trials=10_000,
        seed=99,
        b_scale=2.0,
    )
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - start

    med = {(r["n_r"], r["b_rule"]): r["gmi_median"] for r in table.rows}
    inc_a = med[(512, "lmmse")] - med[(256, "lmmse")]
    inc_b = med[(1024, "lmmse")] - med[(512, "lmmse")]
    drift = abs(med[(1024, "scaled")] - med[(512, "scaled")])
    assert inc_a >= 0.5 and inc_b >= 0.5
    assert drift <= 0.1
    assert elapsed < 600.0
    report(7, f"matched-rule median +{inc_a:.3f}/+{inc_b:.3f} nats per "
              f"doubling (ln 2 = 0.693); scaled-rule drift {drift:.4f} nats; "
              f"{elapsed:.0f}s")


def test_criterion_8_cli_reproducibility(tmp_path, child_env):
    # identical config + seed => byte-identical output files, in csv and json
    config = {
        "snr_db": [4.0, 6.0],
        "n_r_list": [4],
        "rate_bits": 1.0,
        "trials": 2000,
        "search": {"coarse_points": 11, "refine_iters": 1},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    outputs = []
    for fmt in ("csv", "json"):
        pair = []
        for run in range(2):
            out = tmp_path / f"run{run}.{fmt}"
            proc = subprocess.run(
                [sys.executable, "-m", "lsrsim.cli", "outage-curve",
                 "--config", str(cfg_path), "--seed", "4711",
                 "--out", str(out), "--format", fmt],
                capture_output=True,
                env=child_env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            pair.append(out.read_bytes())
        assert pair[0] == pair[1]
        outputs.append(len(pair[0]))
    report(8, f"byte-identical re-runs (csv {outputs[0]} bytes, "
              f"json {outputs[1]} bytes)")
