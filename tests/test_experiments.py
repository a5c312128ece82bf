import json
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import lsrsim.experiments
from lsrsim import (
    BlockSampler,
    ConfigError,
    Draw,
    ExperimentConfig,
    NotBracketedError,
    ResultTable,
    ChannelConfig,
    SearchSpec,
    build_channel_config,
    curve_points,
    draw,
    emit_results,
    gmi_histogram,
    gmi_samples_multi_b,
    lmmse_coefficient,
    optimize_b,
    philox_key,
    rate_bits_to_nats,
    read_results,
    run_experiment,
    snr_gain,
    wilson_interval,
)
from lsrsim.experiments import (
    B_SWEEP_COLUMNS,
    B_VS_SNR_COLUMNS,
    GMI_HISTOGRAM_COLUMNS,
    KINDS,
    OUTAGE_CURVE_COLUMNS,
)
from lsrsim.outage import OutageCounter
from lsrsim.streams import CHUNK_TRIALS
from oracles import ChannelRealization, GmiStatistics, GridSpec, k_ls


def small_cfg(**overrides):
    params = dict(
        kind="outage_curve",
        snr_db=[4.0, 6.0],
        n_r_list=[4],
        rate_bits=1.0,
        trials=2000,
        seed=11,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestBuildChannelConfig:
    def test_zero_db(self):
        cfg = build_channel_config(0.0, 3)
        assert cfg.power == 1.0
        assert cfg.pilot == 1.0
        assert cfg.noise_var == 1.0 and cfg.pilot_noise_var == 1.0
        assert cfg.fading_var == 1.0 and cfg.n_r == 3

    def test_ten_db(self):
        cfg = build_channel_config(10.0, 1)
        assert cfg.power == pytest.approx(10.0, rel=1e-15)
        assert cfg.pilot == pytest.approx(math.sqrt(10.0), rel=1e-15)

    def test_rate_conversion(self):
        assert rate_bits_to_nats(2.0) == pytest.approx(1.3862943611198906, abs=1e-15)


class TestConfigValidation:
    def test_unknown_field_reports_path(self):
        with pytest.raises(ConfigError, match="snr_dbs"):
            ExperimentConfig.from_dict(
                {"kind": "b_sweep", "snr_dbs": [1], "n_r_list": [1], "rate_bits": 1}
            )

    def test_empty_snr_grid(self):
        with pytest.raises(ConfigError, match="snr_db"):
            small_cfg(snr_db=[])

    def test_bad_antenna_count(self):
        with pytest.raises(ConfigError, match=r"n_r_list\[0\]"):
            small_cfg(n_r_list=[0])

    def test_rate_list_length_mismatch(self):
        with pytest.raises(ConfigError, match="rate_bits"):
            small_cfg(rate_bits=[1.0, 2.0])

    def test_b_sweep_needs_ratios(self):
        with pytest.raises(ConfigError, match="b_over_a"):
            small_cfg(kind="b_sweep", b_over_a=None)

    def test_asymptotic_scan_needs_three_octaves(self):
        with pytest.raises(ConfigError, match="octaves"):
            small_cfg(kind="asymptotic_scan", n_r_list=[16, 32])

    def test_asymptotic_scan_rejects_unit_scale(self):
        with pytest.raises(ConfigError, match="b_scale"):
            small_cfg(kind="asymptotic_scan", n_r_list=[8, 64], b_scale=1.0)

    @pytest.mark.parametrize("kind", ["outage_curve", "b_vs_snr", "gmi_histogram"])
    @pytest.mark.parametrize(
        "overrides, path",
        [
            (dict(b_scale="x"), "b_scale"),
            (dict(b_scale=float("nan")), "b_scale"),
            (dict(b_over_a="junk"), "b_over_a"),
            (dict(b_over_a=[float("nan")]), "b_over_a[0]"),
            (dict(b_over_a=[]), "b_over_a"),
        ],
    )
    def test_every_kind_type_checks_b_scale_and_b_over_a(self, kind, overrides, path):
        with pytest.raises(ConfigError) as exc:
            small_cfg(kind=kind, **overrides)
        assert exc.value.path == path

    def test_kind_specific_rules_stay_kind_specific(self):
        # b_scale = 1 is refused by asymptotic_scan alone, and only b_sweep
        # requires b_over_a
        small_cfg(b_scale=1.0, b_over_a=None)
        small_cfg(kind="b_vs_snr", b_scale=1.0, b_over_a=[0.5])

    def test_search_settings_validated(self):
        with pytest.raises(ConfigError, match="search.coarse_points"):
            ExperimentConfig.from_dict({
                "kind": "outage_curve", "snr_db": [4.0], "n_r_list": [4],
                "rate_bits": 1.0, "search": {"coarse_points": 1},
            })


    @pytest.mark.parametrize("search", [{"ratio_low": 0.5}, None, "x"])
    def test_search_must_be_a_search_spec(self, search):
        with pytest.raises(ConfigError) as exc:
            small_cfg(search=search)
        assert exc.value.path == "search"

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"n_r_list": [2**64]}, "n_r_list[0]"),
            ({"bins": 2**64}, "bins"),
            ({"bins": 2**63 - 1}, "bins"),
            ({"search": {"coarse_points": 2**64}}, "search.coarse_points"),
        ],
    )
    def test_count_at_2_64_refused(self, overrides, path):
        data = {"kind": "outage_curve", "snr_db": [4.0], "n_r_list": [4], "rate_bits": 1.0}
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({**data, **overrides})
        assert exc.value.path == path

    def test_library_arguments_raise_the_one_config_error(self, tmp_path):
        config = build_channel_config(0.0, 2)
        d = draw(config, 10, 1)
        v, y = d.v_energy, d.residual
        nan_v, nan_y = v.copy(), y.copy()
        nan_v[3], nan_y[4] = math.nan, complex(0.0, math.nan)
        stats = GmiStatistics(s_energy=1.0, csi_energy=0.0, cross=0j, mismatch=1.0, error_cross=0j)
        table = ResultTable(columns=[], rows=[])
        fields = dict(n_r=2, power=1.0, noise_var=1.0, pilot_noise_var=1.0, fading_var=1.0, pilot=1.0)
        calls = [
            ("trials", lambda: draw(config, 2**64, 1)),
            ("seed", lambda: philox_key(-1)),
            ("stream index", lambda: BlockSampler(1).stream(2.0)),
            ("n_r", lambda: ChannelConfig(0, 1.0, 1.0, 1.0, 1.0, 1.0)),
            ("v", lambda: ChannelRealization(np.zeros(3, complex), np.zeros(4, complex))),
            ("theta_min", lambda: GridSpec(theta_min=0.0, theta_max=1.0)),
            ("points", lambda: GridSpec(theta_min=1e-6, theta_max=1.0, points=100)),
            ("refine_iters", lambda: GridSpec(theta_min=1e-6, theta_max=1.0, refine_iters=-1)),
            ("theta", lambda: k_ls(stats, 1.0, 1.0, 0.0)),
            ("trials", lambda: wilson_interval(0, 0)),
            ("failures", lambda: wilson_interval(5, 4)),
            ("failures", lambda: wilson_interval(1.5, 3)),
            ("failures", lambda: wilson_interval(True, 3)),
            ("b", lambda: d.gmi(math.nan)),
            ("b", lambda: d.gmi("1")),
            ("b", lambda: d.gmi(True)),
            ("b", lambda: d.gmi("x")),
            ("b", lambda: d.outage(math.inf, 0.5)),
            ("rate_nats", lambda: d.outage(1.0, -0.1)),
            ("rate_nats", lambda: d.outage(1.0, True)),
            ("rate_nats", lambda: d.outage(1.0, "1")),
            ("rate_nats", lambda: optimize_b(d, True)),
            ("rate_nats", lambda: optimize_b(d, np.True_)),
            ("rate_nats", lambda: d.outage(1.0, np.True_)),
            ("search.ratio_low", lambda: SearchSpec(np.False_, 2.0)),
            ("spec", lambda: optimize_b(d, 1.0, {"ratio_low": 0})),
            ("spec", lambda: optimize_b(d, 1.0, None)),
            *((field, lambda field=field, value=value: ChannelConfig(**{**fields, field: value}))
              for field in ("power", "noise_var", "fading_var", "pilot_noise_var")
              for value in ("3", None, 1 + 0j, [1.0])),
            ("power", lambda: ChannelConfig(**{**fields, "power": True})),
            ("pilot_noise_var", lambda: ChannelConfig(**{**fields, "pilot_noise_var": False})),
            ("pilot", lambda: ChannelConfig(**{**fields, "pilot": "2"})),
            ("pilot", lambda: ChannelConfig(**{**fields, "pilot": True})),
            ("gmi", lambda: gmi_histogram(np.array([]), 5)),
            ("gmi", lambda: gmi_histogram(np.array([0.5, math.nan]), 5)),
            ("gmi", lambda: gmi_histogram(["x"], 5)),
            ("gmi", lambda: gmi_histogram(["1.5", "2"], 5)),
            ("gmi", lambda: gmi_histogram([True, False], 5)),
            ("gmi", lambda: gmi_histogram(np.array([0.5, 1.0 + 2.0j]), 5)),
            ("gmi", lambda: gmi_histogram([[0.5], [0.5, 1.0]], 5)),
            ("gmi", lambda: gmi_histogram([0.5, None], 5)),
            ("bins", lambda: gmi_histogram(np.array([0.5]), 2**62)),
            ("bins", lambda: gmi_histogram(np.array([0.5]), 2**64 - 1)),
            ("b", lambda: OutageCounter(d, 0.5).outages(["1"])),
            ("b", lambda: OutageCounter(d, 0.5).outages([True])),
            ("b_values", lambda: gmi_samples_multi_b(config, [], 10, 1)),
            ("v_energy", lambda: Draw(config, nan_v, y)),
            ("v_energy", lambda: Draw(config, -v, y)),
            ("v_energy", lambda: Draw(config, v[:0], y[:0])),
            ("v_energy", lambda: Draw(config, v.astype(np.float32), y)),
            ("v_energy", lambda: Draw(config, list(v), y)),
            ("v_energy", lambda: Draw(config, v.reshape(2, 5), y.reshape(2, 5))),
            ("residual", lambda: Draw(config, v, nan_y)),
            ("residual", lambda: Draw(config, v[::2], nan_y[::2])),
            ("residual", lambda: Draw(config, v, y[:9])),
            ("residual", lambda: Draw(config, v, y.astype(np.complex64))),
            ("include_lsr", lambda: run_experiment(
                small_cfg(kind="b_sweep", b_over_a=[1.0]), include_lsr=False)),
            ("target_outage", lambda: snr_gain([(0, 0.5)], [(0, 0.5)], 1.0)),
            ("target_outage", lambda: snr_gain([(0, 0.5)], [(0, 0.5)], "0.1")),
            ("target_outage", lambda: snr_gain([(0, 0.5)], [(0, 0.5)], True)),
            ("format", lambda: emit_results(table, tmp_path / "x", "yaml")),
            ("format", lambda: read_results(tmp_path / "x", "yaml")),
        ]
        for path, call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert type(exc.value) is ConfigError and exc.value.path == path
        assert not (tmp_path / "x").exists()

    def test_config_error_survives_pickling(self):
        exc = pickle.loads(pickle.dumps(ConfigError("trials", "must be positive")))
        assert type(exc) is ConfigError and exc.path == "trials"
        assert str(exc) == "trials: must be positive"

    def test_config_error_crosses_a_process_pool(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ConfigError) as exc:
                pool.submit(philox_key, -1).result()
        assert exc.value.path == "seed" and str(exc.value).startswith("seed: ")


class TestRateCap:
    """A rate above ln of the largest float64, 709.78 nats (1,024 bits),
    where exp(rate) overflows, is refused; one at or below it reads
    certain outage everywhere."""

    def test_rate_at_or_below_the_cap_reads_certain_outage(self):
        cfg = build_channel_config(6.0, 8)
        d = draw(cfg, 2000, 1)
        a = abs(lmmse_coefficient(cfg))
        for rate in (709.7, rate_bits_to_nats(1024)):
            opt = optimize_b(d, rate)
            assert opt.outage.p_hat == opt.at_a.p_hat == d.outage(a, rate).p_hat == 1.0
            assert [e.p_hat for e in OutageCounter(d, rate).outages([0.5 * a, a])] == [1.0, 1.0]
        for kind in ("outage_curve", "b_sweep"):
            table = run_experiment(small_cfg(kind=kind, rate_bits=1024, b_over_a=[0.5, 1.0]))
            assert {r[c] for r in table.rows for c in ("p_lmmse", "p_lsr", "p_hat") if c in r} == {1.0}

    def test_rate_above_the_cap_is_refused(self):
        d = draw(build_channel_config(6.0, 8), 100, 1)
        for rate in (709.8, math.nextafter(rate_bits_to_nats(1024), math.inf)):
            for call in (lambda: d.outage(1.0, rate), lambda: optimize_b(d, rate), lambda: OutageCounter(d, rate)):
                with pytest.raises(ConfigError) as exc:
                    call()
                assert exc.value.path == "rate_nats"
        with pytest.raises(ConfigError) as exc:
            small_cfg(rate_bits=math.nextafter(1024.0, math.inf))
        assert exc.value.path == "rate_bits"


class TestRunOutageCurve:
    def test_schema_and_dominance(self):
        table = run_experiment(small_cfg())
        assert table.columns == OUTAGE_CURVE_COLUMNS
        assert len(table.rows) == 2
        for row in table.rows:
            assert set(row) == set(OUTAGE_CURVE_COLUMNS)
            assert row["p_lsr"] <= row["p_lmmse"]
            assert row["ci_lo"] <= row["p_lmmse"] <= row["ci_hi"]

    @pytest.mark.parametrize("ratio_low, lsr_wins", [(0.0, True), (0.8, True), (1.2, False)])
    def test_lsr_never_loses_when_the_domain_holds_a(self, ratio_low, lsr_wins):
        # p_lsr <= p_lmmse holds exactly when ratio 1 lies in the search
        # domain, where b* falls back to a; above it every b shrinks too
        # little, and b* = 1.2 a reads 0.1002 against a's 0.0344
        cfg = small_cfg(snr_db=[5.0], n_r_list=[8], rate_bits=2.0, trials=5000, seed=3,
                        search=SearchSpec(ratio_low=ratio_low))
        [row] = run_experiment(cfg).rows
        assert (row["p_lsr"] <= row["p_lmmse"]) == lsr_wins
        if not lsr_wins:
            assert (row["p_lsr"], row["p_lmmse"]) == (0.1002, 0.0344)

    def test_zero_rate_gives_zero_everywhere(self):
        table = run_experiment(small_cfg(rate_bits=0.0))
        for row in table.rows:
            assert row["p_lmmse"] == 0.0
            assert row["p_lsr"] == 0.0

    def test_lmmse_only_reduces_exactly(self):
        full = run_experiment(small_cfg())
        bare = run_experiment(small_cfg(), include_lsr=False)
        assert "b_star" not in bare.columns
        for fr, br in zip(full.rows, bare.rows):
            for col in bare.columns:
                assert fr[col] == br[col]

    def test_rate_list_pairs_with_antennas(self):
        cfg = small_cfg(n_r_list=[2, 4], rate_bits=[0.5, 1.0], snr_db=[5.0])
        table = run_experiment(cfg, include_lsr=False)
        assert [(r["n_r"], r["rate_bits"]) for r in table.rows] == [(2, 0.5), (4, 1.0)]


def counting_draws(monkeypatch) -> tuple[list, list]:
    """Record the config of every point's draw the runner makes, and the
    antenna count of every sampling of standardized variates they scale."""
    configs, samplings = [], []
    scale, sample = lsrsim.experiments._scale, lsrsim.experiments._sample

    def scaled(config, *args, **kwargs):
        configs.append(config)
        return scale(config, *args, **kwargs)

    def sampled(n_r, *args):
        samplings.append(n_r)
        return sample(n_r, *args)

    monkeypatch.setattr(lsrsim.experiments, "_scale", scaled)
    monkeypatch.setattr(lsrsim.experiments, "_sample", sampled)
    return configs, samplings


class TestOneDrawPerPoint:
    @pytest.mark.parametrize(
        "overrides, points",
        [
            (dict(kind="outage_curve"), 2),
            (dict(kind="gmi_histogram", snr_db=[5.0], bins=8), 1),
            (dict(kind="outage_curve", n_r_list=[2, 8, 2]), 4),
            (dict(kind="asymptotic_scan", snr_db=[0.0, 3.0], n_r_list=[2, 16, 2]), 4),
        ],
    )
    def test_each_distinct_point_drawn_once(self, monkeypatch, overrides, points):
        configs, samplings = counting_draws(monkeypatch)
        cfg = small_cfg(trials=500, **overrides)
        run_experiment(cfg)
        assert len(configs) == points
        assert len({(c.n_r, c.power) for c in configs}) == points
        # and each antenna count's variates are sampled once
        assert sorted(samplings) == sorted(set(cfg.n_r_list))


# one config per kind, each with a repeated antenna count
GRIDS = {
    "outage_curve": dict(kind="outage_curve"),
    "b_vs_snr": dict(kind="b_vs_snr"),
    "gmi_histogram": dict(kind="gmi_histogram", bins=4),
    "b_sweep": dict(kind="b_sweep", b_over_a=[0.5, 1.0]),
    "asymptotic_scan": dict(kind="asymptotic_scan", n_r_list=[2, 16, 2]),
}


def grid_cfg(kind: str) -> ExperimentConfig:
    params = dict(snr_db=[3.0, 6.0, 4.5], n_r_list=[2, 4, 2], rate_bits=[0.5, 1.0, 1.5], trials=300)
    params.update(GRIDS[kind])
    return small_cfg(**params)


def one_snr_tables(cfg: ExperimentConfig, include_lsr: bool) -> list[dict]:
    """The rows of ``cfg``, in its row order, each from a grid of one SNR
    (and one antenna count, for the n_r-major kinds)."""
    if KINDS[cfg.kind].snr_major:
        subs = [replace(cfg, snr_db=[snr]) for snr in cfg.snr_db]
    else:
        subs = [
            replace(cfg, snr_db=[snr], n_r_list=[n_r], rate_bits=[rate])
            for n_r, rate in zip(cfg.n_r_list, cfg._rates())
            for snr in cfg.snr_db
        ]
    return [row for sub in subs for row in run_experiment(sub, include_lsr=include_lsr).rows]


class TestSharedDraws:
    """A point's rows do not depend on the other points of its grid."""

    @pytest.mark.parametrize("kind, include_lsr", [(k, True) for k in GRIDS] + [("outage_curve", False)])
    def test_grid_equals_its_one_snr_grids(self, kind, include_lsr):
        cfg = grid_cfg(kind)
        rows = run_experiment(cfg, include_lsr=include_lsr).rows
        assert repr(rows) == repr(one_snr_tables(cfg, include_lsr))

    @pytest.mark.parametrize("kind", GRIDS)
    def test_grid_across_chunks_equals_its_one_snr_grids(self, kind):
        # 2C + 1 trials make three chunks, the last of one trial
        cfg = replace(grid_cfg(kind), trials=2 * CHUNK_TRIALS + 1)
        rows = run_experiment(cfg).rows
        assert repr(rows) == repr(one_snr_tables(cfg, True))

    @pytest.mark.parametrize("trials", [CHUNK_TRIALS, 2 * CHUNK_TRIALS + 1])
    @pytest.mark.parametrize("kind", ["outage_curve", "asymptotic_scan"])
    def test_each_point_reads_its_own_draw(self, monkeypatch, kind, trials):
        # the points of one antenna count scale one sampling of its
        # variates, and each gets draw(config, trials, seed) bit for bit;
        # two antenna counts, n_r-major and SNR-major row order, and one
        # whole chunk or 2C + 1 trials, which end in a one-trial chunk
        cfg = replace(grid_cfg(kind), trials=trials)
        spec, seen = KINDS[kind], []

        def point_rows(cfg, p, d):
            expected = draw(p.config, cfg.trials, cfg.seed)
            assert d.v_energy.tobytes() == expected.v_energy.tobytes()
            assert d.residual.tobytes() == expected.residual.tobytes()
            seen.append((p.n_r, p.rate_bits, p.snr_db))
            return spec.point_rows(cfg, p, d)

        monkeypatch.setitem(KINDS, kind, replace(spec, point_rows=point_rows))
        run_experiment(cfg)
        assert len(set(seen)) == len(seen) == 9
        assert len({n_r for n_r, _, _ in seen}) == 2

    @pytest.mark.parametrize(
        "overrides, include_lsr",
        [
            (dict(), True),
            # search domains without ratio 1, on each side of it
            (dict(search=SearchSpec(ratio_low=1.2)), True),
            (dict(search=SearchSpec(ratio_high=0.8)), True),
            (dict(), False),
            # near 1 nat at 30 dB the counter re-solves nearly every trial
            (dict(snr_db=[30.0], rate_bits=1.0 / math.log(2.0)), True),
        ],
    )
    def test_p_lmmse_is_the_draws_outage_at_a(self, overrides, include_lsr):
        # the full table reads p_lmmse from the search's counter, the
        # --lmmse-only table from Draw.outage; both are d.outage(a, rate)
        cfg = small_cfg(**{"snr_db": [3.0, 6.0], "n_r_list": [2, 8], "rate_bits": [1.0, 2.0],
                           "trials": 3000, "seed": 5, **overrides})
        rows = run_experiment(cfg, include_lsr=include_lsr).rows
        assert len(rows) == len(cfg.snr_db) * 2
        for row in rows:
            d = draw(build_channel_config(row["snr_db"], row["n_r"]), cfg.trials, cfg.seed)
            est = d.outage(row["b_lmmse"], rate_bits_to_nats(row["rate_bits"]))
            assert (row["p_lmmse"], row["ci_lo"], row["ci_hi"]) == (est.p_hat, est.ci95_low, est.ci95_high)


def counting_searches(monkeypatch) -> list:
    """Record the config of every ``optimize_b`` call of the runner."""
    configs = []

    def counted(d, *args):
        configs.append(d.config)
        return optimize_b(d, *args)

    monkeypatch.setattr(lsrsim.experiments, "optimize_b", counted)
    return configs


class TestRepeatedPoints:
    """A repeated ``(n_r, rate, snr)`` point is drawn and searched once."""

    @pytest.mark.parametrize(
        "overrides, searches",
        [
            (dict(n_r_list=[2, 8, 2]), 6),
            (dict(n_r_list=[8, 8]), 3),
            (dict(snr_db=[3.0, 6.0, 3.0]), 2),
            (dict(kind="gmi_histogram", n_r_list=[4, 4], bins=4), 3),
        ],
    )
    def test_each_distinct_point_searched_once(self, monkeypatch, overrides, searches):
        cfg = small_cfg(**{"snr_db": [3.0, 6.0, 9.0], "trials": 300, **overrides})
        expected = one_snr_tables(cfg, include_lsr=True)
        configs = counting_searches(monkeypatch)
        rows = run_experiment(cfg).rows
        assert len(configs) == searches
        assert repr(rows) == repr(expected)
        # a repeated point's rows are copies, not the same dicts
        assert len({id(row) for row in rows}) == len(rows)

    def test_signed_zero_entries_keep_their_sign(self):
        cfg = small_cfg(snr_db=[0.0, -0.0], n_r_list=[2, 2], rate_bits=[0.5, -0.0], trials=300)
        rows = run_experiment(cfg).rows
        assert [(repr(r["snr_db"]), repr(r["rate_bits"])) for r in rows] == [
            ("0.0", "0.5"), ("-0.0", "0.5"), ("0.0", "-0.0"), ("-0.0", "-0.0"),
        ]
        assert repr(rows) == repr(one_snr_tables(cfg, include_lsr=True))


class TestOtherRunners:
    def test_b_vs_snr_schema(self):
        table = run_experiment(small_cfg(kind="b_vs_snr", snr_db=[5.0]))
        assert table.columns == B_VS_SNR_COLUMNS
        row = table.rows[0]
        assert row["b_over_a"] == pytest.approx(row["b_star"] / row["a"], rel=1e-15)

    def test_b_sweep_runner(self):
        cfg = small_cfg(kind="b_sweep", snr_db=[5.0], b_over_a=[0.0, 0.5, 1.0])
        table = run_experiment(cfg)
        assert table.columns == B_SWEEP_COLUMNS
        assert [r["b_over_a"] for r in table.rows] == [0.0, 0.5, 1.0]
        assert table.rows[0]["p_hat"] == 1.0  # b = 0 with positive rate

    def test_gmi_histogram_runner(self):
        cfg = small_cfg(kind="gmi_histogram", snr_db=[5.0], bins=8, trials=1000)
        table = run_experiment(cfg)
        assert table.columns == GMI_HISTOGRAM_COLUMNS
        lmmse = [r for r in table.rows if r["receiver"] == "lmmse"]
        lsr = [r for r in table.rows if r["receiver"] == "lsr"]
        assert len(lmmse) == 8 and len(lsr) == 8
        assert sum(r["count"] for r in lmmse) == 1000

    def test_asymptotic_scan_runner(self):
        cfg = small_cfg(
            kind="asymptotic_scan", snr_db=[0.0], n_r_list=[8, 16, 32, 64], trials=500
        )
        table = run_experiment(cfg)
        rules = {(r["n_r"], r["b_rule"]) for r in table.rows}
        assert len(rules) == 8
        for row in table.rows:
            assert row["gmi_p01"] <= row["gmi_median"]

    def test_asymptotic_scan_medians_stable_across_seeds(self):
        # fixed n_r, two seeds: medians agree up to Monte Carlo noise
        medians = []
        for seed in (1, 2):
            cfg = small_cfg(
                kind="asymptotic_scan", snr_db=[0.0], n_r_list=[8, 64],
                trials=4000, seed=seed,
            )
            rows = run_experiment(cfg).rows
            medians.append(
                {(r["n_r"], r["b_rule"]): r["gmi_median"] for r in rows}
            )
        for key, value in medians[0].items():
            assert medians[1][key] == pytest.approx(value, abs=0.05)


def numpy_median_p01(g: np.ndarray) -> bytes:
    return np.array([np.median(g), np.percentile(g, 1.0)]).tobytes()


class TestScanOrderStatistics:
    """The scan's median and 1st percentile come from one-kth partitions
    and must equal numpy's, bit for bit, at every numpy the package allows."""

    @pytest.mark.parametrize("n", [*range(1, 65), 100, 101, 4096, 5000, 5001])
    def test_equals_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        gmi = rng.exponential(size=n)
        arrays = {
            "distinct": gmi,
            "ties": np.round(4.0 * gmi) / 4.0,
            # the mismatched rule's GMI reads exactly 0 on many trials
            "some-zeros": np.where(rng.random(n) < 0.3, 0.0, gmi),
            "mostly-zeros": np.where(rng.random(n) < 0.8, 0.0, gmi),
            "all-zeros": np.zeros(n),
            "one-tie": np.full(n, 0.75),
        }
        for name, g in arrays.items():
            before = g.tobytes()
            got = np.array(lsrsim.experiments._median_p01(g)).tobytes()
            assert got == numpy_median_p01(g), name
            assert g.tobytes() == before, name  # the input is left as it was

    def test_scan_rows_equal_numpy_on_each_draw(self):
        # 4,097 trials end in a one-trial chunk, and the scaled rule's GMI
        # is 0 on some trials
        cfg = small_cfg(kind="asymptotic_scan", snr_db=[-3.0, 2.0], n_r_list=[2, 16], trials=4097, seed=5)
        rows = run_experiment(cfg).rows
        assert len(rows) == 8
        for row in rows:
            g = draw(build_channel_config(row["snr_db"], row["n_r"]), cfg.trials, cfg.seed).gmi(row["b"])
            assert np.array([row["gmi_median"], row["gmi_p01"]]).tobytes() == numpy_median_p01(g)
        assert any(row["gmi_p01"] == 0.0 for row in rows)


class TestSnrGain:
    def test_identical_curves_zero_gain(self):
        curve = [(0.0, 0.3), (2.0, 0.1), (4.0, 0.03), (6.0, 0.008)]
        assert snr_gain(curve, curve, 0.01) == 0.0

    def test_exact_shift_recovered(self):
        curve = [(0.0, 0.3), (2.0, 0.1), (4.0, 0.03), (6.0, 0.008)]
        shifted = [(s + 1.0, p) for s, p in curve]
        assert snr_gain(shifted, curve, 0.02) == pytest.approx(1.0, abs=1e-9)

    def test_exact_hit_on_grid_point(self):
        curve = [(0.0, 0.1), (1.0, 0.01), (2.0, 0.001)]
        assert snr_gain(curve, curve, 0.01) == 0.0

    def test_exact_hits_without_a_bracketing_segment(self):
        # a curve that starts at the target, one that meets it only at its
        # last point, after a zero estimate, and a one-point curve
        starts = [(1.0, 0.01), (2.0, 0.001)]
        assert snr_gain([(0.0, 0.0), (3.0, 0.01)], starts, 0.01) == 2.0
        assert snr_gain([(5.0, 0.01)], starts, 0.01) == 4.0

    def test_empty_curve_raises(self):
        with pytest.raises(NotBracketedError, match="empty curve"):
            snr_gain([], [(0.0, 0.5), (2.0, 0.001)], 0.01)

    def test_unbracketed_raises(self):
        curve = [(0.0, 0.5), (2.0, 0.2)]
        with pytest.raises(NotBracketedError):
            snr_gain(curve, curve, 1e-3)

    def test_zero_estimate_names_its_snr(self):
        # the curve crosses 1e-2 between 5 and 10 dB, but log interpolation
        # cannot reach the zero estimate at 10 dB
        curve = [(0.0, 0.5), (5.0, 0.02), (10.0, 0.0)]
        with pytest.raises(NotBracketedError, match=r"0 at snr_db = 10\.0.*increase trials"):
            snr_gain(curve, curve, 1e-2)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            snr_gain([(0, 0.5)], [(0, 0.5)], 0.0)

    def test_curve_points_extraction(self):
        table = ResultTable(
            columns=["snr_db", "p_lmmse"],
            rows=[{"snr_db": 1.0, "p_lmmse": 0.5}, {"snr_db": 2.0, "p_lmmse": 0.2}],
        )
        assert curve_points(table, "p_lmmse") == [(1.0, 0.5), (2.0, 0.2)]

    @pytest.mark.parametrize(
        "overrides",
        [dict(n_r_list=[2, 8]), dict(n_r_list=[4, 4], rate_bits=[0.5, 1.0])],
    )
    def test_curve_points_refuses_several_curves(self, overrides):
        # snr_gain on the joined rows of n_r = 2 and 8 read a gain of
        # neither curve
        cfg = small_cfg(snr_db=[0.0, 4.0, 8.0], trials=1500, seed=3, **overrides)
        table = run_experiment(cfg)
        for column in ("p_lmmse", "p_lsr"):
            with pytest.raises(ConfigError) as exc:
                curve_points(table, column)
            assert exc.value.path == "n_r_list"
        one = run_experiment(replace(cfg, n_r_list=[8], rate_bits=1.0))
        assert curve_points(one, "p_lsr") == [(r["snr_db"], r["p_lsr"]) for r in one.rows]


class TestEmitResults:
    def test_csv_round_trip(self, tmp_path):
        table = run_experiment(small_cfg())
        path = tmp_path / "t.csv"
        emit_results(table, path, "csv")
        back = read_results(path, "csv")
        assert back.columns == table.columns
        for a, b in zip(table.rows, back.rows):
            for col in table.columns:
                assert a[col] == b[col]

    def test_json_round_trip(self, tmp_path):
        table = run_experiment(small_cfg())
        path = tmp_path / "t.json"
        emit_results(table, path, "json")
        back = read_results(path, "json")
        assert back.columns == table.columns
        for a, b in zip(table.rows, back.rows):
            for col in table.columns:
                assert a[col] == b[col]

    @pytest.mark.parametrize("overrides, column", [
        (dict(kind="gmi_histogram", snr_db=[5.0], bins=4, trials=500), "receiver"),
        (dict(kind="asymptotic_scan", snr_db=[0.0], n_r_list=[4, 32], trials=400), "b_rule"),
    ], ids=["gmi-hist", "asymptotic-scan"])
    def test_json_string_cells(self, tmp_path, overrides, column):
        table = run_experiment(small_cfg(**overrides))
        for fmt in ("csv", "json"):
            emit_results(table, tmp_path / f"t.{fmt}", fmt)
        rows = json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))
        assert [r[column] for r in rows] == [r[column] for r in table.rows]
        assert {type(r[column]) for r in rows} == {str}
        assert read_results(tmp_path / "t.json", "json") == read_results(tmp_path / "t.csv", "csv")

    def test_empty_table(self, tmp_path):
        table = ResultTable(columns=["x", "y"], rows=[])
        emit_results(table, tmp_path / "e.csv", "csv")
        assert (tmp_path / "e.csv").read_text() == "x,y\n"
        emit_results(table, tmp_path / "e.json", "json")
        assert (tmp_path / "e.json").read_text() == "[]\n"

    def test_floats_serialized_with_17_digits(self, tmp_path):
        table = ResultTable(columns=["v"], rows=[{"v": 0.1}])
        emit_results(table, tmp_path / "f.csv", "csv")
        assert "0.10000000000000001" in (tmp_path / "f.csv").read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_refused_before_writing(self, tmp_path, fmt):
        table = ResultTable(columns=["snr_db", "p_hat"],
                            rows=[{"snr_db": 1.0, "p_hat": float("nan")}])
        path = tmp_path / f"t.{fmt}"
        with pytest.raises(ValueError, match="p_hat"):
            emit_results(table, path, fmt)
        assert not path.exists()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results(ResultTable(columns=[], rows=[]), tmp_path / "x", "yaml")
