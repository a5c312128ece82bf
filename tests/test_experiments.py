import math

import pytest

import lsrsim.outage
from lsrsim import (
    ConfigError,
    ExperimentConfig,
    NotBracketedError,
    ResultTable,
    SearchSpec,
    build_channel_config,
    curve_points,
    emit_results,
    rate_bits_to_nats,
    read_results,
    run_experiment,
    snr_gain,
)
from lsrsim.experiments import (
    B_SWEEP_COLUMNS,
    B_VS_SNR_COLUMNS,
    GMI_HISTOGRAM_COLUMNS,
    OUTAGE_CURVE_COLUMNS,
)


def small_cfg(**overrides):
    params = dict(
        kind="outage_curve",
        snr_db=[4.0, 6.0],
        n_r_list=[4],
        rate_bits=1.0,
        trials=2000,
        seed=11,
        search=SearchSpec(coarse_points=11, refine_iters=0),
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

    def test_search_settings_validated(self):
        with pytest.raises(ConfigError, match="search.coarse_points"):
            ExperimentConfig.from_dict({
                "kind": "outage_curve", "snr_db": [4.0], "n_r_list": [4],
                "rate_bits": 1.0, "search": {"coarse_points": 1},
            })


class TestRunOutageCurve:
    def test_schema_and_dominance(self):
        table = run_experiment(small_cfg())
        assert table.columns == OUTAGE_CURVE_COLUMNS
        assert len(table.rows) == 2
        for row in table.rows:
            assert set(row) == set(OUTAGE_CURVE_COLUMNS)
            assert row["p_lsr"] <= row["p_lmmse"]
            assert row["ci_lo"] <= row["p_lmmse"] <= row["ci_hi"]

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


class TestOneDrawPerPoint:
    @pytest.mark.parametrize(
        "overrides, points",
        [
            (dict(kind="outage_curve"), 2),
            (dict(kind="gmi_histogram", snr_db=[5.0], bins=8), 1),
        ],
    )
    def test_each_trial_sampled_once_per_point(self, monkeypatch, overrides, points):
        indices = []

        class CountingSampler(lsrsim.outage.BlockSampler):
            def normals(self, index, out):
                indices.append(index)
                super().normals(index, out)

        monkeypatch.setattr(lsrsim.outage, "BlockSampler", CountingSampler)
        cfg = small_cfg(trials=500, **overrides)
        run_experiment(cfg)
        assert len(indices) == points * cfg.trials
        assert sorted(indices) == sorted(list(range(cfg.trials)) * points)


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

    def test_unbracketed_raises(self):
        curve = [(0.0, 0.5), (2.0, 0.2)]
        with pytest.raises(NotBracketedError):
            snr_gain(curve, curve, 1e-3)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            snr_gain([(0, 0.5)], [(0, 0.5)], 0.0)

    def test_curve_points_extraction(self):
        table = ResultTable(
            columns=["snr_db", "p_lmmse"],
            rows=[{"snr_db": 1.0, "p_lmmse": 0.5}, {"snr_db": 2.0, "p_lmmse": 0.2}],
        )
        assert curve_points(table, "p_lmmse") == [(1.0, 0.5), (2.0, 0.2)]


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
