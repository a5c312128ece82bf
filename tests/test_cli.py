import json
import subprocess
import sys

import numpy as np
import pytest

import lsrsim.cli
from lsrsim import (ExperimentConfig, SearchSpec, build_channel_config, draw, emit_results, read_results,
                    run_experiment)
from lsrsim.channel import gram_variances
from lsrsim.cli import main


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "snr_db": [4.0, 5.0],
        "n_r_list": [4],
        "rate_bits": 1.0,
        "trials": 1500,
        "search": {"coarse_points": 9, "refine_iters": 0},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["outage-curve", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_legacy_search_keys_change_no_byte(self, tmp_path):
        # coarse_points and refine_iters tuned the grid search that the
        # exact sweep replaced: still accepted and checked, and ignored
        tables = []
        for name, search in (("legacy.json", {"coarse_points": 9, "refine_iters": 0}), ("plain.json", {})):
            out = tmp_path / f"{name}.csv"
            cfg = write_config(tmp_path, name, search=search)
            assert main(["outage-curve", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["outage-curve", "--config", str(tmp_path / "nope.json"),
                     "--seed", "3", "--out", str(tmp_path / "r.csv")]) == 4

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["outage-curve", "--config", str(bad), "--seed", "3",
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_validation_failure_reports_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, snr_db=[])
        code = main(["outage-curve", "--config", str(cfg), "--seed", "3",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "snr_db" in capsys.readouterr().err

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kind="b_vs_snr")
        assert main(["outage-curve", "--config", str(cfg), "--seed", "3",
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert "error: kind: " in capsys.readouterr().err

    def test_unbracketed_gain_flags_runtime(self, tmp_path):
        # two SNR points around 50% outage never reach 1e-6
        cfg = write_config(tmp_path, snr_db=[0.0, 1.0], trials=500)
        code = main(["outage-curve", "--config", str(cfg), "--seed", "3",
                     "--out", str(tmp_path / "r.csv"), "--gain-target", "1e-6"])
        assert code == 3
        assert (tmp_path / "r.csv").exists()  # results still written

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "no_dir" / "r.csv"
        assert main(["outage-curve", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 4


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["outage-curve", "--config", str(cfg), "--seed", "9",
                     "--out", str(a)]) == 0
        assert main(["outage-curve", "--config", str(cfg), "--seed", "9",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command, overrides", [
        ("outage-curve", {}),
        ("asymptotic-scan", {"n_r_list": [2, 16], "b_scale": 2.0}),
    ])
    def test_worker_count_does_not_change_output(self, tmp_path, command, overrides):
        # --workers is checked and ignored: the run is single-threaded
        cfg = write_config(tmp_path, **overrides)
        tables = []
        for flags in ([], ["--workers", "2"], ["--workers", "4"]):
            out = tmp_path / f"r{len(tables)}.csv"
            assert main([command, "--config", str(cfg), "--seed", "9", "--out", str(out), *flags]) == 0
            tables.append(out.read_bytes())
        assert tables.count(tables[0]) == len(tables)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["outage-curve", "--config", str(cfg), "--seed", "2", "--out", str(a)])
        cfg2 = write_config(tmp_path, name="cfg2.json", seed=999)
        main(["outage-curve", "--config", str(cfg2), "--seed", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_trials_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.csv"
        main(["outage-curve", "--config", str(cfg), "--seed", "2",
              "--out", str(out), "--trials", "800"])
        assert ",800," in out.read_text().splitlines()[1]


class TestFormatsAndCommands:
    def test_json_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.json"
        assert main(["outage-curve", "--config", str(cfg), "--seed", "3",
                     "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[0]["n_r"] == 4

    def test_search_domain_from_the_config_file(self, tmp_path):
        # the README's search block, on a domain that leaves out the default
        # domain's optimum: the table is run_experiment's with that SearchSpec
        search = {"ratio_low": 0.9, "ratio_high": 1.5}
        for name, domain in (("domain", search), ("default", {})):
            cfg = write_config(tmp_path, f"{name}.json", search=domain)
            assert main(["outage-curve", "--config", str(cfg), "--seed", "3",
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
        expected = run_experiment(ExperimentConfig(
            kind="outage_curve", snr_db=[4.0, 5.0], n_r_list=[4], rate_bits=1.0, trials=1500, seed=3,
            search=SearchSpec(**search)))
        emit_results(expected, tmp_path / "expected.csv")
        assert (tmp_path / "domain.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        rows, default = (read_results(tmp_path / f"{name}.csv").rows for name in ("domain", "default"))
        assert all(r["b_star"] >= 0.9 * r["b_lmmse"] for r in rows)
        assert [r["b_star"] for r in rows] != [r["b_star"] for r in default]

    def test_b_sweep_command(self, tmp_path):
        cfg = write_config(tmp_path, snr_db=[5.0], b_over_a=[0.5, 1.0])
        out = tmp_path / "r.csv"
        assert main(["b-sweep", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_gmi_hist_command(self, tmp_path):
        cfg = write_config(tmp_path, snr_db=[5.0], bins=6, trials=500)
        out = tmp_path / "r.csv"
        assert main(["gmi-hist", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 6

    def test_asymptotic_scan_command(self, tmp_path):
        cfg = write_config(tmp_path, snr_db=[0.0], n_r_list=[4, 8, 16, 32], trials=400)
        out = tmp_path / "r.csv"
        assert main(["asymptotic-scan", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 8

    def test_b_vs_snr_command(self, tmp_path):
        cfg = write_config(tmp_path, snr_db=[5.0])
        out = tmp_path / "r.csv"
        assert main(["b-vs-snr", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0

    def test_module_entry_point(self, tmp_path, child_env):
        # the installed console path: python -m lsrsim.cli
        cfg = write_config(tmp_path, trials=300)
        out = tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "lsrsim.cli", "outage-curve", "--config",
             str(cfg), "--seed", "3", "--out", str(out), "--lmmse-only"],
            capture_output=True,
            env=child_env,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_one_process_writes_what_fresh_processes_write(self, tmp_path, child_env, capsys):
        # the parser is built once per process and reused: a refused
        # --workers 0, a scan and a gain-target curve run in turn in this
        # process give each the exit code, stdout and table of a fresh
        # python -m lsrsim.cli
        scan = write_config(tmp_path, "scan.json", snr_db=[0.0], n_r_list=[2, 16], trials=300, b_scale=2.0)
        curve = write_config(tmp_path, "curve.json", snr_db=[0.0, 3.0, 6.0], n_r_list=[2], trials=800)
        runs = [["outage-curve", "--config", str(curve), "--workers", "0"],
                ["asymptotic-scan", "--config", str(scan)],
                ["outage-curve", "--config", str(curve), "--gain-target", "0.2"]]
        for k, argv in enumerate(runs):
            here, fresh = tmp_path / f"here{k}.csv", tmp_path / f"fresh{k}.csv"
            try:
                code = main([*argv, "--seed", "3", "--out", str(here)])
            except SystemExit as exc:
                code = exc.code
            stdout = capsys.readouterr().out
            proc = subprocess.run([sys.executable, "-m", "lsrsim.cli", *argv, "--seed", "3", "--out", str(fresh)],
                                  capture_output=True, text=True, env=child_env)
            assert (code, stdout) == (proc.returncode, proc.stdout), argv
            assert here.exists() == fresh.exists() == (k > 0)
            if k:
                assert here.read_bytes() == fresh.read_bytes()
        assert code == 0 and stdout.startswith("snr_gain_db=")
        assert lsrsim.cli._build_parser.cache_info().currsize == 1

    def test_import_loads_no_thread_pool(self, child_env):
        # a fresh interpreter's setup does not pay for concurrent.futures,
        # nor for logging through it
        code = "import sys, lsrsim.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def run(tmp_path, command, *extra, **overrides):
    cfg = write_config(tmp_path, **overrides)
    return main([command, "--config", str(cfg), "--seed", "3",
                 "--out", str(tmp_path / "r.csv"), *extra])


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "command, overrides, path",
        [
            ("outage-curve", {"trials": 1000.5}, "trials"),
            ("outage-curve", {"trials": True}, "trials"),
            ("outage-curve", {"snr_db": 5.0}, "snr_db"),
            ("outage-curve", {"snr_db": "5"}, "snr_db"),
            ("outage-curve", {"snr_db": [4000]}, "snr_db[0]"),
            ("outage-curve", {"snr_db": [-4000]}, "snr_db[0]"),
            ("outage-curve", {"snr_db": [float("nan")]}, "snr_db[0]"),
            ("outage-curve", {"n_r_list": [4, 8], "rate_bits": [1.0, float("nan")]}, "rate_bits[1]"),
            ("b-sweep", {"b_over_a": [1.0, float("nan")]}, "b_over_a[1]"),
            ("asymptotic-scan", {"n_r_list": [4, 32], "b_scale": float("nan")}, "b_scale"),
            ("outage-curve", {"search": {"coarse_points": "x"}}, "search.coarse_points"),
            ("outage-curve", {"snr_db": [5.0, 150.5]}, "snr_db[1]"),
            ("outage-curve", {"trials": 2**64}, "trials"),
            ("gmi-hist", {"bins": 2**63 - 1}, "bins"),
            ("outage-curve", {"b_scale": "x"}, "b_scale"),
            ("outage-curve", {"b_over_a": "junk"}, "b_over_a"),
            ("outage-curve", {"b_over_a": [float("nan")]}, "b_over_a[0]"),
            ("outage-curve", {"rate_bits": 1100}, "rate_bits"),
            ("outage-curve", {"n_r_list": [4, 8], "rate_bits": [1.0, 1100]}, "rate_bits[1]"),
            ("outage-curve", {"search": None}, "search"),
            ("outage-curve", {"search": {"ratio": 1}}, "search.ratio"),
        ],
    )
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, command, overrides, path):
        assert run(tmp_path, command, **overrides) == 2
        assert f"error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("trials", [2**60, 2**64 - 1])
    def test_trials_beyond_an_array_exit_2(self, tmp_path, capsys, trials):
        # numpy cannot describe a complex128 array of 16 * trials bytes
        assert run(tmp_path, "outage-curve", "--trials", str(trials)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trials: ") and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_integral_float_antenna_count_still_accepted(self, tmp_path):
        assert run(tmp_path, "outage-curve", "--lmmse-only", n_r_list=[4.0], snr_db=[5]) == 0

    def test_huge_antenna_count_runs(self, tmp_path):
        # a point's memory does not depend on n_r, so 2**40 antennas run;
        # V / (n_r sigma_v^2) is within about 1e-6 of 1 there
        n_r = 2**40
        assert run(tmp_path, "outage-curve", "--lmmse-only", n_r_list=[n_r], trials=10) == 0
        assert [r["n_r"] for r in read_results(tmp_path / "r.csv").rows] == [n_r, n_r]
        cfg = build_channel_config(4.0, n_r)
        ratio = draw(cfg, 10, 3).v_energy / (n_r * gram_variances(cfg)[0])
        assert np.all(np.abs(ratio - 1.0) <= 1e-4)

    def test_snr_at_cap_accepted(self, tmp_path):
        assert run(tmp_path, "outage-curve", "--lmmse-only", snr_db=[150]) == 0
        assert read_results(tmp_path / "r.csv").rows[0]["p_lmmse"] == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gain-target", "1.5"],
            ["--gain-target", "0"],
            ["--gain-target", "nan"],
            ["--gain-target", "1e-2", "--lmmse-only"],
        ],
    )
    def test_bad_gain_target_exits_2_before_the_run(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "outage-curve", *flags)
        assert exc.value.code == 2
        assert "gain-target" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_config_file_refusal_names_field(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["outage-curve", "--config", str(cfg), "--seed", "3",
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert "error: config: " in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_gain_target_needs_one_antenna_count(self, tmp_path, capsys):
        # snr_gain reads one curve, and the rows of n_r = 2 and 8 are two
        grid = dict(snr_db=[0.0, 4.0, 8.0])
        assert run(tmp_path, "outage-curve", "--gain-target", "1e-2",
                   n_r_list=[2, 8], **grid) == 2
        assert "error: n_r_list: " in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()
        assert run(tmp_path, "outage-curve", "--gain-target", "1e-2", n_r_list=[4], **grid) == 0
        assert "snr_gain_db=" in capsys.readouterr().out

    def test_out_of_memory_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch):
        def run_experiment(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(lsrsim.cli, "run_experiment", run_experiment)
        assert run(tmp_path, "outage-curve") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert "trials" in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-1", "18446744073709551616"])
    def test_nonpositive_workers_exit_2(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "outage-curve", "--workers", workers)
        assert exc.value.code == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


class TestReliabilityWarning:
    def test_zero_failures_warn(self, tmp_path, capsys):
        # 1000 trials at 20 dB and 0.5 bit: p_lmmse = 0
        assert run(tmp_path, "outage-curve", "--lmmse-only",
                   snr_db=[20.0], rate_bits=0.5, trials=1000) == 0
        assert read_results(tmp_path / "r.csv").rows[0]["p_lmmse"] == 0
        assert "warning: p_lmmse=0 " in capsys.readouterr().err

    def test_ten_or_more_failures_do_not_warn(self, tmp_path, capsys):
        assert run(tmp_path, "outage-curve", "--lmmse-only",
                   snr_db=[0.0], trials=1000) == 0
        assert read_results(tmp_path / "r.csv").rows[0]["p_lmmse"] * 1000 >= 10
        assert "warning" not in capsys.readouterr().err


class TestRowOrder:
    def test_scan_is_snr_major(self, tmp_path):
        assert run(tmp_path, "asymptotic-scan", snr_db=[0.0, 3.0],
                   n_r_list=[4, 8, 16, 32], trials=200) == 0
        rows = read_results(tmp_path / "r.csv").rows
        assert [(r["snr_db"], r["n_r"], r["b_rule"]) for r in rows] == [
            (snr, n_r, rule)
            for snr in (0, 3)
            for n_r in (4, 8, 16, 32)
            for rule in ("lmmse", "scaled")
        ]

    def test_curve_is_antenna_major(self, tmp_path):
        assert run(tmp_path, "outage-curve", "--lmmse-only", snr_db=[4.0, 5.0],
                   n_r_list=[2, 4], rate_bits=[0.5, 1.0], trials=300) == 0
        rows = read_results(tmp_path / "r.csv").rows
        assert [(r["n_r"], r["rate_bits"], r["snr_db"]) for r in rows] == [
            (2, 0.5, 4), (2, 0.5, 5), (4, 1, 4), (4, 1, 5)
        ]
