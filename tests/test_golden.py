"""Result tables pinned across commits.

Each run below is a small ``lsrsim`` CLI run whose CSV table is kept in
``tests/golden``; the test reruns it and compares.  A change that means to
alter a table regenerates them with ``python tests/test_golden.py`` and
records why in CHANGES.md.

``outage-curve``, ``b-vs-snr`` and ``b-sweep`` cells come from outage
counts, grid values and ``math.sqrt``, so those tables must match byte for
byte.  ``gmi-hist`` and ``asymptotic-scan`` cells are GMI values that pass
through numpy's ``log1p``, whose SIMD dispatch may differ between CPUs, so
their float cells are compared to 1e-12 relative and every other cell
exactly.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest

from lsrsim import read_results
from lsrsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 20240

# name: (subcommand, extra flags, config)
RUNS = {
    "outage_curve": ("outage-curve", [], dict(
        snr_db=[0.0, 3.0, 6.0], n_r_list=[2, 8, 2], rate_bits=1.0, trials=400)),
    "outage_curve_lmmse_only": ("outage-curve", ["--lmmse-only"], dict(
        snr_db=[0.0, 3.0, 6.0], n_r_list=[2, 8, 2], rate_bits=1.0, trials=400)),
    "b_vs_snr": ("b-vs-snr", [], dict(
        snr_db=[2.0, 5.0], n_r_list=[4, 4], rate_bits=[1.0, 2.0], trials=400)),
    "b_sweep": ("b-sweep", [], dict(
        snr_db=[3.0, 6.0], n_r_list=[2, 4], rate_bits=1.0, trials=400,
        b_over_a=[0.25, 0.5, 0.75, 1.0, 1.25])),
    "gmi_hist": ("gmi-hist", [], dict(
        snr_db=[5.0], n_r_list=[4], rate_bits=1.5, trials=300, bins=6)),
    "asymptotic_scan": ("asymptotic-scan", [], dict(
        snr_db=[0.0, 4.0], n_r_list=[2, 16, 2], rate_bits=1.0, trials=300)),
    # 8,193 trials at n_r = 1 end in a one-trial sampling block
    "outage_curve_lmmse_only_nr1": ("outage-curve", ["--lmmse-only"], dict(
        snr_db=[5.0, 10.0], n_r_list=[1], rate_bits=1.0, trials=8193)),
}

EXACT_COMMANDS = {"outage-curve", "b-vs-snr", "b-sweep"}


def run_table(name: str, workdir: Path, out: Path) -> None:
    command, flags, config = RUNS[name]
    cfg = workdir / f"{name}.json"
    cfg.write_text(json.dumps(config))
    status = main([command, *flags, "--config", str(cfg), "--seed", str(SEED), "--out", str(out)])
    assert status == 0, f"{name}: exit {status}"


def assert_cells_close(produced: Path, golden: Path) -> None:
    got, want = read_results(produced), read_results(golden)
    assert got.columns == want.columns
    assert len(got.rows) == len(want.rows)
    for i, (row, ref) in enumerate(zip(got.rows, want.rows)):
        for c in want.columns:
            x, y = row[c], ref[c]
            if isinstance(x, float) or isinstance(y, float):
                assert math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0), (i, c, x, y)
            else:
                assert x == y, (i, c, x, y)


@pytest.mark.parametrize("name", RUNS)
def test_table_matches_golden(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    run_table(name, tmp_path, out)
    golden = GOLDEN / f"{name}.csv"
    if RUNS[name][0] in EXACT_COMMANDS:
        assert out.read_bytes() == golden.read_bytes()
    else:
        assert_cells_close(out, golden)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            run_table(name, Path(tmp), GOLDEN / f"{name}.csv")
