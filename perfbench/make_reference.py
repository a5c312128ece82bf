#!/usr/bin/env python3
"""Regenerate ``reference_p_lmmse.csv``, the LMMSE outage reference.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

The benchmark compares each run's ``p_lmmse`` with this table through Wilson
intervals, so the reference needs far more trials than a run and a seed that
no run uses.  Rerun it only when the curve workload's grid changes.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

from workloads import CURVE_CONFIG

ROOT = Path(__file__).resolve().parent.parent
TRIALS = 1_000_000
SEED = 2**63 + 12345


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from lsrsim import build_channel_config, estimate_outage, lmmse_coefficient

    path = Path(__file__).resolve().parent / "reference_p_lmmse.csv"
    rate_bits = CURVE_CONFIG["rate_bits"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["snr_db", "n_r", "rate_bits", "trials", "failures", "seed"])
        for n_r in CURVE_CONFIG["n_r_list"]:
            for snr in CURVE_CONFIG["snr_db"]:
                config = build_channel_config(snr, n_r)
                a = abs(lmmse_coefficient(config))
                est = estimate_outage(config, a, rate_bits * math.log(2.0), TRIALS, SEED)
                writer.writerow([snr, n_r, rate_bits, TRIALS, est.failures, SEED])
                print(f"snr_db={snr} n_r={n_r} p_lmmse={est.p_hat}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
