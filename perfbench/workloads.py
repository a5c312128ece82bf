"""Workload definitions: each is one CLI command on a fixed config.

The benchmark seed becomes the CLI's ``--seed``; nothing else in a workload
depends on it.  Timed runs use one worker.  Why each workload exists:

* ``curve_n8``: the paper's headline outage curve at n_r = 8 on a subset of
  the criterion-4 SNR grid.  Its time goes mostly to the b search and to the
  per-b reduction and solve: each point draws the realizations three times
  (once for the LMMSE estimate, once per search pass) and evaluates about 81
  b values per trial.  The sampler takes about a third.
* ``scan_massive``: the massive-antenna scan.  No search and only two b
  values, so the per-antenna sampler and O(n_r) array work dominate, and it
  sets the memory peak.  A change to the search or the per-b cost should
  leave it unchanged.

The thread pool is not a timed workload of its own.  On a shared two-core VM
the machine's speed shifts for minutes at a time, so run medians spread by
7-30% across seeds, and every timed workload is one more chance for that
spread to pass its bound.  A timed two-worker curve repeated curve_n8's
layers.  Each run instead makes one untimed two-worker run, whose table must
match the one-worker table byte for byte, and the per-layer probe
``outage.workers2_speedup`` times 1 against 2 workers at each workload's
shape.
"""

from __future__ import annotations

from dataclasses import dataclass

CURVE_CONFIG = {
    "snr_db": [3.0, 4.5, 6.0, 7.5, 9.0],
    "n_r_list": [8],
    "rate_bits": 2.0,
    "trials": 10_000,
    "search": {"ratio_low": 0.0, "ratio_high": 2.0, "coarse_points": 41, "refine_iters": 1},
}

SCAN_CONFIG = {
    "snr_db": [0.0],
    "n_r_list": [128, 256, 512, 1024],
    "rate_bits": 1.0,
    "trials": 5_000,
    "b_scale": 2.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    # number of b values and trials of the isolated 1-vs-2-worker probe
    speedup_k: int
    speedup_trials: int

    @property
    def points(self) -> int:
        return len(self.config["snr_db"]) * len(self.config["n_r_list"])

    @property
    def trials(self) -> int:
        return self.config["trials"]

    @property
    def rows_per_point(self) -> int:
        return 1 if self.command == "outage-curve" else 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("curve_n8", "outage-curve", CURVE_CONFIG, 41, CURVE_CONFIG["trials"]),
        Workload("scan_massive", "asymptotic-scan", SCAN_CONFIG, 2, 1_000),
    )
}
