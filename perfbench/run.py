#!/usr/bin/env python3
"""lsrsim benchmark: one workload, run from config to written table.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload curve_n8 --seed 20240 --seconds 50 --trace 0

The workload is driven through the library's public entry point
``lsrsim.cli.main(argv)``, in this process, one run at a time: a closed loop
with one client.  The library is imported from ``src/`` of the checkout.

``--trace 0`` times untraced runs for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced runs for
``--seconds``, runs the isolated layer probes and reports the per-layer
metrics; its spans and counts go to ``.perfbench_out/``.

An untimed warm-up run at 1 worker writes the reference table, and an untimed
run at 2 workers after the measurement must reproduce it.  Every run's table
is checked (see ``checks.py``); a grid point whose row fails a check, or a run
that raises or exits nonzero, counts as failed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it list every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from probes import run_probes
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference_p_lmmse.csv"

DEFAULT_SEED = 20240
# a later claim of a gain must also hold on this seed
HELD_OUT_SEED = 8191

SETUP_REPS = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import lsrsim.cli; "
    "from lsrsim.streams import BlockSampler; BlockSampler(0)"
)

# probe shapes fixed across workloads, so their figures compare directly
NORMALS_PROBE_N_R = (8, 64, 1024)
KFIT_PROBE_N_R = (8, 1024)


def import_lsrsim() -> dict | None:
    """Import the library from the checkout's ``src/``; None if it is absent."""
    if not (SRC / "lsrsim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import lsrsim
    import lsrsim.cli
    import lsrsim.experiments
    import lsrsim.outage
    import lsrsim.shrinkage

    if SRC.resolve() not in Path(lsrsim.__file__).resolve().parents:
        raise ImportError(f"lsrsim imported from {lsrsim.__file__}, not from {SRC}")
    return {
        "lsrsim": lsrsim,
        "cli": lsrsim.cli,
        "experiments": lsrsim.experiments,
        "outage": lsrsim.outage,
        "shrinkage": lsrsim.shrinkage,
    }


class WorkloadRunner:
    """Runs one workload through ``cli.main`` and checks every table."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        OUT_DIR.mkdir(exist_ok=True)
        self.config_path = OUT_DIR / f"{workload.name}.config.json"
        self.out_path = OUT_DIR / f"{workload.name}.csv"
        self.config_path.write_text(json.dumps(workload.config, indent=2) + "\n", encoding="utf-8")
        self.reference = checks.read_reference(REFERENCE)
        self.expected: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def run(self, main, workers: int) -> float:
        """One run from config to written table; returns its wall time in s."""
        w = self.workload
        argv = [
            w.command, "--config", str(self.config_path), "--seed", str(self.seed),
            "--out", str(self.out_path), "--workers", str(workers),
        ]
        self.out_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:
            traceback.print_exc()
            status = None
        wall = time.perf_counter() - start
        self.attempted += w.points
        if status != 0:
            print(f"run failed: status {status}", file=sys.stderr)
            self.failed += w.points
            return wall
        data = self.out_path.read_bytes()
        if w.command == "outage-curve":
            failed = checks.check_curve(data, w.config, self.seed, self.reference)
        else:
            failed = checks.check_scan(data, w.config, self.seed)
        if self.expected is None:
            self.expected = data
        else:
            failed |= checks.differing_points(data, self.expected, w.rows_per_point, w.points)
        if failed:
            print(f"failed points {sorted(failed)}", file=sys.stderr)
        self.failed += len(failed)
        return wall

    def outage_ratio(self) -> float:
        """Sum of p_lsr over sum of p_lmmse in the first table.

        The scan has no shrinkage receiver; it reports 1.0, the ratio of the
        LMMSE receiver to itself.
        """
        if self.workload.command != "outage-curve" or self.expected is None:
            return 1.0
        try:
            rows = checks.parse_table(self.expected, checks.CURVE_COLUMNS, self.workload.points)
        except checks.TableError:
            return 1.0  # the table's points already count as failed
        p_lmmse = sum(r["p_lmmse"] for r in rows)
        return sum(r["p_lsr"] for r in rows) / p_lmmse if p_lmmse > 0 else 1.0


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup_s() -> float:
    """Median time for a fresh interpreter to import ``lsrsim.cli`` and
    construct the first ``BlockSampler``."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    # no timeout: with one, the wait polls and rounds times up to 50 ms steps
    subprocess.run(cmd, check=True, cwd=ROOT)  # warm the file cache
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 21:
        return f"n/a ({n} samples; a percentile above the median needs 21)"
    return f"p{100.0 * (n - 10) / n:.0f} = {sorted(samples)[n - 11]:.4f} s ({n} samples)"


def end_to_end(runner: WorkloadRunner, lib: dict, seconds: float) -> dict:
    w = runner.workload
    main = lib["cli"].main
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(runner.run(main, 1))
    rss = peak_rss_mb()
    wall = statistics.median(walls)
    print(f"wall_s samples: {len(walls)}; median {wall:.4f} s; "
          f"tail {tail_percentile(walls)}; all: {' '.join(f'{x:.3f}' for x in walls)}")
    return {
        "wall_s": (wall, "s"),
        "trials_per_s": (w.points * w.trials / wall, "1/s"),
        "setup_s": (measure_setup_s(), "s"),
        "peak_rss_mb": (rss, "MB"),
        "outage_ratio": (runner.outage_ratio(), "ratio"),
    }


def per_layer(runner: WorkloadRunner, lib: dict, seconds: float) -> dict:
    w = runner.workload
    main = lib["cli"].main
    tracer = Tracer(lib)
    traced_main = tracer.wrap("cli.main", main)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.run(main, 1))
        tracer.request_id += 1
        tracer.install()
        try:
            traced.append(runner.run(traced_main, 1))
        finally:
            tracer.uninstall()

    trace_path = OUT_DIR / f"trace-{w.name}-seed{runner.seed}.json"
    trace_path.write_text(json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
    print(f"trace: {len(tracer.spans)} spans from {len(traced)} traced runs -> {trace_path}")

    reps = len(traced)
    points = reps * w.points
    point_trials = points * w.trials
    counts = tracer.counts()

    def inclusive(name):
        return counts.get(name, {}).get("inclusive_s", 0.0)

    def self_s(name):
        return counts.get(name, {}).get("self_s", 0.0)

    sampling = [s for s in tracer.spans if s.name == "outage.gmi_samples_multi_b"]
    optimize_ids = {s.span_id for s in tracer.spans if s.name == "shrinkage.optimize_b"}
    search = [s for s in sampling if s.parent_id in optimize_ids]
    trial_draws = sum(s.attrs["trials"] for s in sampling)
    sampler = counts["streams.BlockSampler.normals"]

    n_r_list = w.config["n_r_list"]
    probes = run_probes(
        lib["lsrsim"],
        sorted(set(n_r_list) | set(NORMALS_PROBE_N_R)),
        sorted(set(n_r_list) | set(KFIT_PROBE_N_R)),
        (n_r_list, w.speedup_k, w.speedup_trials),
    )
    return {
        "streams.normals_us_per_trial": (statistics.fmean(probes.normals_us_per_trial[n] for n in n_r_list), "us"),
        **{f"streams.normals_us_per_trial_nr{n}": (probes.normals_us_per_trial[n], "us") for n in NORMALS_PROBE_N_R},
        "streams.normals_per_trial": (sampler["normals"] / trial_draws if trial_draws else 0.0, "count"),
        "outage.draw_us_per_trial": (statistics.fmean(probes.draw_us_per_trial[n] for n in n_r_list), "us"),
        "outage.per_b_ns_per_trial": (statistics.fmean(probes.per_b_ns_per_trial[n] for n in n_r_list), "ns"),
        **{f"outage.draw_us_per_trial_nr{n}": (probes.draw_us_per_trial[n], "us") for n in KFIT_PROBE_N_R},
        **{f"outage.per_b_ns_per_trial_nr{n}": (probes.per_b_ns_per_trial[n], "ns") for n in KFIT_PROBE_N_R},
        "outage.draws_per_point": (trial_draws / point_trials, "count"),
        "outage.b_evals_per_point": (sum(s.attrs["trials"] * s.attrs["b_values"] for s in sampling) / point_trials, "count"),
        "outage.samples_self_s": (self_s("outage.gmi_samples_multi_b") / reps, "s"),
        "outage.workers2_speedup": (probes.workers2_speedup, "ratio"),
        "shrinkage.optimize_s_per_point": (inclusive("shrinkage.optimize_b") / points, "s"),
        "shrinkage.self_s": (self_s("shrinkage.optimize_b") / reps, "s"),
        "shrinkage.passes_per_point": (len(search) / len(optimize_ids) if optimize_ids else 0.0, "count"),
        "shrinkage.b_evaluated": (sum(s.attrs["b_values"] for s in search) / len(optimize_ids) if optimize_ids else 0.0, "count"),
        "experiments.parse_s": (inclusive("experiments.parse") / reps, "s"),
        "experiments.run_self_s": (self_s("experiments.run") / reps, "s"),
        "experiments.emit_s": (inclusive("experiments.emit") / reps, "s"),
        "cli.self_s": (self_s("cli.main") / reps, "s"),
        "trace_overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}; held-out {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=50.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = import_lsrsim()
    if lib is None:
        print(f"error: no lsrsim package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = WorkloadRunner(workload, args.seed)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")

    # untimed warm-up run, whose table every later run must match byte for byte
    runner.run(lib["cli"].main, 1)
    if args.trace:
        metrics = per_layer(runner, lib, args.seconds)
    else:
        metrics = end_to_end(runner, lib, args.seconds)
    # The README's reproducibility contract makes tables independent of the
    # worker count.  This run comes last so that it does not set peak_rss_mb.
    runner.run(lib["cli"].main, 2)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'failed_frac':40s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} grid points)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
