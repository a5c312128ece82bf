#!/usr/bin/env python3
"""Time lsrsim's layers and both benchmark workloads in process.

Usage, from the root of a checkout:

    python3 tools/bench.py [--src SRC] [--reps N] [--quick] [--out BENCH.json]
    python3 tools/bench.py --compare A B [--reps N] [--quick]

Each tree's ``src`` is imported as a package of its own (``lsrsim`` of
``SRC``), so two trees run in one process.  Every case runs ``--reps``
times after a warm-up, the cases interleaved, and with ``--compare`` the
two trees alternate within each repetition.  Cases: ``cli.main`` of each
workload of ``perfbench/workloads.py``'s configs (copied below, so nothing
under ``perfbench/`` is imported), ``optimize_b`` at ``curve_n8``'s shape
(10,000 trials, ``n_r`` 8, 6 dB, 2 bits) with and without a read of
``.sweep``, the outage counter's build at that shape, and
``_sample(8, 10_000)``.  The report, one JSON object on the last line of
standard output, holds each case's median and quartiles in seconds and the
provenance: commit, Python and numpy versions, CPU model and whether
it writes bytecode.  With ``--compare`` it also holds each case's median
pair ratio ``B / A`` and how many pairs each tree won.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

CURVE = {"snr_db": [3.0, 4.5, 6.0, 7.5, 9.0], "n_r_list": [8], "rate_bits": 2.0, "trials": 10_000,
         "search": {"ratio_low": 0.0, "ratio_high": 2.0, "coarse_points": 41, "refine_iters": 1}}
SCAN = {"snr_db": [0.0], "n_r_list": [128, 256, 512, 1024], "rate_bits": 1.0, "trials": 5_000, "b_scale": 2.0}


def load(src: Path, name: str):
    """The package ``lsrsim`` of ``src`` imported as ``name``."""
    spec = importlib.util.spec_from_file_location(name, src / "lsrsim" / "__init__.py",
                                                  submodule_search_locations=[str(src / "lsrsim")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("cli", "outage", "shrinkage"):
        importlib.import_module(f"{name}.{sub}")
    return module


def cases(pkg, workdir: Path, seed: int) -> dict:
    """The timed callables of one tree."""
    cli, outage, shrinkage = (sys.modules[f"{pkg.__name__}.{s}"] for s in ("cli", "outage", "shrinkage"))
    configs = {}
    for name, config in (("curve_n8", CURVE), ("scan_massive", SCAN)):
        configs[name] = workdir / f"{pkg.__name__}_{name}.json"
        configs[name].write_text(json.dumps(config), encoding="utf-8")
    out = workdir / f"{pkg.__name__}.csv"
    cfg = pkg.build_channel_config(6.0, 8)
    d = pkg.draw(cfg, 10_000, seed)
    rate = 2.0 * math.log(2.0)

    def run_cli(command, config):
        return lambda: cli.main([command, "--config", str(config), "--seed", str(seed), "--out", str(out)])

    return {
        "cli.curve_n8": run_cli("outage-curve", configs["curve_n8"]),
        "cli.scan_massive": run_cli("asymptotic-scan", configs["scan_massive"]),
        "optimize_b": lambda: shrinkage.optimize_b(d, rate),
        "optimize_b+sweep": lambda: shrinkage.optimize_b(d, rate).sweep,
        "counter_build": lambda: outage.OutageCounter(d, rate),
        "sample_nr8": lambda: outage._sample(8, 10_000, seed),
    }


def provenance(root: Path) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor()) if Path("/proc/cpuinfo").exists() else ""
    return {"commit": commit or None, "python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu, "writes_bytecode": not sys.dont_write_bytecode}


def quartiles(x: list[float]) -> dict:
    q1, m, q3 = np.percentile(x, [25, 50, 75])
    return {"median_s": float(m), "q1_s": float(q1), "q3_s": float(q3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path("src"))
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--reps", type=int, default=60)
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--quick", action="store_true", help="3 repetitions, 1 warm-up")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    reps, warm = (3, 1) if args.quick else (args.reps, 5)
    if reps < 1:
        parser.error("--reps must be positive")
    roots = args.compare if args.compare else [args.src.resolve().parent]
    with tempfile.TemporaryDirectory() as tmp:
        trees = [cases(load(root / "src", f"lsrsim_bench{k}"), Path(tmp), args.seed) for k, root in enumerate(roots)]
        times = [{name: [] for name in tree} for tree in trees]
        for rep in range(warm + reps):
            order = list(range(len(trees)))[:: 1 if rep % 2 == 0 else -1]
            for name in trees[0]:
                for k in order:
                    start = time.perf_counter()
                    trees[k][name]()
                    if rep >= warm:
                        times[k][name].append(time.perf_counter() - start)
    report = {"provenance": provenance(roots[-1]), "reps": reps, "seed": args.seed,
              "trees": [str(r) for r in roots],
              "cases": [{name: quartiles(x) for name, x in side.items()} for side in times]}
    if args.compare:
        report["compare"] = {}
        for name in times[0]:
            a, b = np.array(times[0][name]), np.array(times[1][name])
            report["compare"][name] = {"median_ratio": float(np.median(b / a)),
                                       "wins_a": int(np.sum(a < b)), "wins_b": int(np.sum(b < a))}
            print(f"{name:<18} A {np.median(a) * 1e3:8.3f} ms  B {np.median(b) * 1e3:8.3f} ms  "
                  f"ratio {np.median(b / a):.4f}  wins A/B {int(np.sum(a < b))}/{int(np.sum(b < a))}")
    text = json.dumps(report)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
