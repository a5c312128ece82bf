#!/usr/bin/env python3
"""Time one benchmark workload of two checkouts in alternating pairs.

Usage, from the root of a checkout:

    python3 tools/pairs.py PARENT CHANGED --workload curve_n8 --seed 20240 --pairs 10 --seconds 10

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
of both checkouts, one after the other, in a process of its own; the
checkout that runs first alternates from pair to pair, so a drift of the
machine's speed falls on both sides alike.  Each run's last line of
standard output is its JSON report.  The script prints each pair's
``wall_s`` and their ratio, then, for every end-to-end metric that
``BENCHMARK.json`` of ``PARENT`` lists, each side's median and quartiles,
the median of the per-pair ratios ``CHANGED / PARENT`` and how many pairs
each side won (a tie counts for neither).  It exits 1 if any run exits
nonzero, prints no report, is not ``correct`` or has a failed point.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The report of one benchmark run of ``checkout``, or None if the run
    failed or printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def ok(report: dict | None) -> bool:
    return report is not None and report.get("correct") is True and report.get("failed") == 0


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """The lines of the summary of ``pairs``, each ``(parent, changed)`` the
    ``metrics`` dict of a report, for the end-to-end ``metrics`` of
    ``BENCHMARK.json`` (each with ``name`` and ``better``)."""

    def ratio(x: float, y: float) -> float:
        return y / x if x != 0.0 else float("nan")

    lines = [f"{'pair':>4}  {'wall_s parent':>14}  {'wall_s changed':>14}  {'ratio':>7}"]
    for k, (a, b) in enumerate(pairs, 1):
        wa, wb = a["wall_s"]["value"], b["wall_s"]["value"]
        lines.append(f"{k:>4}  {wa:>14.6g}  {wb:>14.6g}  {ratio(wa, wb):>7.4f}")
    lines.append(f"{'metric':<14} {'better':<6}  {'parent median [q1, q3]':<42}  "
                 f"{'changed median [q1, q3]':<42}  {'ratio':>7}  wins parent/changed")
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        a = np.array([p[name]["value"] for p, _ in pairs], dtype=float)
        b = np.array([c[name]["value"] for _, c in pairs], dtype=float)
        sides = [np.percentile(x, [50, 25, 75]) for x in (a, b)]
        cells = [f"{m:.6g} [{q1:.6g}, {q3:.6g}]" for m, q1, q3 in sides]
        pair_ratio = float(np.median([ratio(x, y) for x, y in zip(a, b)]))
        wins_a, wins_b = int(np.sum(sign * a < sign * b)), int(np.sum(sign * b < sign * a))
        lines.append(f"{name:<14} {metric['better']:<6}  {cells[0]:<42}  {cells[1]:<42}  "
                     f"{pair_ratio:>7.4f}  {wins_a}/{wins_b}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("changed", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs, good = [], True
    for k in range(args.pairs):
        step = 1 if k % 2 == 0 else -1
        sides = (args.parent, args.changed)[::step]
        reports = [run_once(side, args.workload, args.seed, args.seconds) for side in sides]
        parent, changed = reports[::step]
        for side, report in ((args.parent, parent), (args.changed, changed)):
            if not ok(report):
                good = False
                state = report and f"correct {report.get('correct')}, failed {report.get('failed')}"
                print(f"pair {k + 1}: the run of {side} failed: {state}", file=sys.stderr)
        if parent is not None and changed is not None:
            pairs.append((parent["metrics"], changed["metrics"]))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s a run, "
          f"parent {args.parent}, changed {args.changed}")
    if pairs:
        print("\n".join(summarize(pairs, benchmark["end_to_end"])))
    return 0 if good and pairs else 1


if __name__ == "__main__":
    sys.exit(main())
