"""Command-line experiment runner.

Each subcommand reads a JSON experiment config, runs the corresponding sweep
and writes a CSV or JSON result table.  A ``--seed`` flag is mandatory so no
run is silently nondeterministic; flags override config-file fields.

Exit codes: 0 success, 2 invalid config or flag (every one a
:class:`~lsrsim.channel.ConfigError` naming its field, or argparse's own
refusal), 3 runtime failure (an unbracketed SNR-gain target, or a run whose
arrays cannot be allocated), 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .channel import ConfigError, _check, _check_integer
from .experiments import (
    KINDS,
    ExperimentConfig,
    NotBracketedError,
    curve_points,
    emit_results,
    run_experiment,
    snr_gain,
)

# below 10 failures an outage estimate is too noisy to trust
_MIN_FAILURES = 10


def _outage_level(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be an outage level in (0, 1), got {text}")
    return value


def _worker_count(text: str) -> int:
    try:
        return _check_integer("workers", int(text), low=1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# built on first use, not at import, and kept for the process: the tree
# takes 1.3-1.4 ms to build, over ten times as long as one command line
# takes to parse (2-core x86-64 VM)
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsrsim",
        description="Monte Carlo outage experiments for shrinkage receivers "
        "on SIMO block-fading channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, spec in KINDS.items():
        p = sub.add_parser(spec.command, help=f"run a {kind} experiment")
        p.set_defaults(kind=kind, gain_target=None, lmmse_only=False)
        p.add_argument("--config", required=True, help="JSON experiment config file")
        p.add_argument("--seed", required=True, type=int, help="master 64-bit seed")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--trials", type=int, default=None, help="override config trials")
        p.add_argument("--workers", type=_worker_count, default=1, help="checked and ignored: runs are "
                       "single-threaded (kept for perfbench/run.py until ROADMAP item 1 rewrites it)")
        if kind == "outage_curve":
            exclusive = p.add_mutually_exclusive_group()
            exclusive.add_argument(
                "--gain-target",
                type=_outage_level,
                default=None,
                help="report the LSR-over-LMMSE SNR gain at this outage level",
            )
            exclusive.add_argument(
                "--lmmse-only",
                action="store_true",
                help="skip the shrinkage optimizer; emit only LMMSE columns",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"not valid JSON: {exc}") from None
        _check(isinstance(data, dict), "config", "must be a JSON object")
        _check(data.get("kind", args.kind) == args.kind, "kind",
               f"config says {data.get('kind')!r} but command is {args.kind!r}")
        data.update(kind=args.kind, seed=args.seed)
        if args.trials is not None:
            data["trials"] = args.trials
        cfg = ExperimentConfig.from_dict(data)
        # snr_gain reads one curve; the rows of several antenna counts would
        # be joined into one
        _check(args.gain_target is None or len(cfg.n_r_list) == 1, "n_r_list",
               f"--gain-target needs one antenna count, got {cfg.n_r_list}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        table = run_experiment(cfg, include_lsr=not args.lmmse_only)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}; lower trials or bins", file=sys.stderr)
        return 3

    for row in table.rows:
        for col in ("p_lmmse", "p_lsr", "p_hat"):
            if col in row and (failures := round(row[col] * row["trials"])) < _MIN_FAILURES:
                print(
                    f"warning: {col}={row[col]:.3g} at snr_db={row['snr_db']} rests on "
                    f"{failures} failures; increase --trials for a reliable estimate",
                    file=sys.stderr,
                )

    status = 0
    if args.gain_target is not None:
        try:
            gain = snr_gain(
                curve_points(table, "p_lmmse"),
                curve_points(table, "p_lsr"),
                args.gain_target,
            )
            print(f"snr_gain_db={gain:.6g} at target outage {args.gain_target:g}")
        except NotBracketedError as exc:
            print(f"error: snr gain not bracketed: {exc}", file=sys.stderr)
            status = 3

    try:
        emit_results(table, args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return status


if __name__ == "__main__":
    sys.exit(main())
