"""Command-line experiment runner.

Each subcommand reads a JSON experiment config, runs the corresponding sweep
and writes a CSV or JSON result table.  A ``--seed`` flag is mandatory so no
run is silently nondeterministic; flags override config-file fields.

Exit codes: 0 success, 2 config validation error, 3 runtime/numerical flag
(e.g. an unbracketed SNR-gain target), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .channel import ConfigError, _check_integer
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
        p.add_argument("--workers", type=int, default=1, help="worker threads")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_integer("workers", args.workers, low=1)
    except ConfigError as exc:
        parser.error(str(exc))

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(data, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2

    kind = args.kind
    if "kind" in data and data["kind"] != kind:
        print(
            f"error: kind: config says {data['kind']!r} but command is {kind!r}",
            file=sys.stderr,
        )
        return 2
    data["kind"] = kind
    data["seed"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials

    try:
        cfg = ExperimentConfig.from_dict(data)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    table = run_experiment(cfg, include_lsr=not args.lmmse_only, workers=args.workers)

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
