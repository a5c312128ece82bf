"""Declarative experiment runner: SNR/antenna sweeps and result tables.

Conventions used by every experiment (they pin down the free choices a
figure-style result needs):

* SNR is ``power / noise_var`` with ``noise_var = 1`` and unit fading
  variance, so ``power = 10 ** (snr_db / 10)``.
* The pilot is ``sqrt(power)`` (real positive) and the pilot-phase noise
  variance equals the data-phase noise variance.
* Code rates are given in bits/channel use on the experiment surface; all
  internal math is in nats.

Row order of every result table is fixed by the experiment grid definition,
never by execution order, so a re-run with the same config and seed emits
byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .channel import (ChannelConfig, _check, _check_antennas, _check_bins, _check_integer, _check_list,
                      _check_rate, _check_real, _check_trials, lmmse_coefficient)
from .outage import Draw, OutageEstimate, _sample, _scale, gmi_histogram
from .shrinkage import SearchSpec, optimize_b

__all__ = [
    "NotBracketedError",
    "ExperimentConfig",
    "ExperimentKind",
    "KINDS",
    "ResultTable",
    "build_channel_config",
    "rate_bits_to_nats",
    "run_experiment",
    "curve_points",
    "snr_gain",
    "emit_results",
    "read_results",
]

LN2 = math.log(2.0)

# Largest accepted SNR.  A draw holds V and Y themselves, and Draw.gmi reads
# them within about 4e-16 relative of a 50-digit evaluation from 30 to
# 200 dB.  The cap comes from the rest: the test suite's per-antenna oracle
# (statistics -> theta_star in tests/oracles.py), which the draw is tested
# against, forms s - b v from a float64 pilot observation v, so its relative
# error grows like 1e-16 sqrt(power), about 1e-10 at 150 dB and 2.5e-8 at
# 200 dB; and near 500 dB the solver's B^2 overflows.  The cap keeps both
# within 1e-9.
MAX_SNR_DB = 150.0

class NotBracketedError(RuntimeError):
    """A curve does not cross the requested target outage within its range."""


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run.

    ``rate_bits`` may be a single rate applied to every antenna count or a
    list paired elementwise with ``n_r_list``.  Validation rejects bools,
    non-finite numbers and wrong types, and names the offending field path.
    """

    kind: str
    snr_db: list[float]
    n_r_list: list[int]
    rate_bits: float | list[float]
    trials: int = 100_000
    seed: int = 0
    bins: int = 50
    search: SearchSpec = SearchSpec()
    b_over_a: list[float] | None = None  # b_sweep only: ratios relative to a
    b_scale: float = 2.0  # asymptotic_scan only: the mismatched-rule factor

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _check(
            isinstance(self.kind, str) and self.kind in KINDS,
            "kind",
            f"must be one of {tuple(KINDS)}, got {self.kind!r}",
        )
        _check_list("snr_db", self.snr_db, _check_real)
        for i, snr in enumerate(self.snr_db):
            try:
                power = 10.0 ** (snr / 10.0)
            except OverflowError:
                power = math.inf
            _check(0 < power < math.inf, f"snr_db[{i}]",
                   f"10**(snr_db/10) must be a finite positive float, got snr_db = {snr}")
            _check(snr <= MAX_SNR_DB, f"snr_db[{i}]",
                   f"must be at most {MAX_SNR_DB:g} dB, got {snr}")
        _check_list("n_r_list", self.n_r_list, _check_antennas)
        if isinstance(self.rate_bits, list):
            _check(
                len(self.rate_bits) == len(self.n_r_list),
                "rate_bits", "list form must have the same length as n_r_list",
            )
            _check_list("rate_bits", self.rate_bits, _check_rate, LN2)
        else:
            _check_rate("rate_bits", self.rate_bits, LN2)
        _check_trials("trials", self.trials)
        _check_integer("seed", self.seed)
        _check_bins("bins", self.bins)
        _check(isinstance(self.search, SearchSpec), "search", f"must be a SearchSpec, got {self.search!r}")
        # every kind type-checks b_over_a and b_scale; only the kind that
        # reads one requires it or restricts its value
        if self.b_over_a is not None or self.kind == "b_sweep":
            _check_list("b_over_a", self.b_over_a, _check_real, 0)
        _check_real("b_scale", self.b_scale)
        if self.kind == "asymptotic_scan":
            _check(
                max(self.n_r_list) >= 8 * min(self.n_r_list),
                "n_r_list", "asymptotic_scan needs a span of at least 3 octaves",
            )
            _check(self.b_scale != 1.0, "b_scale", "must differ from 1 (the matched rule)")

    def _rates(self) -> list[float]:
        if isinstance(self.rate_bits, list):
            return [float(r) for r in self.rate_bits]
        return [float(self.rate_bits)] * len(self.n_r_list)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON; every error names its field path."""
        known = {f.name: f for f in fields(cls)}
        for key in data:
            _check(key in known, key, "unknown configuration field")
        for name, f in known.items():
            _check(f.default is not MISSING or name in data, name, "missing required field")
        kwargs = dict(data)
        if "search" in kwargs:
            _check(isinstance(kwargs["search"], dict), "search", "must be an object")
            # the knobs of the grid search the exact sweep replaced: checked, then ignored
            search = dict(kwargs["search"])
            for key, low in (("coarse_points", 3), ("refine_iters", 0)):
                if key in search:
                    _check_integer(f"search.{key}", search.pop(key), low)
            search_fields = {f.name for f in fields(SearchSpec)}
            for key in search:
                _check(key in search_fields, f"search.{key}", "unknown configuration field")
            kwargs["search"] = SearchSpec(**search)
        return cls(**kwargs)


@dataclass
class ResultTable:
    """Ordered columns plus rows of plain scalars (int/float/str)."""

    columns: list[str]
    rows: list[dict]


def rate_bits_to_nats(rate_bits: float) -> float:
    return rate_bits * LN2


def build_channel_config(snr_db: float, n_r: int) -> ChannelConfig:
    """Scenario for one experiment grid point under the module conventions."""
    power = 10.0 ** (snr_db / 10.0)
    return ChannelConfig(
        n_r=n_r,
        power=power,
        noise_var=1.0,
        pilot_noise_var=1.0,
        fading_var=1.0,
        pilot=math.sqrt(power),
    )


@dataclass(frozen=True)
class GridPoint:
    """One ``(n_r, rate, SNR)`` grid point with its channel and LMMSE ``a``."""

    snr_db: float
    n_r: int
    rate_bits: float
    rate_nats: float
    config: ChannelConfig
    a: float


def _grid(cfg: ExperimentConfig, *, snr_major: bool) -> Iterator[GridPoint]:
    """The grid points of ``cfg`` in row order: ``n_r``-major unless ``snr_major``."""
    pairs = list(zip(cfg.n_r_list, cfg._rates()))
    if snr_major:
        order = [(snr, n_r, r) for snr in cfg.snr_db for n_r, r in pairs]
    else:
        order = [(snr, n_r, r) for n_r, r in pairs for snr in cfg.snr_db]
    for snr, n_r, rate_bits in order:
        config = build_channel_config(snr, n_r)
        yield GridPoint(
            float(snr), int(n_r), rate_bits, rate_bits_to_nats(rate_bits),
            config, abs(lmmse_coefficient(config)),
        )


# Each row function maps one grid point and its draw to the cells of its
# rows, apart from the grid columns and ``trials``/``seed``, which
# run_experiment adds.  Every receiver of a point reads the same draw, so
# receivers are compared on identical realizations.


def _lmmse_cells(p: GridPoint, est: OutageEstimate) -> dict:
    return {
        "b_lmmse": p.a,
        "p_lmmse": est.p_hat,
        "ci_lo": est.ci95_low,
        "ci_hi": est.ci95_high,
    }


def _lmmse_rows(cfg: ExperimentConfig, p: GridPoint, d: Draw) -> list[dict]:
    return [_lmmse_cells(p, d.outage(p.a, p.rate_nats))]


def _outage_curve_rows(cfg: ExperimentConfig, p: GridPoint, d: Draw) -> list[dict]:
    # the search reads the outage at b = a too, as d.outage reads it; it
    # falls back to b = a when a is in the search domain and reads fewer
    # failures, so then p_lsr <= p_lmmse holds exactly row by row; with
    # ratio 1 outside the domain p_lsr may exceed p_lmmse
    opt = optimize_b(d, p.rate_nats, cfg.search)
    return [{
        **_lmmse_cells(p, opt.at_a),
        "b_star": opt.b_star,
        "p_lsr": opt.outage.p_hat,
        "ci_lo_lsr": opt.outage.ci95_low,
        "ci_hi_lsr": opt.outage.ci95_high,
    }]


def _b_vs_snr_rows(cfg: ExperimentConfig, p: GridPoint, d: Draw) -> list[dict]:
    opt = optimize_b(d, p.rate_nats, cfg.search)
    return [{
        "a": p.a,
        "b_star": opt.b_star,
        "b_over_a": opt.b_star / p.a,
        "p_lsr": opt.outage.p_hat,
        "ci_lo": opt.outage.ci95_low,
        "ci_hi": opt.outage.ci95_high,
    }]


def _gmi_histogram_rows(cfg: ExperimentConfig, p: GridPoint, d: Draw) -> list[dict]:
    opt = optimize_b(d, p.rate_nats, cfg.search)
    rows = []
    for receiver, b in (("lmmse", p.a), ("lsr", opt.b_star)):
        hist = gmi_histogram(d.gmi(b), cfg.bins)
        rows += [
            {
                "receiver": receiver,
                "b": b,
                "bin_index": i,
                "edge_lo": float(hist.edges[i]),
                "edge_hi": float(hist.edges[i + 1]),
                "count": int(hist.counts[i]),
                "gmi_mean": hist.mean,
                "gmi_variance": hist.variance,
            }
            for i in range(len(hist.counts))
        ]
    return rows


def _b_sweep_rows(cfg: ExperimentConfig, p: GridPoint, d: Draw) -> list[dict]:
    bs = [float(r) * p.a for r in cfg.b_over_a]
    estimates = [d.outage(b, p.rate_nats) for b in bs]
    return [
        {
            "b_over_a": float(ratio),
            "b": b,
            "p_hat": est.p_hat,
            "ci_lo": est.ci95_low,
            "ci_hi": est.ci95_high,
        }
        for ratio, b, est in zip(cfg.b_over_a, bs, estimates)
    ]


def _median_p01(g: np.ndarray) -> tuple[float, float]:
    """``(np.median(g), np.percentile(g, 1.0))`` of a nonempty 1-d float64
    array of GMI values, equal to both bit for bit, from two one-kth
    partitions.

    numpy partitions at a list of kth, which leaves its fast single-kth
    select, and does so once per statistic: at 5,000 values the two calls
    took 233 us and this 42 us (best of 7 x 200 calls, numpy 2.4.6, a
    2-core x86-64 VM).
    The median is read from that partition, as ``np.median``'s mean of its
    middle values; the 1st percentile's order statistics ``k`` and
    ``k + 1`` are read from a second partition of its lower half and
    interpolated as numpy's linear method does (``_lerp``).  A GMI is
    never NaN and never -0.0 (``Draw.gmi`` writes a positive value or
    +0.0): numpy reads a NaN as the result and a -0.0 median as +0.0, and
    this does neither.
    """
    n = g.size
    if n == 1:
        return float(g[0]), float(g[0])
    h = n // 2
    v = (n - 1) * (1.0 / 100)
    k = math.floor(v)
    gamma = v - k
    if n <= 3:
        part = low = np.sort(g)
    else:
        part = np.partition(g, h)
        low = np.partition(part[:h], k + 1)
    median = part[h] if n % 2 else (part[:h].max() + part[h]) / 2.0
    x0, x1 = low[: k + 1].max(), low[k + 1]
    p01 = x1 - (x1 - x0) * (1.0 - gamma) if gamma >= 0.5 else x0 + (x1 - x0) * gamma
    return float(median), float(p01)


def _asymptotic_scan_rows(cfg: ExperimentConfig, p: GridPoint, d: Draw) -> list[dict]:
    # the medians show logarithmic growth in n_r for the matched rule b = a
    # and saturation for the mismatched rule b = b_scale * a
    rules = (("lmmse", p.a), ("scaled", cfg.b_scale * p.a))
    rows = []
    for rule, b in rules:
        median, p01 = _median_p01(d.gmi(b))
        rows.append({"b_rule": rule, "b": b, "gmi_median": median, "gmi_p01": p01})
    return rows


@dataclass(frozen=True)
class ExperimentKind:
    """One table kind: its CLI subcommand, its columns and its per-point rows."""

    command: str
    columns: list[str]
    point_rows: Callable[[ExperimentConfig, GridPoint, Draw], list[dict]]
    snr_major: bool = False  # row order; every other kind is n_r-major


OUTAGE_CURVE_COLUMNS = [
    "snr_db", "n_r", "rate_bits", "b_lmmse", "p_lmmse", "ci_lo", "ci_hi",
    "b_star", "p_lsr", "ci_lo_lsr", "ci_hi_lsr", "trials", "seed",
]
OUTAGE_CURVE_COLUMNS_LMMSE_ONLY = OUTAGE_CURVE_COLUMNS[:7] + ["trials", "seed"]
B_VS_SNR_COLUMNS = [
    "snr_db", "n_r", "rate_bits", "a", "b_star", "b_over_a",
    "p_lsr", "ci_lo", "ci_hi", "trials", "seed",
]
GMI_HISTOGRAM_COLUMNS = [
    "snr_db", "n_r", "rate_bits", "receiver", "b", "bin_index",
    "edge_lo", "edge_hi", "count", "gmi_mean", "gmi_variance", "trials", "seed",
]
B_SWEEP_COLUMNS = [
    "snr_db", "n_r", "rate_bits", "b_over_a", "b", "p_hat",
    "ci_lo", "ci_hi", "trials", "seed",
]
ASYMPTOTIC_SCAN_COLUMNS = [
    "snr_db", "n_r", "b_rule", "b", "gmi_median", "gmi_p01", "trials", "seed",
]

KINDS = {
    "outage_curve": ExperimentKind("outage-curve", OUTAGE_CURVE_COLUMNS, _outage_curve_rows),
    "b_vs_snr": ExperimentKind("b-vs-snr", B_VS_SNR_COLUMNS, _b_vs_snr_rows),
    "gmi_histogram": ExperimentKind("gmi-hist", GMI_HISTOGRAM_COLUMNS, _gmi_histogram_rows),
    "b_sweep": ExperimentKind("b-sweep", B_SWEEP_COLUMNS, _b_sweep_rows),
    "asymptotic_scan": ExperimentKind(
        "asymptotic-scan", ASYMPTOTIC_SCAN_COLUMNS, _asymptotic_scan_rows, snr_major=True
    ),
}


def run_experiment(cfg: ExperimentConfig, *, include_lsr: bool = True) -> ResultTable:
    """Run every grid point of ``cfg`` and collect the rows of its kind.

    The points are run one antenna count at a time.  The standardized
    variates of each ``n_r`` are sampled once (see
    :func:`~lsrsim.outage.draw`) and scaled to each of its distinct
    ``(rate_bits, snr_db)`` points in turn, which gives each
    point ``draw(config, trials, seed)`` bit for bit while they share
    their randomness.  An antenna count of one point scales the variates
    in place and so holds one draw, as ``draw`` does; one of several
    points scales each into the same pair of arrays in turn, so it holds the
    variates and one draw.  A point's draw is overwritten once its rows are
    built; every row of a point reads that point's draw, and a repeated
    point's rows are copies.  The rows come out in the grid's row order.

    ``include_lsr=False`` applies to ``outage_curve`` only: it skips the
    shrinkage search and emits the LMMSE columns alone, which equal those of
    the full table.
    """
    kind = KINDS[cfg.kind]
    columns, point_rows = kind.columns, kind.point_rows
    if not include_lsr:
        _check(cfg.kind == "outage_curve", "include_lsr",
               f"False applies to outage_curve only, not {cfg.kind}")
        columns, point_rows = OUTAGE_CURVE_COLUMNS_LMMSE_ONLY, _lmmse_rows
    grid = list(_grid(cfg, snr_major=kind.snr_major))
    # the distinct points, first entries kept, grouped by antenna count
    groups: dict[int, dict[tuple, GridPoint]] = {}
    for p in grid:
        groups.setdefault(p.n_r, {}).setdefault((p.n_r, p.rate_bits, p.snr_db), p)
    cells: dict[tuple, list[dict]] = {}
    for n_r, points in groups.items():
        # a lone point scales the variates in place; more points are scaled
        # in turn into one pair of arrays, allocated before the variates so
        # that the points' search results, freed after each point, come
        # after both in the heap, where the next point finds their memory
        arrays = None if len(points) == 1 else (np.empty(cfg.trials), np.empty(cfg.trials, np.complex128))
        variates = _sample(n_r, cfg.trials, cfg.seed)
        if arrays is None:
            arrays = variates
        for key, p in points.items():
            cells[key] = point_rows(cfg, p, _scale(p.config, *variates, out=arrays))
        del variates, arrays
    rows = []
    for p in grid:
        # grid columns from each entry: snr_db -0.0 and 0.0 share a key but print differently
        common = dict(snr_db=p.snr_db, n_r=p.n_r, rate_bits=p.rate_bits, trials=cfg.trials, seed=cfg.seed)
        for point_cells in cells[(p.n_r, p.rate_bits, p.snr_db)]:
            row = {**common, **point_cells}
            rows.append({c: row[c] for c in columns})
    return ResultTable(columns=columns, rows=rows)


def curve_points(table: ResultTable, p_column: str) -> list[tuple[float, float]]:
    """Extract ``(snr_db, outage)`` pairs of one receiver from a result table.

    The table must hold one curve: rows of more than one ``(n_r,
    rate_bits)`` pair are refused with a
    :class:`~lsrsim.channel.ConfigError` naming ``n_r_list``, since joining
    them would make a curve of none of them.
    """
    pairs = list(dict.fromkeys((r.get("n_r"), r.get("rate_bits")) for r in table.rows))
    _check(len(pairs) <= 1, "n_r_list",
           f"a curve needs one (n_r, rate_bits) pair, the table has {pairs}")
    return [(float(r["snr_db"]), float(r[p_column])) for r in table.rows]


def snr_gain(
    curve_a: Sequence[tuple[float, float]],
    curve_b: Sequence[tuple[float, float]],
    target_outage: float,
) -> float:
    """SNR difference (dB) between two outage curves at a target outage level.

    Each curve is a sequence of ``(snr_db, outage)`` points; the SNR at which
    a curve crosses the target is found by interpolating linearly in
    ``(snr_db, log10 outage)`` on the first bracketing segment.  Raises
    :class:`NotBracketedError` when a curve never crosses the target.
    """
    _check(0 < target_outage < 1, "target_outage", f"must be in (0, 1), got {target_outage}")
    return _crossing_snr(curve_a, target_outage) - _crossing_snr(curve_b, target_outage)


def _crossing_snr(curve: Sequence[tuple[float, float]], target: float) -> float:
    pts = sorted((float(s), float(p)) for s, p in curve)
    if not pts:
        raise NotBracketedError("empty curve")
    log_t = math.log10(target)
    for (s0, p0), (s1, p1) in zip(pts, pts[1:]):
        if p0 == target:
            return s0
        if p0 > 0 and p1 > 0 and (p0 - target) * (p1 - target) <= 0:
            l0, l1 = math.log10(p0), math.log10(p1)
            if l0 == l1:
                return s0
            return s0 + (s1 - s0) * (log_t - l0) / (l1 - l0)
        if (p0 - target) * (p1 - target) < 0:
            raise NotBracketedError(
                f"the curve crosses target outage {target}, but its estimate is 0 at "
                f"snr_db = {s0 if p0 == 0 else s1}, which log interpolation cannot reach; "
                "increase trials"
            )
    if pts[-1][1] == target:
        return pts[-1][0]
    raise NotBracketedError(
        f"curve does not bracket target outage {target} within its SNR range"
    )


def _format_scalar(value, column: str) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean cells are not part of any table schema")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"column {column}: non-finite cell {value} cannot be written")
        return format(value, ".17g")
    return str(value)


def _check_format(format) -> None:
    _check(format in ("csv", "json"), "format", f"must be 'csv' or 'json', got {format!r}")


def emit_results(table: ResultTable, path, format: str = "csv") -> None:
    """Write a result table as CSV (header row) or JSON (array of objects).

    Floats are serialized with 17 significant digits, which round-trips
    float64 exactly; files always use ``\\n`` line endings so identical runs
    produce byte-identical output.  A non-finite float cell raises
    ``ValueError`` naming its column before the file is opened, so JSON
    output always parses.
    """
    _check_format(format)
    if format == "csv":
        lines = [",".join(table.columns)]
        for row in table.rows:
            lines.append(",".join(_format_scalar(row[c], c) for c in table.columns))
        text = "\n".join(lines) + "\n"
    elif not table.rows:
        text = "[]\n"
    else:
        body = []
        for row in table.rows:
            cells = []
            for c in table.columns:
                v = row[c]
                key = json.dumps(c)
                if isinstance(v, str):
                    cells.append(f"{key}: {json.dumps(v)}")
                else:
                    cells.append(f"{key}: {_format_scalar(v, c)}")
            body.append("  {" + ", ".join(cells) + "}")
        text = "[\n" + ",\n".join(body) + "\n]\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_results(path, format: str = "csv") -> ResultTable:
    """Read back a table written by :func:`emit_results`."""
    _check_format(format)
    if format == "csv":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip() != ""]
        if not lines:
            return ResultTable(columns=[], rows=[])
        columns = lines[0].split(",")
        rows = [
            {c: _parse_scalar(v) for c, v in zip(columns, line.split(","))}
            for line in lines[1:]
        ]
        return ResultTable(columns=columns, rows=rows)
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    columns = list(data[0].keys()) if data else []
    return ResultTable(columns=columns, rows=data)
