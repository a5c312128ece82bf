"""Output checks on the tables a workload run writes.

Each check returns the set of grid-point indices whose rows fail, so a run's
failed points feed the benchmark's failure count.  A table that cannot be
parsed fails every point.  The checks read the CSV themselves, independently
of the library's own reader.
"""

from __future__ import annotations

import csv
import io
import math

CURVE_COLUMNS = [
    "snr_db", "n_r", "rate_bits", "b_lmmse", "p_lmmse", "ci_lo", "ci_hi",
    "b_star", "p_lsr", "ci_lo_lsr", "ci_hi_lsr", "trials", "seed",
]
SCAN_COLUMNS = ["snr_db", "n_r", "b_rule", "b", "gmi_median", "gmi_p01", "trials", "seed"]

# Normal quantile of the Wilson intervals compared against the reference
# table.  A 95% interval (z = 1.96) would miss about one point in twenty by
# chance, and the benchmark checks thousands of points across its runs; at
# z = 5 the chance per point is below 1e-6.  A shift by a fifth of the
# largest outage probability on the curve (about 0.12 over 1e4 trials) still
# fails; smaller shifts at the deep-fade end of the curve pass unseen.
Z_REFERENCE = 5.0


class TableError(ValueError):
    """The table does not parse or does not have the expected shape."""


def wilson_interval(failures: int, trials: int, z: float) -> tuple[float, float]:
    n = float(trials)
    p = failures / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def lmmse_magnitude(snr_db: float) -> float:
    """|a| under the experiment conventions: unit noise and fading variance,
    pilot sqrt(power)."""
    power = 10.0 ** (snr_db / 10.0)
    return math.sqrt(power) / (power + 1.0)


def read_reference(path) -> dict:
    """Map ``(snr_db, n_r, rate_bits)`` to ``(failures, trials)``."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            (float(r["snr_db"]), int(r["n_r"]), float(r["rate_bits"])): (int(r["failures"]), int(r["trials"]))
            for r in csv.DictReader(fh)
        }


def parse_table(data: bytes, columns: list[str], n_rows: int, text_columns=()) -> list[dict]:
    """Rows of a CSV table as dicts; raises :class:`TableError`."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise TableError(f"not UTF-8: {exc}") from exc
    if lines[-1] != "":
        raise TableError("missing final newline")
    reader = csv.reader(io.StringIO("\n".join(lines[:-1])))
    header = next(reader, None)
    if header != columns:
        raise TableError(f"header {header} != {columns}")
    rows = []
    for cells in reader:
        if len(cells) != len(columns):
            raise TableError(f"row has {len(cells)} cells, expected {len(columns)}")
        row = {}
        for name, cell in zip(columns, cells):
            if name in text_columns:
                row[name] = cell
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise TableError(f"{name}={cell!r} is not a number") from exc
            if not math.isfinite(value):
                raise TableError(f"{name}={cell!r} is not finite")
            row[name] = value
        rows.append(row)
    if len(rows) != n_rows:
        raise TableError(f"{len(rows)} rows, expected {n_rows}")
    return rows


def _brackets(lo: float, p: float, hi: float) -> bool:
    return 0.0 <= lo <= p <= hi <= 1.0


def check_curve(data: bytes, config: dict, seed: int, reference: dict) -> set[int]:
    """Failed point indices of an ``outage-curve`` table.

    Row order is n_r-major then SNR, as the config lists them.
    """
    grid = [(n_r, snr) for n_r in config["n_r_list"] for snr in config["snr_db"]]
    try:
        rows = parse_table(data, CURVE_COLUMNS, len(grid))
    except TableError:
        return set(range(len(grid)))
    search = config["search"]
    failed = set()
    for i, ((n_r, snr), row) in enumerate(zip(grid, rows)):
        a = lmmse_magnitude(snr)
        ref = reference.get((float(snr), int(n_r), float(config["rate_bits"])))
        ok = (
            row["snr_db"] == snr
            and row["n_r"] == n_r
            and row["rate_bits"] == config["rate_bits"]
            and row["trials"] == config["trials"]
            and row["seed"] == seed
            and math.isclose(row["b_lmmse"], a, rel_tol=1e-12)
            and _brackets(row["ci_lo"], row["p_lmmse"], row["ci_hi"])
            and _brackets(row["ci_lo_lsr"], row["p_lsr"], row["ci_hi_lsr"])
            # under common random numbers the search grid holds b = a exactly
            and row["p_lsr"] <= row["p_lmmse"]
            and search["ratio_low"] * a * (1 - 1e-12) <= row["b_star"] <= search["ratio_high"] * a * (1 + 1e-12)
            and ref is not None
            and _agrees(row["p_lmmse"], int(row["trials"]), *ref)
        )
        if not ok:
            failed.add(i)
    return failed


def _agrees(p_hat: float, trials: int, ref_failures: int, ref_trials: int) -> bool:
    lo, hi = wilson_interval(round(p_hat * trials), trials, Z_REFERENCE)
    ref_lo, ref_hi = wilson_interval(ref_failures, ref_trials, Z_REFERENCE)
    return lo <= ref_hi and ref_lo <= hi


def check_scan(data: bytes, config: dict, seed: int) -> set[int]:
    """Failed point indices of an ``asymptotic-scan`` table.

    One point per (SNR, n_r), SNR-major, with one row per rule.
    """
    grid = [(snr, n_r) for snr in config["snr_db"] for n_r in config["n_r_list"]]
    try:
        rows = parse_table(data, SCAN_COLUMNS, 2 * len(grid), text_columns=("b_rule",))
    except TableError:
        return set(range(len(grid)))
    failed = set()
    matched_median = {}
    for i, (snr, n_r) in enumerate(grid):
        a = lmmse_magnitude(snr)
        pair = rows[2 * i : 2 * i + 2]
        ok = True
        for (rule, b), row in zip((("lmmse", a), ("scaled", config["b_scale"] * a)), pair):
            ok = ok and (
                row["b_rule"] == rule
                and row["snr_db"] == snr
                and row["n_r"] == n_r
                and row["trials"] == config["trials"]
                and row["seed"] == seed
                and math.isclose(row["b"], b, rel_tol=1e-12)
                and 0.0 <= row["gmi_p01"] <= row["gmi_median"]
            )
        matched_median[i] = pair[0]["gmi_median"]
        # the matched rule's median GMI grows with the antenna count
        if i > 0 and grid[i - 1][0] == snr and not matched_median[i] > matched_median[i - 1]:
            ok = False
        if not ok:
            failed.add(i)
    return failed


def differing_points(data: bytes, expected: bytes, rows_per_point: int, n_points: int) -> set[int]:
    """Points whose rows differ byte for byte from ``expected``."""
    got = data.split(b"\n")[1:]
    want = expected.split(b"\n")[1:]
    if len(got) != len(want) or data.split(b"\n")[0] != expected.split(b"\n")[0]:
        return set(range(n_points))
    return {
        i
        for i in range(n_points)
        if got[i * rows_per_point : (i + 1) * rows_per_point]
        != want[i * rows_per_point : (i + 1) * rows_per_point]
    }
