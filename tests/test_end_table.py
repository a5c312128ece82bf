"""The outage counter's end table against an independent oracle.

:func:`lsrsim.gmi._end_tables` holds, per cell of ``t = sqrt(1/expm1(R) -
kappa)`` on each branch, a cubic for the end's ``p = 1/q`` with an error
bound, a gain that carries ``kappa``'s error to the end, and a lower bound
on ``|dGMI / dlog b|``.  Here each is checked against the end found by 64
halvings of ``kappa(s)`` on its branch, and the counter built on the table
against the trials it re-solves.
"""

import math

import numpy as np
import pytest

from lsrsim import build_channel_config, draw
from lsrsim.gmi import _END_TABLE_CELLS, _end_curve, _end_kappa, _end_tables
from lsrsim.outage import _END_WINDOW, OutageCounter
from oracles import RATES, feasible_ends


def bisected_ends(kappa: np.ndarray, rate: float, upper: int) -> tuple[np.ndarray, np.ndarray]:
    """``(p, |dGMI / dlog b|)`` at the end of each ``kappa`` on one branch,
    by 64 halvings of ``kappa(s)``, which rises on ``0 < s < rate`` (the
    lower end) and falls on ``rate < s < rate + 3`` (the upper one).  They
    run in ``np.longdouble``: near the peak, float64's rounding of
    ``kappa(s)`` alone moves an end by up to three quarters of the table's
    ``err``; x86-64's 80-bit format moves it by 2,000 times less."""
    rate, kappa = np.longdouble(rate), kappa.astype(np.longdouble)
    ends = np.full(kappa.size, rate if upper else 0.0), np.full(kappa.size, rate + 3 if upper else rate)
    below, above = ends[::-1] if upper else ends
    with np.errstate(all="ignore"):
        for _ in range(64):
            mid = (below + above) / 2
            up = _end_kappa(mid, rate)[0] > kappa
            below, above = np.where(up, below, mid), np.where(up, mid, above)
        x, q, *_ = _end_curve((below + above) / 2, rate)
    slope = np.abs(q * (2 * x / (x + 1)) * (1 + x * (1 - q) - x * kappa * q))
    return (1 / q).astype(float), slope.astype(float)


def kappas_in_every_cell(rate: float, upper: int, per_cell: int = 4) -> np.ndarray:
    """Random ``kappa`` with an end on the branch in every cell of it, from
    the peak's cell 0 to the last, which on the lower branch holds the pole
    ``kappa = 1/rate - 1`` below 1 nat (and ``kappa = 0`` from 1 nat on)."""
    kappa_max, scale, _ = _end_tables(rate)
    step = 1.0 / scale[upper, 0]
    t_end = math.sqrt(kappa_max - (0.0 if upper else max(1.0 / rate - 1.0, 0.0)))
    left = step * np.arange(_END_TABLE_CELLS)[:, None]
    assert left[-1, 0] < t_end < left[-1, 0] + step
    rng = np.random.default_rng([upper, round(rate * 1e6)])
    t = left + rng.uniform(size=(_END_TABLE_CELLS, per_cell)) * (np.minimum(left + step, t_end) - left)
    return kappa_max - t.ravel() ** 2


@pytest.mark.parametrize("upper", [0, 1], ids=["lower", "upper"])
@pytest.mark.parametrize("rate", RATES[1:])
def test_table_ends_and_slopes_against_bisection(rate, upper):
    kappa = kappas_in_every_cell(rate, upper)
    p, err, slope = (row[upper] for row in feasible_ends(kappa, np.zeros_like(kappa), rate))
    p_true, slope_true = bisected_ends(kappa, rate, upper)
    miss = np.abs(p / p_true - 1.0)
    assert np.all((miss <= err) | (err == math.inf)), np.max(miss / err)
    assert np.all(slope <= slope_true)
    # nearly every end is certifiable, the ends of cell 0 and the pole's cell aside
    assert np.count_nonzero(err > _END_WINDOW / 8.0) <= 8
    assert np.median(err) < 1e-12


@pytest.mark.parametrize("upper", [0, 1], ids=["lower", "upper"])
@pytest.mark.parametrize("rate", RATES[1:])
def test_kappa_error_carried_to_the_end(rate, upper):
    # a kappa known to within dk has its true end within err of the one read
    kappa = kappas_in_every_cell(rate, upper, per_cell=1)
    dk = 1e-10 * kappa
    p, err, _ = (row[upper] for row in feasible_ends(kappa, dk, rate))
    for shifted in (kappa - dk, kappa + dk):
        p_true, _ = bisected_ends(shifted, rate, upper)
        miss = np.abs(p / p_true - 1.0)
        assert np.all((miss <= err) | (err == math.inf)), np.max(miss / err)


# the trials re-solved on this grid by the counter that took one Newton step
# per end from the table's start: the table lookup re-solves no more
RE_SOLVED_CEILING = [(0.3, 142), (math.log(2.0), 339), (1.0, 120_034), (2.0 * math.log(2.0), 0), (3.0 * math.log(2.0), 0)]


def test_no_more_trials_re_solved():
    draws = [draw(build_channel_config(snr_db, n_r), 20_000, 5)
             for n_r in (1, 8, 64, 1024) for snr_db in (-3.0, 0.0, 5.0, 10.0, 20.0)]
    for rate, ceiling in RE_SOLVED_CEILING:
        assert sum(OutageCounter(d, rate)._unsure.size for d in draws) <= ceiling, rate
