"""GMI of the scaled nearest-neighbor decoder: rate functional and maximizer.

For a realization ``(s, v)`` and coefficient ``b``, the decoder's rate reads
the realization only through ``c = ||b v||^2``, ``r = Re x`` and
``d = |c - x|^2``, with ``x = s^H (b v)``.  With transmit power ``P`` and
noise variance ``sigma2``, the achievable rate is
``sup_{theta < 0} k_ls(theta)`` with ``w = -P theta c`` and

    k_ls = log(1 + w) + P theta (c - 2 r - sigma2 theta c - P theta d) / (1 + w),

which is the literal functional

    theta P (||s - b v||^2 - ||s||^2) + log(1 - P theta c)
    - P theta^2 (c sigma2 + P |x|^2) / (1 - P theta c)

rewritten with ``||s - b v||^2 - ||s||^2 = c - 2 r`` and
``c (c - 2 r) + |x|^2 = d``, so ``||s||^2`` never enters it.

The stationary points of ``k_ls`` solve a quadratic whose leading
coefficient is positive for ``c > 0`` and whose constant term is ``-2 r``.
So the GMI is positive exactly when ``r > 0``, attained at the smaller (and
only negative) root; otherwise it is 0, the limit ``theta -> 0``.

``_solve_theta`` solves the stationary-point problem in closed form for a
block of trials at once, and ``_end_tables`` tabulates, per rate, the ends
of each trial's feasible interval in ``b`` that the outage counter reads.
The test suite checks the closed form against independent oracles in
``tests/oracles.py``: a maximization over an explicit theta grid and a
50-digit evaluation of the literal functional.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# every name is private to the package: outage reads the solve and the end
# tables
__all__: list[str] = []

# unit roundoff of float64
_EPS = 2.0**-53


def _k_ls_into(theta, c, r, d, power, noise_var, scratch) -> np.ndarray:
    """The rate functional ``k_ls`` at ``theta``, written into row 0 of
    ``scratch`` without allocating, with rows 1-3 as scratch.

    Uses log1p so the theta -> 0 limit is computed without cancellation.
    The test suite's plain-expression copy, ``_k_ls_core`` in
    ``tests/oracles.py``, applies the same operations to the same operands in
    the same order, so the two agree bit for bit.
    """
    val, w, x, t = scratch
    np.multiply(np.multiply(np.negative(theta, out=w), power, out=w), c, out=w)
    np.subtract(c, np.multiply(2.0, r, out=x), out=x)
    np.subtract(x, np.multiply(np.multiply(noise_var, theta, out=t), c, out=t), out=x)
    np.subtract(x, np.multiply(np.multiply(power, theta, out=t), d, out=t), out=x)
    np.multiply(np.multiply(theta, power, out=t), x, out=t)
    np.divide(t, np.add(1.0, w, out=x), out=t)
    return np.add(np.log1p(w, out=val), t, out=val)


def _solve_theta(c, r, d, power, noise_var, scratch, flags):
    """Vectorized closed-form maximization of the rate functional.

    Returns ``(theta, gmi, attained)``, rows of ``scratch`` and ``flags``: where
    ``attained`` is True, ``theta`` is the maximizing theta and ``gmi`` the
    positive rate; elsewhere the GMI is 0, the ``theta -> 0`` limit, and
    ``theta`` and ``gmi`` hold no meaning.

    In the unit-noise parameterization ``t = noise_var * theta`` with
    reduced power ``p = power / noise_var`` (an exact reparameterization of
    ``k_ls``), the stationary points solve

        p c (c + p d) t^2 + (p c^2 - 2 c - 2 p d) t - 2 r = 0.

    With ``tau = c t`` and ``delta = d / c`` this is ``A tau^2 + B tau + C = 0``:

        A = p (1 + p delta),  B = p c - 2 - 2 p delta,  C = -2 r,

    which is solved for ``tau``, and ``theta = tau / (c noise_var)``.
    ``A > 0`` whenever ``c > 0``.  Since ``log(1 + y) <= y``,
    ``k_ls(t) <= p t C``, so ``C >= 0`` gives a GMI of 0.  If ``C < 0`` then
    ``Q(0) = C < 0 < Q(-inf)``: the quadratic has exactly one negative root,
    the smaller one, ``k_ls`` rises up to it and falls toward 0 as
    ``t -> 0``, so that root is the maximizer and its value is positive.
    Only the smaller root, in cancellation-free form, is therefore solved
    for.  No coefficient is a power of ``c``, so the root is resolved as
    long as ``c = |b|^2 V`` is a normal float: below about
    ``|b| = 1e-150 |a|`` the GMI reads its ``b -> 0`` limit.  Where ``c``
    itself underflows, ``|b|^2 V`` below about 1e-308, ``delta`` is not
    finite and the GMI reads 0.

    Every intermediate is written into the nine float64 rows of ``scratch``
    and the two boolean rows of ``flags``, each of the arguments' shape, so
    a call allocates no array.  Written as plain numpy expressions, every
    bit kept, the solve took 101-124 ns per trial at n_r 128 and 5,000
    trials (scan_massive's shape) against 44-56 ns written into scratch,
    and a call at 1e5 trials peaked at 6.1 MB of temporaries against 0.8 MB
    (quartiles of 400 interleaved calls and tracemalloc, one core of a
    2-core x86-64 VM).
    """
    p = power / noise_var
    qa, qb, qc, sq, root, _, _, x, t = scratch
    mask, ok = flags

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # p delta = p d / c
        pdelta = np.divide(np.multiply(p, d, out=qa), c, out=qa)
        np.subtract(np.multiply(p, c, out=qb), 2.0, out=qb)
        np.subtract(qb, np.multiply(2.0, pdelta, out=t), out=qb)
        np.multiply(p, np.add(1.0, pdelta, out=qa), out=qa)
        np.multiply(-2.0, r, out=qc)
        np.multiply(qb, qb, out=sq)
        np.sqrt(np.subtract(sq, np.multiply(np.multiply(4.0, qa, out=t), qc, out=t), out=sq), out=sq)
        # the smaller root: 2 C / (sq - B) where B < 0, else (-B - sq) / (2 A)
        np.subtract(np.negative(qb, out=root), sq, out=root)
        np.divide(root, np.multiply(2.0, qa, out=t), out=root)
        np.divide(np.multiply(2.0, qc, out=t), np.subtract(sq, qb, out=x), out=t)
        np.copyto(root, t, where=np.less(qb, 0.0, out=mask))
        theta = np.divide(root, np.multiply(c, noise_var, out=t), out=root)
        val = _k_ls_into(theta, c, r, d, power, noise_var, scratch[5:])

    np.isfinite(theta, out=ok)
    np.logical_and(ok, np.less(theta, 0.0, out=mask), out=ok)
    np.logical_and(ok, np.isfinite(val, out=mask), out=ok)
    np.logical_and(ok, np.greater(val, 0.0, out=mask), out=ok)
    return theta, val, ok


# A trial's GMI as a function of real b > 0.  With rho = Re(s^H v) > 0 and
# kappa = ((Im s^H v)^2 + noise_var ||v||^2 / power) / rho^2, it depends on b
# only through q = rho / (b ||v||^2):
#
#     GMI = sup_{x > 0} [log(1 + x) - x (1 - 2q + x ((1 - q)^2 + kappa q^2)) / (1 + x)],
#
# peaks at q = 1 with log1p(1 / kappa), and tends to 1 / (1 + kappa) as
# b -> 0+.  The set {GMI >= R} is one interval of q around 1 (README, "How
# the search counts outages").  Its ends lie on the curve traced, for
# s = log(1 + x) at the maximizing x, by
#
#     q(s) = 1 + (e^s + 1)(R - s) / (2 expm1(s)),
#     kappa(s) = [(1 + (R - s) / expm1(s)) / expm1(s) - (q - 1)^2] / q^2,
#
# (kappa's bracket equals (s + 2q - R) / (2 expm1(s)) - (1 - q)^2, the form
# in the README, with q(s) substituted), with kappa monotone on each of two
# branches.  On 0 < s < R, the lower end in b (q > 1), kappa rises from
# 1/R - 1 at s -> 0 to 1 / expm1(R) at s = R; on s > R, the upper end
# (q < 1), it falls from 1 / expm1(R) to 0, which it meets at some q > 0.
# Both are smooth in p = 1/q and t = sqrt(1 / expm1(R) - kappa), and the
# lower branch goes on through s = 0, where p = 0, to s < 0.

# cells per branch of the end table.  Against an extended-precision
# bisection a cell's cubic reads p to about 1e-14 relative in the median and
# to 4e-11 at worst wherever its bound lets the counter use it, 30 times
# inside the counter's _END_WINDOW / 8
_END_TABLE_CELLS = 512
# points per branch at which the build samples the end curve to start each
# node, and the Newton steps that then polish it
_END_SAMPLES = 65
_END_NEWTON_STEPS = 2
# where the build checks each cell against the curve, as fractions of the
# way in s from one node to the next
_END_CHECKS = np.array([0.25, 0.5, 0.75])[:, None, None]


def _end_kappa(s, rate):
    """``kappa`` at ``s`` of the end curve and the terms it is made of:
    ``(kappa, x, v, u, q, big, qq, uu)`` with ``x = expm1(s)``,
    ``v = (rate - s) / x``, ``u = q - 1``, ``big = (1 + v) / x``,
    ``qq = q^2`` and ``uu = u^2``, so that ``kappa = (big - uu) / qq``."""
    x = np.expm1(s)
    v = (rate - s) / x
    u = 0.5 * (x + 2.0) * v
    q = 1.0 + u
    big = (1.0 + v) / x
    uu = u * u
    qq = q * q
    return (big - uu) / qq, x, v, u, q, big, qq, uu


def _end_curve(s, rate):
    """``(x, q, kappa, dq/ds, dkappa/ds, big, qq, uu)`` at ``s`` of the end
    curve, with ``big``, ``qq = q^2`` and ``uu = (q - 1)^2`` of
    :func:`_end_kappa`: ``(|big| + uu) / qq`` is the size of the terms that
    ``kappa`` is the difference of, over ``q^2``, which bounds its rounding
    error."""
    kappa, x, v, u, q, big, qq, uu = _end_kappa(s, rate)
    y = x + 1.0
    dv = -(1.0 + v * y) / x
    du = 0.5 * (y * v + (x + 2.0) * dv)
    dkappa = (dv / x - big * y / x - 2.0 * du * (u + kappa * q)) / qq
    return x, q, kappa, du, dkappa, big, qq, uu


def _end_points(s, rate: float, kappa_max: float):
    """What the table reads at points ``s`` of the end curve:
    ``(t, p, dlogq/dt, slope, kappa_noise)`` with ``t = sqrt(kappa_max - kappa)``,
    ``p = 1/q``, ``slope = dGMI / dlog b`` (negative at a lower end, positive
    at an upper one) and ``kappa_noise`` a bound on the rounding error of the
    computed ``kappa``."""
    x, q, kappa, dq, dk, big, qq, uu = _end_curve(s, rate)
    t = np.sqrt(np.fmax(kappa_max - kappa, 0.0))
    # dt/ds = -dkappa/ds / (2 t)
    dlogq = -2.0 * t * dq / (q * dk)
    # dGMI/dlog b = -q dh/dq at the maximizing x (envelope theorem)
    slope = q * (2.0 * x / (x + 1.0)) * (1.0 + x * (1.0 - q) - x * kappa * q)
    noise = 8.0 * _EPS * ((np.abs(big) + uu) / qq + np.abs(kappa) + kappa_max)
    return t, 1.0 / q, dlogq, slope, noise


@functools.lru_cache(maxsize=32)
def _end_tables(rate: float):
    """``(kappa_max, scale, table)`` of both ends of the feasible intervals
    at ``rate``: ``kappa_max = 1 / expm1(rate)``, the largest feasible
    ``kappa``; ``scale[k]``, the cells per unit of ``t = sqrt(kappa_max -
    kappa)`` on branch ``k`` (0 the lower end, 1 the upper one); and
    ``table[:, k * _END_TABLE_CELLS + j]``, cell ``j`` of branch ``k``:
    ``(c0, c1, c2, c3, err, gain, slope0, slope1, slope2)``.  With
    ``f = t scale[k] - j`` the end's ``p = 1/q`` is
    ``c0 + f (c1 + f (c2 + f c3))`` to within ``err`` relative, an error
    ``dk`` in ``kappa`` moves it by at most ``gain dk / t`` more, and
    ``|dGMI / dlog b|`` there is at least ``slope0 + f (slope1 + f slope2)``.

    The upper branch's cells reach ``kappa = 0``, the lower one's its pole
    ``kappa = 1/rate - 1`` below 1 nat, each half a cell beyond.  Each node
    ``t = j / scale[k]`` starts from the curve sampled at ``_END_SAMPLES``
    points of its branch, between the two around it, and takes
    ``_END_NEWTON_STEPS`` steps on ``t(s)``.  The cubic is the Hermite
    interpolant of the node values and slopes ``dp/dt``, each from the
    curve at its node; at the peak, where ``dt/ds`` is 0/0, from the
    curve's expansion ``p = 1 -+ sqrt(1 + e^-rate) t``.  The curve at three
    more points of each cell gives ``err`` and the slope bound (see
    :func:`_end_bounds`).  A cell whose numbers are not finite has
    ``err = inf``.  The build uses elementwise ufuncs and row-wise ``max``
    and ``sum`` only, no BLAS or LAPACK, whose rounding may differ from one
    numpy build to the next.
    """
    kappa_max = 1.0 / math.expm1(rate)
    cells = _END_TABLE_CELLS
    span = np.array([[kappa_max - max(1.0 / rate - 1.0, 0.0)], [kappa_max]])
    step = np.sqrt(span) * (1.0 + 0.5 / cells) / cells
    t = step * np.arange(cells + 1.0)
    with np.errstate(all="ignore"):
        # t rises away from the peak on each branch, so on the samples of
        # [-rate / 2, rate] (lower, read from rate down) and [rate, rate + 3]
        # (upper) it is sorted up to the last node; the running maximum
        # keeps it sorted past that, where the curve turns or overflows
        samples = rate + np.array([[-1.5 * rate], [3.0]]) * (np.arange(_END_SAMPLES) / (_END_SAMPLES - 1.0))
        tau = np.sqrt(np.fmax(kappa_max - _end_kappa(samples, rate)[0], 0.0))
        np.fmax.accumulate(tau, axis=1, out=tau)
        s, low, high = np.empty((3, 2, cells + 1))
        for k in range(2):
            i = np.minimum(np.maximum(np.searchsorted(tau[k], t[k]), 1), _END_SAMPLES - 1)
            s0, s1, t0, t1 = samples[k, i - 1], samples[k, i], tau[k, i - 1], tau[k, i]
            s[k] = s0 + (t[k] - t0) / (t1 - t0) * (s1 - s0)
            low[k], high[k] = np.fmin(s0, s1), np.fmax(s0, s1)
        s[:, 0] = rate
        for _ in range(_END_NEWTON_STEPS):
            _, _, kappa, _, dk, *_ = _end_curve(s[:, 1:], rate)
            tau = np.sqrt(np.fmax(kappa_max - kappa, 0.0))
            # dt/ds = -dkappa/ds / (2 t)
            ds = 2.0 * tau * (tau - t[:, 1:]) / dk
            s[:, 1:] = np.minimum(np.maximum(s[:, 1:] + ds, low[:, 1:]), high[:, 1:])
        tau, p, dlogq, slope, noise = _end_points(s, rate, kappa_max)
        dlogq[:, 0] = math.sqrt(1.0 + math.exp(-rate)) * np.array([1.0, -1.0])
        dp = -p * dlogq * step
        y0, y1, m0, m1 = p[:, :-1], p[:, 1:], dp[:, :-1], dp[:, 1:]
        table = np.empty((9, 2, cells))
        c = table[:4]
        c[0], c[1], c[2], c[3] = y0, m0, 3.0 * (y1 - y0) - 2.0 * m0 - m1, 2.0 * (y0 - y1) + m0 + m1

        # the curve inside each cell, at f near 1/4, 1/2 and 3/4
        tau_c, p_c, dlogq_c, slope_c, _ = _end_points(s[:, :-1] + _END_CHECKS * (s[:, 1:] - s[:, :-1]),
                                                      rate, kappa_max)
        f = tau_c / step - np.arange(cells)
        cubic = ((c[3] * f + c[2]) * f + c[1]) * f + c[0]
        # the Hermite error is p''''(t) step^4 (f (1 - f))^2 / 24, at most
        # 1/16 of p''''(t) step^4 / 24, at f = 1/2
        shape = np.fmax(16.0 * (f * (1.0 - f)) ** 2, 0.125)
        interp = np.max(np.abs(cubic / p_c - 1.0) / shape, axis=0)
        dlogq = np.abs(dlogq)
        gain = 1.25 * np.fmax(np.fmax(dlogq[:, :-1], dlogq[:, 1:]), np.max(np.abs(dlogq_c), axis=0))
        # a node's t is j step to within the Newton residual and kappa's
        # rounding; the peak's node (s = rate, q = 1) is exact
        node = dlogq * (np.abs(tau - t) + noise / (2.0 * tau))
        node[:, 0] = 0.0
        least_p = np.fmin(np.fmin(np.abs(y0), np.abs(y1)), np.min(np.abs(p_c), axis=0))
        err = (4.0 * interp + 2.0 * np.fmax(node[:, :-1], node[:, 1:])
               + 8.0 * _EPS * np.sum(np.abs(c), axis=0) / least_p + 4.0 * _EPS * gain * t[:, 1:] + 16.0 * _EPS)
        # |dGMI/dlog b|: the quadratic in f through both nodes and the middle
        # check, less twice its largest excess over the other two checks
        # and a margin for rounding
        slope[0], slope_c[:, 0] = -slope[0], -slope_c[:, 0]
        left, right, fm = slope[:, :-1], slope[:, 1:], f[1]
        bend = (slope_c[1] - left - fm * (right - left)) / (fm * (fm - 1.0))
        excess = np.fmax(np.max(left + f * (right - left) + bend * f * (f - 1.0) - slope_c, axis=0), 0.0)
        least = left - 2.0 * excess - 1e-9 * (np.abs(left) + np.abs(right))
        table[4:] = err, 0.5 * gain, least, right - left - bend, bend
    bad = ~np.all(np.isfinite(table), axis=0)
    table[:, bad] = 0.0
    table[4, bad] = math.inf
    # every counter of the rate shares them
    scale, table = 1.0 / step, table.reshape(table.shape[0], -1)
    scale.flags.writeable = table.flags.writeable = False
    return kappa_max, scale, table


class _Arena:
    """Arrays carved one after another from the front of a byte buffer.

    :meth:`take` returns a view of the next free bytes, aligned to 64, or a
    new array once the buffer is full, so a caller whose arrays outgrow the
    buffer still runs, allocating the rest as plain numpy would.  A view
    stays valid until the buffer's next arena carves it again.
    """

    __slots__ = ("buf", "used")

    def __init__(self, buf: np.ndarray):
        self.buf, self.used = buf, 0

    def take(self, *shape: int, dtype=np.float64) -> np.ndarray:
        start = -(-self.used // 64) * 64
        try:
            view = np.ndarray(shape, dtype, self.buf, start)
        except (TypeError, ValueError):  # past the buffer's end
            return np.empty(shape, dtype)
        self.used = start + view.nbytes
        return view


def _end_cells(kappa, rate: float, arena: _Arena):
    """Each trial's cell of :func:`_end_tables` and its ends:
    ``(p, t, frac, index, rows)``.

    ``p`` holds both ends of each trial's feasible interval as their
    ``p = 1/q``, row 0 the lower end (``p < 1``) and row 1 the upper one
    (``p > 1``).  A ``kappa`` in ``(max(1/rate - 1, 0), 1 / expm1(rate))``
    has both ends; for any other the lower row holds no meaning.  Each end
    is the cubic of its cell at the trial's ``t``: a gather of the cell's
    row and a Horner sum, with no evaluation of the curve.
    ``t = sqrt(kappa_max - kappa)``; ``frac`` is the place ``f`` of ``t``
    in its cell and ``index`` the cell's column of the table, both of shape
    ``(2, kappa.size)``; ``rows`` is the ``(4, 2, kappa.size)`` scratch
    whose last row holds ``p`` and whose first three :func:`_end_bounds`
    reuses.  Every array is carved from ``arena``."""
    kappa_max, scale, table = _end_tables(rate)
    cells = _END_TABLE_CELLS
    n = kappa.size
    t = np.subtract(kappa_max, kappa, out=arena.take(n))
    np.sqrt(np.fmax(t, 0.0, out=t), out=t)
    frac = np.multiply(t, scale, out=arena.take(2, n))
    # the cubic's four coefficients are gathered into the four rows, the
    # first of which held the cell's number; "clip" skips numpy's check of
    # the indices, all in range, and lets take write straight into its out
    rows = arena.take(4, 2, n)
    cell = np.floor(frac, out=rows[0])
    np.minimum(cell, cells - 1.0, out=cell)
    np.subtract(frac, cell, out=frac)
    index = arena.take(2, n, dtype=np.intp)
    np.copyto(index, cell, casting="unsafe")
    index[1] += cells
    with np.errstate(divide="ignore", invalid="ignore"):
        c0, c1, c2, c3 = table[:4].take(index, axis=1, mode="clip", out=rows)
        p = np.add(np.multiply(c3, frac, out=c3), c2, out=c3)
        p = np.add(np.multiply(p, frac, out=p), c1, out=p)
        p = np.add(np.multiply(p, frac, out=p), c0, out=p)
    return p, t, frac, index, rows


def _end_bounds(ends, kappa_err, rate: float):
    """``(err, slope)`` at the ends that :func:`_end_cells` read (its result
    ``ends``), for trials whose ``kappa`` has absolute error ``kappa_err``,
    gathered from the same cells into the first three rows of its scratch;
    ``t`` is overwritten.  ``err`` bounds the end's relative error, in
    ``p`` and in ``b = (rho / V) p``, and ``slope`` bounds
    ``|dGMI / dlog b|`` there from below.

    Why ``err`` bounds the error: the table's ``err`` is the sum of
    (i) the Hermite interpolation error, ``p''''(t) step^4 (f (1 - f))^2 /
    24``, measured at three points of the cell against the curve, scaled
    by its ``(f (1 - f))^2`` shape to the cell's largest and taken four
    times over; (ii) twice the error of the node values, the Newton
    residual and ``kappa(s)``'s rounding at each node carried to ``p`` by
    ``|dlog q / dt|``; (iii) the rounding of the Horner sum, 8 ulps of the
    sum of its terms; and (iv) that of ``t``, 4 ulps.  A ``kappa`` error
    ``dk``, the trial's ``kappa_err`` plus ``4 eps kappa_max`` from
    forming ``kappa_max - kappa``, moves ``t`` by ``dk / (2 t)`` to first
    order and the end by ``|dlog q / dt|`` times that, with 1.25 times the
    largest ``|dlog q / dt|`` the build saw in the cell: ``gain dk / t``.
    Against 64 halvings of ``kappa(s)`` in extended precision the error
    reads under a third of ``err`` (``tests/test_end_table.py``).
    """
    _, t, frac, index, rows = ends
    kappa_max, _, table = _end_tables(rate)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.divide(np.add(kappa_err, 4.0 * _EPS * kappa_max, out=rows[0, 0]), t, out=t)
        slope0, slope1, slope2 = table[6:].take(index, axis=1, mode="clip", out=rows[:3])
        slope = np.add(np.multiply(slope2, frac, out=slope2), slope1, out=slope2)
        slope = np.add(np.multiply(slope, frac, out=slope), slope0, out=slope)
        err, gain = table[4:6].take(index, axis=1, mode="clip", out=rows[:2])
        err = np.add(err, np.multiply(gain, spread, out=gain), out=err)
    return err, slope
