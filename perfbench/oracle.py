"""Closed-form references computed with mpmath, apart from gtrig's own code.

By definition F(s) = (1/q) B_{s^q}(1/q, 1 - 1/p) and pi_pq = (2/q) B(1/q, 1 - 1/p),
so the sine is the inverse of an incomplete beta function.  Everything here
runs at 30 significant digits and is only ever called outside timed regions.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

DIGITS = 30


def pi_pq(p: float, q: float) -> float:
    """pi_pq = (2/q) B(1/q, 1 - 1/p)."""
    with mp.workdps(DIGITS):
        P, Q = mpf(p), mpf(q)
        return float(2 * mpmath.beta(1 / Q, 1 - 1 / P) / Q)


def arcsin_pq(p: float, q: float, s: float) -> float:
    """F(s) for s in [0, 1]."""
    with mp.workdps(DIGITS):
        P, Q, S = mpf(p), mpf(q), mpf(s)
        return float(mpmath.betainc(1 / Q, 1 - 1 / P, 0, S**Q) / Q)


def _solve(g, lo, hi):
    """Root of an increasing g on [lo, hi] by the Illinois rule, with
    bisection as the fallback when the bracket stalls."""
    glo, ghi = g(lo), g(hi)
    if glo >= 0:
        return lo
    if ghi <= 0:
        return hi
    tol = mpf(10) ** (-DIGITS + 2)
    side = 0
    for _ in range(400):
        x = (lo * ghi - hi * glo) / (ghi - glo)
        if not lo < x < hi:
            x = (lo + hi) / 2
        gx = g(x)
        if gx == 0 or hi - lo < tol * (abs(x) + tol):
            return x
        if gx < 0:
            lo, glo = x, gx
            if side == -1:
                ghi /= 2
            side = -1
        else:
            hi, ghi = x, gx
            if side == 1:
                glo /= 2
            side = 1
    return (lo + hi) / 2


def sin_cos(p: float, q: float, x: float) -> tuple[float, float]:
    """(sin_pq x, cos_pq x) by exact reduction and incomplete-beta inversion.

    The reduced argument r is inverted in s when r is in the lower half of the
    quarter period, and otherwise in w = v**(1 - 1/p) with v = 1 - s**q, the
    variable in which the tail B_v(1 - 1/p, 1/q) is smooth near the quarter
    period.  Both keep the cosine magnitude v**(1/p) accurate.
    """
    with mp.workdps(DIGITS + 10):
        P, Q, X = mpf(p), mpf(q), mpf(x)
        a, b = 1 / Q, 1 - 1 / P
        half = mpmath.beta(a, b) / Q
        period = 4 * half
        y = X - period * mpmath.floor(X / period)
        quadrant = min(3, int(mpmath.floor(y / half)))
        r = (y, 2 * half - y, y - 2 * half, 4 * half - y)[quadrant]
        r = min(max(r, mpf(0)), half)
        if r <= half / 2:
            s = _solve(lambda t: mpmath.betainc(a, b, 0, t**Q) / Q - r, mpf(0), mpf(1))
            v = 1 - s**Q
        else:
            delta = half - r
            w = _solve(
                lambda t: mpmath.betainc(b, a, 0, t ** (1 / b)) / Q - delta,
                mpf(0),
                mpf(1),
            )
            v = w ** (1 / b)
            s = (1 - v) ** (1 / Q)
        c = v ** (1 / P)
        sv = s if quadrant < 2 else -s
        cv = c if quadrant in (0, 3) else -c
        return float(sv), float(cv)


def sin_cos_with_bounds(
    p: float, q: float, x: float, pi: float, floor: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The exact (sin, cos) at x and the error a correct double-precision
    evaluation may show in each.

    An argument held in double precision and reduced modulo a rounded period
    is only known to within delta = 4 eps max(|x|, pi); each bound adds the
    largest change of the exact function over [x - delta, x + delta] to an
    absolute floor.  This allows for the cosine's infinite slope at the
    quarter period when p > 2.
    """
    delta = 4.0 * 2.0**-52 * max(abs(x), pi)
    centre = sin_cos(p, q, x)
    below, above = sin_cos(p, q, x - delta), sin_cos(p, q, x + delta)
    bounds = tuple(
        floor + max(abs(below[k] - centre[k]), abs(above[k] - centre[k]))
        for k in (0, 1)
    )
    return centre, bounds
