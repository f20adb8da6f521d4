"""Generalized trigonometric functions.

For exponents p, q > 1 the arc-length integral

    F(x) = integral_0^x (1 - t**q)**(-1/p) dt,   x in [0, 1],

is strictly increasing; its inverse is the generalized sine ``sin_pq`` on
[0, pi_pq/2], where pi_pq = 2 F(1) is the generalized half-period constant.
The function extends to all of R by the reflection sin_pq(pi_pq - x), then as
the odd 2 pi_pq periodic continuation.  The generalized cosine is the
derivative of the extended sine and satisfies

    |cos_pq x|**p + |sin_pq x|**q = 1.

For (p, q) = (2, 2) all of this reduces to the circular functions and pi.

The substitution u = t**q turns F into the incomplete Beta function
(1/q) B_{x**q}(1/q, 1 - 1/p).  One kernel, ``_arc``, sums its continued
fraction and gives F together with its tail F(1) - F; the inversion seeds
each root solve from 17-node tables of either and its slope, by bisection.
pi_pq alone is integrated by quadrature.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import (
    _integer, _positive, _real, _real_array, _solve_increasing_array,
    incomplete_beta, incomplete_beta_array, integrate_endpoint_singular, solve_increasing,
)

__all__ = [
    "ParamPair",
    "EvalConfig",
    "FunctionValue",
    "DEFAULT_CONFIG",
    "pi_pq",
    "arcsin_pq",
    "sin_pq",
    "cos_pq",
    "sin_cos",
    "ode_residual",
    "fractional_power",
    "power",
]

# ParamPair accepts any exponent above 1.  Near 1 the endpoint singularity
# exponent -1/p approaches -1: for p up to about 1.043 the pi_pq integrand
# overflows at subnormal offsets and pi_pq raises NonFiniteIntegrandError.
_P_MIN = 1.0
_P_MAX = 1000.0


@dataclass(frozen=True)
class ParamPair:
    """A validated exponent pair (p, q) indexing one generalized sine/cosine."""

    p: float
    q: float

    def __post_init__(self) -> None:
        for name in ("p", "q"):
            value = _real(getattr(self, name), name)
            if not (_P_MIN < value <= _P_MAX):
                raise DomainError(f"{name} must exceed 1 and be at most {_P_MAX:g}, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def p_star(self) -> float:
        """Conjugate exponent p/(p-1), so 1/p + 1/p_star = 1."""
        return self.p / (self.p - 1.0)

    @property
    def q_star(self) -> float:
        """Conjugate exponent q/(q-1)."""
        return self.q / (self.q - 1.0)

    def dual(self) -> "ParamPair":
        """The pair (q_star, p_star) that the duality relations pair with (p, q)."""
        return ParamPair(self.q_star, self.p_star)


@dataclass(frozen=True)
class EvalConfig:
    """Tolerances and caps governing all numerics.

    A root solve stops at a residual of at most root_tol * min(1, target): the
    target is r = reduced_x on the lower half of [0, pi_pq/2], and pi_pq/2 - r
    on the upper, solved for v = 1 - s.  F' >= 1 in s and in v, so |s - s_true|
    is at most that too, and the closing Newton step moves s toward s_true by
    at most as much; add the errors of the kernel and of the reduction.
    That bounds sin_pq for any root_tol; near the quarter period cos_pq has none.
    """

    quad_tol: float = 1e-13
    root_tol: float = 1e-13
    max_iter: int = 100

    def __post_init__(self) -> None:
        for name in ("quad_tol", "root_tol"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        object.__setattr__(self, "max_iter", _integer(self.max_iter, "max_iter", 1))
        # the root solve scales root_tol by targets down to 1e-16
        if not self.root_tol * 1e-16 > 0.0:
            raise DomainError(f"root_tol * 1e-16 must be > 0, got root_tol={self.root_tol!r}")


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class FunctionValue:
    """A sine/cosine value plus where its argument landed after reduction.

    ``quadrant`` counts quarter-periods within one full period.  For x >= 0 a
    boundary point belongs to the quadrant on its right; a negative x takes
    3 minus the quadrant of |x|, so its boundary points belong to the quadrant
    on their left.  ``reduced_x`` is x folded into [0, pi_pq/2], equal for -x.
    """

    value: float
    quadrant: int
    reduced_x: float

    def __float__(self) -> float:
        return self.value


# the nodes j/16 of the seed tables, shared by every pair
_GRID = tuple(j / 16 for j in range(17))


def _arc(p: float, q: float, t: float, q_ln_t: float, half_pi: float) -> tuple[float, float]:
    """(F(t), F(1) - F(t)) for t in (0, 1], given q_ln_t = q log t.

    F(t) = (1/q) B_x(1/q, 1 - 1/p) with x = t**q, and the tail is
    (1/q) B_y(1 - 1/p, 1/q) with y = 1 - x.  The fraction below its
    convergence threshold is summed, and the other output is ``half_pi`` =
    F(1) minus it.  Both share the front factor t y**(1 - 1/p), as x**(1/q)
    is t itself, so nothing is lost where t**q underflows.  Tail callers pass
    t = 1 - v and q log1p(-v), which keeps y = -expm1(q_ln_t) exact.
    """
    a, b = 1.0 / q, (p - 1.0) / p
    x = math.exp(q_ln_t)
    y = -math.expm1(q_ln_t)
    front = t * y**b
    if x < (a + 1.0) / (a + b + 2.0):
        head = incomplete_beta(a, b, x, front) / q
        return head, half_pi - head
    tail = incomplete_beta(b, a, y, front) / q
    return half_pi - tail, tail


def _each(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn over the elements of same-shape arrays, as Python floats.  The array
    path forms every exp, log and power so, as numpy's ufuncs differ from math
    and ``**`` in the last bit on a few percent of inputs."""
    flat = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(flat, float, arrays[0].size).reshape(arrays[0].shape)


def power(base, exponent: float):
    """base**exponent by Python's float power, elementwise on an ndarray."""
    if isinstance(base, np.ndarray):
        flat = map(pow, base.ravel().tolist(), itertools.repeat(exponent))
        return np.fromiter(flat, float, base.size).reshape(base.shape)
    return base**exponent


def _arc_array(p: float, q: float, t: np.ndarray, q_ln_t: np.ndarray, half_pi: float):
    """``_arc`` over a 1-d array of t, each element on its own branch; also
    returns y = -expm1(q_ln_t), which the upper half's slope reuses."""
    a, b = 1.0 / q, (p - 1.0) / p
    x = _each(math.exp, q_ln_t)
    y = -_each(math.expm1, q_ln_t)
    front = t * power(y, b)
    head = x < (a + 1.0) / (a + b + 2.0)
    part = np.empty_like(t)
    part[head] = incomplete_beta_array(a, b, x[head], front[head]) / q
    part[~head] = incomplete_beta_array(b, a, y[~head], front[~head]) / q
    rest = half_pi - part
    return np.where(head, part, rest), np.where(head, rest, part), y


@functools.lru_cache(maxsize=256)
def _pair_record(p: float, q: float, quad_tol: float) -> tuple:
    """What evaluations need per pair: pi_pq/2 and the ``_half`` records of
    the lower and the upper half of [0, pi_pq/2].

    pi_pq/2 = F(1) is integrated by tanh-sinh quadrature, independently of
    the incomplete Beta fraction that gives F below 1, in the reflected
    variable u = 1 - t, which puts the singularity at a zero lower endpoint.
    The cache is bounded so that memory stays flat over many pairs; a pair
    pushed out is recomputed to the same values.
    """
    inv_p = -1.0 / p

    def f(u: np.ndarray) -> np.ndarray:
        return np.power(-np.expm1(q * np.log1p(-u)), inv_p)

    # near p = 1 the integrand overflows; the quadrature's non-finite
    # check then raises a typed error, not a numpy warning
    with np.errstate(over="ignore"):
        half_pi = integrate_endpoint_singular(f, 0.0, 1.0, quad_tol).value
    return half_pi, _half(p, q, half_pi, False), _half(p, q, half_pi, True)


def pi_pq(pp: ParamPair, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """The generalized circle constant pi_pq = 2 F(1), cached per (p, q)."""
    return 2.0 * _pair_record(pp.p, pp.q, config.quad_tol)[0]


_Half = namedtuple("_Half", "table dtable f df f_array finish")


def _half(p: float, q: float, half_pi: float, upper: bool) -> _Half:
    """One half of [0, half_pi], solved in a variable w whose target rises
    from 0 to half_pi over [0, 1]: F(s) = r on the lower half, and on the upper
    the tail H(w**p_star) = half_pi - r, which straightens out F's infinite
    slope at s = 1 and keeps 1 - s, so the cosine, exact to the quarter period.
    The record holds the target and df on _GRID (tables that only seed solves),
    f and df at a float, f_array: (f, df) over a 1-d array from one kernel
    pass, with df's bits, and finish: (s, 1 - s) from a root."""
    if not upper:

        def f(s: float) -> float:
            return _arc(p, q, s, q * math.log(s), half_pi)[0]

        def df(s: float) -> float:
            base = 1.0 - s**q
            return math.inf if base <= 0.0 else base ** (-1.0 / p)

        def f_array(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            base, slope = 1.0 - power(s, q), np.full_like(s, math.inf)
            ok = base > 0.0
            slope[ok] = power(base[ok], -1.0 / p)
            return _arc_array(p, q, s, q * _each(math.log, s), half_pi)[0], slope

        def finish(s):
            return s, 1.0 - s

    else:
        pstar = p / (p - 1.0)

        def f(w: float) -> float:
            v = w**pstar
            return _arc(p, q, 1.0 - v, q * math.log1p(-v), half_pi)[1]

        def df(w: float) -> float:
            v = w**pstar
            base = 1.0 if v >= 1.0 else -math.expm1(q * math.log1p(-v))
            if base <= 0.0 or w <= 0.0:
                return math.inf
            return base ** (-1.0 / p) * pstar * w ** (pstar - 1.0)

        def f_array(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            v = power(w, pstar)  # < 1, or log1p(-v) raises: so y is df's base
            _, f, y = _arc_array(p, q, 1.0 - v, q * _each(math.log1p, -v), half_pi)
            ok, slope = (y > 0.0) & (w > 0.0), np.full_like(w, math.inf)
            slope[ok] = power(y[ok], -1.0 / p) * pstar * power(w[ok], pstar - 1.0)
            return f, slope

        def finish(w):
            v = power(w, pstar)
            return 1.0 - v, v

    table, dtable = (0.0, *map(f, _GRID[1:-1]), half_pi), tuple(map(df, _GRID))
    return _Half(table, dtable, f, df, f_array, finish)


def _evaluate(pp: ParamPair, x: float, config: EvalConfig) -> tuple[int, float, float, float]:
    """(quadrant, reduced_x, s, 1 - s): x folded into [0, pi_pq/2], and F(s) = reduced_x."""
    if isinstance(x, np.ndarray):
        return _evaluate_array(pp, x, config)
    x = x if type(x) is float else _real(x)
    # from 2**53 on, doubles lie >= 2 apart (up to half a period, pi_pq >= 2),
    # so no digit of a value would mean anything; nan and +-inf fail as well
    if not abs(x) < 2.0**53:
        raise DomainError(f"argument must satisfy |x| < 2**53, got {x!r}")
    half_pi, lower, upper = _pair_record(pp.p, pp.q, config.quad_tol)
    y = math.fmod(abs(x), 4.0 * half_pi)  # exact, so -x folds as x does
    quadrant = min(3, int(y / half_pi))
    # odd quadrants run down from the next quarter-period point, even ones up
    r = (quadrant + 1) * half_pi - y if quadrant % 2 else y - quadrant * half_pi
    r = min(max(r, 0.0), half_pi)
    if x < 0.0:  # the sine is odd: mirror the quadrant, keep r
        quadrant = 3 - quadrant
    # the upper half's target half_pi - r is exact, as r >= half_pi / 2
    half, target = (lower, r) if r <= 0.5 * half_pi else (upper, half_pi - r)
    table, dtable, f, df, _, finish = half
    tol = config.root_tol * min(1.0, target)
    if tol == 0.0:
        # the target is 0 at r = 0 and r = half_pi, where w = 0 is exact; else
        # EvalConfig keeps root_tol * 1e-16 > 0, so r < 1e-16 on the lower
        # half: there F(s) = s + s**(q+1)/(p(q+1)) + ... rounds to s
        w = target
    else:
        j = min(max(bisect.bisect_right(table, target) - 1, 0), len(_GRID) - 2)
        w = solve_increasing(
            f, _GRID[j], _GRID[j + 1], target, deriv=df, tol=tol,
            max_iter=config.max_iter, f_lo=table[j], f_hi=table[j + 1],
            df_lo=dtable[j], df_hi=dtable[j + 1],
        )
    s, one_minus_s = finish(w)
    return quadrant, r, s, one_minus_s


def _evaluate_array(pp: ParamPair, x: np.ndarray, config: EvalConfig) -> tuple:
    """``_evaluate`` over an ndarray, by the same steps, on its flattened copy."""
    shape, x = x.shape, _real_array(x).ravel()
    bad = ~(np.abs(x) < 2.0**53)
    if bad.any():
        raise DomainError(f"argument must satisfy |x| < 2**53, got {x[bad][0].item()!r}")
    half_pi, *halves = _pair_record(pp.p, pp.q, config.quad_tol)
    y = np.fmod(np.abs(x), 4.0 * half_pi)
    quadrant = np.minimum(3, (y / half_pi).astype(int))
    r = np.where(quadrant % 2 == 1, (quadrant + 1) * half_pi - y, y - quadrant * half_pi)
    r = np.minimum(np.maximum(r, 0.0), half_pi)
    quadrant = np.where(x < 0.0, 3 - quadrant, quadrant)
    lower = r <= 0.5 * half_pi
    target = np.where(lower, r, half_pi - r)
    tol = config.root_tol * np.minimum(1.0, target)
    s, one_minus_s = np.empty_like(r), np.empty_like(r)
    # each half in one array solve; a zero tol keeps w = target, as in _evaluate
    for half, m in zip(halves, (lower, ~lower)):
        w, live = target[m], tol[m] > 0.0
        if live.any():
            table, dtable, grid = (np.asarray(v) for v in (half.table, half.dtable, _GRID))
            j = np.clip(np.searchsorted(table, w[live], side="right") - 1, 0, len(_GRID) - 2)
            w[live] = _solve_increasing_array(
                half.f_array, grid[j], grid[j + 1], w[live], tol[m][live], config.max_iter,
                table[j], table[j + 1], dtable[j], dtable[j + 1],
            )
        s[m], one_minus_s[m] = half.finish(w)
    return tuple(v.reshape(shape) for v in (quadrant, r, s, one_minus_s))


_CLAMP_THRESHOLD = -1e-15


def fractional_power(base: float, exponent: float) -> float:
    """base**exponent for bases that are nonnegative up to rounding.

    Quadrant-boundary roundoff can push a mathematically vanishing cosine a
    few ulps negative; such bases clamp to zero.  Anything below the clamp
    threshold is a genuine domain violation and raises.
    """
    if isinstance(base, np.ndarray):
        low = base[base < _CLAMP_THRESHOLD]
        if low.size:
            raise DomainError(f"fractional power base {float(low[0])!r} below clamp threshold")
        return power(np.where(base < 0.0, 0.0, base), exponent)
    if base < 0.0:
        if base < _CLAMP_THRESHOLD:
            raise DomainError(
                f"fractional power base {base!r} below clamp threshold"
            )
        base = 0.0
    return base**exponent


def _signed_sin(quadrant: int, s: float) -> float:
    """The sine from |sin| = s: negative on quadrants 2 and 3, never -0.0."""
    if isinstance(s, np.ndarray):
        return np.where(quadrant < 2, s + 0.0, 0.0 - s)  # neither gives -0.0
    value = s if quadrant < 2 else -s
    return value if value != 0.0 else 0.0


def _signed_cos(pp: ParamPair, quadrant: int, s: float, one_minus_s: float) -> float:
    """The cosine from |sin| = s, its base 1 - s**q formed cancellation-free
    from 1 - s; positive on quadrants 0 and 3, and never -0.0."""
    if isinstance(s, np.ndarray):  # the scalar steps, under masks
        low = s <= 0.5  # s = 0 among them, where log1p(-1) would raise
        base = np.empty_like(s)
        base[low] = 1.0 - power(s[low], pp.q)
        base[~low] = -_each(math.expm1, pp.q * _each(math.log1p, -one_minus_s[~low]))
        magnitude = fractional_power(base, 1.0 / pp.p)
        return np.where((quadrant == 0) | (quadrant == 3), magnitude + 0.0, 0.0 - magnitude)
    if s <= 0.5:
        base = 1.0 - s**pp.q
    else:
        base = -math.expm1(pp.q * math.log1p(-one_minus_s))
    magnitude = fractional_power(base, 1.0 / pp.p)
    value = magnitude if quadrant in (0, 3) else -magnitude
    return value if value != 0.0 else 0.0


def sin_pq(pp: ParamPair, x: float, config: EvalConfig = DEFAULT_CONFIG) -> FunctionValue:
    """The generalized sine at a real x with |x| < 2**53."""
    quadrant, r, s, _ = _evaluate(pp, x, config)
    return FunctionValue(_signed_sin(quadrant, s), quadrant, r)


def cos_pq(pp: ParamPair, x: float, config: EvalConfig = DEFAULT_CONFIG) -> FunctionValue:
    """The generalized cosine, d/dx of the extended sine.

    The magnitude comes from |cos|**p = 1 - |sin|**q; the sign is that of the
    extended sine's slope: positive on quadrants 0 and 3, negative on 1 and 2.
    At the quarter period the value is +0.0.
    """
    quadrant, r, s, one_minus_s = _evaluate(pp, x, config)
    return FunctionValue(_signed_cos(pp, quadrant, s, one_minus_s), quadrant, r)


def sin_cos(
    pp: ParamPair, x: float, config: EvalConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Both function values from a single inversion (identity sweeps hit this)."""
    quadrant, _, s, one_minus_s = _evaluate(pp, x, config)
    return _signed_sin(quadrant, s), _signed_cos(pp, quadrant, s, one_minus_s)


def arcsin_pq(pp: ParamPair, s: float, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """F(s) for s in [0, 1]: the inverse of the sine on its principal branch."""
    if isinstance(s, np.ndarray):
        flat = _real_array(s, "s").ravel()
        if not ((flat >= 0.0) & (flat <= 1.0)).all():
            raise DomainError("arcsin_pq requires every s in [0, 1]")
        half_pi = _pair_record(pp.p, pp.q, config.quad_tol)[0]
        out = np.zeros(flat.size)
        nz, q = flat != 0.0, pp.q
        out[nz] = _arc_array(pp.p, q, flat[nz], q * _each(math.log, flat[nz]), half_pi)[0]
        return out.reshape(s.shape)
    s = s if type(s) is float else _real(s, "s")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"arcsin_pq requires s in [0, 1], got {s!r}")
    lower = _pair_record(pp.p, pp.q, config.quad_tol)[1]
    return lower.f(s) if s != 0.0 else 0.0


def ode_residual(
    pp: ParamPair, x: float, h: float = 1e-4, config: EvalConfig = DEFAULT_CONFIG
) -> float:
    """Pointwise residual of the p-Laplacian oscillator equation.

    With u = sin_pq and u' = cos_pq, the extended sine satisfies
    -(|u'|**(p-2) u')' = ((p-1) q / p) |u|**(q-2) u.  This returns the central
    difference approximation of (|u'|**(p-2) u')' plus the right-hand side;
    the result is O(h**2) on the interior of the first quarter period.

    x is a real scalar, not an array, at least 10 h away from 0 and pi_pq/2,
    where |u'|**(p-2) degenerates for p < 2 (and |u|**(q-2) for q < 2).
    """
    x, h = _real(x, "x"), _positive(h, "h")
    half_pi = 0.5 * pi_pq(pp, config)
    margin = 10.0 * h
    if not (margin < x < half_pi - margin):
        raise DomainError(f"x={x!r} outside safe interval ({margin!r}, {half_pi - margin!r})")
    p, q = pp.p, pp.q

    def flux(t: float) -> float:
        c = cos_pq(pp, t, config).value
        return abs(c) ** (p - 2.0) * c

    u = sin_pq(pp, x, config).value
    dflux = (flux(x + h) - flux(x - h)) / (2.0 * h)
    return dflux + (p - 1.0) * q / p * abs(u) ** (q - 2.0) * u
