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
(1/q) B_{x**q}(1/q, 1 - 1/p), which the inversion evaluates by continued
fraction; pi_pq alone is integrated by quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import incomplete_beta, integrate_endpoint_singular, solve_increasing

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
        for name, value in (("p", self.p), ("q", self.q)):
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise DomainError(f"{name} must be a finite real, got {value!r}")
            if not (_P_MIN < value <= _P_MAX):
                raise DomainError(
                    f"{name} must exceed 1 (and be at most {_P_MAX:g}), got {value!r}"
                )

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
    """Tolerances and caps governing all numerics."""

    quad_tol: float = 1e-13
    root_tol: float = 1e-13
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not (self.quad_tol > 0 and self.root_tol > 0):
            raise DomainError("all tolerances must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")


DEFAULT_CONFIG = EvalConfig()


@dataclass(frozen=True)
class FunctionValue:
    """A sine/cosine value plus where its argument landed after reduction.

    ``quadrant`` counts quarter-periods within one full period (boundary
    points belong to the quadrant on their right, i.e. quadrants are closed on
    the left), and ``reduced_x`` is the argument folded into [0, pi_pq/2].
    """

    value: float
    quadrant: int
    reduced_x: float

    def __float__(self) -> float:
        return self.value


_TABLE_SIZE = 33


def _arc_integral(p: float, q: float, s: float, half_pi: float) -> float:
    """F(s) = (1/q) B_x(1/q, 1 - 1/p) with x = s**q, for s in [0, 1].

    s**q is never raised to 1/q again: the front factor x**(1/q) of the
    incomplete Beta fraction is s itself, so F stays right where s**q
    underflows.  Above the fraction's convergence threshold the symmetric
    form subtracts from ``half_pi`` = F(1), with 1 - s**q formed as
    -expm1(q log s).
    """
    if s <= 0.0:
        return 0.0
    a, b = 1.0 / q, (p - 1.0) / p
    q_ln_s = q * math.log(s)
    x = math.exp(q_ln_s)
    if x < (a + 1.0) / (a + b + 2.0):
        return incomplete_beta(a, b, x, s * math.exp(b * math.log1p(-x))) / q
    y = -math.expm1(q_ln_s)
    return half_pi - incomplete_beta(b, a, y, y**b * s) / q


def _arc_tail(p: float, q: float, v: float, half_pi: float) -> float:
    """F(1) - F(1 - v) = (1/q) B_y(1 - 1/p, 1/q) with y = 1 - (1 - v)**q.

    y is formed as -expm1(q log1p(-v)), without cancellation, and
    ((1 - v)**q)**(1/q) is 1 - v itself, as in ``_arc_integral``.
    """
    if v <= 0.0:
        return 0.0
    if v >= 1.0:
        return half_pi
    a, b = 1.0 / q, (p - 1.0) / p
    q_ln_u = q * math.log1p(-v)
    y = -math.expm1(q_ln_u)
    if y < (b + 1.0) / (a + b + 2.0):
        return incomplete_beta(b, a, y, y**b * (1.0 - v)) / q
    return half_pi - incomplete_beta(a, b, math.exp(q_ln_u), (1.0 - v) * y**b) / q


@functools.lru_cache(maxsize=256)
def _pair_record(
    p: float, q: float, quad_tol: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """What evaluations need per pair: (pi_pq/2, grid, f_grid, h_grid).

    pi_pq/2 = F(1) is integrated by tanh-sinh quadrature, independently of
    the incomplete Beta fraction that gives F below 1, in the reflected
    variable u = 1 - t, which puts the singularity at a zero lower endpoint.
    f_grid holds F at the grid nodes and h_grid the tail at v = node**p_star:
    coarse monotone tables that only seed tight root brackets (the solves stay
    exact to tolerance).  The cache is bounded so that memory stays flat over
    many pairs; a pair pushed out is recomputed to the same values.
    """
    inv_p = -1.0 / p

    def f(u: np.ndarray) -> np.ndarray:
        return np.power(-np.expm1(q * np.log1p(-u)), inv_p)

    # near p = 1 the integrand overflows; the quadrature's non-finite
    # check then raises a typed error, not a numpy warning
    with np.errstate(over="ignore"):
        half_pi = integrate_endpoint_singular(f, 0.0, 1.0, quad_tol).value
    pstar = p / (p - 1.0)
    grid = np.linspace(0.0, 1.0, _TABLE_SIZE)
    f_grid = np.array([_arc_integral(p, q, s, half_pi) for s in grid])
    h_grid = np.array([_arc_tail(p, q, w**pstar, half_pi) for w in grid])
    return half_pi, grid, f_grid, h_grid


def pi_pq(pp: ParamPair, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """The generalized circle constant pi_pq = 2 F(1), cached per (p, q)."""
    return 2.0 * _pair_record(pp.p, pp.q, config.quad_tol)[0]


def _bracket(
    grid: np.ndarray, values: np.ndarray, target: float
) -> tuple[float, float, float, float]:
    """Table cell [grid[j], grid[j+1]] whose stored values bracket target."""
    j = int(np.searchsorted(values, target, side="right")) - 1
    j = min(max(j, 0), grid.size - 2)
    return float(grid[j]), float(grid[j + 1]), float(values[j]), float(values[j + 1])


def _solve_reduced(
    pp: ParamPair, r: float, record: tuple, config: EvalConfig
) -> tuple[float, float]:
    """Invert F on the reduced interval: return (s, 1 - s) with F(s) = r.

    The complement 1 - s is solved for directly when r lies in the upper half
    of [0, half_pi], in the variable v = w**p_star that straightens out the
    infinite derivative of F at s = 1; this keeps full precision in the
    cosine magnitude (1 - s**q)**(1/p) arbitrarily close to the quarter
    period.  Residual tolerances scale with the target so small values keep
    relative accuracy.
    """
    p, q = pp.p, pp.q
    half_pi, grid, f_grid, h_grid = record
    if r <= 0.0:
        return 0.0, 1.0
    if r >= half_pi:
        return 1.0, 0.0

    if r <= 0.5 * half_pi:
        tol = config.root_tol * min(1.0, r)

        def f(s: float) -> float:
            return _arc_integral(p, q, s, half_pi)

        def df(s: float) -> float:
            base = 1.0 - s**q
            return math.inf if base <= 0.0 else base ** (-1.0 / p)

        lo, hi, v_lo, v_hi = _bracket(grid, f_grid, r)
        s = solve_increasing(
            f, lo, hi, r, deriv=df, tol=tol, max_iter=config.max_iter,
            f_lo=v_lo, f_hi=v_hi,
        )
        return s, 1.0 - s

    # complementary solve: H(w**p_star) = half_pi - r (exact subtraction here
    # since r >= half_pi / 2)
    delta = half_pi - r
    pstar = pp.p_star
    tol = config.root_tol * min(1.0, delta)

    def fw(w: float) -> float:
        return _arc_tail(p, q, w**pstar, half_pi)

    def dfw(w: float) -> float:
        v = w**pstar
        base = 1.0 if v >= 1.0 else -math.expm1(q * math.log1p(-v))
        if base <= 0.0 or w <= 0.0:
            return math.inf
        return base ** (-1.0 / p) * pstar * w ** (pstar - 1.0)

    lo, hi, v_lo, v_hi = _bracket(grid, h_grid, delta)
    w = solve_increasing(
        fw, lo, hi, delta, deriv=dfw, tol=tol, max_iter=config.max_iter,
        f_lo=v_lo, f_hi=v_hi,
    )
    v = w**pstar
    return 1.0 - v, v


def _evaluate(pp: ParamPair, x: float, config: EvalConfig) -> tuple[int, float, float, float]:
    """(quadrant, reduced_x, s, 1 - s): x folded into [0, pi_pq/2], and F(s) = reduced_x."""
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    record = _pair_record(pp.p, pp.q, config.quad_tol)
    half_pi = record[0]
    period = 4.0 * half_pi
    y = math.fmod(x, period)
    if y < 0.0:
        y += period
    if y >= period:  # rounding of the addition above
        y = 0.0
    quadrant = min(3, int(y / half_pi))
    if quadrant == 0:
        r = y
    elif quadrant == 1:
        r = 2.0 * half_pi - y
    elif quadrant == 2:
        r = y - 2.0 * half_pi
    else:
        r = 4.0 * half_pi - y
    r = min(max(r, 0.0), half_pi)
    s, one_minus_s = _solve_reduced(pp, r, record, config)
    return quadrant, r, s, one_minus_s


_CLAMP_THRESHOLD = -1e-15


def fractional_power(base: float, exponent: float) -> float:
    """base**exponent for bases that are nonnegative up to rounding.

    Quadrant-boundary roundoff can push a mathematically vanishing cosine a
    few ulps negative; such bases clamp to zero.  Anything below the clamp
    threshold is a genuine domain violation and raises.
    """
    if base < 0.0:
        if base < _CLAMP_THRESHOLD:
            raise DomainError(
                f"fractional power base {base!r} below clamp threshold"
            )
        base = 0.0
    return base**exponent


def _signed_sin(quadrant: int, s: float) -> float:
    """The sine from |sin| = s: negative on quadrants 2 and 3, never -0.0."""
    value = s if quadrant < 2 else -s
    return value if value != 0.0 else 0.0


def _signed_cos(pp: ParamPair, quadrant: int, s: float, one_minus_s: float) -> float:
    """The cosine from |sin| = s, its base 1 - s**q formed cancellation-free
    from 1 - s; positive on quadrants 0 and 3, and never -0.0."""
    if s <= 0.5:
        base = 1.0 - s**pp.q
    else:
        base = -math.expm1(pp.q * math.log1p(-one_minus_s))
    magnitude = fractional_power(base, 1.0 / pp.p)
    value = magnitude if quadrant in (0, 3) else -magnitude
    return value if value != 0.0 else 0.0


def sin_pq(pp: ParamPair, x: float, config: EvalConfig = DEFAULT_CONFIG) -> FunctionValue:
    """The generalized sine at any real x."""
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
    if not (isinstance(s, (int, float)) and math.isfinite(s) and 0.0 <= s <= 1.0):
        raise DomainError(f"arcsin_pq requires s in [0, 1], got {s!r}")
    half_pi = 0.5 * pi_pq(pp, config)
    if s == 1.0:
        return half_pi
    return _arc_integral(pp.p, pp.q, float(s), half_pi)


def ode_residual(
    pp: ParamPair, x: float, h: float = 1e-4, config: EvalConfig = DEFAULT_CONFIG
) -> float:
    """Pointwise residual of the p-Laplacian oscillator equation.

    With u = sin_pq and u' = cos_pq, the extended sine satisfies
    -(|u'|**(p-2) u')' = ((p-1) q / p) |u|**(q-2) u.  This returns the central
    difference approximation of (|u'|**(p-2) u')' plus the right-hand side;
    the result is O(h**2) on the interior of the first quarter period.

    The argument must stay at least 10 h away from 0 and pi_pq/2, where
    |u'|**(p-2) degenerates for p < 2 (and |u|**(q-2) for q < 2).
    """
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"h must be positive, got {h!r}")
    half_pi = 0.5 * pi_pq(pp, config)
    margin = 10.0 * h
    if not (margin < x < half_pi - margin):
        raise DomainError(
            f"x={x!r} outside safe interval ({margin!r}, {half_pi - margin!r})"
        )
    p, q = pp.p, pp.q

    def flux(t: float) -> float:
        c = cos_pq(pp, t, config).value
        return abs(c) ** (p - 2.0) * c

    u = sin_pq(pp, x, config).value
    dflux = (flux(x + h) - flux(x - h)) / (2.0 * h)
    return dflux + (p - 1.0) * q / p * abs(u) ** (q - 2.0) * u
