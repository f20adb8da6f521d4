"""Numerical kernel: tanh-sinh quadrature, classical special functions (among
them the incomplete Beta function), and a safeguarded monotone root-finder.

The quadrature targets integrands with an integrable algebraic singularity at
an endpoint, which is exactly what the arc-length integrals of generalized
trigonometry produce.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    BracketError,
    DomainError,
    NonConvergenceError,
    NonFiniteIntegrandError,
)

__all__ = [
    "QuadratureResult",
    "integrate_endpoint_singular",
    "log_gamma",
    "beta",
    "incomplete_beta",
    "incomplete_beta_array",
    "agm",
    "solve_increasing",
]


# The argument rule of every entry point of gtrig: each check on a number is one of these.
def _real(value, name: str = "argument") -> float:
    """``value`` as a Python float if it is a Python or numpy int or float, not a bool."""
    if isinstance(value, (float, int, np.integer, np.floating)) and type(value) is not bool:
        try:
            return float(value)
        except OverflowError:
            raise DomainError(f"{name} must lie within the float range") from None
    raise DomainError(f"{name} must be a real number, got {value!r}")


def _real_array(values: np.ndarray, name: str = "argument") -> np.ndarray:
    """``values`` as float64 if its dtype kind is i, u or f (those of ``_real``)."""
    if values.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a real array, got dtype {values.dtype}")
    return np.asarray(values, dtype=float)


def _integer(value, name: str, least: int) -> int:
    """``value`` as a Python int if it is a Python or numpy int >= least, not a bool."""
    if type(value) is int and value >= least:  # the common case, in every scalar solve
        return value
    if isinstance(value, (int, np.integer)) and type(value) is not bool and value >= least:
        return int(value)
    raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _positive(value, name: str) -> float:
    """``value`` as a Python float if ``_real`` takes it and it is finite and > 0."""
    value = value if type(value) is float else _real(value, name)
    if 0.0 < value < math.inf:
        return value
    raise DomainError(f"{name} must be finite and > 0, got {value!r}")


_EPS = 2.0 ** -52

# tanh-sinh abscissas x_k = tanh((pi/2) sinh(k h)) reach the last subnormal
# offset 1 - |x| around |u| ~ 6.1; beyond that weights underflow to zero.
_U_MAX = 6.2
_MAX_LEVEL = 11


@functools.cache
def _nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets 1-|x_k| for k >= 1, weights) at one level; the k = 0 node is
    handled separately (offset exactly 1, weight pi/2)."""
    h = 2.0 ** (-level)
    u = np.arange(1, int(_U_MAX / h) + 1, dtype=float) * h
    s = 0.5 * math.pi * np.sinh(u)
    em = np.exp(-2.0 * s)
    # 1 - tanh(s) and the weight (pi/2) cosh(u) sech(s)^2, both written in
    # terms of exp(-2s) so offsets stay accurate down to the subnormal range.
    offsets = 2.0 * em / (1.0 + em)
    weights = 0.5 * math.pi * np.cosh(u) * 4.0 * em / (1.0 + em) ** 2
    keep = (offsets > 0.0) & (weights > 0.0)
    return offsets[keep], weights[keep]


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with an error estimate and the node count."""

    value: float
    error_estimate: float
    evaluations: int


def integrate_endpoint_singular(
    integrand: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    tol: float = 1e-13,
    *,
    max_evals: int = 2**20,
) -> QuadratureResult:
    """Integrate ``integrand`` over ``(lower, upper)`` by tanh-sinh quadrature.

    The double-exponential substitution clusters nodes toward the endpoints so
    integrable algebraic singularities such as ``(1 - t)**(-a)`` with a < 1
    need no special casing.  Nodes are generated strictly inside the interval;
    the integrand is never called at an endpoint.  ``integrand`` must accept a
    float ndarray and evaluate elementwise.

    Floating-point abscissas near a nonzero endpoint cannot come closer than
    one ulp, so an integrand singular there should be rewritten with the
    singularity at a zero lower endpoint (substitute u = upper - t) where the
    node offsets resolve down to subnormals.

    Levels double the node density until the error estimate drops below
    ``tol``.  Each level about squares the relative error of a
    double-exponentially convergent rule, so both the last successive-level
    difference d1 and the square of the difference d2 across the last two
    levels (over the scale of the result) estimate the error of the level
    before.  The estimate is the larger of the two, so that two levels
    which agree by accident do not end the refinement early.

    Raises NonConvergenceError if the estimate never reaches ``tol`` within
    ``max_evals`` integrand evaluations, and NonFiniteIntegrandError if the
    integrand returns NaN or infinity at an interior node.
    """
    lower, upper, tol = _real(lower, "lower"), _real(upper, "upper"), _positive(tol, "tol")
    max_evals = _integer(max_evals, "max_evals", 1)
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
        raise DomainError(f"need finite lower < upper, got [{lower}, {upper}]")

    half = 0.5 * (upper - lower)
    mid = lower + half
    evaluations = 0
    results: list[float] = []
    err = math.inf

    for level in range(_MAX_LEVEL + 1):
        h = 2.0 ** (-level)
        offsets, weights = _nodes(level)
        # offsets descend with k, so the upper-side abscissas ascend toward
        # `upper` and the lower-side ones descend toward `lower`; nodes that
        # round onto an endpoint form a suffix and are sliced away.
        t_hi = upper - half * offsets
        t_lo = lower + half * offsets
        n_hi = int(np.searchsorted(t_hi, upper, side="left"))
        n_lo = int(np.searchsorted(-t_lo, -lower, side="left"))
        t = np.concatenate(([mid], t_hi[:n_hi], t_lo[:n_lo]))
        w = np.concatenate(([0.5 * math.pi], weights[:n_hi], weights[:n_lo]))

        if evaluations + t.size > max_evals:
            raise NonConvergenceError(
                f"evaluation cap {max_evals} reached with error estimate {err:.3e}"
            )
        values = np.asarray(integrand(t), dtype=float)
        evaluations += t.size
        total = float(np.dot(w, values))
        if not math.isfinite(total):
            bad_mask = ~np.isfinite(values)
            if bad_mask.any():
                raise NonFiniteIntegrandError(
                    f"integrand not finite at t={t[bad_mask][0]!r}"
                )
            raise NonFiniteIntegrandError("weighted sum overflowed")

        results.append(half * h * total)
        if level < 2:
            continue
        d1 = abs(results[-1] - results[-2])
        d2 = abs(results[-1] - results[-3])
        scale = max(1.0, abs(results[-1]))
        if d1 == 0.0 and d2 > 1e3 * _EPS * scale:
            # spurious plateau: two levels agree while the one before differs
            continue
        err = max(d1, d2 * d2 / scale, 0.5 * _EPS * scale)
        if err <= tol:
            return QuadratureResult(results[-1], err, evaluations)

    raise NonConvergenceError(
        f"no convergence to tol={tol:.3e} (last estimate {err:.3e}, "
        f"{evaluations} evaluations)"
    )


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Delegates to the platform ``lgamma`` (a standard rational approximation
    accurate to well under 1e-13 relative over (0, 170]).  Past about 2.6e305
    the value exceeds the float range and DomainError is raised.
    """
    x = _positive(x, "x")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"log_gamma(x) overflows for x={x!r}") from None


# Stirling's series: lgamma(x) - (x - 1/2) log x + x - log(2 pi)/2 is the sum of
# these over x**(2k + 1), k >= 0; from x = 10 on, the first term left out is < 3e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def beta(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0.

    Once the larger argument a is 10 or more, lgamma(a) - lgamma(a + b),
    which cancels, is formed as the difference of Stirling's series,
    -(a - 1/2) log1p(b/a) - b log(a + b) + b plus the two series tails.
    """
    a, b = _positive(a, "a"), _positive(b, "b")
    a, b = max(a, b), min(a, b)
    if a < 10.0:
        return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
    head = log_gamma(b) - (a - 0.5) * math.log1p(b / a) - b * math.log(a + b) + b
    return math.exp(head + _stirling_tail(a) - _stirling_tail(a + b))


def _stirling_tail(x: float) -> float:
    z, total = 1.0 / (x * x), 0.0
    for c in reversed(_STIRLING):
        total = total * z + c
    return total / x


_TINY = 1e-300
_CF_MAX_STEPS = 300


def incomplete_beta(a: float, b: float, x: float, front: float) -> float:
    """Unregularized incomplete Beta B_x(a, b), the integral of
    t**(a-1) (1-t)**(b-1) over [0, x].

    Evaluated as ``front / a`` times the continued fraction of Numerical
    Recipes section 6.4, summed by the modified Lentz method.  ``front`` is
    x**a (1 - x)**b, passed in so that a caller knowing it in an exact form
    can keep it exact where x itself has underflowed (for x = s**q and
    a = 1/q, x**a is s).  The fraction converges quickly only for
    0 <= x < (a + 1)/(a + b + 2); above that, callers use the symmetry
    B_x(a, b) = B(a, b) - B_{1-x}(b, a).
    """
    ab, a1 = a + b, a + 1.0
    c = 1.0
    d = 1.0 - ab * x / a1
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        m2 = 2 * m
        # one step takes the even coefficient d_{2m}, then the odd d_{2m+1}
        for coef in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (ab + m) * x / ((a + m2) * (a1 + m2)),
        ):
            d = 1.0 + coef * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + coef / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            return front * h / a
    raise NonConvergenceError(
        f"incomplete Beta fraction did not converge for a={a!r}, b={b!r}, x={x!r}"
    )


def incomplete_beta_array(a: float, b: float, x: np.ndarray, front: np.ndarray) -> np.ndarray:
    """``incomplete_beta`` over 1-d arrays of x and front in lockstep: each
    element runs the scalar recurrence, guards and stop test, and leaves the
    loop at the step where it would, so its result is the scalar one's bits."""
    out = np.empty_like(x)
    if not x.size:
        return out
    ab, a1 = a + b, a + 1.0
    live = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - ab * x / a1
    d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        m2 = 2 * m
        for coef in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (ab + m) * x / ((a + m2) * (a1 + m2)),
        ):
            d = 1.0 + coef * d
            d = np.where(np.abs(d) < _TINY, _TINY, d)
            c = 1.0 + coef / c
            c = np.where(np.abs(c) < _TINY, _TINY, c)
            d = 1.0 / d
            delta = d * c
            h = h * delta
        done = np.abs(delta - 1.0) <= _EPS
        if done.any():
            out[live[done]] = front[done] * h[done] / a
            live, x, front, c, d, h = (v[~done] for v in (live, x, front, c, d, h))
        if not live.size:
            return out
    raise NonConvergenceError(
        f"incomplete Beta fraction did not converge for a={a!r}, b={b!r}, "
        f"x={float(x[0])!r}"
    )


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of a, b > 0.

    The iteration (a, b) -> ((a+b)/2, sqrt(ab)) converges quadratically; it is
    stopped once the two means agree to a few ulps.
    """
    a, b = _positive(a, "a"), _positive(b, "b")
    for _ in range(64):
        if abs(a - b) <= 2.0 * _EPS * max(a, b):
            break
        a, b = _mean(a, b), math.sqrt(a) * math.sqrt(b)  # a * b may overflow
    return _mean(a, b)


def _mean(a: float, b: float) -> float:
    """(a + b) / 2, halved term by term only where the sum overflows, since
    halving first would lose the last bit of a subnormal."""
    total = a + b
    return 0.5 * total if total < math.inf else 0.5 * a + 0.5 * b


def solve_increasing(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    deriv: Optional[Callable[[float], float]] = None,
    tol: float = 1e-13,
    max_iter: int = 100,
    *,
    f_lo: Optional[float] = None,
    f_hi: Optional[float] = None,
    df_lo: float = math.nan,
    df_hi: float = math.nan,
) -> float:
    """Solve f(s) = target for a strictly increasing f on [lo, hi].

    Hybrid iteration: an opening point, then a Newton step from the latest
    point whenever ``deriv`` is supplied and the step stays inside the
    current bracket, bisection otherwise.  Convergence is judged on the
    residual |f(s) - target| <= tol rather than on step size, because the
    inverse problem of interest has an unbounded derivative at one end where
    steps stall long before the residual does.  Once it passes at x, the
    closing Newton step from x is returned if it lies strictly inside the
    bracket, else x; it calls deriv, not f, and takes the error to roundoff.

    ``f_lo`` / ``f_hi`` accept already-computed endpoint values so callers
    holding tabulated brackets do not pay two extra evaluations.  With the
    slopes ``df_lo`` / ``df_hi`` there (finite and > 0) the opening point is
    the cubic Hermite interpolant of the inverse of f at target; else, or if
    it is not strictly inside [lo, hi], the false-position point.

    If the bracket collapses to adjacent floats before the residual test is
    met (possible when f moves by more than ``tol`` between neighbouring
    representable points), the endpoint with the smaller residual is
    returned: no representable argument does better.
    """
    tol, max_iter = _positive(tol, "tol"), _integer(max_iter, "max_iter", 1)
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")

    flo = (f(lo) if f_lo is None else f_lo) - target
    if abs(flo) <= tol:
        return lo
    fhi = (f(hi) if f_hi is None else f_hi) - target
    if abs(fhi) <= tol:
        return hi
    if flo > 0.0 or fhi < 0.0:
        raise BracketError(
            f"target {target!r} outside [f(lo), f(hi)] = [{flo + target!r}, {fhi + target!r}]"
        )

    a, fa = lo, flo
    b, fb = hi, fhi
    x = math.nan
    if 0.0 < df_lo < math.inf and 0.0 < df_hi < math.inf:
        x = _hermite_inverse(a, b, fa, fb, df_lo, df_hi)
    if not (a < x < b):
        x = a - fa * (b - a) / (fb - fa)
        if not (a < x < b):
            x = a + 0.5 * (b - a)
    fx = f(x) - target
    for _ in range(max_iter):
        if fx < 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        step_x = math.nan
        if deriv is not None:
            d = deriv(x)
            if math.isfinite(d) and d > 0.0:
                step_x = x - fx / d
        if abs(fx) <= tol:
            return step_x if a < step_x < b else x
        if not (a < step_x < b):
            step_x = a + 0.5 * (b - a)
            if not (a < step_x < b):
                # bracket is down to adjacent floats
                return a if abs(fa) <= abs(fb) else b
        x = step_x
        fx = f(x) - target
    raise NonConvergenceError(
        f"no residual <= {tol:.3e} within {max_iter} iterations "
        f"(bracket [{a!r}, {b!r}])"
    )


def _solve_increasing_array(f, lo, hi, target, tol, max_iter, f_lo, f_hi, df_lo, df_hi):
    """``solve_increasing`` for each element of 1-d arrays of brackets, targets,
    tols, end values and end slopes at once.  ``f`` maps an array x to the pair
    (f(x), deriv(x)): the scalar solve asks for deriv at each point right after
    f, so one pass serves both.  Each element takes the steps of its own scalar
    solve and leaves as it stops, so every root equals the scalar one bit for
    bit when f and deriv give the scalar functions' bits."""
    flo, fhi = f_lo - target, f_hi - target
    out = np.where(np.abs(flo) <= tol, lo, hi)
    live = np.flatnonzero((np.abs(flo) > tol) & (np.abs(fhi) > tol))
    kept = (lo, flo, hi, fhi, df_lo, df_hi, target, tol)
    a, fa, b, fb, da, db, target, tol = (v[live] for v in kept)
    if ((fa > 0.0) | (fb < 0.0)).any():
        raise BracketError(f"targets outside [f(lo), f(hi)], first {target[0]!r}")
    with np.errstate(divide="ignore", invalid="ignore"):  # slopes of 0 or nan are masked next
        x = _hermite_inverse(a, b, fa, fb, da, db)
    sloped = (0.0 < da) & (da < np.inf) & (0.0 < db) & (db < np.inf)
    x = np.where(sloped & (a < x) & (x < b), x, a - fa * (b - a) / (fb - fa))
    x = np.where((a < x) & (x < b), x, a + 0.5 * (b - a))
    for _ in range(max_iter):
        fx, d = f(x)
        fx = fx - target
        stop = np.abs(fx) <= tol
        lower = fx < 0.0
        a, fa = np.where(lower, x, a), np.where(lower, fx, fa)
        b, fb = np.where(lower, b, x), np.where(lower, fb, fx)
        newton = np.isfinite(d) & (d > 0.0)
        step = x - fx / np.where(newton, d, 1.0)
        inside = newton & (a < step) & (step < b)
        out[live[stop]] = np.where(inside, step, x)[stop]  # the closing step
        step = np.where(inside, step, a + 0.5 * (b - a))
        # a bracket down to adjacent floats ends at its smaller residual
        adjacent = ~stop & ~((a < step) & (step < b))
        out[live[adjacent]] = np.where(np.abs(fa) <= np.abs(fb), a, b)[adjacent]
        keep = ~(stop | adjacent)
        kept = (live, step, a, fa, b, fb, target, tol)
        live, x, a, fa, b, fb, target, tol = (v[keep] for v in kept)
        if not live.size:
            return out
    raise NonConvergenceError(f"{live.size} roots not within tol after {max_iter} iterations")


def _hermite_inverse(a, b, fa, fb, df_a, df_b):
    """Cubic Hermite interpolant at the target of the inverse of an increasing
    f, from residuals fa < 0 < fb and slopes df_a, df_b at a < b.  Only + - * /
    in one fixed order, so Python floats and float64 arrays give the same bits."""
    h = fb - fa
    t = -fa / h
    u = 1.0 - t
    return a + (b - a) * t * t * (3.0 - 2.0 * t) + h * t * u * (u / df_a - t / df_b)
