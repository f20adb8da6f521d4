"""Catalog of the function identities and a sweep-based verification engine.

Every entry is one ``sides`` evaluator plus the x-interval on which the
identity is claimed.  ``sides(x)`` computes each sin_cos/sin_pq value it
needs once and returns every side of the entry as a tuple; the entry's
``comparisons`` name the index pairs of that tuple that must agree (one pair,
or a chain), so a sweep can report the maximum absolute deviation at one
evaluation of each function value per point: 1 inversion for pythagorean,
0 for duality-pi, 3 for lemniscate-add and 2 for every other entry.  A sweep
passes ``sides`` the ndarray of all points of an instance at once, and gets
arrays with the same bits as calls at each point would give.  On arrays an
evaluator makes one array call per pair: where it needs one pair at several
arguments, it inverts their stack at once.
The vocabulary of identity ids is stable public API:

========================  =====================================================
id                        statement (s, c are sin/cos for the pair in question)
========================  =====================================================
pythagorean               |c|**p + |s|**q = 1 on all of R (any pair)
dbl-2-2                   sin 2x = 2 s c                                  (2,2)
dbl-2-4                   sin 2x = 2 s c / (1 + s**4)                     (2,4)
dbl-3:2-3                 sin 2x = s (1 + c**(3/2)) / (c**(1/2) (1+s**3)) (3/2,3)
dbl-4:3-4                 sin 2x = 2 s c**(1/3) / sqrt(1 + 4 s**4 c**(4/3)) (4/3,4)
dbl-2-3                   sin 2x = 4 s c (3+c)**3 / ((1+c)(8+s**3)**2)    (2,3)
dbl-4:3-2                 sin 2x = 4 s c**(1/3)(1+c**(4/3)) / (2c**(2/3)+s**2)**2 (4/3,2)
maf-sin                   sin_{2,p}(2**(2/p) x) = 2**(2/p) s c**(p*-1)  (pair (p*,p))
maf-cos                   cos_{2,p}(2**(2/p) x) = c**p* - s**p = 1 - 2 s**p
                          = 2 c**p* - 1 (chained, three comparisons)
half-sin                  s = ((1 - cos_{2,p}(2**(2/p) x)) / 2)**(1/p)
half-cos                  c = ((1 + cos_{2,p}(2**(2/p) x)) / 2)**(1/p*)
duality-pi                q pi_{p,q} = p* pi_{q*,p*}
duality-sin               sin_{p,q}(pi_{p,q} x / 2) = cos_{q*,p*}^{q*-1}(pi_{q*,p*}(1-x)/2)
lemniscate-add            two-argument addition formula of the (2,4) sine
proof-xtoy                sin_{2,3}(2**(2/3) 2y) = 2**(2/3) sin_{3/2,3}(2y) cos_{3/2,3}^{1/2}(2y)
proof-sin2x               sin_{4/3,2} 2x = sqrt(1 - sin_{2,4}^4(pi_{2,4}/2 - x))
proof-f2x                 f(2x) = 2 g(x) / (1 + g(x)**2), f = sin_{4/3,2}, g = sin_{2,4}
proof-gx                  g(x) = 2 g(x/2) sqrt(1 - g(x/2)**4) / (1 + g(x/2)**4)
proof-sum-diff            1/g**2 + g**2 = 4/f(2x)**2 - 2  and
                          1/g**2 - g**2 = (4/f(2x)) sqrt(1/f(2x)**2 - 1)
========================  =====================================================

Parameterized entries (maf-*, half-*, duality-*, pythagorean) are verified
over the configurable panels below.  The dbl-* and maf-*/half-* entries are
rows of ``_DOUBLE_ANGLES`` and ``_MULTIPLE_ANGLES``, one builder per table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, UnknownIdentityError
from .functions import (
    DEFAULT_CONFIG, EvalConfig, ParamPair, _each, _evaluate, _signed_cos, _signed_sin,
    fractional_power, pi_pq, power, sin_cos, sin_pq,
)
from .numerics import _integer, _positive, _real

__all__ = [
    "IdentitySpec",
    "IdentityReport",
    "P_PANEL",
    "PQ_PANEL",
    "identity_ids",
    "identity_specs",
    "eval_identity",
    "verify",
    "dbl_angle_2_3",
    "dbl_angle_43_2",
]

# Verification panels for the parameter-indexed identities (configuration,
# not baked into the catalog functions).
P_PANEL: tuple[float, ...] = (1.5, 2.0, 3.0, 4.0, 7.5)
PQ_PANEL: tuple[tuple[float, float], ...] = (
    (2.0, 3.0),
    (3.0, 2.0),
    (4.0 / 3.0, 2.0),
    (2.0, 4.0),
    (1.5, 3.0),
    (4.0 / 3.0, 4.0),
    (5.0, 5.0),
)

_TWO_ARG_GRID = 32  # per-axis uniform grid for two-argument identities


@dataclass(frozen=True)
class IdentitySpec:
    """One catalog entry: an id, fixed parameters, a validity interval, one
    evaluator ``sides(*args)`` that returns every side of the entry at a
    point (or, given arrays, at each of their points), and the index pairs
    of those sides to compare (more than one pair for chained equalities)."""

    identity_id: str
    params: Optional[ParamPair]
    domain: tuple[float, float]
    sides: Callable[..., tuple[float, ...]]
    comparisons: tuple[tuple[int, int], ...] = ((0, 1),)
    arity: int = 1
    closed_lo: bool = True
    closed_hi: bool = True
    inset: float = 1e-12  # relative inset applied at any open endpoint


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of sweeping one identity over its domain."""

    identity_id: str
    samples: int
    max_abs_err: float
    argmax_x: float
    tol: float
    passed: bool
    elapsed: float
    argmax_y: Optional[float] = None
    rel_err: Optional[float] = None  # informational, when |lhs| > 1e-3 at argmax
    note: Optional[str] = None


def dbl_angle_2_3(
    x: float, config: EvalConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Both sides of the (2,3) double-angle formula on [0, pi_{2,3}/2].

    sin 2x = 4 s c (3 + c)**3 / ((1 + c)(8 + s**3)**2).  The denominator is
    bounded below by 64 on the domain, so there is nothing singular to dodge.
    """
    return eval_identity("dbl-2-3", x, config=config)


def dbl_angle_43_2(
    x: float, config: EvalConfig = DEFAULT_CONFIG
) -> tuple[float, float]:
    """Both sides of the (4/3,2) double-angle formula on [0, pi_{4/3,2}/2].

    sin 2x = 4 s c**(1/3) (1 + c**(4/3)) / (2 c**(2/3) + s**2)**2.  At the
    right endpoint c = 0 and s = 1, so the quotient is 0/1 and matches the
    vanishing left side.
    """
    return eval_identity("dbl-4:3-2", x, config=config)


# --------------------------------------------------------------------------
# catalog builders
#
# Each ``sides`` evaluator computes every function value it needs once, and
# calls sin_cos, sin_pq and pi_pq through this module's globals at call time,
# so that rebinding those names (as a tracer does) reaches every sweep.

# the fixed pairs of lemniscate-add and the proof-* entries
_PP23, _PP24, _PP432 = ParamPair(2.0, 3.0), ParamPair(2.0, 4.0), ParamPair(4.0 / 3.0, 2.0)


# id -> ((p, q), domain from pi_pq, right side from s, c = sin_cos(x)); the
# left side is always sin_pq(2x).
_DOUBLE_ANGLES: dict[str, tuple[tuple[float, float], Callable, Callable]] = {
    "dbl-2-2": ((2.0, 2.0), lambda pi: (-10.0, 10.0), lambda s, c: 2.0 * s * c),
    "dbl-2-4": (
        (2.0, 4.0),
        lambda pi: (-2.0 * pi, 2.0 * pi),
        lambda s, c: 2.0 * s * c / (1.0 + power(s, 4)),
    ),
    "dbl-3:2-3": (
        (1.5, 3.0),
        lambda pi: (0.0, 0.25 * pi),
        lambda s, c: (
            s
            * (1.0 + fractional_power(c, 1.5))
            / (fractional_power(c, 0.5) * (1.0 + power(s, 3)))
        ),
    ),
    "dbl-4:3-4": (
        (4.0 / 3.0, 4.0),
        lambda pi: (0.0, 0.25 * pi),
        lambda s, c: (
            2.0
            * s
            * fractional_power(c, 1.0 / 3.0)
            / np.sqrt(1.0 + 4.0 * power(s, 4) * fractional_power(c, 4.0 / 3.0))
        ),
    ),
    "dbl-2-3": (
        (2.0, 3.0),
        lambda pi: (0.0, 0.5 * pi),
        lambda s, c: 4.0 * s * c * power(3.0 + c, 3) / ((1.0 + c) * power(8.0 + power(s, 3), 2)),
    ),
    "dbl-4:3-2": (
        (4.0 / 3.0, 2.0),
        lambda pi: (0.0, 0.5 * pi),
        lambda s, c: (
            4.0
            * s
            * fractional_power(c, 1.0 / 3.0)
            * (1.0 + fractional_power(c, 4.0 / 3.0))
            / power(2.0 * fractional_power(c, 2.0 / 3.0) + power(s, 2), 2)
        ),
    ),
}


def _sin_cos_at(pp: ParamPair, config: EvalConfig, xs: tuple, reads: tuple) -> tuple[tuple, ...]:
    """sin_cos(pp, x) for each of xs, the cosine None where its flag in ``reads``
    is false: one inversion of their stack if they are arrays (a call costs
    ~600 us), else a sin_cos or sin_pq call each, with the bits of either."""
    if not isinstance(xs[0], np.ndarray):
        return tuple(sin_cos(pp, x, config) if read else (sin_pq(pp, x, config).value, None)
                     for x, read in zip(xs, reads))
    quadrant, _, s, one_minus_s = _evaluate(pp, np.stack(xs), config)
    return tuple((_signed_sin(quadrant[i], s[i]),
                  _signed_cos(pp, quadrant[i], s[i], one_minus_s[i]) if read else None)
                 for i, read in enumerate(reads))


def _double_angle(identity_id: str, config: EvalConfig) -> IdentitySpec:
    (p, q), domain, rhs = _DOUBLE_ANGLES[identity_id]
    pp = ParamPair(p, q)

    def sides(x: float) -> tuple[float, float]:
        (s2, _), sc = _sin_cos_at(pp, config, (2.0 * x, x), (False, True))
        return s2, rhs(*sc)

    return IdentitySpec(identity_id, pp, domain(pi_pq(pp, config)), sides)


def _pythagorean(pp: ParamPair, config: EvalConfig) -> IdentitySpec:
    span = 3.0 * pi_pq(pp, config)

    def sides(x: float) -> tuple[float, float]:
        s, c = sin_cos(pp, x, config)
        return power(abs(c), pp.p) + power(abs(s), pp.q), 1.0

    return IdentitySpec("pythagorean", pp, (-span, span), sides)


def _half_power(c2: float, s2: float, p: float, expo: float) -> float:
    """((1 - c2)/2)**expo on the pair (2, p), with 1 - c2 written through s2 where
    c2 > 0.5, so it stays accurate where c2 is within an ulp of 1; -c2 gives 1 + c2.
    Arrays take the same steps under a mask."""
    u = 1.0 - c2
    if isinstance(c2, np.ndarray):
        big = c2 > 0.5
        u[big] = -_each(math.expm1, 0.5 * _each(math.log1p, -fractional_power(s2[big], p)))
    elif c2 > 0.5:
        u = -math.expm1(0.5 * math.log1p(-fractional_power(s2, p)))
    return fractional_power(0.5 * u, expo)


def _cos_chain(p, pstar, k, s, c, s2, c2) -> tuple[float, float, float, float]:
    cp, sp = fractional_power(c, pstar), fractional_power(s, p)
    return c2, cp - sp, 1.0 - 2.0 * sp, 2.0 * cp - 1.0


# id -> (sides from p, p* = p/(p-1), k = 2**(2/p), s, c = sin_cos_{p*,p}(x) and
# s2, c2 = sin_cos_{2,p}(k x), extra IdentitySpec fields), on [0, pi_{p*,p}/2].
_MULTIPLE_ANGLES: dict[str, tuple[Callable[..., tuple[float, ...]], dict]] = {
    "maf-sin": (
        lambda p, pstar, k, s, c, s2, c2: (s2, k * s * fractional_power(c, pstar - 1.0)),
        {},
    ),
    "maf-cos": (_cos_chain, {"comparisons": ((0, 1), (1, 2), (2, 3))}),
    "half-sin": (
        lambda p, pstar, k, s, c, s2, c2: (s, _half_power(c2, s2, p, 1.0 / p)),
        {},
    ),
    # x and 2**(2/p) x cannot both be float-exact at the quarter period, and
    # for p < 2 both sides behave like (half - x)**(p-1) there, so the ulp of
    # argument coupling inflates sublinearly; stay a hair inside the endpoint.
    "half-cos": (
        lambda p, pstar, k, s, c, s2, c2: (c, _half_power(-c2, s2, p, 1.0 / pstar)),
        {"closed_hi": False, "inset": 1e-9},
    ),
}


def _multiple_angle(identity_id: str, p: float, config: EvalConfig) -> IdentitySpec:
    sides_of, fields = _MULTIPLE_ANGLES[identity_id]
    read_c, read_c2 = identity_id != "half-sin", identity_id != "maf-sin"  # else c, c2 are None
    outer = ParamPair(2.0, p)  # checks p before p* divides by p - 1
    pstar = p / (p - 1.0)
    inner = ParamPair(pstar, p)
    k = 2.0 ** (2.0 / p)

    def sides(x: float) -> tuple[float, ...]:
        ((s, c),) = _sin_cos_at(inner, config, (x,), (read_c,))
        ((s2, c2),) = _sin_cos_at(outer, config, (k * x,), (read_c2,))
        return sides_of(p, pstar, k, s, c, s2, c2)

    half = 0.5 * pi_pq(inner, config)
    return IdentitySpec(identity_id, inner, (0.0, half), sides, **fields)


def _duality_pi(pp: ParamPair, config: EvalConfig) -> IdentitySpec:
    values = (pp.q * pi_pq(pp, config), pp.p_star * pi_pq(pp.dual(), config))
    return IdentitySpec("duality-pi", pp, (0.0, 1.0), lambda x: values)


def _duality_sin(pp: ParamPair, config: EvalConfig) -> IdentitySpec:
    dual = pp.dual()
    half = 0.5 * pi_pq(pp, config)
    half_dual = 0.5 * pi_pq(dual, config)
    expo = pp.q_star - 1.0

    def sides(x: float) -> tuple[float, float]:
        _, c = sin_cos(dual, half_dual * (1.0 - x), config)
        return sin_pq(pp, half * x, config).value, fractional_power(c, expo)

    return IdentitySpec("duality-sin", pp, (0.0, 2.0), sides)


def _lemniscate_add(config: EvalConfig) -> IdentitySpec:
    half = 0.5 * pi_pq(_PP24, config)

    def sides(u: float, v: float) -> tuple[float, float]:
        (su, cu), (sv, cv), (suv, _) = _sin_cos_at(_PP24, config, (u, v, u + v), (True, True, False))
        return suv, (su * cv + cu * sv) / (1.0 + power(su, 2) * power(sv, 2))

    return IdentitySpec("lemniscate-add", _PP24, (0.0, half), sides, arity=2)


def _proof_xtoy(config: EvalConfig) -> IdentitySpec:
    # the (2, 3) proof's switch to (3/2, 3) is maf-sin at p = 3, swept in y = x/2
    maf = _multiple_angle("maf-sin", 3.0, config)
    quarter = 0.5 * maf.domain[1]
    return IdentitySpec("proof-xtoy", _PP23, (0.0, quarter), lambda y: maf.sides(2.0 * y))


def _proof_sin2x(config: EvalConfig) -> IdentitySpec:
    pi24 = pi_pq(_PP24, config)

    def sides(x: float) -> tuple[float, float]:
        s = sin_pq(_PP24, 0.5 * pi24 - x, config).value
        return sin_pq(_PP432, 2.0 * x, config).value, fractional_power(1.0 - power(s, 4), 0.5)

    return IdentitySpec("proof-sin2x", _PP432, (0.0, pi24), sides)


def _proof_f2x(config: EvalConfig) -> IdentitySpec:
    pi24 = pi_pq(_PP24, config)

    def sides(x: float) -> tuple[float, float]:
        g = sin_pq(_PP24, x, config).value
        return sin_pq(_PP432, 2.0 * x, config).value, 2.0 * g / (1.0 + power(g, 2))

    return IdentitySpec(
        "proof-f2x", _PP432, (0.0, pi24), sides, closed_lo=False, closed_hi=False
    )


def _proof_gx(config: EvalConfig) -> IdentitySpec:
    half = 0.5 * pi_pq(_PP24, config)

    def sides(x: float) -> tuple[float, float]:
        (gh, _), (g, _) = _sin_cos_at(_PP24, config, (0.5 * x, x), (False, False))
        return g, 2.0 * gh * fractional_power(1.0 - power(gh, 4), 0.5) / (1.0 + power(gh, 4))

    return IdentitySpec("proof-gx", _PP24, (0.0, half), sides)


def _proof_sum_diff(config: EvalConfig) -> IdentitySpec:
    half = 0.5 * pi_pq(_PP24, config)

    def sides(x: float) -> tuple[float, float, float, float]:
        g = sin_pq(_PP24, x, config).value
        f = sin_pq(_PP432, 2.0 * x, config).value
        return (
            1.0 / power(g, 2) + power(g, 2),
            4.0 / power(f, 2) - 2.0,
            1.0 / power(g, 2) - power(g, 2),
            4.0 / f * fractional_power(1.0 / power(f, 2) - 1.0, 0.5),
        )

    # Both sides grow like x**-2 toward 0, and the difference form has an
    # infinite f-derivative where f(2x) -> 1 at the other end, so float
    # evaluation cannot support an absolute comparison arbitrarily close to
    # either endpoint; the inset keeps roundoff amplification under ~1e-12.
    return IdentitySpec(
        "proof-sum-diff",
        _PP432,
        (0.0, half),
        sides,
        comparisons=((0, 1), (2, 3)),
        closed_lo=False,
        closed_hi=False,
        inset=2e-2,
    )


# id -> (what indexes its instances, builder), in catalog order.  Builders of
# "p" entries take an exponent p, of "pq" entries a pair, and of the rest only
# the config.
_CATALOG: dict[str, tuple[Optional[str], Callable[..., IdentitySpec]]] = {
    "pythagorean": ("pq", _pythagorean),
    **{i: (None, partial(_double_angle, i)) for i in _DOUBLE_ANGLES},
    **{i: ("p", partial(_multiple_angle, i)) for i in _MULTIPLE_ANGLES},
    "duality-pi": ("pq", _duality_pi),
    "duality-sin": ("pq", _duality_sin),
    "lemniscate-add": (None, _lemniscate_add),
    "proof-xtoy": (None, _proof_xtoy),
    "proof-sin2x": (None, _proof_sin2x),
    "proof-f2x": (None, _proof_f2x),
    "proof-gx": (None, _proof_gx),
    "proof-sum-diff": (None, _proof_sum_diff),
}


def identity_ids() -> tuple[str, ...]:
    """The catalog vocabulary, in catalog order."""
    return tuple(_CATALOG)


def identity_specs(
    identity_id: str,
    *,
    p: Optional[float] = None,
    pp: Optional[ParamPair] = None,
    p_panel: Sequence[float] = P_PANEL,
    pq_panel: Sequence[tuple[float, float]] = PQ_PANEL,
    config: EvalConfig = DEFAULT_CONFIG,
) -> tuple[IdentitySpec, ...]:
    """Instantiate the specs behind an id.

    Parameterized identities expand over the panel unless an explicit ``p``
    (for the exponent-indexed families) or ``pp`` (for the pair-indexed ones)
    pins a single instance.  Passing either to an entry not indexed by it,
    or a panel that does not hold numbers (p) or (p, q) pairs (pq), raises
    DomainError.
    """
    if identity_id not in _CATALOG:
        raise UnknownIdentityError(identity_id)
    index, build = _CATALOG[identity_id]
    if (p is not None and index != "p") or (pp is not None and index != "pq"):
        raise DomainError(f"{identity_id} takes no {'p' if p is not None else 'pp'}")
    if pp is not None and not isinstance(pp, ParamPair):
        raise DomainError(f"pp must be a ParamPair, got {pp!r}")
    if index is None:
        return (build(config),)
    try:
        if index == "p":
            args = [_real(v, "p") for v in (p_panel if p is None else (p,))]
        else:
            args = [pp] if pp is not None else [ParamPair(a, b) for a, b in pq_panel]
    except (TypeError, ValueError):
        raise DomainError(f"{index}_panel must hold {'numbers' if index == 'p' else '(p, q) pairs'}") from None
    return tuple(build(v, config) for v in args)


def eval_identity(
    identity_id: str,
    x: float,
    y: Optional[float] = None,
    *,
    p: Optional[float] = None,
    pp: Optional[ParamPair] = None,
    config: EvalConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Evaluate both sides of one identity at a point.

    For parameterized identities the instance defaults to p = 3 (exponent
    families) or the pair (2, 3); pass ``p`` or ``pp`` to choose another.
    """
    spec = identity_specs(
        identity_id, p=p, pp=pp, p_panel=(3.0,), pq_panel=((2.0, 3.0),), config=config
    )[0]

    lo, hi = spec.domain
    if (y is None) != (spec.arity == 1):
        raise DomainError(f"{identity_id} takes {spec.arity} argument(s)")
    x = _real(x, "x")
    if y is None:
        args = (x,)
        inside = (lo <= x if spec.closed_lo else lo < x) and (x <= hi if spec.closed_hi else x < hi)
    else:
        y = _real(y, "y")
        args = (x, y)
        inside = lo <= x <= hi and lo <= y <= hi and x + y <= hi
    if not inside:
        raise DomainError(f"{args!r} outside the domain ({lo!r}, {hi!r})")
    values = spec.sides(*args)
    i, j = spec.comparisons[0]
    return float(values[i]), float(values[j])


def _sample_points(spec: IdentitySpec, samples: int, seed: int) -> np.ndarray:
    lo, hi = spec.domain
    width = hi - lo
    lo_eff = lo if spec.closed_lo else lo + spec.inset * width
    hi_eff = hi if spec.closed_hi else hi - spec.inset * width
    rng = np.random.default_rng(seed)
    if spec.arity == 1:
        grid = np.linspace(lo_eff, hi_eff, samples)
        rand = rng.uniform(lo_eff, hi_eff, samples)
        return np.concatenate([grid, rand])[:, None]
    # two arguments: uniform grid plus random pairs, filtered so the sum stays
    # inside the domain of the left side
    axis = np.linspace(lo_eff, hi_eff, _TWO_ARG_GRID)
    uu, vv = np.meshgrid(axis, axis)
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    ru = rng.uniform(lo_eff, hi_eff, samples)
    rv = rng.uniform(lo_eff, hi_eff, samples)
    pts = np.vstack([pts, np.column_stack([ru, rv])])
    return pts[pts.sum(axis=1) <= hi_eff]


def verify(
    identity_id: str,
    samples: int = 1000,
    tol: float = 1e-9,
    seed: int = 0,
    *,
    rhs_offset: float = 0.0,
    p_panel: Sequence[float] = P_PANEL,
    pq_panel: Sequence[tuple[float, float]] = PQ_PANEL,
    config: EvalConfig = DEFAULT_CONFIG,
) -> IdentityReport:
    """Sweep an identity over a uniform grid plus seeded random points and
    report the worst absolute deviation.

    Parameterized identities sweep every panel instance in one pass, and each
    instance's ``sides`` is called once on the array of all its points.  The
    worst point is the maximum of (err, x) in lexicographic order, so it does
    not depend on evaluation order; a point where a compared side is not
    finite counts as err = inf like any other, and ``note`` names the first
    such point.  ``rhs_offset`` perturbs every right side by a constant; it
    exists so the engine's sensitivity is itself testable.
    """
    samples, seed = _integer(samples, "samples", 2), _integer(seed, "seed", 0)
    tol, rhs_offset = _positive(tol, "tol"), _real(rhs_offset, "rhs_offset")
    specs = identity_specs(identity_id, p_panel=p_panel, pq_panel=pq_panel, config=config)
    if not specs:
        raise DomainError(f"{identity_id} has no instances: its panel is empty")
    start = time.perf_counter()
    parts = []
    for spec in specs:
        points = _sample_points(spec, samples, seed)
        n = len(points)
        values = [np.broadcast_to(v, n) for v in spec.sides(*points.T)]
        err = np.zeros(n)
        finite = np.ones(n, dtype=bool)
        for i, j in spec.comparisons:
            lv, rv = values[i], values[j] + rhs_offset
            finite &= np.isfinite(lv) & np.isfinite(rv)
            with np.errstate(invalid="ignore", over="ignore"):
                err = np.maximum(err, np.abs(lv - rv))
        err[~finite] = math.inf
        parts.append((points, err, finite, values[spec.comparisons[0][0]]))
    # every instance's points in one sweep, in evaluation order
    points, err, finite, lhs = map(np.concatenate, zip(*parts))
    # the first of the points that are largest in (err, x)
    k = np.lexsort((-np.arange(len(err)), points[:, 0], err))[-1]
    best_err, best_x, best_lhs = float(err[k]), float(points[k, 0]), float(lhs[k])
    best_y = float(points[k, 1]) if specs[0].arity == 2 else None
    note = None
    if not finite.all():
        note = f"non-finite value at {tuple(points[np.argmin(finite)].tolist())!r}"
    elapsed = time.perf_counter() - start
    passed = math.isfinite(best_err) and best_err <= tol and note is None
    rel = (
        best_err / abs(best_lhs)
        if math.isfinite(best_err) and math.isfinite(best_lhs) and abs(best_lhs) > 1e-3
        else None
    )
    return IdentityReport(
        identity_id=identity_id,
        samples=len(err),
        max_abs_err=best_err,
        argmax_x=best_x,
        tol=tol,
        passed=passed,
        elapsed=elapsed,
        argmax_y=best_y,
        rel_err=rel,
        note=note,
    )
