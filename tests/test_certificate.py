"""A symbolic certificate of the paper's two new double-angle formulas, and of
the multiple-angle formula maf-sin at p = 3 (which proof-xtoy sweeps).

While s = sin_pq x and c = cos_pq x both increase, s' = c and
c' = -(q/p) s**(q-1) c**(2-p).  Write c = t**k so that every power is an
integer power, and p = m/n.  If a right side R(s, c) has R(0) = 0, R'(0) = 2
and (R'/2)**m = (1 - R**q)**n modulo s**q = 1 - t**(k p), then R solves
y' = 2 (1 - y**q)**(1/p) with y(0) = 0.  That equation has one solution
while y < 1, and sin_pq(2x) is it, so R = sin_pq(2x) for x in [0, pi_pq/4].

maf-sin takes s, c on the pair (3/2, 3) and its left side is sin_{2,3}(K x)
with K = 2**(2/3): there the scale is K, not 2, and the equation is the one
of the pair (2, 3), (R'/K)**2 = 1 - R**3, up to where R first reaches 1.
"""

import math

import numpy as np
import pytest

from gtrig.identities import _DOUBLE_ANGLES, _MULTIPLE_ANGLES, identity_specs

sympy = pytest.importorskip("sympy")

# id -> (m, n, k, R(s, t)): p = m/n, and R is the row's right side with c = t**k
_CERTIFIED = {
    "dbl-2-3": (2, 1, 1, lambda s, t: 4 * s * t * (3 + t) ** 3 / ((1 + t) * (8 + s**3) ** 2)),
    "dbl-4:3-2": (4, 3, 3, lambda s, t: 4 * s * t * (1 + t**4) / (2 * t**2 + s**2) ** 2),
}

# maf-sin at p = 3: s, c on (3/2, 3) with c = t**2, and R = K s c**(1/2)
_MAF_P = 3
_MAF_SCALE = 2 ** sympy.Rational(2, _MAF_P)


def _maf_right(s, t):
    return _MAF_SCALE * s * t


def _reduce(p, q, k, right, m, n, q_out, scale):
    """(s, t, R, R', remainder): R' along s' = t**k on the pair (p, q), and
    the remainder of (R'/scale)**m - (1 - R**q_out)**n's numerator modulo
    s**q = 1 - t**(k p), which is 0 when R solves y' = scale (1 - y**q_out)**(n/m)."""
    s, t = sympy.symbols("s t", positive=True)
    r = right(s, t)
    # s' = c = t**k, and t' = c' / (k t**(k-1))
    ds = t**k
    dt = -q / (p * k) * s ** (q - 1) * t ** (k * (1 - p) + 1)
    dr = sympy.diff(r, s) * ds + sympy.diff(r, t) * dt
    numerator, _ = sympy.fraction(sympy.together((dr / scale) ** m - (1 - r**q_out) ** n))
    remainder = sympy.rem(sympy.expand(numerator), s**q - 1 + t ** (k * p), s)
    return s, t, r, dr, sympy.expand(remainder)


def _certificate(identity_id):
    m, n, k, right = _CERTIFIED[identity_id]
    (p, q), _, _ = _DOUBLE_ANGLES[identity_id]
    assert p == m / n
    p, q = sympy.Rational(m, n), sympy.Integer(int(q))
    return _reduce(p, q, k, right, m, n, q, 2)


@pytest.mark.parametrize("identity_id", sorted(_CERTIFIED))
def test_right_side_solves_the_double_angle_equation(identity_id):
    s, t, r, dr, remainder = _certificate(identity_id)
    assert remainder == 0
    at_zero = {s: 0, t: 1}
    assert r.subs(at_zero) == 0
    assert sympy.simplify(dr.subs(at_zero)) == 2


def test_maf_sin_at_p_3_solves_the_multiple_angle_equation():
    pstar = sympy.Rational(_MAF_P, _MAF_P - 1)
    s, t, r, dr, remainder = _reduce(pstar, _MAF_P, 2, _maf_right, 2, 1, _MAF_P, _MAF_SCALE)
    assert remainder == 0
    at_zero = {s: 0, t: 1}
    assert r.subs(at_zero) == 0
    assert sympy.simplify(dr.subs(at_zero) - _MAF_SCALE) == 0


@pytest.mark.parametrize("identity_id", sorted(_CERTIFIED))
def test_catalog_row_is_the_certified_right_side(identity_id):
    # the certificate covers gtrig's own formula, not a copy of it
    m, n, k, right = _CERTIFIED[identity_id]
    (p, q), _, rhs = _DOUBLE_ANGLES[identity_id]
    s_sym, t_sym = sympy.symbols("s t")
    certified = sympy.lambdify((s_sym, t_sym), right(s_sym, t_sym), "math")
    rng = np.random.default_rng(15)
    for s in rng.uniform(0.0, 1.0, 200).tolist():
        c = (1.0 - s**q) ** (1.0 / p)
        assert math.isclose(rhs(s, c), certified(s, c ** (1.0 / k)), rel_tol=0.0, abs_tol=1e-15)


def test_maf_sin_row_is_the_certified_right_side():
    sides_of, _ = _MULTIPLE_ANGLES["maf-sin"]
    p = float(_MAF_P)
    pstar, k = p / (p - 1.0), 2.0 ** (2.0 / p)
    s_sym, t_sym = sympy.symbols("s t")
    certified = sympy.lambdify((s_sym, t_sym), _maf_right(s_sym, t_sym), "math")
    rng = np.random.default_rng(15)
    for s in rng.uniform(0.0, 1.0, 200).tolist():
        c = (1.0 - s**p) ** (1.0 / pstar)
        # the row's left side s2 = sin_{2,p}(k x) plays no part in R
        _, rhs = sides_of(p, pstar, k, s, c, math.nan, math.nan)
        assert math.isclose(rhs, certified(s, c**0.5), rel_tol=0.0, abs_tol=1e-15)


def test_proof_xtoy_is_maf_sin_at_p_3_in_half_the_argument():
    # so the maf-sin certificate covers proof-xtoy too
    (xtoy,), (maf,) = identity_specs("proof-xtoy"), identity_specs("maf-sin", p=3.0)
    assert xtoy.domain == (0.0, 0.5 * maf.domain[1])
    ys = np.random.default_rng(19).uniform(*xtoy.domain, 64)
    for y in ys.tolist():
        assert xtoy.sides(y) == maf.sides(2.0 * y)
    for got, want in zip(xtoy.sides(ys), maf.sides(2.0 * ys)):
        assert np.array_equal(got, want)
