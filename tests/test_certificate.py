"""A symbolic certificate of the paper's two new double-angle formulas.

While s = sin_pq x and c = cos_pq x both increase, s' = c and
c' = -(q/p) s**(q-1) c**(2-p).  Write c = t**k so that every power is an
integer power, and p = m/n.  If a right side R(s, c) has R(0) = 0, R'(0) = 2
and (R'/2)**m = (1 - R**q)**n modulo s**q = 1 - t**(k p), then R solves
y' = 2 (1 - y**q)**(1/p) with y(0) = 0.  That equation has one solution
while y < 1, and sin_pq(2x) is it, so R = sin_pq(2x) for x in [0, pi_pq/4].
"""

import math

import numpy as np
import pytest

from gtrig.identities import _DOUBLE_ANGLES

sympy = pytest.importorskip("sympy")

# id -> (m, n, k, R(s, t)): p = m/n, and R is the row's right side with c = t**k
_CERTIFIED = {
    "dbl-2-3": (2, 1, 1, lambda s, t: 4 * s * t * (3 + t) ** 3 / ((1 + t) * (8 + s**3) ** 2)),
    "dbl-4:3-2": (4, 3, 3, lambda s, t: 4 * s * t * (1 + t**4) / (2 * t**2 + s**2) ** 2),
}


def _certificate(identity_id):
    m, n, k, right = _CERTIFIED[identity_id]
    (p, q), _, _ = _DOUBLE_ANGLES[identity_id]
    assert p == m / n
    p, q = sympy.Rational(m, n), sympy.Integer(int(q))
    s, t = sympy.symbols("s t", positive=True)
    r = right(s, t)
    # s' = c = t**k, and t' = c' / (k t**(k-1))
    ds = t**k
    dt = -q / (p * k) * s ** (q - 1) * t ** (k * (1 - p) + 1)
    dr = sympy.diff(r, s) * ds + sympy.diff(r, t) * dt
    numerator, _ = sympy.fraction(sympy.together((dr / 2) ** m - (1 - r**q) ** n))
    remainder = sympy.rem(sympy.expand(numerator), s**q - 1 + t ** (k * p), s)
    return s, t, r, dr, sympy.expand(remainder)


@pytest.mark.parametrize("identity_id", sorted(_CERTIFIED))
def test_right_side_solves_the_double_angle_equation(identity_id):
    s, t, r, dr, remainder = _certificate(identity_id)
    assert remainder == 0
    at_zero = {s: 0, t: 1}
    assert r.subs(at_zero) == 0
    assert sympy.simplify(dr.subs(at_zero)) == 2


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
