"""Tests for the generalized sine/cosine family and its extension rules."""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtrig.errors import DomainError, NonFiniteIntegrandError
from gtrig.functions import (
    DEFAULT_CONFIG,
    EvalConfig,
    FunctionValue,
    ParamPair,
    _arc_integral,
    _arc_tail,
    _pair_record,
    arcsin_pq,
    cos_pq,
    fractional_power,
    ode_residual,
    pi_pq,
    sin_cos,
    sin_pq,
)
from gtrig.numerics import integrate_endpoint_singular

from conftest import (
    AGM_1_SQRT2,
    PI_ORACLE,
    SIN23_AT_1,
    COS23_AT_1,
)

PP22 = ParamPair(2.0, 2.0)
PP23 = ParamPair(2.0, 3.0)
PP32 = ParamPair(3.0, 2.0)
PP24 = ParamPair(2.0, 4.0)
PP432 = ParamPair(4.0 / 3.0, 2.0)

PANEL = [ParamPair(p, q) for p, q in PI_ORACLE]


class TestParamPair:
    def test_conjugates_are_derived(self):
        pp = ParamPair(3.0, 1.5)
        assert pp.p_star == 3.0 / 2.0
        assert pp.q_star == 1.5 / 0.5

    @given(st.floats(1.001, 1000.0), st.floats(1.001, 1000.0))
    @settings(max_examples=200)
    def test_conjugate_relation(self, p, q):
        pp = ParamPair(p, q)
        assert 1.0 / pp.p + 1.0 / pp.p_star == pytest.approx(1.0, abs=1e-14)
        assert 1.0 / pp.q + 1.0 / pp.q_star == pytest.approx(1.0, abs=1e-14)

    def test_dual(self):
        dual = PP432.dual()
        assert dual.p == pytest.approx(2.0, rel=1e-15)
        assert dual.q == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize(
        "p,q",
        [(1.0, 2.0), (2.0, 1.0), (0.5, 2.0), (2.0, -3.0), (1001.0, 2.0),
         (math.nan, 2.0), (2.0, math.inf)],
    )
    def test_rejects_bad_exponents(self, p, q):
        with pytest.raises(DomainError):
            ParamPair(p, q)


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.quad_tol == 1e-13
        assert cfg.root_tol == 1e-13
        assert cfg.max_iter >= 1

    def test_validation(self):
        with pytest.raises(DomainError):
            EvalConfig(quad_tol=0.0)
        with pytest.raises(DomainError):
            EvalConfig(max_iter=0)


class TestPi:
    @pytest.mark.parametrize("key", sorted(PI_ORACLE, key=str))
    def test_against_closed_form_oracle(self, key):
        assert pi_pq(ParamPair(*key)) == pytest.approx(PI_ORACLE[key], rel=1e-13)

    def test_classical_value(self):
        assert pi_pq(PP22) == pytest.approx(math.pi, abs=2e-13)

    def test_lemniscate_constant_via_agm(self):
        assert abs(pi_pq(PP24) - math.pi / AGM_1_SQRT2) <= 1e-12

    def test_duality_doubling(self):
        # q pi_pq = p* pi_(q*,p*) forces pi_{4/3,2} = 2 pi_{2,4}
        assert pi_pq(PP432) == pytest.approx(2.0 * pi_pq(PP24), rel=1e-12)

    def test_cached_value_is_stable(self):
        first = pi_pq(PP23)
        assert pi_pq(PP23) == first
        assert pi_pq(ParamPair(2.0, 3.0)) == first

    @pytest.mark.parametrize("p", [1.001, 1.02, 1.04])
    def test_p_near_one_raises_typed_error_under_warnings_as_errors(self, p):
        # the integrand overflows at subnormal offsets for these p; the caller
        # must get the typed error, not numpy's overflow warning
        pp = ParamPair(p, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIntegrandError):
                pi_pq(pp)
            with pytest.raises(NonFiniteIntegrandError):
                sin_pq(pp, 0.5)

    def test_p_just_above_the_overflow_still_evaluates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pi_pq(ParamPair(1.043, 2.0))
        assert value == pytest.approx(25.6148371329, rel=1e-10)


class TestArcsin:
    def test_zero(self):
        for pp in (PP22, PP23, PP432):
            assert arcsin_pq(pp, 0.0) == 0.0

    def test_classical_half(self):
        assert arcsin_pq(PP22, 0.5) == pytest.approx(math.pi / 6.0, abs=1e-13)

    def test_full_range_is_half_period(self):
        assert arcsin_pq(PP23, 1.0) == pytest.approx(
            PI_ORACLE[(2.0, 3.0)] / 2.0, rel=1e-13
        )

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            arcsin_pq(PP23, bad)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class TestArcLengthKernel:
    """F(s) = (1/q) B_{s**q}(1/q, 1 - 1/p) and the tail F(1) - F(1 - v), both
    from the incomplete Beta fraction, against 30-digit mpmath and against
    tanh-sinh quadrature of the defining integral."""

    # the corners of the sampled ranges, and q = 255 where (1/32)**q underflows
    CORNERS = [(1.05, 1.001), (1.05, 1000.0), (1000.0, 1.001), (1000.0, 1000.0),
               (2.0, 255.0)]

    @staticmethod
    def _points(rng):
        ends = list(10.0 ** rng.uniform(-12.0, -1.0, 4))
        return (list(rng.uniform(0.0, 1.0, 6)) + ends + [1.0 - e for e in ends]
                + [1.0 / 32.0, 2.0**-40])

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1904)
        pairs = self.CORNERS + [
            (_log_uniform(rng, 1.05, 1000.0), _log_uniform(rng, 1.001, 1000.0))
            for _ in range(40)
        ]
        underflows = 0
        with mpmath.workdps(30):
            for p, q in pairs:
                half = 0.5 * pi_pq(ParamPair(p, q))
                # Above the fraction's threshold F is half_pi minus the rest,
                # so its absolute error is that of the quadrature's
                # half_pi = F(1) plus a few of its ulps, and F(1) reaches 21
                # at (1.05, 1.001): the bound is 1e-14 on the scale of F's
                # range.
                bound = 1e-14 * max(1.0, half)
                a = mpmath.mpf(1) / q
                b = 1 - mpmath.mpf(1) / p
                for s in self._points(rng):
                    underflows += s**q == 0.0
                    want = float(mpmath.betainc(a, b, 0, mpmath.mpf(s) ** q) / q)
                    got = _arc_integral(p, q, s, half)
                    assert abs(got - want) <= bound, (p, q, s)
                for v in self._points(rng):
                    # integrating up to 1 keeps 1 - (1 - v)**q from rounding to 1
                    lower = (1 - mpmath.mpf(v)) ** q
                    want = float(mpmath.betainc(a, b, lower, 1) / q)
                    got = _arc_tail(p, q, v, half)
                    assert abs(got - want) <= bound, (p, q, v)
        assert underflows >= 5

    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (4.0 / 3.0, 2.0), (1.1, 7.3),
                                     (5.0, 1.2), (30.0, 60.0)])
    def test_against_quadrature(self, p, q):
        half = 0.5 * pi_pq(ParamPair(p, q))

        def by_quadrature(s):
            # t = s (1 - w) puts the singularity at w = 0
            ln_s = math.log(s)

            def f(w):
                return np.power(-np.expm1(q * (ln_s + np.log1p(-w))), -1.0 / p)

            return s * integrate_endpoint_singular(f, 0.0, 1.0, 1e-13).value

        for s in np.linspace(0.05, 0.95, 7):
            s = float(s)
            assert abs(_arc_integral(p, q, s, half) - by_quadrature(s)) <= 1e-13
            assert abs(_arc_tail(p, q, 1.0 - s, half)
                       - (half - by_quadrature(s))) <= 1e-13


class TestSin:
    def test_classical_sixth(self):
        assert sin_pq(PP22, math.pi / 6.0).value == pytest.approx(0.5, abs=1e-13)

    def test_quarter_period_is_one(self):
        for pp in (PP22, PP23, PP432):
            assert sin_pq(pp, 0.5 * pi_pq(pp)).value == 1.0

    def test_extended_precision_oracle(self):
        # frozen from quadrature + bisection at tolerance 1e-25
        assert sin_pq(PP23, 1.0).value == pytest.approx(SIN23_AT_1, abs=1e-13)

    def test_odd(self):
        for x in (0.3, 1.0, 2.5, 7.1):
            assert sin_pq(PP23, -x).value == pytest.approx(
                -sin_pq(PP23, x).value, abs=1e-12
            )

    def test_quadrant_and_reduction_fields(self):
        half = 0.5 * pi_pq(PP23)
        cases = [
            (0.4, 0, 0.4),
            (2.0 * half - 0.4, 1, 0.4),
            (2.0 * half + 0.4, 2, 0.4),
            (4.0 * half - 0.4, 3, 0.4),
        ]
        for x, quadrant, reduced in cases:
            fv = sin_pq(PP23, x)
            assert fv.quadrant == quadrant
            assert fv.reduced_x == pytest.approx(reduced, abs=1e-12)
            assert 0.0 <= fv.reduced_x <= half

    def test_float_protocol_and_bound(self):
        fv = sin_pq(PP23, 2.2)
        assert float(fv) == fv.value
        assert abs(fv.value) <= 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            sin_pq(PP23, math.inf)


class TestCos:
    def test_at_zero(self):
        for pp in (PP22, PP23, PP432):
            assert cos_pq(pp, 0.0).value == 1.0

    def test_quarter_period_positive_zero(self):
        fv = cos_pq(PP23, 0.5 * pi_pq(PP23))
        assert fv.value == 0.0
        assert math.copysign(1.0, fv.value) == 1.0

    def test_classical_pi(self):
        assert cos_pq(PP22, math.pi).value == pytest.approx(-1.0, abs=1e-12)

    def test_sign_by_quadrant(self):
        half = 0.5 * pi_pq(PP23)
        assert cos_pq(PP23, 0.3 * half).value > 0
        assert cos_pq(PP23, 1.5 * half).value < 0
        assert cos_pq(PP23, 2.5 * half).value < 0
        assert cos_pq(PP23, 3.5 * half).value > 0

    def test_matches_sin_cos_helper(self):
        for x in (-4.0, -0.7, 0.9, 3.3):
            s, c = sin_cos(PP32, x)
            assert s == sin_pq(PP32, x).value
            assert c == cos_pq(PP32, x).value


class TestFractionalPower:
    def test_clamps_rounding_noise(self):
        assert fractional_power(-1e-16, 0.5) == 0.0

    def test_rejects_genuinely_negative(self):
        with pytest.raises(DomainError):
            fractional_power(-1e-3, 0.5)


class TestExtensionInvariants:
    XS = np.linspace(-8.7, 9.3, 41)

    @pytest.mark.parametrize("pp", [PP23, PP432, ParamPair(5.0, 5.0)])
    def test_pythagorean(self, pp):
        for x in self.XS:
            s, c = sin_cos(pp, float(x))
            assert abs(abs(c) ** pp.p + abs(s) ** pp.q - 1.0) <= 1e-10

    @pytest.mark.parametrize("pp", [PP23, PP24])
    def test_periodicity(self, pp):
        period = 2.0 * pi_pq(pp)
        for x in self.XS[::4]:
            a = sin_pq(pp, float(x)).value
            b = sin_pq(pp, float(x) + period).value
            assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("pp", [PP23, PP432])
    def test_oddness(self, pp):
        for x in self.XS[::4]:
            assert abs(sin_pq(pp, -float(x)).value + sin_pq(pp, float(x)).value) <= 1e-12

    @pytest.mark.parametrize("pp", [PP23, PP432])
    def test_reflection(self, pp):
        pi_val = pi_pq(pp)
        for x in self.XS[::4]:
            a = sin_pq(pp, pi_val - float(x)).value
            b = sin_pq(pp, float(x)).value
            assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("pp", [PP23, PP32])
    def test_round_trip(self, pp):
        half = 0.5 * pi_pq(pp)
        for x in np.linspace(0.0, half, 101):
            s = sin_pq(pp, float(x)).value
            assert abs(arcsin_pq(pp, s) - float(x)) <= 1e-10

    @pytest.mark.parametrize("pp", [PP23, PP432])
    def test_strictly_increasing_on_first_quarter(self, pp):
        half = 0.5 * pi_pq(pp)
        grid = np.linspace(0.0, half, 200)
        values = [sin_pq(pp, float(x)).value for x in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_classical_reduction(self):
        for x in np.linspace(-10.0, 10.0, 201):
            assert abs(sin_pq(PP22, float(x)).value - math.sin(x)) <= 1e-12
            assert abs(cos_pq(PP22, float(x)).value - math.cos(x)) <= 1e-12


class TestDerivativeConsistency:
    @pytest.mark.parametrize("pp", [PP23, PP32])
    def test_central_difference_matches_cos(self, pp):
        h = 1e-3
        for x in (0.3, 0.8):
            diff = (sin_pq(pp, x + h).value - sin_pq(pp, x - h).value) / (2.0 * h)
            assert abs(diff - cos_pq(pp, x).value) <= 10.0 * h * h

    def test_step_halving_is_second_order(self):
        pp = PP23
        x = 0.8

        def fd_error(h):
            diff = (sin_pq(pp, x + h).value - sin_pq(pp, x - h).value) / (2.0 * h)
            return abs(diff - cos_pq(pp, x).value)

        e1, e2 = fd_error(2e-3), fd_error(1e-3)
        assert e1 / e2 >= 3.9


class TestOdeResidual:
    def test_classical_case(self):
        assert abs(ode_residual(PP22, 0.7, 1e-4)) <= 1e-6

    @pytest.mark.parametrize("pp", [PP23, PP32])
    def test_nonlinear_cases(self, pp):
        assert abs(ode_residual(pp, 0.5, 1e-4)) <= 1e-5

    def test_halving_reduces_residual(self):
        r1 = abs(ode_residual(PP23, 0.5, 2e-4))
        r2 = abs(ode_residual(PP23, 0.5, 1e-4))
        assert r1 / r2 >= 3.9

    def test_safe_interval_guard(self):
        half = 0.5 * pi_pq(PP23)
        with pytest.raises(DomainError):
            ode_residual(PP23, 5e-4, 1e-4)
        with pytest.raises(DomainError):
            ode_residual(PP23, half - 5e-4, 1e-4)
        with pytest.raises(DomainError):
            ode_residual(PP23, 0.5, -1e-4)


class TestPairCache:
    def test_bounded_and_recomputed_bit_identically(self):
        info = _pair_record.cache_info
        rng = np.random.default_rng(6)
        logs = rng.uniform(math.log(1.05), math.log(1000.0), size=(info().maxsize + 8, 2))
        pairs = [ParamPair(*np.exp(row).tolist()) for row in logs]
        first = pairs[0]
        before = (pi_pq(first), sin_cos(first, 1.3), sin_cos(first, -7.9))
        for pp in pairs[1:]:
            sin_cos(pp, 0.5)
        assert info().currsize <= info().maxsize
        misses = info().misses
        after = (pi_pq(first), sin_cos(first, 1.3), sin_cos(first, -7.9))
        assert info().misses == misses + 1  # the first pair was pushed out
        assert after == before


class TestConcurrency:
    def test_parallel_evaluations_agree(self):
        pp = ParamPair(2.3, 3.7)
        xs = [0.1 * k for k in range(40)]
        expected = [sin_pq(pp, x).value for x in xs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda x: sin_pq(pp, x).value, xs))
        assert got == expected
