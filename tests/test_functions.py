"""Tests for the generalized sine/cosine family and its extension rules."""

import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtrig.errors import DomainError, NonConvergenceError, NonFiniteIntegrandError
from gtrig.functions import (
    DEFAULT_CONFIG,
    EvalConfig,
    FunctionValue,
    ParamPair,
    _CLAMP_THRESHOLD,
    _GRID,
    _arc,
    _pair_record,
    _signed_cos,
    arcsin_pq,
    cos_pq,
    fractional_power,
    ode_residual,
    pi_pq,
    sin_cos,
    sin_pq,
)
from gtrig import functions
from gtrig.identities import PQ_PANEL
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


class TestNumpyScalarExponents:
    def test_stored_as_python_floats(self):
        pp = ParamPair(np.float32(2.5), np.int64(3))
        assert pp == ParamPair(2.5, 3.0)
        assert type(pp.p) is float and type(pp.q) is float

    def test_cached_record_is_the_float_pairs(self):
        # a pair evaluated first fills the record that every equal pair reads
        _pair_record.cache_clear()
        sin_cos(ParamPair(np.float32(2.5), np.int64(3)), 0.7)
        got = sin_cos(ParamPair(2.5, 3.0), 0.7)
        assert [type(v) for v in got] == [float, float]
        assert [_bits(v) for v in got] == [_bits(0.6759777789548417), _bits(0.8626210441237253)]


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

    @pytest.mark.parametrize(
        "kwargs",
        [{"root_tol": math.inf}, {"quad_tol": math.inf}, {"root_tol": math.nan},
         {"max_iter": 1.5}, {"max_iter": 2.0}],
    )
    def test_rejects_infinite_tolerances_and_non_integer_max_iter(self, kwargs):
        # root_tol = inf would accept a seed-table node unrefined
        with pytest.raises(DomainError):
            EvalConfig(**kwargs)

    def test_numpy_integer_max_iter(self):
        cfg = EvalConfig(max_iter=np.int64(100))
        assert sin_pq(PP23, 1.0, cfg).value == sin_pq(PP23, 1.0).value

    @pytest.mark.parametrize("root_tol", [5e-324, 1e-320, 2.3e-308])
    def test_root_tol_whose_product_with_1e_16_underflows(self, root_tol):
        # the solve scales root_tol by targets down to 1e-16
        with pytest.raises(DomainError):
            EvalConfig(root_tol=root_tol)

    def test_tiny_root_tol_still_evaluates(self):
        cfg = EvalConfig(root_tol=1e-300)
        for x in (5e-324, 1.05e-16, 0.5, 1.0, 2.0):
            s, c = sin_cos(PP23, x, cfg)
            assert s == pytest.approx(sin_pq(PP23, x).value, rel=1e-13, abs=0.0)
            assert c == pytest.approx(cos_pq(PP23, x).value, rel=1e-13, abs=0.0)


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


_ALL_FUNCTIONS = [sin_pq, cos_pq, sin_cos, arcsin_pq]


def _plain(out):
    return out.value if isinstance(out, FunctionValue) else out


class TestScalarArgumentRule:
    """A scalar argument is a Python int or float, or a numpy integer or
    floating scalar, but not a bool: the kinds the array path takes as dtypes."""

    @pytest.mark.parametrize(
        "bad",
        [np.complex128(1 + 2j), 1 + 0j, "1", [0.5], None, True, np.bool_(False),
         # arrays whose dtype is not a real kind
         np.array([True]), np.array([0.5 + 0j]), np.array(["0.5"]), np.array([0.5], dtype=object)],
    )
    @pytest.mark.parametrize("fn", _ALL_FUNCTIONS)
    def test_other_kinds_raise_domain_error(self, fn, bad):
        with pytest.raises(DomainError):
            fn(PP22, bad)

    @pytest.mark.parametrize("good", [np.float32(0.5), np.int64(1), np.uint8(0), np.float16(0.25), 1])
    @pytest.mark.parametrize("fn", _ALL_FUNCTIONS)
    def test_integer_and_numpy_scalars_evaluate_as_their_float(self, fn, good):
        assert _plain(fn(PP23, good)) == _plain(fn(PP23, float(good)))


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class TestArcLengthKernel:
    """_arc gives F(t) = (1/q) B_{t**q}(1/q, 1 - 1/p) and the tail F(1) - F(t),
    both from the incomplete Beta fraction, against 30-digit mpmath and
    against tanh-sinh quadrature of the defining integral.  It is called as
    F's callers call it, with q log s, and as the tail's, with t = 1 - v and
    q log1p(-v)."""

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
                # One of the two outputs is half_pi minus the other, so its
                # absolute error is that of the quadrature's half_pi = F(1)
                # plus a few of its ulps, and F(1) reaches 21 at
                # (1.05, 1.001): the bound is 1e-14 on the scale of F's range.
                bound = 1e-14 * max(1.0, half)
                a = mpmath.mpf(1) / q
                b = 1 - mpmath.mpf(1) / p

                def check(got, t, where):
                    # integrating up to 1 keeps 1 - t**q from rounding to 1
                    x = t**q
                    want = (mpmath.betainc(a, b, 0, x) / q,
                            mpmath.betainc(a, b, x, 1) / q)
                    assert abs(got[0] - float(want[0])) <= bound, where
                    assert abs(got[1] - float(want[1])) <= bound, where

                for s in self._points(rng):
                    underflows += s**q == 0.0
                    check(_arc(p, q, s, q * math.log(s), half), mpmath.mpf(s),
                          (p, q, s))
                for v in self._points(rng):
                    check(_arc(p, q, 1.0 - v, q * math.log1p(-v), half),
                          1 - mpmath.mpf(v), (p, q, v))
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
            want = by_quadrature(s)
            v = 1.0 - s
            for got in (_arc(p, q, s, q * math.log(s), half),
                        _arc(p, q, 1.0 - v, q * math.log1p(-v), half)):
                assert abs(got[0] - want) <= 1e-13
                assert abs(got[1] - (half - want)) <= 1e-13


class TestSin:
    def test_classical_sixth(self):
        assert sin_pq(PP22, math.pi / 6.0).value == pytest.approx(0.5, abs=1e-13)

    def test_quarter_period_is_one(self):
        for pp in (PP22, PP23, PP432):
            assert sin_pq(pp, 0.5 * pi_pq(pp)).value == 1.0

    def test_few_ulps_from_the_circular_sine(self):
        # the closing Newton step takes the solve's residual to roundoff
        x = np.random.default_rng(0).uniform(1e-3, math.pi / 2 - 1e-3, 20000)
        want = np.array([math.sin(v) for v in x.tolist()])
        ulps = np.abs(sin_pq(PP22, x).value.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 16

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

    @pytest.mark.parametrize("x", [2.0**53, 1e17, 1e300, -2.0**53, -1e300])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (1.05, 1000.0)])
    def test_rejects_arguments_past_2_to_the_53(self, p, q, x):
        # doubles there lie >= 2 apart, up to half a period: no digit survives
        pp = ParamPair(p, q)
        for fn in (sin_pq, cos_pq, sin_cos):
            with pytest.raises(DomainError):
                fn(pp, x)

    @pytest.mark.parametrize("x", [1e9, 1e12, 1e15, 2.0**52])
    def test_large_argument_error_bound(self, x):
        # fmod against the rounded period loses |x| * ulp(2 pi) / (4 pi) at most
        for arg in (x, -x):
            assert abs(sin_pq(PP22, arg).value - math.sin(arg)) <= abs(arg) * 2.0**-53

    @pytest.mark.parametrize("root_tol", [0.5, 1e-3, 1e-6])
    def test_root_tol_bounds_the_sine(self, root_tol):
        # F' >= 1 on both solve branches, so |s - s_true| <= the residual bound
        cfg = EvalConfig(root_tol=root_tol)
        half_pi = 0.5 * pi_pq(PP22)
        xs = np.random.default_rng(11).uniform(-10.0, 10.0, 4000)
        for x in xs.tolist():
            fv = sin_pq(PP22, x, cfg)
            target = min(fv.reduced_x, half_pi - fv.reduced_x)
            bound = root_tol * min(1.0, target) + 1e-14
            assert abs(fv.value - math.sin(x)) <= bound

    @pytest.mark.parametrize("x", [5e-324, 1e-320, 2e-311])
    @pytest.mark.parametrize(
        "p, q", [(2.0, 2.0), (2.0, 3.0), (1.05, 1000.0), (1000.0, 1.05)]
    )
    def test_tiny_argument_is_its_own_sine(self, p, q, x):
        # root_tol * x underflows to 0 here, and F(s) = s to the last bit
        pp = ParamPair(p, q)
        assert sin_pq(pp, x).value == x
        assert cos_pq(pp, x).value == 1.0
        assert sin_cos(pp, x) == (x, 1.0)


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


def _bits(value) -> str:
    """A float's exact bits, so that 0.0 and -0.0 differ."""
    return float(value).hex()


class TestArrayPath:
    """An ndarray argument gives, element by element, the bits a scalar call
    gives."""

    PAIRS = [ParamPair(p, q) for p, q in (*PQ_PANEL, (2.0, 2.0), (1.05, 1000.0), (1000.0, 1.05))]

    @staticmethod
    def _arguments(pp):
        half = 0.5 * pi_pq(pp)
        xs = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, 1e-16, -3e-9]
        for k in range(-12, 13):
            xs += [k * half, np.nextafter(k * half, math.inf), np.nextafter(k * half, -math.inf)]
        rng = np.random.default_rng(13)
        xs += list(rng.uniform(-12.0 * half, 12.0 * half, 60))
        return np.array(xs, dtype=float)

    @pytest.mark.parametrize("pp", PAIRS, ids=str)
    def test_sin_cos_sin_cos_pq_match_scalar_calls(self, pp):
        xs = self._arguments(pp)
        s, c = sin_cos(pp, xs)
        sv, cv = sin_pq(pp, xs), cos_pq(pp, xs)
        for i, x in enumerate(xs.tolist()):
            want_s, want_c = sin_pq(pp, x), cos_pq(pp, x)
            assert (_bits(s[i]), _bits(c[i])) == tuple(map(_bits, sin_cos(pp, x))), x
            for got, want in ((sv, want_s), (cv, want_c)):
                assert _bits(got.value[i]) == _bits(want.value), x
                assert got.quadrant[i] == want.quadrant, x
                assert _bits(got.reduced_x[i]) == _bits(want.reduced_x), x

    @pytest.mark.parametrize("pp", PAIRS, ids=str)
    def test_arcsin_matches_scalar_calls(self, pp):
        rng = np.random.default_rng(14)
        ss = np.concatenate([
            [0.0, 5e-324, 1e-300, 0.5, 1.0, np.nextafter(1.0, 0.0)],
            rng.uniform(0.0, 1.0, 40),
            10.0 ** rng.uniform(-300.0, 0.0, 10),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 10),
        ])
        got = arcsin_pq(pp, ss)
        assert [_bits(v) for v in got] == [_bits(arcsin_pq(pp, s)) for s in ss.tolist()]

    @pytest.mark.parametrize("shape", [(2, 3), ()])
    def test_shape_is_kept(self, shape):
        xs = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
        s, c = sin_cos(PP23, xs)
        fv = cos_pq(PP23, xs)
        for got in (s, c, fv.value, fv.quadrant, fv.reduced_x, arcsin_pq(PP23, np.asarray(abs(xs) / 3.0))):
            assert got.shape == shape
        last = float(xs.flat[-1])
        assert (s.flat[-1], c.flat[-1]) == sin_cos(PP23, last)

    @pytest.mark.parametrize("bad", [math.nan, 2.0**53, -2.0**60, math.inf])
    def test_one_bad_element_raises(self, bad):
        xs = np.array([0.5, bad, 1.0])
        for fn in (sin_pq, cos_pq, sin_cos):
            with pytest.raises(DomainError):
                fn(PP23, xs)

    @pytest.mark.parametrize("bad", [math.nan, -1e-300, 1.5])
    def test_arcsin_bad_element_raises(self, bad):
        with pytest.raises(DomainError):
            arcsin_pq(PP23, np.array([0.25, bad]))

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4])
    @pytest.mark.parametrize("pp", [PP23, PP432, ParamPair(5.0, 5.0)], ids=str)
    def test_non_convergence_as_scalar_calls(self, pp, max_iter):
        # few iterations leave some roots unsolved: the array solve raises
        # exactly when a scalar call does, and else gives the scalar bits
        config = EvalConfig(max_iter=max_iter)
        xs = np.linspace(-6.0, 6.0, 301)
        scalar, failed = [], False
        for x in xs.tolist():
            try:
                scalar += sin_cos(pp, x, config)
            except NonConvergenceError:
                failed = True
        if failed:
            with pytest.raises(NonConvergenceError):
                sin_cos(pp, xs, config)
        else:
            s, c = sin_cos(pp, xs, config)
            assert [_bits(v) for v in np.column_stack([s, c]).ravel()] == [_bits(v) for v in scalar]

    def test_empty_array_gives_empty_arrays(self):
        empty = np.array([])
        s, c = sin_cos(PP23, empty)
        fv = cos_pq(PP23, empty)
        for arr in (s, c, fv.value, fv.quadrant, fv.reduced_x, arcsin_pq(PP23, empty)):
            assert arr.shape == (0,)

    def test_fractional_power_raises_and_clamps_as_scalar(self):
        with pytest.raises(DomainError):
            fractional_power(np.array([0.5, 2.0 * _CLAMP_THRESHOLD]), 0.5)
        bases = np.array([0.5 * _CLAMP_THRESHOLD, -1e-16, -0.0, 0.0, 0.25])
        for exponent in (0.5, 1.0, 1.0 / 3.0):
            got = fractional_power(bases, exponent)
            want = [fractional_power(b, exponent) for b in bases.tolist()]
            assert [_bits(v) for v in got] == [_bits(v) for v in want]


class TestArrayPieces:
    """The array solve's (F, F') pass and the array cosine give the bits of
    the scalar functions they stand for."""

    PAIRS = TestArrayPath.PAIRS

    @staticmethod
    def _points(upper):
        nodes = [w for w in _GRID if w > 0.0]
        ws = nodes + [np.nextafter(w, 0.0) for w in nodes] + [np.nextafter(w, 2.0) for w in nodes]
        ws += [1e-300, 1e-200, 1e-100, 1e-20] + [1.0 - k * 2.0**-53 for k in (1, 2, 3, 4, 8)]
        return np.array(sorted(w for w in ws if w < 1.0 or (w == 1.0 and not upper)))

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    @pytest.mark.parametrize("pp", PAIRS, ids=str)
    def test_fused_value_and_slope_match_f_and_df(self, pp, upper):
        half = _pair_record(pp.p, pp.q, DEFAULT_CONFIG.quad_tol)[2 if upper else 1]
        ws = self._points(upper)
        f, df = half.f_array(ws)
        assert [_bits(v) for v in f] == [_bits(half.f(w)) for w in ws.tolist()]
        assert [_bits(v) for v in df] == [_bits(half.df(w)) for w in ws.tolist()]

    @pytest.mark.parametrize("pp", PAIRS, ids=str)
    def test_signed_cos_matches_scalar_in_every_quadrant(self, pp):
        s = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.9, 1.0, 1.0])
        one_minus_s = 1.0 - s
        one_minus_s[-2:] = (2.0**-53, 0.0)
        for quadrant in range(4):
            quadrants = np.full(s.size, quadrant)
            got = _signed_cos(pp, quadrants, s, one_minus_s)
            want = [_signed_cos(pp, quadrant, *v) for v in zip(s.tolist(), one_minus_s.tolist())]
            assert [_bits(v) for v in got] == [_bits(v) for v in want]
            assert not any(_bits(v) == _bits(-0.0) for v in got)


class TestKernelCallsPerInversion:
    """A warm inversion opens at the Hermite point of its seed cell and
    closes with a Newton step, so it makes about two kernel passes."""

    PAIRS = [PP23, PP432, ParamPair(5.0, 5.0)]

    @staticmethod
    def _counted(monkeypatch):
        calls = [0]

        def scalar(*args):
            calls[0] += 1
            return incomplete_beta(*args)

        def array(a, b, x, front):
            calls[0] += x.size
            return incomplete_beta_array(a, b, x, front)

        incomplete_beta = functions.incomplete_beta
        incomplete_beta_array = functions.incomplete_beta_array
        monkeypatch.setattr(functions, "incomplete_beta", scalar)
        monkeypatch.setattr(functions, "incomplete_beta_array", array)
        return calls

    @staticmethod
    def _arguments(pp):
        return np.random.default_rng(21).uniform(0.0, 2.0 * pi_pq(pp), 500)

    @pytest.mark.parametrize("pp", PAIRS, ids=str)
    def test_scalar_inversion(self, pp, monkeypatch):
        xs = self._arguments(pp)
        sin_cos(pp, 1.0)  # the pair record is built outside the count
        calls = self._counted(monkeypatch)
        for x in xs.tolist():
            sin_cos(pp, x)
        assert calls[0] / xs.size <= 2.3

    @pytest.mark.parametrize("pp", PAIRS, ids=str)
    def test_array_inversion(self, pp, monkeypatch):
        xs = self._arguments(pp)
        sin_cos(pp, 1.0)
        calls = self._counted(monkeypatch)
        sin_cos(pp, xs)
        assert calls[0] / xs.size <= 2.3


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


class TestExactSymmetry:
    """sin_pq is exactly odd and cos_pq exactly even: -x reduces as x does."""

    PAIRS = [ParamPair(p, q) for p, q in PQ_PANEL] + [
        PP22, ParamPair(1.05, 1000.0), ParamPair(1000.0, 1.05)
    ]

    @staticmethod
    def arguments(pp):
        half = 0.5 * pi_pq(pp)
        xs = [5e-324, 1e-300, 1e-10, 1e-5, 0.3]
        for k in range(-8, 9):
            b = k * half
            xs += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
        rng = np.random.default_rng(10)
        xs += [float(v) for v in rng.uniform(-24.0 * half, 24.0 * half, 40)]
        return xs

    @pytest.mark.parametrize("pp", PAIRS, ids=str)
    def test_bit_exact_mirror(self, pp):
        for x in self.arguments(pp):
            sp, sm = sin_pq(pp, x), sin_pq(pp, -x)
            cp, cm = cos_pq(pp, x), cos_pq(pp, -x)
            assert sm.value == -sp.value, x
            assert cm.value == cp.value, x
            s, c = sin_cos(pp, x)
            assert sin_cos(pp, -x) == (-s, c), x
            if x != 0.0:  # -0.0 is not negative, so 0.0 has no mirror
                assert sm.reduced_x == sp.reduced_x == cm.reduced_x, x
                assert sm.quadrant == cm.quadrant == 3 - sp.quadrant, x

    def test_small_negative_argument_is_its_own_sine(self):
        # a wrap by x + period would round these by up to 8e-8 relative
        for x in (1e-10, 5e-324):
            assert sin_pq(PP22, -x).value == -x


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

    def test_threads_racing_on_new_pairs_compute_identical_values(self):
        pairs = [ParamPair(1.37, 2.71), ParamPair(2.93, 1.61), ParamPair(7.7, 5.3)]
        xs = [-6.1, -0.4, 0.0, 0.3, 1.2, 2.9, 9.5]
        threads = 4
        barrier = threading.Barrier(threads)

        def run(start=None) -> list[str]:
            if start is not None:
                start.wait(timeout=60)
            # the array path first on one pair, the scalar path first on the others
            values = [v for a in sin_cos(pairs[0], np.array(xs)) for v in a.tolist()]
            values += [v for pp in pairs for x in xs for v in sin_cos(pp, x)]
            return [_bits(v) for v in values]

        _pair_record.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside each pair's set-up too
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                raced = list(pool.map(run, [barrier] * threads))
        finally:
            sys.setswitchinterval(interval)
        _pair_record.cache_clear()
        alone = run()
        assert raced == [alone] * threads
