"""Kernel tests: quadrature, special-function oracles, root-finder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtrig.errors import (
    BracketError,
    DomainError,
    NonConvergenceError,
    NonFiniteIntegrandError,
)
from gtrig.numerics import (
    agm,
    beta,
    incomplete_beta,
    incomplete_beta_array,
    integrate_endpoint_singular,
    _solve_increasing_array,
    log_gamma,
    solve_increasing,
)
from gtrig import numerics
from gtrig.identities import verify

from conftest import AGM_1_SQRT2, LOG_GAMMA_HALF, LOG_GAMMA_THIRD


def arcsine_reflected(u):
    # integrand of the arcsine integral after t -> 1 - u, so the inverse
    # square-root singularity sits at the zero endpoint
    return 1.0 / np.sqrt(u * (2.0 - u))


class TestIntegrate:
    def test_constant_integrand(self):
        res = integrate_endpoint_singular(lambda t: np.ones_like(t), 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_arcsine_integral(self):
        res = integrate_endpoint_singular(arcsine_reflected, 0.0, 1.0, tol=1e-13)
        assert abs(res.value - math.pi / 2) <= 1e-13
        assert res.error_estimate <= 1e-13

    def test_lemniscate_quarter_period_vs_agm(self):
        # integral of (1 - t**4)**(-1/2) over [0, 1], reflected: the factor
        # 1 - t**4 becomes u (2 - u) (1 + (1-u)**2)
        def f(u):
            t = 1.0 - u
            return 1.0 / np.sqrt(u * (2.0 - u) * (1.0 + t * t))

        res = integrate_endpoint_singular(f, 0.0, 1.0, tol=1e-13)
        expected = math.pi / (2.0 * agm(1.0, math.sqrt(2.0)))
        assert abs(res.value - expected) <= 1e-13

    def test_result_invariants(self):
        res = integrate_endpoint_singular(arcsine_reflected, 0.0, 1.0)
        assert math.isfinite(res.error_estimate) and res.error_estimate >= 0.0
        assert 1 <= res.evaluations <= 2**20

    @given(
        st.floats(0.05, 0.45),
        st.floats(0.55, 0.95),
    )
    @settings(max_examples=25, deadline=None)
    def test_additive_over_subintervals(self, b_lo, b_hi):
        def f(t):
            return np.cos(t) + t**3

        tol = 1e-13
        for b in (b_lo, b_hi):
            whole = integrate_endpoint_singular(f, 0.0, 1.0, tol).value
            left = integrate_endpoint_singular(f, 0.0, b, tol).value
            right = integrate_endpoint_singular(f, b, 1.0, tol).value
            assert abs(whole - (left + right)) <= 2.0 * tol

    def test_random_exponent_pairs_against_beta(self):
        # 2 * integral of (1 - t**q)**(-1/p) equals (2/q) B(1/q, 1 - 1/p);
        # the full 200-pair sweep lives in the acceptance suite
        rng = np.random.default_rng(2024)
        for _ in range(40):
            p = rng.uniform(1.1, 10.0)
            q = rng.uniform(1.1, 10.0)

            def f(u, q=q, p=p):
                return np.power(-np.expm1(q * np.log1p(-u)), -1.0 / p)

            quad = 2.0 * integrate_endpoint_singular(f, 0.0, 1.0, 1e-13).value
            closed = (2.0 / q) * beta(1.0 / q, 1.0 - 1.0 / p)
            assert abs(quad - closed) / closed <= 1e-11

    def test_levels_that_agree_by_accident(self):
        # levels 2 and 3 of this pi_pq integral agree to 8e-14 while both are
        # 4.5e-12 off; the difference alone stopped the refinement there
        p, q = 893.5477181395007, 360.99919444854237

        def f(u):
            return np.power(-np.expm1(q * np.log1p(-u)), -1.0 / p)

        quad = integrate_endpoint_singular(f, 0.0, 1.0, 1e-13).value
        closed = beta(1.0 / q, 1.0 - 1.0 / p) / q
        assert abs(quad - closed) <= 1e-13 * closed

    def test_non_finite_integrand_raises(self):
        def f(t):
            return np.where(np.abs(t - 0.5) < 0.1, np.nan, 1.0)

        with pytest.raises(NonFiniteIntegrandError):
            integrate_endpoint_singular(f, 0.0, 1.0)

    def test_evaluation_cap_raises(self):
        with pytest.raises(NonConvergenceError):
            integrate_endpoint_singular(
                arcsine_reflected, 0.0, 1.0, tol=1e-13, max_evals=30
            )

    def test_rejects_bad_interval_and_tol(self):
        with pytest.raises(DomainError):
            integrate_endpoint_singular(arcsine_reflected, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_endpoint_singular(arcsine_reflected, 0.0, 1.0, tol=0.0)


def log_gamma_product_form(x: float, n: int = 20000) -> float:
    """Brute-force ln Gamma via the factorial limit form, in 30-digit
    arithmetic, with two Richardson extrapolation levels to kill the 1/n and
    1/n**2 terms of the truncation error."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    old = mp.dps
    mp.dps = 30
    try:
        xm = mpmath.mpf(x)

        def partial(m: int):
            s = mpmath.fsum(mpmath.log(xm + k) for k in range(m + 1))
            return mpmath.log(mpmath.factorial(m)) + xm * mpmath.log(m) - s

        f1, f2, f4 = partial(n), partial(2 * n), partial(4 * n)
        r1, r2 = 2 * f2 - f1, 2 * f4 - f2
        return float((4 * r2 - r1) / 3)
    finally:
        mp.dps = old


class TestLogGamma:
    def test_gamma_of_one(self):
        assert log_gamma(1.0) == 0.0

    def test_gamma_of_half(self):
        assert abs(log_gamma(0.5) - LOG_GAMMA_HALF) <= 1e-13 * LOG_GAMMA_HALF

    def test_gamma_third_against_product_form(self):
        oracle = log_gamma_product_form(1.0 / 3.0, n=5000)
        assert abs(oracle - LOG_GAMMA_THIRD) <= 1e-11
        assert abs(log_gamma(1.0 / 3.0) - LOG_GAMMA_THIRD) <= 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)

    def test_float_range_against_mpmath(self):
        # up to the float range the value, past it DomainError
        mpmath = pytest.importorskip("mpmath")
        want = float(mpmath.loggamma(2e305))
        assert abs(log_gamma(2e305) - want) <= 1e-14 * want
        assert float(mpmath.loggamma(3e305)) == math.inf
        with pytest.raises(DomainError):
            log_gamma(3e305)
        with pytest.raises(DomainError):
            beta(1e308, 1e308)


class TestBeta:
    def test_ones(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_halves(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_against_quadrature(self):
        # (2/3) B(1/3, 1/2) = 2 * integral of (1 - t**3)**(-1/2); with
        # t -> 1 - u the factor 1 - t**3 becomes u (3 - 3u + u**2)
        def f(u):
            return 1.0 / np.sqrt(u * (3.0 - 3.0 * u + u * u))

        quad = 2.0 * integrate_endpoint_singular(f, 0.0, 1.0, 1e-13).value
        assert abs((2.0 / 3.0) * beta(1.0 / 3.0, 0.5) - quad) <= 1e-12

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            beta(a, b)

    def test_large_arguments_against_mpmath(self):
        # lgamma(a) + lgamma(b) - lgamma(a + b) cancels for large a; an error
        # of e in log B is a relative error of e in B
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(19)
        a_s = np.exp(rng.uniform(math.log(1e-3), math.log(1e20), 6000)).tolist()
        b_s = np.exp(rng.uniform(math.log(1e-3), math.log(1e8), 6000)).tolist()
        checked = 0
        with mpmath.workdps(30):
            for a, b in [(1e20, 1.0), (1e8, 1.0), *zip(a_s, b_s)]:
                want = mpmath.beta(a, b)
                if not 1e-300 < want < 1e300:
                    continue
                checked += 1
                scale = max(1.0, abs(float(mpmath.log(want))))
                assert abs(beta(a, b) - want) <= 32.0 * math.ulp(1.0) * scale * want, (a, b)
        assert checked > 3000


def plain_incomplete_beta(a, b, x):
    return incomplete_beta(a, b, x, x**a * (1.0 - x) ** b)


class TestIncompleteBeta:
    @given(st.floats(1e-3, 1.0), st.floats(0.0, 0.3))
    @settings(max_examples=100, deadline=None)
    def test_closed_forms_for_a_or_b_one(self, c, x):
        # B_x(c, 1) = x**c / c and B_x(1, c) = (1 - (1 - x)**c) / c
        assert plain_incomplete_beta(c, 1.0, x) == pytest.approx(
            x**c / c, rel=4e-15
        )
        assert plain_incomplete_beta(1.0, c, x) == pytest.approx(
            -math.expm1(c * math.log1p(-x)) / c, rel=4e-15, abs=1e-300
        )

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(406)
        with mpmath.workdps(30):
            for _ in range(200):
                a, b = 10.0 ** rng.uniform(-3.0, 0.0, 2)
                x = rng.uniform(0.0, (a + 1.0) / (a + b + 2.0))
                want = float(mpmath.betainc(a, b, 0, x))
                got = plain_incomplete_beta(a, b, x)
                assert abs(got - want) <= 4e-15 * want

    def test_non_convergence_raises(self):
        # far above the threshold (a + 1)/(a + b + 2) the fraction crawls
        with pytest.raises(NonConvergenceError):
            plain_incomplete_beta(1.0, 1e6, 0.9)

    def test_array_form_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for a, b in ((1.0 / 3.0, 0.5), (0.5, 1.0 / 3.0), (1e-3, 0.999), (0.95, 0.001)):
            x = rng.uniform(0.0, (a + 1.0) / (a + b + 2.0), 300)
            x[:3] = (0.0, 5e-324, 1e-300)
            front = x**a * (1.0 - x) ** b
            got = incomplete_beta_array(a, b, x, front)
            want = [incomplete_beta(a, b, *xf) for xf in zip(x.tolist(), front.tolist())]
            assert got.tolist() == want
        assert incomplete_beta_array(0.5, 0.5, np.array([]), np.array([])).shape == (0,)

    def test_array_form_returns_at_once_on_empty_input(self, monkeypatch):
        # with no fraction steps allowed, reaching the fraction loop would raise
        monkeypatch.setattr(numerics, "_CF_MAX_STEPS", 0)
        assert incomplete_beta_array(0.5, 0.5, np.array([]), np.array([])).shape == (0,)

    def test_array_form_non_convergence_raises(self):
        with pytest.raises(NonConvergenceError):
            incomplete_beta_array(1.0, 1e6, np.array([0.1, 0.9]), np.array([1.0, 1.0]))


class TestAgm:
    def test_fixed_points(self):
        assert agm(1.0, 1.0) == 1.0
        assert agm(2.0, 2.0) == 2.0

    def test_lemniscate_value(self):
        got = agm(1.0, math.sqrt(2.0))
        assert abs(got - AGM_1_SQRT2) <= 1e-14 * AGM_1_SQRT2

    @pytest.mark.parametrize(
        "a,b",
        [
            (1e-300, 1e300), (1e-200, 1e200), (5e-324, 1.7e308), (1e-100, 1e100),
            (1e308, 1.5e308), (1.7e308, 1.7e308), (5e-324, 5e-324),
        ],
    )
    def test_means_far_apart_against_mpmath(self, a, b):
        # the geometric mean is formed without the product a * b, which overflows,
        # and the arithmetic one without overflowing a + b or halving a subnormal
        mpmath = pytest.importorskip("mpmath")
        want = float(mpmath.agm(a, b))
        assert abs(agm(a, b) - want) <= 1e-14 * want

    @given(
        st.floats(0.1, 50.0),
        st.floats(0.1, 50.0),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, a, b, k):
        assert agm(k * a, k * b) == pytest.approx(k * agm(a, b), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            agm(0.0, 1.0)
        with pytest.raises(DomainError):
            agm(1.0, -1.0)


class TestSolveIncreasing:
    def test_identity_function(self):
        got = solve_increasing(lambda s: s, 0.0, 1.0, 0.3)
        assert abs(got - 0.3) <= 1e-13

    def test_cube(self):
        got = solve_increasing(lambda s: s**3, 0.0, 1.0, 0.027)
        assert abs(got**3 - 0.027) <= 1e-13

    def test_arcsine_inversion(self):
        # the arc-length integral of the circle: root of F(s) = pi/6 is 1/2
        def f(s):
            if s <= 0.0:
                return 0.0
            return integrate_endpoint_singular(
                lambda t: 1.0 / np.sqrt(1.0 - t * t), 0.0, s, 1e-13
            ).value

        def df(s):
            return (1.0 - s * s) ** -0.5

        got = solve_increasing(f, 0.0, 0.9, math.pi / 6.0, deriv=df)
        assert abs(got - 0.5) <= 1e-12

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_polynomial_round_trip(self, a, b, c, root):
        def f(s):
            return a * s + b * s**3 + c * s**5

        target = f(root)
        got = solve_increasing(f, 0.0, 2.0, target, tol=1e-13)
        assert abs(f(got) - target) <= 1e-13

    def test_newton_accepts_derivative(self):
        calls = []

        def f(s):
            calls.append(s)
            return s**3

        got = solve_increasing(f, 0.0, 1.0, 0.5**3, deriv=lambda s: 3 * s * s)
        assert abs(got - 0.5) <= 1e-10
        assert len(calls) <= 12

    def test_opening_point(self):
        # the Hermite point of the inverse from the endpoint slopes; false
        # position without them or where one is not finite
        calls = []

        def f(s):
            calls.append(s)
            return s**3

        target = 0.7**3
        fa, fb = 0.125 - target, 1.0 - target
        t = -fa / (fb - fa)
        hermite = 0.5 + 0.5 * t * t * (3.0 - 2.0 * t) + (fb - fa) * t * (1.0 - t) * (
            (1.0 - t) / 0.75 - t / 3.0
        )
        for slopes, first in (
            ({"df_lo": 0.75, "df_hi": 3.0}, hermite),
            ({}, 0.5 - fa * 0.5 / (fb - fa)),
            ({"df_lo": math.inf, "df_hi": 3.0}, 0.5 - fa * 0.5 / (fb - fa)),
        ):
            calls.clear()
            got = solve_increasing(f, 0.5, 1.0, target, f_lo=0.125, f_hi=1.0, **slopes)
            assert calls[0] == first
            assert abs(got**3 - target) <= 1e-13
        assert abs(hermite - 0.7) < 0.5 * abs(0.5 - fa * 0.5 / (fb - fa) - 0.7)

    def test_closing_newton_step(self):
        # the residual test passes at the first point; the Newton step from
        # it is returned, at no further evaluation of f
        calls = []

        def f(s):
            calls.append(s)
            return s**3

        target = 0.7**3
        got = solve_increasing(f, 0.5, 1.0, target, deriv=lambda s: 3.0 * s * s, tol=0.2)
        assert len(calls) == 3
        x = calls[-1]
        assert got == x - (x**3 - target) / (3.0 * x * x)
        assert abs(got - 0.7) < 0.01 < abs(x - 0.7)
        assert solve_increasing(f, 0.5, 1.0, target, tol=0.2) == x

    def test_endpoint_hits(self):
        assert solve_increasing(lambda s: s, 0.0, 1.0, 0.0) == 0.0
        assert solve_increasing(lambda s: s, 0.0, 1.0, 1.0) == 1.0

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            solve_increasing(lambda s: s, 0.0, 1.0, 2.0)
        with pytest.raises(BracketError):
            solve_increasing(lambda s: s, 0.0, 1.0, -0.5)

    def test_non_convergence(self):
        with pytest.raises(NonConvergenceError):
            solve_increasing(lambda s: s**3, 0.0, 1.0, 0.027, tol=1e-16, max_iter=2)

    def test_bracket_collapse_returns_best_float(self):
        # steep slope: consecutive floats move f by ~2e-10, far above tol, so
        # the solver must settle on the best representable argument
        target = math.pi / 7.0
        got = solve_increasing(lambda s: 1e6 * s, 0.0, 1.0, target, tol=1e-13)
        assert abs(1e6 * got - target) <= 1e6 * 2.3e-16 * abs(got) + 1e-9

    def test_validates_arguments(self):
        with pytest.raises(DomainError):
            solve_increasing(lambda s: s, 1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            solve_increasing(lambda s: s, 0.0, 1.0, 0.5, tol=-1.0)


class TestSolveIncreasingArray:
    """The array twin gives each element the scalar solve's root, bit for bit."""

    @staticmethod
    def _cube(s):
        return s * s * s  # arithmetic only: the same bits on floats and arrays

    @staticmethod
    def _slope(s):
        return 3.0 * s * s

    @staticmethod
    def _curvature(s):
        return 6.0 * s

    def _pass(self, s, curve=False):
        # the array solve's f: value and slope, and the curvature where asked
        return (self._cube(s), self._slope(s), self._curvature(s))[: 3 if curve else 2]

    def _both(self, targets, df_lo, tol=1e-13, max_iter=100):
        n = targets.size
        lo, hi = np.full(n, 0.5), np.ones(n)
        got = _solve_increasing_array(
            self._pass, lo, hi, targets, np.full(n, tol),
            max_iter, self._cube(lo), self._cube(hi), df_lo, np.full(n, 3.0),
        )
        want = [
            solve_increasing(
                self._cube, 0.5, 1.0, t, deriv=self._slope, tol=tol, max_iter=max_iter,
                f_lo=0.125, f_hi=1.0, df_lo=d, df_hi=3.0, curvature=self._curvature,
            )
            for t, d in zip(targets.tolist(), df_lo.tolist())
        ]
        return got.tolist(), want

    def test_each_root_is_the_scalar_root(self):
        # end slopes of 0, inf and nan skip the Hermite opening point on both paths
        targets = np.concatenate([[0.125, 1.0], np.random.default_rng(3).uniform(0.125, 1.0, 64)])
        got, want = self._both(targets, np.resize([0.75, 0.0, np.inf, np.nan], targets.size))
        assert got == want
        assert got[:2] == [0.5, 1.0]

    def test_non_convergence_and_bracket_errors(self):
        with pytest.raises(NonConvergenceError):
            self._both(np.array([0.2, 0.9]), np.full(2, 0.75), tol=1e-300, max_iter=1)
        with pytest.raises(BracketError):
            self._both(np.array([0.2, 1.5]), np.full(2, 0.75))


class TestHalleyClosingStep:
    """With a curvature, an opening point that fails the residual test ends
    the solve with Halley's step where Newton's own predicted residual passes;
    elsewhere the solve goes on as without it.  The scalar and the array solve
    agree bit for bit either way."""

    @staticmethod
    def _cube(s):
        return s * s * s

    @staticmethod
    def _slope(s):
        return 3.0 * s * s

    @staticmethod
    def _curvature(s):
        return 6.0 * s

    def _scalar(self, lo, hi, target, *, slope=None, curvature=None, tol=1e-13, max_iter=100):
        calls = []

        def f(s):
            calls.append(s)
            return self._cube(s)

        slope = slope or self._slope
        root = solve_increasing(
            f, lo, hi, target, deriv=slope, tol=tol, max_iter=max_iter, f_lo=self._cube(lo),
            f_hi=self._cube(hi), df_lo=slope(lo), df_hi=slope(hi), curvature=curvature,
        )
        return root, calls

    def _array(self, lo, hi, target, *, slope=None, curvature=None, tol=1e-13, max_iter=100):
        calls = []
        slope, curvature = slope or self._slope, curvature or self._curvature

        def f(s, curve=False):
            calls.append(s.tolist())
            return (self._cube(s), slope(s), curvature(s))[: 3 if curve else 2]

        one = np.ones(1)
        root = _solve_increasing_array(
            f, lo * one, hi * one, target * one, tol * one, max_iter, self._cube(lo) * one,
            self._cube(hi) * one, slope(lo) * one, slope(hi) * one,
        )
        return float(root[0]), [c[0] for c in calls]

    # on a narrow cell the Hermite point is close enough for the rule, on a wide one not
    NARROW, WIDE = (0.7, 0.7 + 2.0**-6, 0.7005**3), (0.5, 1.0, 0.7**3)

    def test_acceptance_is_one_pass_and_the_halley_step(self):
        lo, hi, target = self.NARROW
        root, calls = self._scalar(lo, hi, target, curvature=self._curvature)
        assert len(calls) == 1
        x = calls[0]
        assert abs(self._cube(x) - target) > 1e-13  # the residual test fails at x
        dn = (self._cube(x) - target) / self._slope(x)
        assert root == x - dn / (1.0 - dn * self._curvature(x) / (2.0 * self._slope(x)))
        assert (root, calls) == self._array(lo, hi, target)
        # without the curvature the same point takes a second pass
        assert len(self._scalar(lo, hi, target)[1]) == 2

    def test_rejection_keeps_the_solve_without_curvature(self):
        lo, hi, target = self.WIDE
        with_rule = self._scalar(lo, hi, target, curvature=self._curvature)
        assert with_rule == self._scalar(lo, hi, target)
        assert len(with_rule[1]) > 1
        assert with_rule == self._array(lo, hi, target)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_curvature_falls_back(self, bad):
        lo, hi, target = self.NARROW

        def curvature(s):
            return s * bad

        got = self._scalar(lo, hi, target, curvature=curvature)
        assert got == self._scalar(lo, hi, target)
        assert got == self._array(lo, hi, target, curvature=curvature)

    def test_infinite_slope_falls_back(self):
        # a slope of inf at every point: no Newton step, so no Halley step,
        # and the solve bisects as it does without a curvature
        lo, hi, target = self.NARROW

        def slope(s):
            return s * math.inf

        got = self._scalar(lo, hi, target, slope=slope, curvature=self._curvature)
        assert got == self._scalar(lo, hi, target, slope=slope)
        assert got == self._array(lo, hi, target, slope=slope)

    def test_one_iteration_returns_or_raises_alike(self):
        lo, hi, target = self.NARROW
        root = self._scalar(lo, hi, target, curvature=self._curvature, max_iter=1)[0]
        assert root == self._array(lo, hi, target, max_iter=1)[0]
        with pytest.raises(NonConvergenceError):
            self._scalar(lo, hi, target, max_iter=1)
        lo, hi, target = self.WIDE
        with pytest.raises(NonConvergenceError):
            self._scalar(lo, hi, target, curvature=self._curvature, max_iter=1)
        with pytest.raises(NonConvergenceError):
            self._array(lo, hi, target, max_iter=1)

    def test_without_curvature_the_roots_keep_their_bits(self):
        # roots of s**3 = t by the solve as it was before the curvature existed
        pinned = [
            "0x1.870dcaf8278b6p-1", "0x1.870dcaf827a0ep-1", "0x1.5683c4004f389p-1",
            "0x1.5683c4004f504p-1", "0x1.2ca7fb7c2a9bbp-1", "0x1.2ca7fb7c2aa68p-1",
            "0x1.c5db7074fbae6p-1", "0x1.c5db7074fbbb6p-1", "0x1.9d8a657bf8efep-1",
            "0x1.9d8a657bf8e88p-1", "0x1.fe2724aef5d1dp-1", "0x1.fe2724aef5cbcp-1",
        ]
        got = []
        for t in np.random.default_rng(22).uniform(0.125, 1.0, 6).tolist():
            got.append(solve_increasing(self._cube, 0.5, 1.0, t, deriv=self._slope, f_lo=0.125,
                                        f_hi=1.0, df_lo=0.75, df_hi=3.0).hex())
            got.append(solve_increasing(self._cube, 0.5, 1.0, t).hex())
        assert got == pinned


def _one(t):
    return np.ones_like(t)


class TestArgumentRule:
    """Every tolerance, count and argument of log_gamma, beta and agm follows
    the one argument rule of gtrig: a Python or numpy real that is not a bool,
    finite and > 0 where it must be positive, an integer >= 1 for a count."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: log_gamma(True),
            lambda: beta(True, 1.0),
            lambda: beta("a", 1.0),
            lambda: agm("a", 1.0),
            lambda: agm(None, 1.0),
            lambda: integrate_endpoint_singular(_one, 0.0, 1.0, tol=math.inf),
            lambda: integrate_endpoint_singular(_one, 0.0, 1.0, tol=True),
            lambda: integrate_endpoint_singular(_one, 0.0, 1.0, tol="a"),
            lambda: integrate_endpoint_singular(_one, "0", 1.0),
            lambda: integrate_endpoint_singular(_one, 0.0, 1.0, max_evals=True),
            lambda: integrate_endpoint_singular(_one, 0.0, 1.0, max_evals=2.5),
            lambda: integrate_endpoint_singular(_one, 0.0, 1.0, max_evals=0),
            lambda: solve_increasing(lambda s: s, 0.0, 1.0, 0.3, tol=math.inf),
            lambda: solve_increasing(lambda s: s, 0.0, 1.0, 0.3, tol="a"),
            lambda: solve_increasing(lambda s: s, 0.0, 1.0, 0.3, max_iter=True),
            lambda: solve_increasing(lambda s: s, 0.0, 1.0, 0.3, max_iter=2.0),
            lambda: solve_increasing(lambda s: s**3, 0.0, 1.0, 0.3, max_iter=0),
            lambda: verify("dbl-2-2", samples=10, tol=math.inf),
        ],
        ids=[
            "log_gamma-bool", "beta-bool", "beta-str", "agm-str", "agm-None",
            "quad-tol-inf", "quad-tol-bool", "quad-tol-str", "quad-lower-str",
            "quad-max_evals-bool", "quad-max_evals-float", "quad-max_evals-0",
            "solve-tol-inf", "solve-tol-str", "solve-max_iter-bool",
            "solve-max_iter-float", "solve-max_iter-0", "verify-tol-inf",
        ],
    )
    def test_raises_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize(
        "got, want",
        [
            (lambda: log_gamma(np.int64(3)), lambda: math.lgamma(3.0)),
            (lambda: log_gamma(np.float32(2.0)), lambda: 0.0),
            (lambda: agm(np.float32(1.0), 2.0), lambda: agm(1.0, 2.0)),
            (lambda: beta(np.int64(2), np.float32(0.5)), lambda: beta(2.0, 0.5)),
        ],
        ids=["log_gamma-int64", "log_gamma-float32", "agm-float32", "beta-numpy"],
    )
    def test_numpy_reals_give_the_python_float_of_their_value(self, got, want):
        value = got()
        assert type(value) is float and value == want()
