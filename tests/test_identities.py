"""Catalog, engine, and proof re-enactment tests."""

import dataclasses
import math

import numpy as np
import pytest

from gtrig import identities
from gtrig.errors import DomainError, UnknownIdentityError
from gtrig.functions import EvalConfig, ParamPair, cos_pq, ode_residual, pi_pq, sin_pq
from gtrig.identities import (
    P_PANEL,
    PQ_PANEL,
    dbl_angle_2_3,
    dbl_angle_43_2,
    eval_identity,
    identity_ids,
    identity_specs,
    verify,
)

from conftest import (
    PI_ORACLE,
    SIN23_QUARTER,
    COS23_QUARTER,
    SIN432_QUARTER,
    COS432_QUARTER,
)

VOCABULARY = (
    "pythagorean",
    "dbl-2-2",
    "dbl-2-4",
    "dbl-3:2-3",
    "dbl-4:3-4",
    "dbl-2-3",
    "dbl-4:3-2",
    "maf-sin",
    "maf-cos",
    "half-sin",
    "half-cos",
    "duality-pi",
    "duality-sin",
    "lemniscate-add",
    "proof-xtoy",
    "proof-sin2x",
    "proof-f2x",
    "proof-gx",
    "proof-sum-diff",
)


class TestCatalog:
    def test_vocabulary_is_stable(self):
        assert identity_ids() == VOCABULARY

    def test_panels(self):
        assert P_PANEL == (1.5, 2.0, 3.0, 4.0, 7.5)
        assert len(PQ_PANEL) == 7

    def test_parameterized_ids_expand_over_panel(self):
        assert len(identity_specs("maf-sin")) == len(P_PANEL)
        assert len(identity_specs("pythagorean")) == len(PQ_PANEL)
        assert len(identity_specs("dbl-2-3")) == 1

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentityError):
            identity_specs("no-such-id")
        with pytest.raises(UnknownIdentityError):
            eval_identity("no-such-id", 0.1)

    @pytest.mark.parametrize("ident, kwargs", [
        ("maf-sin", {"pp": ParamPair(3.0, 2.0)}),
        ("pythagorean", {"p": 7.0}),
        ("dbl-2-2", {"p": 7.0}),
        ("dbl-2-2", {"pp": ParamPair(3.0, 2.0)}),
        ("lemniscate-add", {"p": 7.0}),
    ])
    def test_instance_argument_of_the_wrong_kind(self, ident, kwargs):
        with pytest.raises(DomainError):
            identity_specs(ident, **kwargs)
        with pytest.raises(DomainError):
            eval_identity(ident, 0.5, **kwargs)


class TestDedicatedDoubleAngles:
    def test_2_3_endpoints(self):
        for x in (0.0, 0.5 * pi_pq(ParamPair(2.0, 3.0))):
            lhs, rhs = dbl_angle_2_3(x)
            assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12

    def test_2_3_quarter_point(self):
        half = 0.5 * pi_pq(ParamPair(2.0, 3.0))
        lhs, rhs = dbl_angle_2_3(0.5 * half)
        assert lhs == 1.0
        assert abs(rhs - 1.0) <= 1e-10
        # formula applied to independently frozen quarter-point values
        s, c = SIN23_QUARTER, COS23_QUARTER
        oracle_rhs = 4 * s * c * (3 + c) ** 3 / ((1 + c) * (8 + s**3) ** 2)
        assert abs(oracle_rhs - 1.0) <= 1e-10

    def test_43_2_endpoints(self):
        for x in (0.0, 0.5 * pi_pq(ParamPair(4.0 / 3.0, 2.0))):
            lhs, rhs = dbl_angle_43_2(x)
            assert abs(lhs) <= 1e-12 and abs(rhs) <= 1e-12

    def test_43_2_quarter_point(self):
        half = 0.5 * pi_pq(ParamPair(4.0 / 3.0, 2.0))
        lhs, rhs = dbl_angle_43_2(0.5 * half)
        assert lhs == 1.0
        assert abs(rhs - 1.0) <= 1e-10
        s, c = SIN432_QUARTER, COS432_QUARTER
        oracle_rhs = (
            4 * s * c ** (1 / 3) * (1 + c ** (4 / 3))
            / (2 * c ** (2 / 3) + s**2) ** 2
        )
        assert abs(oracle_rhs - 1.0) <= 1e-10

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            dbl_angle_2_3(-0.1)
        with pytest.raises(DomainError):
            dbl_angle_43_2(10.0)


class TestEvalIdentity:
    def test_pythagorean_any_pair(self):
        lhs, rhs = eval_identity("pythagorean", 2.7, pp=ParamPair(5.0, 3.0))
        assert rhs == 1.0
        assert abs(lhs - rhs) <= 1e-10

    def test_maf_sin_at_zero(self):
        lhs, rhs = eval_identity("maf-sin", 0.0, p=3.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_duality_pi_for_2_4(self):
        lhs, rhs = eval_identity("duality-pi", 0.0, pp=ParamPair(2.0, 4.0))
        assert lhs == pytest.approx(4.0 * PI_ORACLE[(2.0, 4.0)], rel=1e-12)
        assert abs(lhs - rhs) <= 1e-10

    def test_lemniscate_addition_half_period(self):
        quarter = 0.25 * pi_pq(ParamPair(2.0, 4.0))
        lhs, rhs = eval_identity("lemniscate-add", quarter, quarter)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_two_argument_arity_enforced(self):
        with pytest.raises(DomainError):
            eval_identity("lemniscate-add", 0.1)
        with pytest.raises(DomainError):
            eval_identity("dbl-2-2", 0.1, 0.2)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            eval_identity("dbl-2-3", -0.5)
        # proof-f2x is open at 0
        with pytest.raises(DomainError):
            eval_identity("proof-f2x", 0.0)

    @pytest.mark.parametrize("ident", ["maf-sin", "maf-cos", "half-sin", "half-cos"])
    def test_family_exponent_at_one_is_a_domain_error(self, ident):
        # p* = p/(p-1) has no value at p = 1; the pair (2, p) rejects it first
        with pytest.raises(DomainError):
            eval_identity(ident, 0.5, p=1.0)
        with pytest.raises(DomainError):
            verify(ident, samples=10, p_panel=(1.0,))

    def test_exponent_given_as_a_string_is_a_domain_error(self):
        with pytest.raises(DomainError):
            eval_identity("maf-sin", 0.5, p="3")

    @pytest.mark.parametrize("p", [[3], True])
    def test_exponent_that_is_not_a_real_number_is_a_domain_error(self, p):
        with pytest.raises(DomainError):
            eval_identity("maf-sin", 0.5, p=p)

    def test_panel_entry_that_is_not_a_real_number_is_a_domain_error(self):
        with pytest.raises(DomainError):
            verify("maf-sin", samples=10, p_panel=(None,))

    def test_exponent_may_be_a_numpy_real(self):
        want = eval_identity("half-sin", 0.5, p=3.0)
        assert eval_identity("half-sin", 0.5, p=np.int64(3)) == want
        assert eval_identity("half-sin", 0.5, p=np.float64(3.0)) == want

    def test_maf_sin_left_side_is_the_outer_sine(self):
        k = 2.0 ** (2.0 / 3.0)
        for x in (0.1, 0.5, 1.0):
            lhs, _ = eval_identity("maf-sin", x, p=3.0)
            assert lhs == sin_pq(ParamPair(2.0, 3.0), k * x).value

    def test_maf_cos_chain_agrees_pairwise(self):
        spec = identity_specs("maf-cos", p=3.0)[0]
        assert len(spec.comparisons) == 3
        for x in np.linspace(0.0, spec.domain[1], 25):
            values = spec.sides(float(x))
            for i, j in spec.comparisons:
                assert abs(values[i] - values[j]) <= 1e-9

    @pytest.mark.parametrize("call", [identity_specs, eval_identity])
    def test_pp_that_is_not_a_param_pair_is_a_domain_error(self, call):
        args = ("pythagorean",) if call is identity_specs else ("pythagorean", 0.5)
        with pytest.raises(DomainError):
            call(*args, pp=(2.0, 3.0))


PP23 = ParamPair(2.0, 3.0)
_NOT_REAL = ["a", 1 + 0j, None, np.array([0.3]), np.array([0.3, 0.4])]


class TestArgumentRule:
    """Every entry point rejects an input that is not a real number (a bool,
    a string, a complex, None, an array where a scalar is due, an int beyond
    the float range) with DomainError."""

    @pytest.mark.parametrize(
        "call",
        [lambda v=v: ode_residual(PP23, v) for v in _NOT_REAL]
        + [lambda v=v: eval_identity("dbl-2-2", v) for v in _NOT_REAL]
        + [
            lambda: eval_identity("lemniscate-add", 0.1, "a"),
            lambda: EvalConfig(max_iter=True),
            lambda: EvalConfig(quad_tol="1e-13"),
            lambda: ParamPair(10**400, 2),
            lambda: verify("dbl-2-2", samples=20, seed=True),
            lambda: verify("dbl-2-2", samples=20, tol="x"),
            lambda: verify("dbl-2-2", samples=20, rhs_offset=None),
        ],
        ids=[f"ode_residual-{v!r}" for v in _NOT_REAL]
        + [f"eval_identity-{v!r}" for v in _NOT_REAL]
        + ["lemniscate-y", "max_iter-bool", "quad_tol-str", "p-huge-int", "seed-bool",
           "tol-str", "rhs_offset-none"],
    )
    def test_rejects_with_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestVerifyEngine:
    def test_classical_double_angle_tight(self):
        rep = verify("dbl-2-2", samples=100, tol=1e-12, seed=1)
        assert rep.passed
        assert rep.max_abs_err <= 1e-12
        assert rep.samples == 200

    def test_corrupted_rhs_detected(self):
        rep = verify("pythagorean", samples=100, tol=1e-9, seed=1, rhs_offset=1e-6)
        assert not rep.passed
        assert rep.max_abs_err == pytest.approx(1e-6, rel=1e-2)

    def test_pass_iff_within_tol(self):
        loose = verify("dbl-2-2", samples=50, tol=1e-6, seed=2)
        assert loose.passed and loose.max_abs_err <= loose.tol
        # the tight tolerances come from the sweep's own error, which is > 0
        err = loose.max_abs_err
        tight = verify("dbl-2-2", samples=50, tol=err / 2, seed=2)
        assert not tight.passed and tight.max_abs_err > tight.tol
        exact = verify("dbl-2-2", samples=50, tol=err, seed=2)
        assert exact.passed and exact.max_abs_err == exact.tol

    def test_report_is_deterministic(self):
        a = verify("dbl-2-4", samples=80, tol=1e-9, seed=7)
        b = verify("dbl-2-4", samples=80, tol=1e-9, seed=7)
        fields_a = {
            k: v for k, v in dataclasses.asdict(a).items() if k != "elapsed"
        }
        fields_b = {
            k: v for k, v in dataclasses.asdict(b).items() if k != "elapsed"
        }
        assert fields_a == fields_b

    def test_seed_changes_random_points_only(self):
        a = verify("dbl-2-4", samples=80, tol=1e-9, seed=1)
        b = verify("dbl-2-4", samples=80, tol=1e-9, seed=2)
        assert a.passed and b.passed
        assert a.samples == b.samples

    def test_non_finite_is_reported_not_raised(self):
        rep = verify("dbl-2-2", samples=20, tol=1e-9, seed=1, rhs_offset=math.nan)
        assert not rep.passed
        assert rep.note is not None

    def test_non_finite_argmax_is_lexicographic(self):
        # every point is non-finite, so the worst is the largest x, whatever
        # the evaluation order; the note still names the first one
        rep = verify("dbl-2-2", samples=50, rhs_offset=math.inf)
        assert rep.max_abs_err == math.inf
        assert rep.argmax_x == 10.0
        assert rep.note == "non-finite value at (-10.0,)"

    def test_non_finite_argmax_spans_panel_instances(self):
        rep = verify("maf-sin", samples=20, rhs_offset=math.inf)
        ends = [0.5 * pi_pq(ParamPair(p / (p - 1.0), p)) for p in P_PANEL]
        assert rep.argmax_x == max(ends) == 1.9515412494906461

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            verify("dbl-2-2", samples=1)
        with pytest.raises(DomainError):
            verify("dbl-2-2", samples=10, tol=0.0)
        with pytest.raises(UnknownIdentityError):
            verify("nope")

    @pytest.mark.parametrize("samples", [10.5, 2.0, "20"])
    def test_rejects_non_integral_samples(self, samples):
        with pytest.raises(DomainError):
            verify("dbl-2-2", samples=samples)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(DomainError):
            verify("dbl-2-2", samples=10, seed=seed)

    @pytest.mark.parametrize("ident, kwargs", [
        ("maf-sin", {"p_panel": ()}),
        ("half-cos", {"p_panel": []}),
        ("pythagorean", {"pq_panel": ()}),
        ("duality-sin", {"pq_panel": []}),
    ])
    def test_rejects_an_empty_panel(self, ident, kwargs):
        with pytest.raises(DomainError):
            verify(ident, samples=10, **kwargs)

    @pytest.mark.parametrize("ident, kwargs", [
        ("pythagorean", {"pq_panel": [(2.0,)]}),
        ("pythagorean", {"pq_panel": [(2.0, 3.0, 4.0)]}),
        ("duality-sin", {"pq_panel": [None]}),
        ("duality-pi", {"pq_panel": [2.0]}),
        ("pythagorean", {"pq_panel": None}),
        ("maf-sin", {"p_panel": None}),
        ("pythagorean", {"pq_panel": np.array([2.0, 3.0])}),
    ], ids=["pair-short", "pair-long", "pair-None", "pair-float", "pq-None", "p-None", "pq-1d-array"])
    def test_rejects_a_malformed_panel(self, ident, kwargs):
        with pytest.raises(DomainError):
            verify(ident, samples=10, **kwargs)

    def test_accepts_numpy_integer_samples(self):
        rep = verify("dbl-2-2", samples=np.int64(10), seed=np.int64(1))
        again = verify("dbl-2-2", samples=10, seed=1)
        assert rep.samples == again.samples == 20
        assert rep.max_abs_err == again.max_abs_err

    def test_report_holds_python_floats_for_a_numpy_panel(self):
        rep = verify("pythagorean", samples=10, pq_panel=np.array([[2.0, 3.0]]))
        assert type(rep.max_abs_err) is float and type(rep.rel_err) is float
        assert type(rep.argmax_x) is float

    def test_two_argument_sampling_respects_sum_constraint(self):
        from gtrig.identities import _sample_points

        spec = identity_specs("lemniscate-add")[0]
        pts = _sample_points(spec, 200, 3)
        assert pts.shape[1] == 2
        assert np.all(pts.sum(axis=1) <= spec.domain[1] + 1e-12)
        assert len(pts) > 200

    def test_relative_error_reported_when_meaningful(self):
        rep = verify("pythagorean", samples=50, tol=1e-9, seed=1)
        assert rep.rel_err is not None and rep.rel_err <= 1e-9


class TestInversionsPerPoint:
    """Each function value a sweep point needs is computed once.  A sweep
    inverts whole arrays, so every call counts the values it inverts."""

    EXPECTED = {"pythagorean": 1, "duality-pi": 0, "lemniscate-add": 3}

    @pytest.mark.parametrize("identity_id", VOCABULARY)
    def test_inversions_per_point(self, identity_id, monkeypatch):
        calls = 0

        def counted(fn):
            def wrapper(pp, x, *args, **kwargs):
                nonlocal calls
                calls += np.size(x)
                return fn(pp, x, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(identities, "sin_cos", counted(identities.sin_cos))
        monkeypatch.setattr(identities, "sin_pq", counted(identities.sin_pq))
        # a stack of arguments of one pair is inverted by one _evaluate call
        monkeypatch.setattr(identities, "_evaluate", counted(identities._evaluate))
        rep = verify(identity_id, samples=20)
        assert calls == self.EXPECTED.get(identity_id, 2) * rep.samples


class TestArraySides:
    """A sweep hands each instance's ``sides`` its whole point array; every
    side equals, point by point, the bits of a call at that point alone."""

    @pytest.mark.parametrize("identity_id", VOCABULARY)
    def test_array_sides_match_pointwise_sides(self, identity_id):
        for spec in identity_specs(identity_id):
            points = identities._sample_points(spec, 12, 5)
            got = [np.broadcast_to(v, len(points)) for v in spec.sides(*points.T)]
            for k, args in enumerate(points.tolist()):
                want = spec.sides(*args)
                assert len(got) == len(want)
                for side, value in zip(got, want):
                    assert float(side[k]).hex() == float(value).hex(), (spec, args)


class TestCatalogPasses:
    """Every identity passes at the blanket tolerance (two seeds; the
    acceptance suite re-runs the headline sweeps at full sample counts)."""

    @pytest.mark.parametrize("identity_id", VOCABULARY)
    def test_identity_passes(self, identity_id):
        for seed in (0, 1234):
            rep = verify(identity_id, samples=120, tol=1e-9, seed=seed)
            assert rep.passed, (identity_id, seed, rep.max_abs_err, rep.note)


class TestErrorFloor:
    """Each id's max_abs_err at 1000 samples and seed 0, limited to about twice
    its measured value in units of eps = 2**-52.  Most ids sit at a few eps,
    where the root solve's closing Newton step leaves them; half-cos,
    proof-sin2x and proof-sum-diff are bounded by the rounding of their
    coupled arguments instead."""

    LIMIT_EPS = {
        "pythagorean": 4, "dbl-2-2": 11, "dbl-2-4": 15, "dbl-3:2-3": 11,
        "dbl-4:3-4": 10, "dbl-2-3": 13, "dbl-4:3-2": 15, "maf-sin": 13,
        "maf-cos": 74, "half-sin": 10, "half-cos": 5476, "duality-pi": 32,
        "duality-sin": 20, "lemniscate-add": 12, "proof-xtoy": 12,
        "proof-sin2x": 630, "proof-f2x": 12, "proof-gx": 12, "proof-sum-diff": 14320,
    }

    def test_every_id_has_a_limit(self):
        assert sorted(self.LIMIT_EPS) == sorted(identity_ids())

    @pytest.mark.parametrize("identity_id", VOCABULARY)
    def test_max_abs_err(self, identity_id):
        rep = verify(identity_id, samples=1000, seed=0)
        assert rep.max_abs_err <= self.LIMIT_EPS[identity_id] * 2.0**-52


class TestProofReenactment:
    def test_theorem_2_3_chain(self):
        """Half-angle values feed the (3/2,3) double angle, which feeds the
        parameter-switch relation, reproducing the (2,3) right side."""
        pp23 = ParamPair(2.0, 3.0)
        half = 0.5 * pi_pq(pp23)
        cbrt2 = 2.0 ** (2.0 / 3.0)
        for x in np.linspace(0.0, half, 100):
            x = float(x)
            big_c = cos_pq(pp23, x).value
            s_half = ((1.0 - big_c) / 2.0) ** (1.0 / 3.0)
            c_half = ((1.0 + big_c) / 2.0) ** (2.0 / 3.0)
            dixon = (
                s_half
                * (1.0 + c_half**1.5)
                / (c_half**0.5 * (1.0 + s_half**3))
            )
            cos_2y_sqrt = (1.0 - dixon**3) ** (1.0 / 3.0)
            chained = cbrt2 * dixon * cos_2y_sqrt
            _, rhs = dbl_angle_2_3(x)
            assert abs(chained - rhs) <= 1e-8

    def test_theorem_43_2_links(self):
        """Each intermediate relation of the (4/3,2) derivation holds on a
        shared grid, and the assembled closed form matches the right side."""
        pp24 = ParamPair(2.0, 4.0)
        pi24 = pi_pq(pp24)
        xs = np.linspace(0.05, 0.97 * 0.5 * pi24, 60)
        for x in xs:
            x = float(x)
            for ident in ("proof-sin2x", "proof-f2x", "proof-gx", "proof-sum-diff"):
                lhs, rhs = eval_identity(ident, x)
                assert abs(lhs - rhs) <= 1e-8, (ident, x)
        # sine-only restatement of the final formula
        pp432 = ParamPair(4.0 / 3.0, 2.0)
        for x in xs:
            x = float(x)
            f = sin_pq(pp432, x).value
            assembled = (
                4.0 * f * (1.0 - f**2) ** 0.25 * (2.0 - f**2)
                / (f**2 + 2.0 * math.sqrt(1.0 - f**2)) ** 2
            )
            _, rhs = dbl_angle_43_2(x)
            assert abs(assembled - rhs) <= 1e-8

    def test_lemniscate_addition_supports_gx(self):
        """Equal arguments in the addition formula give the duplication
        relation verified by proof-gx."""
        pp24 = ParamPair(2.0, 4.0)
        for u in np.linspace(0.05, 0.25 * pi_pq(pp24), 25):
            u = float(u)
            add_lhs, add_rhs = eval_identity("lemniscate-add", u, u)
            gx_lhs, gx_rhs = eval_identity("proof-gx", 2.0 * u)
            assert abs(add_lhs - gx_lhs) <= 1e-12
            assert abs(add_rhs - gx_rhs) <= 1e-10
