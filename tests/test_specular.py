"""Assembly, estimation, and diagnostic tests for specular derivatives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specopt import checks, objectives, specular
from specopt.objectives import ElasticNetProblem, sum_abs
from specopt.scalar import INFINITY_THRESHOLD, afun_array
from specopt.specular import (
    FdEstimate,
    HypothesisViolationError,
    OneSidedPair,
    fd_specular_directional,
    frechet_residual,
    specular_directional,
    specular_from_one_sided,
    specular_gradient,
    specular_jacobian,
    specular_with_norm,
)
from test_bit_identity import reference_gradient

INF = math.inf
AFUN_2_1 = 1.387425886722793
NO_DERIVATIVE = "one-sided derivatives are both [+-]inf; specular derivative does not exist"


class FixedPartials:
    """The zero function with two fixed arrays as its one-sided partials at every point."""

    def __init__(self, plus, minus):
        self.plus, self.minus = plus, minus

    def value(self, x):
        return 0.0

    def one_sided_basis(self, x):
        return self.plus, self.minus


class TestAssembly:
    def test_antisymmetric_branch(self):
        assert specular_from_one_sided(OneSidedPair(1.0, -1.0), 1.0) == 0.0

    @pytest.mark.parametrize("vnorm", [0.3, 7.0])
    def test_one_infinite_side_from_the_kernel(self, vnorm):
        # the limit |v| afun(p / |v|, +-inf) = p +- hypot(|v|, p), at a direction norm other than 1;
        # p mostly on the side of the infinity, where the closed form does not cancel
        for inf in (INF, -INF):
            for finite in (p * math.copysign(1.0, inf) for p in (0.0, 1e-3, 0.25, 2.0, -0.1)):
                expected = finite + math.copysign(math.hypot(vnorm, finite), inf)
                for pair in (OneSidedPair(finite, inf), OneSidedPair(inf, finite)):
                    assert specular_from_one_sided(pair, vnorm) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_finite_pair(self):
        assert specular_from_one_sided(OneSidedPair(2.0, 1.0), 1.0) == pytest.approx(AFUN_2_1, abs=1e-12)

    def test_infinite_backward(self):
        assert specular_from_one_sided(OneSidedPair(0.0, INF), 1.0) == 1.0
        assert specular_from_one_sided(OneSidedPair(0.0, -INF), 1.0) == -1.0

    def test_infinite_forward(self):
        # symmetric case: the finite side carries through
        assert specular_from_one_sided(OneSidedPair(INF, 0.0), 1.0) == 1.0

    def test_smooth_case_scales_with_norm(self):
        assert specular_from_one_sided(OneSidedPair(3.0, 3.0), 2.0) == 3.0

    def test_promotion_of_huge_values(self):
        val = specular_from_one_sided(OneSidedPair(0.0, 1e13), 1.0)
        assert val == 1.0  # promoted to +inf before assembly

    def test_same_sign_infinite_rejected(self):
        with pytest.raises(HypothesisViolationError):
            specular_from_one_sided(OneSidedPair(INF, INF), 1.0)
        with pytest.raises(HypothesisViolationError):
            specular_from_one_sided(OneSidedPair(-INF, -INF), 1.0)

    @pytest.mark.parametrize("vnorm", [0.0, -1.0, INF, math.nan])
    def test_bad_norm_rejected(self, vnorm):
        with pytest.raises(ValueError, match="^vnorm must be a positive finite real$"):
            specular_from_one_sided(OneSidedPair(1.0, 1.0), vnorm)

    def test_array_assembly_matches_scalar(self):
        rng = np.random.default_rng(3)
        plus = rng.standard_normal(200) * 10
        minus = rng.standard_normal(200) * 10
        vec = specular_with_norm(plus, minus)[0]
        scal = [specular_from_one_sided(OneSidedPair(p, m), 1.0) for p, m in zip(plus, minus)]
        assert np.array_equal(vec, np.array(scal))

    @pytest.mark.parametrize("vnorm", [1.0])
    def test_kink_masked_assembly_equals_full_kernel(self, vnorm):
        # afun_array only runs where the pair differs; everywhere the result
        # must be the bits of the kernel applied to every entry.  Scaling by a
        # unit norm is exact, so the assembly along e_i needs none
        rng = np.random.default_rng(4)
        plus = rng.standard_normal(500) * 10.0 ** rng.uniform(-3, 3, 500)
        minus = rng.standard_normal(500) * 10.0 ** rng.uniform(-3, 3, 500)
        equal = rng.random(500) < 0.6
        minus[equal] = plus[equal]
        plus[:3] = minus[:3] = 0.0
        vec = specular_with_norm(plus, minus)[0]
        assert np.array_equal(vec, afun_array(plus, minus))
        assert np.array_equal(vec, vnorm * afun_array(plus / vnorm, minus / vnorm))
        assert np.array_equal(specular_with_norm(plus[equal], minus[equal])[0], plus[equal])

    def test_kink_masked_assembly_keeps_fallbacks(self):
        # partials that cannot be assembled give a norm that is not finite, and the gradient raises
        nan_pair = (np.array([1.0, math.nan]), np.array([1.0, 2.0]))
        assert math.isnan(specular_with_norm(*nan_pair)[1])
        with pytest.raises(ValueError):
            specular_gradient(FixedPartials(*nan_pair), np.zeros(2))
        out = specular_with_norm(np.array([2e12, 1.0]), np.array([1.0, 1.0]))[0]
        assert out[1] == 1.0
        assert out[0] == specular_from_one_sided(OneSidedPair(2e12, 1.0), 1.0)
        same_sign = (np.array([INF, 1.0]), np.array([2e12, 1.0]))
        assert specular_with_norm(*same_sign)[1] == INF
        with pytest.raises(HypothesisViolationError, match=NO_DERIVATIVE):
            specular_gradient(FixedPartials(*same_sign), np.zeros(2))

    def test_kernel_sees_only_the_pairs_that_differ_after_promotion(self, monkeypatch):
        # two huge partials of one sign agree once promoted, so g keeps their infinity
        # without the kernel; only the pairs that still differ reach afun_array
        seen = []
        kernel = specular.afun_array
        monkeypatch.setattr(specular, "afun_array",
                            lambda a, b: seen.append((a.tolist(), b.tolist())) or kernel(a, b))
        plus = np.array([2e12, INF, 1.0, -3e12, 5.0, -0.0])
        minus = np.array([3e12, 1e12, 1.0, INF, 4.0, 0.0])
        g, norm = specular_with_norm(plus, minus)
        assert seen == [([-INF, 5.0], [INF, 4.0])]
        assert g.tobytes() == np.array([INF, INF, 1.0, 0.0, kernel(5.0, 4.0), -0.0]).tobytes()
        assert norm == INF

    @pytest.mark.parametrize("vnorm", [1.0])
    def test_shared_partials_equal_copied_partials_bitwise(self, vnorm):
        # one array passed as both partials (no kink anywhere) takes a shortcut;
        # it must give the bits of the general path for the same values, and
        # those of the value scaled by a unit norm.
        # The shortcut screens by the squared norm, so the last vector, every
        # entry below the threshold but a squared norm past 1e24, is turned away
        # to the general path.
        below = np.nextafter(1e12, 0.0)
        for p in (np.array([0.0, -0.0, 1.5, -2.5e-300, 3.0e11, below, -below]), np.full(3, 9e11)):
            shared = specular_with_norm(p, p)[0]
            assert shared.tobytes() == specular_with_norm(p, p.copy())[0].tobytes()
            assert shared.tobytes() == (vnorm * (p / vnorm)).tobytes()
        x = np.zeros(2)
        for at in (np.array([1.0, 1e12]), np.array([-1e12, 1.0]), np.array([INF, 0.0])):
            shared, shared_norm = specular_with_norm(at, at)
            copied, copied_norm = specular_with_norm(at, at.copy())
            assert shared_norm == copied_norm == INF
            assert shared.tobytes() == copied.tobytes()
            with pytest.raises(HypothesisViolationError, match=NO_DERIVATIVE):
                specular_gradient(FixedPartials(at, at), x)
            with pytest.raises(HypothesisViolationError, match=NO_DERIVATIVE):
                specular_gradient(FixedPartials(at, at.copy()), x)
        at = np.array([1.0, math.nan])
        assert math.isnan(specular_with_norm(at, at)[1]) and math.isnan(specular_with_norm(at, at.copy())[1])
        with pytest.raises(ValueError) as shared_err:
            specular_gradient(FixedPartials(at, at), x)
        with pytest.raises(ValueError) as copied_err:
            specular_gradient(FixedPartials(at, at.copy()), x)
        assert (type(shared_err.value), str(shared_err.value)) == (type(copied_err.value), str(copied_err.value))


# partials on both sides of the promotion threshold, infinite, signed zero, subnormal, NaN
_partial = st.one_of(
    st.sampled_from([INF, -INF, 0.0, -0.0, 5e-324, -5e-324, 1e-310, INFINITY_THRESHOLD,
                     -INFINITY_THRESHOLD, np.nextafter(INFINITY_THRESHOLD, 0.0), 2e12, -3e12, 1.0, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.copysign, st.floats(min_value=1e11, max_value=1e13), st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_partial, _partial), max_size=6), st.booleans())
def test_assembly_equals_the_scalar_reference(pairs, agree):
    # sqrt(g.g) is inf exactly where the entry-by-entry reference finds a pair infinite
    # with one sign, NaN where it meets a NaN partial (the reference raises at whichever
    # comes first), and otherwise g has the reference's bits; a shared array gives the
    # copied array's bits.
    plus = np.array([p for p, _ in pairs], dtype=float)
    minus = plus.copy() if agree else np.array([m for _, m in pairs], dtype=float)
    with np.errstate(over="ignore"):  # the shared array's screen may overflow
        g, norm = specular_with_norm(plus, minus)
        shared = specular_with_norm(plus, plus) if agree else None
    if shared is not None:
        assert shared[0].tobytes() == g.tobytes()
        assert np.float64(shared[1]).tobytes() == np.float64(norm).tobytes()
    try:
        ref = reference_gradient(plus, minus)
    except HypothesisViolationError:
        assert norm == INF or (math.isnan(norm) and (np.isnan(plus).any() or np.isnan(minus).any()))
        return
    except ValueError:
        assert math.isnan(norm)
        return
    assert g.tobytes() == ref.tobytes()
    assert np.float64(norm).tobytes() == np.linalg.norm(ref).tobytes()


class TestGradient:
    def test_sum_abs_at_origin(self):
        obj = sum_abs(2)
        assert np.array_equal(specular_gradient(obj, [0.0, 0.0]), [0.0, 0.0])

    def test_sum_abs_off_origin(self):
        # coordinate 2 sits at its kink: afun(1, -1) = 0
        obj = sum_abs(2)
        assert np.array_equal(specular_gradient(obj, [1.0, 0.0]), [1.0, 0.0])

    def test_smooth_quadratic(self):
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.0, 0.0)
        x = np.array([3.0, -2.0])
        # value is ||x||^2/4 here (m = 2), so the gradient is x/2
        assert np.allclose(specular_gradient(p, x), x / 2.0, atol=1e-14)

    def test_huge_partials_raise_without_a_warning(self):
        # partials of 1e154 + 2 overflow the smooth-point screen's squared norm
        p = ElasticNetProblem(np.ones((1, 3)), np.ones(1), 1e154, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HypothesisViolationError):
                specular_gradient(p, np.ones(3))


class TestJacobian:
    def test_identity_components(self):
        comps = [objectives.PiecewiseScalar("id", lambda t: t, lambda t: 1.0, lambda t: 1.0)]
        # two separable coordinates via elastic net rows
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.0, 0.0)
        rows = [p.component(0), p.component(1)]
        jac = specular_jacobian(rows, [5.0, 7.0])
        # component j has smooth gradient e_j (a_j . x - b_j) = x_j e_j
        assert np.allclose(jac, np.diag([5.0, 7.0]), atol=1e-14)

    def test_abs_at_kink(self):
        jac = specular_jacobian([objectives.test_function_1d("abs")], [0.0])
        assert jac.shape == (1, 1) and jac[0, 0] == 0.0

    def test_empty_component_list_is_named(self):
        with pytest.raises(ValueError, match="^cannot stack the Jacobian of an empty component list$"):
            specular_jacobian([], [0.0])

    def test_message_names_the_component(self):
        smooth = FixedPartials(np.ones(2), np.ones(2))
        unassemblable = FixedPartials(np.array([1.0, INF]), np.array([1.0, 2e12]))
        with pytest.raises(HypothesisViolationError, match=f"^component 1, {NO_DERIVATIVE}$"):
            specular_jacobian([smooth, unassemblable], np.zeros(2))

    def test_mixed_kink_and_smooth(self):
        maxaff = objectives.test_function_1d("maxaffine")

        class Lift:
            """maxaffine in coordinate 0 of a 2-vector."""
            dimension = 2

            def value(self, x):
                return maxaff.value([x[0]])

            def one_sided_basis(self, x):
                plus, minus = maxaff.one_sided_basis([x[0]])
                return np.append(plus, 0.0), np.append(minus, 0.0)

        class Quad:
            dimension = 2

            def value(self, x):
                return float(x[1] ** 2)

            def one_sided_basis(self, x):
                g = np.array([0.0, 2.0 * x[1]])
                return g, g

        jac = specular_jacobian([Lift(), Quad()], [0.0, 1.0])
        assert jac == pytest.approx(np.array([[AFUN_2_1, 0.0], [0.0, 2.0]]), abs=1e-12)


class TestFdEstimator:
    def test_smooth_square(self):
        est = fd_specular_directional(lambda z: float(z[0]) ** 2, [1.0], [1.0])
        assert est.converged
        assert est.value == pytest.approx(2.0, abs=1e-6)

    def test_abs_at_kink(self):
        est = fd_specular_directional(lambda z: abs(float(z[0])), [0.0], [1.0])
        assert est.converged and est.value == 0.0

    def test_maxaffine_at_kink(self):
        est = fd_specular_directional(lambda z: max(float(z[0]), 2.0 * float(z[0])), [0.0], [1.0])
        assert est.converged
        assert est.value == pytest.approx(AFUN_2_1, abs=1e-9)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            fd_specular_directional(lambda z: 0.0, [0.0], [0.0])

    @pytest.mark.parametrize("x, v", [([0.0, 0.5], [1.0]), ([0.0], [1.0, 1.0]), ([[0.0, 0.5]], [1.0, 1.0])])
    def test_a_direction_of_another_shape_is_rejected(self, x, v):
        # sum |z_i| of any shape: a broadcast [1.0] would step along (1, 1) and divide by |v| = 1
        with pytest.raises(ValueError, match="shape"):
            fd_specular_directional(lambda z: float(np.abs(z).sum()), x, v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_directions_whose_squares_under_or_overflow(self, scale):
        est = fd_specular_directional(lambda z: 3.0 * float(z[0]), [0.0], [scale])
        assert est.converged
        assert est.value == pytest.approx(3.0 * scale, rel=1e-12)

    def test_nonconvergent_schedule_reports_failure(self):
        # kink much closer than any step: the backward slope keeps moving
        est = fd_specular_directional(lambda z: abs(float(z[0])), [1e-12], [1.0])
        assert isinstance(est, FdEstimate)
        assert not est.converged
        assert len(est.last_two) == 2 and est.agreement > 0.0

    def test_consistency_with_analytic_oracle(self):
        suite = checks.estimator_consistency(50, np.random.default_rng(19))
        assert suite.passed, suite.detail


class TestDirectionalProperties:
    def test_zero_direction_convention(self):
        obj = objectives.test_function_1d("abs")
        assert specular_directional(obj, [1.0], [0.0]) == 0.0

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(11)
        p = ElasticNetProblem(rng.standard_normal((5, 4)), rng.standard_normal(5), 0.5, 0.25)
        for _ in range(50):
            x = rng.standard_normal(4)
            v = rng.standard_normal(4)
            c = float(rng.uniform(0.1, 10.0))
            base = specular_directional(p, x, v)
            scaled = specular_directional(p, x, c * v)
            assert scaled == pytest.approx(c * base, rel=1e-10)

    def test_long_directions(self):
        # the slope per unit length decides promotion to infinity, not the raw
        # one-sided pair; |v| past about 1.3e154 overflows its squares but not itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert specular_directional(sum_abs(1), [1.0], [1e12]) == 1e12
            assert specular_directional(sum_abs(1), [1.0], [1e300]) == 1e300
            unit = specular_directional(sum_abs(2), [1.0, 0.0], [1.0, 1.0])
            assert specular_directional(sum_abs(2), [1.0, 0.0], [1e200, 1e200]) == 1e200 * unit

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_short_directions(self):
        # below about 1e-154 the squares of v underflow, yet v is not the zero direction
        assert specular_directional(sum_abs(1), [1.0], [1e-200]) == 1e-200
        assert specular_directional(sum_abs(1), [1.0], [5e-324]) == 5e-324
        unit = specular_directional(sum_abs(2), [1.0, 0.0], [1.0, 1.0])
        assert specular_directional(sum_abs(2), [1.0, 0.0], [1e-200, 1e-200]) == 1e-200 * unit

    def test_chain_rule_reduction(self):
        # |v| times the 1-D specular derivative of t -> f(x + t v)/|v| at t = 0
        # recovers the directional derivative along v.
        rng = np.random.default_rng(13)
        p = ElasticNetProblem(rng.standard_normal((6, 3)), rng.standard_normal(6), 0.8, 0.2)
        for _ in range(20):
            x = rng.standard_normal(3)
            v = rng.standard_normal(3)
            vnorm = float(np.linalg.norm(v))
            restricted = lambda t: p.value(x + float(t[0]) * v) / vnorm
            est = fd_specular_directional(restricted, [0.0], [1.0])
            direct = specular_directional(p, x, v)
            assert vnorm * est.value == pytest.approx(direct, abs=1e-5)

    def test_ordering_chain_on_random_instances(self):
        suite = checks.ordering_lemma(200, np.random.default_rng(17))
        assert suite.passed, suite.detail


class TestFrechetResidual:
    def test_euclidean_norm_at_origin(self):
        class Norm2:
            dimension = 2

            def value(self, x):
                return float(np.linalg.norm(x))

        for w in ([1e-3, 0.0], [1e-4, 1e-4], [-2e-3, 1e-3]):
            assert frechet_residual(Norm2(), [0.0, 0.0], [0.0, 0.0], w) == 0.0

    def test_abs_with_wrong_linear_model(self):
        obj = objectives.test_function_1d("abs")
        assert frechet_residual(obj, [0.0], [0.5], [1e-3]) == pytest.approx(0.5, abs=1e-12)

    def test_quadratic_at_minimum_is_exact(self):
        # symmetric chords around the minimum cancel exactly
        class HalfSq:
            dimension = 2

            def value(self, x):
                return 0.5 * float(np.dot(x, x))

        assert frechet_residual(HalfSq(), [0.0, 0.0], [0.0, 0.0], [1e-3, 0.0]) == 0.0

    def test_quadratic_off_minimum_decays_dyadically(self):
        class HalfSq:
            dimension = 2

            def value(self, x):
                return 0.5 * float(np.dot(x, x))

        obj = HalfSq()
        x = np.array([1.0, 0.5])
        for direction in (np.array([1.0, 0.0]), np.array([0.6, -0.8])):
            resid = [frechet_residual(obj, x, x, direction * 0.1 * 2.0 ** -k)
                     for k in range(4)]
            assert all(r2 <= r1 for r1, r2 in zip(resid, resid[1:]))
            assert resid[-1] < resid[0] / 4.0

    def test_zero_displacement_rejected(self):
        obj = objectives.test_function_1d("abs")
        with pytest.raises(ValueError):
            frechet_residual(obj, [0.0], [0.0], [0.0])

    @pytest.mark.parametrize("x, ell, w", [([0.5, 0.5], [1.0], [1e-3]), ([0.5, 0.5], [1.0, 1.0], [1e-3]),
                                           ([0.5, 0.5], [1.0], [1e-3, 1e-3]), ([0.5], [1.0, 1.0], [1e-3, 1e-3])])
    def test_vectors_of_another_shape_are_rejected(self, x, ell, w):
        with pytest.raises(ValueError, match="one shape"):
            frechet_residual(sum_abs(2), x, ell, w)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_displacements_whose_squares_under_or_overflow(self):
        # a displacement too short to move x leaves both chords flat against the slope-1 model
        assert frechet_residual(sum_abs(1), [1.0], [1.0], [1e-200]) == 1.0
        # |1 -+ 1e200| are both 1e200: chord slopes 1 and -1 average to 0
        assert frechet_residual(objectives.test_function_1d("abs"), [1.0], [1.0], [1e200]) == 1.0
