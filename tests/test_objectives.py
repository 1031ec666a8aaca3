"""Objective catalog tests: values, oracles, components, and the closed-form minimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specopt import objectives
from specopt.objectives import (
    DiagonalLasso,
    ElasticNetComponent,
    ElasticNetProblem,
    diagonal_lasso_minimizer,
    sum_abs,
)
from specopt.specular import frechet_residual, specular_gradient


class TestElasticNetValue:
    def test_pure_least_squares(self):
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.0, 0.0)
        assert p.value([3.0, 4.0]) == pytest.approx(6.25, abs=1e-15)

    def test_lasso_at_zero(self):
        p = ElasticNetProblem(np.eye(1), np.ones(1), 1.0, 0.0)
        assert p.value([0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_all_three_terms(self):
        p = ElasticNetProblem(np.eye(1), np.ones(1), 1.0, 2.0)
        assert p.value([1.0]) == pytest.approx(2.0, abs=1e-15)

    def test_dimension_mismatch(self):
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.0, 0.0)
        with pytest.raises(ValueError):
            p.value([1.0, 2.0, 3.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_ridge_weight_at_a_huge_point(self):
        # with lambda2 = 0 the ridge term is left out, not formed as 0 * inf = NaN
        assert sum_abs(1).value([1e200]) == 1e200
        assert frechet_residual(sum_abs(1), [1.0], [1.0], [1e200]) == 1.0
        assert ElasticNetComponent(np.zeros(1), 0.0, 1.0, 0.0).value([1e200]) == 1e200

    def test_zero_ridge_weight_keeps_the_bits(self):
        # the data term is nonnegative, so leaving out the ridge term's +0.0 changes no value
        rng = np.random.default_rng(3)
        A, b = rng.standard_normal((6, 4)), rng.standard_normal(6)
        for x in (rng.standard_normal(4), np.zeros(4), np.array([0.0, -0.0, 1.5, -2.0])):
            for l1 in (0.0, 0.3):
                p = ElasticNetProblem(A, b, l1, 0.0)
                r = A @ x - b
                with_term = float(0.5 * (r @ r) / 6 + 0.5 * 0.0 * (x @ x)) + l1 * float(np.abs(x).sum())
                assert np.float64(p.value(x)).tobytes() == np.float64(with_term).tobytes()
                c = p.component(2)
                rj = float(A[2] @ x) - b[2]
                with_term = float(0.5 * rj * rj + 0.5 * 0.0 * (x @ x)) + l1 * float(np.abs(x).sum())
                assert np.float64(c.value(x)).tobytes() == np.float64(with_term).tobytes()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ElasticNetProblem(np.eye(2), np.zeros(3), 0.0, 0.0)
        with pytest.raises(ValueError):
            ElasticNetProblem(np.eye(2), np.zeros(2), -0.1, 0.0)

    def test_vector_data_rejected(self):
        with pytest.raises(ValueError, match="A must be a nonempty m x n matrix"):
            ElasticNetProblem(np.ones(3), np.zeros(3), 0.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda w: ElasticNetProblem(np.ones((1, 2)), np.ones(1), w, 1.0),
    lambda w: ElasticNetProblem(np.ones((1, 2)), np.ones(1), 1.0, w),
    lambda w: ElasticNetComponent(np.ones(2), 1.0, w, 1.0),
    lambda w: ElasticNetComponent(np.ones(2), 1.0, 1.0, w),
    lambda w: DiagonalLasso([1.0, 1.0], [0.0, 0.0], w),
], ids=["net-lambda1", "net-lambda2", "component-lambda1", "component-lambda2", "lasso-lambda1"])
@pytest.mark.parametrize("weight", [math.inf, -1.0, math.nan])
def test_weights_must_be_nonnegative_and_finite(make, weight):
    # an infinite weight used to be accepted, and value([0.0, 0.0]) was inf * 0 = NaN
    with pytest.raises(ValueError, match="must be nonnegative and finite"):
        make(weight)
    assert math.isfinite(make(1e300).value([0.0, 0.0]))


class TestElasticNetOracle:
    def test_smooth_when_lasso_off(self):
        rng = np.random.default_rng(0)
        p = ElasticNetProblem(rng.standard_normal((3, 2)), rng.standard_normal(3), 0.0, 0.5)
        x, v = rng.standard_normal(2), rng.standard_normal(2)
        pair = p.one_sided(x, v)
        assert pair.plus == pair.minus == pytest.approx(float(p.smooth_gradient(x) @ v), abs=1e-15)

    def test_pure_kink(self):
        p = ElasticNetProblem(np.eye(1), np.zeros(1), 1.0, 0.0)
        pair = p.one_sided([0.0], [1.0])
        assert (pair.plus, pair.minus) == (1.0, -1.0)

    def test_kink_with_offset_data(self):
        p = ElasticNetProblem(np.eye(1), np.array([2.0]), 1.0, 0.0)
        pair = p.one_sided([0.0], [1.0])
        assert (pair.plus, pair.minus) == (-1.0, -3.0)

    def test_oracle_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            p = ElasticNetProblem(rng.standard_normal((m, n)), rng.standard_normal(m),
                                  float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
            x = rng.standard_normal(n)
            x[rng.random(n) < 0.3] = 0.0  # land some coordinates exactly on the kink
            v = rng.standard_normal(n)
            assert p.one_sided(x, v).plus == -p.one_sided(x, -v).minus
            assert p.one_sided(x, v).minus == -p.one_sided(x, -v).plus

    def test_oracle_against_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            p = ElasticNetProblem(rng.standard_normal((m, n)), rng.standard_normal(m),
                                  float(rng.uniform(0, 1.5)), float(rng.uniform(0, 1.5)))
            x = rng.standard_normal(n)
            v = rng.standard_normal(n)
            pair = p.one_sided(x, v)
            h = 1e-6
            fwd = (p.value(x + h * v) - p.value(x)) / h
            bwd = (p.value(x) - p.value(x - h * v)) / h
            scale = 1.0 + abs(pair.plus) + abs(pair.minus)
            assert abs(fwd - pair.plus) <= 1e-5 * scale
            assert abs(bwd - pair.minus) <= 1e-5 * scale

    def test_basis_hook_matches_one_sided(self):
        rng = np.random.default_rng(3)
        p = ElasticNetProblem(rng.standard_normal((4, 5)), rng.standard_normal(4), 0.7, 0.1)
        x = rng.standard_normal(5)
        x[2] = 0.0
        plus, minus = p.one_sided_basis(x)
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1.0
            pair = p.one_sided(x, e)
            assert plus[i] == pytest.approx(pair.plus, rel=1e-12)
            assert minus[i] == pytest.approx(pair.minus, rel=1e-12)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            p = ElasticNetProblem(rng.standard_normal((m, n)), rng.standard_normal(m),
                                  float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            assert p.value((x + y) / 2) <= (p.value(x) + p.value(y)) / 2 + 1e-10


class TestComponents:
    def test_single_sample_identity(self):
        rng = np.random.default_rng(5)
        p = ElasticNetProblem(rng.standard_normal((1, 3)), rng.standard_normal(1), 0.5, 0.5)
        f1 = p.component(0)
        x = rng.standard_normal(3)
        assert f1.value(x) == pytest.approx(p.value(x), rel=1e-12)

    def test_component_mean_reproduces_value(self):
        p = ElasticNetProblem(np.eye(2), np.array([1.0, 2.0]), 0.0, 0.0)
        x = np.zeros(2)
        vals = [p.component(j).value(x) for j in range(2)]
        assert vals == [0.5, 2.0]
        assert np.mean(vals) == pytest.approx(p.value(x), abs=1e-15)

    def test_component_mean_random(self):
        rng = np.random.default_rng(6)
        p = ElasticNetProblem(rng.standard_normal((7, 4)), rng.standard_normal(7), 0.3, 0.8)
        for _ in range(10):
            x = rng.standard_normal(4)
            mean = np.mean([p.component(j).value(x) for j in range(7)])
            assert mean == pytest.approx(p.value(x), rel=1e-10)

    def test_component_oracle_smooth_case(self):
        rng = np.random.default_rng(7)
        p = ElasticNetProblem(rng.standard_normal((3, 4)), rng.standard_normal(3), 0.0, 0.2)
        x, v = rng.standard_normal(4), rng.standard_normal(4)
        comp = p.component(1)
        pair = comp.one_sided(x, v)
        assert pair.plus == pytest.approx(float(comp.smooth_gradient(x) @ v), abs=1e-14)

    def test_component_gradient_mean_at_smooth_point(self):
        rng = np.random.default_rng(8)
        p = ElasticNetProblem(rng.standard_normal((5, 3)), rng.standard_normal(5), 0.4, 0.6)
        x = rng.standard_normal(3)  # almost surely off every kink
        mean_grad = np.mean([specular_gradient(p.component(j), x) for j in range(5)], axis=0)
        assert np.allclose(mean_grad, specular_gradient(p, x), atol=1e-10)

    def test_index_out_of_range(self):
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.0, 0.0)
        with pytest.raises(IndexError):
            p.component(2)
        with pytest.raises(IndexError):
            p.component_one_sided_basis(-1, np.zeros(2))

    def test_component_dimension_mismatch(self):
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.5, 0.5)
        comp = p.component(0)
        message = "expected a vector of dimension 2, got shape (3,)"
        with pytest.raises(ValueError) as problem_err:
            p.value([1.0, 2.0, 3.0])
        assert str(problem_err.value) == message
        for call in (lambda: comp.value([1.0, 2.0, 3.0]),
                     lambda: comp.smooth_gradient([1.0, 2.0, 3.0]),
                     lambda: comp.one_sided_basis([1.0, 2.0, 3.0]),
                     lambda: comp.one_sided([1.0, 2.0, 3.0], [1.0, 0.0]),
                     lambda: comp.one_sided([1.0, 2.0], [1.0, 0.0, 0.0])):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_component_validates_its_row(self):
        # a list used to fail at value() with AttributeError; a negative weight gave a value
        c = ElasticNetComponent([1.0, 2.0], 0.0, 1.0, 1.0)
        assert isinstance(c.a, np.ndarray) and c.a.dtype == float
        assert c.value([1.0, 2.0]) == 0.5 * 25.0 + 0.5 * 5.0 + 3.0
        for a in (np.zeros(0), np.ones((2, 2)), 1.0):
            with pytest.raises(ValueError, match="nonempty vector"):
                ElasticNetComponent(a, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="lambda1"):
            ElasticNetComponent(np.ones(2), 0.0, -1.0, 1.0)

    def test_component_row_is_not_copied(self):
        p = ElasticNetProblem(np.arange(6.0).reshape(3, 2), np.zeros(3), 0.1, 0.2)
        assert np.shares_memory(p.component(1).a, p.A)
        strided = ElasticNetComponent(p.A[:, 0], 0.0, 0.1, 0.2)  # a column is stored contiguous
        assert strided.a.flags.c_contiguous and list(strided.a) == [0.0, 2.0, 4.0]

    def test_row_partials_equal_component_bitwise(self):
        rng = np.random.default_rng(9)
        p = ElasticNetProblem(rng.standard_normal((6, 5)), rng.standard_normal(6), 0.4, 0.3)
        x = rng.standard_normal(5)
        x[[0, 3]] = 0.0
        for j in range(p.m):
            plus, minus = p.component_one_sided_basis(j, x)
            ref_plus, ref_minus = p.component(j).one_sided_basis(x)
            assert np.array_equal(plus, ref_plus) and np.array_equal(minus, ref_minus)


class TestFusedOracle:
    @pytest.mark.parametrize("lambda1", [0.0, 0.7])
    def test_equals_separate_calls_bitwise(self, lambda1):
        rng = np.random.default_rng(12)
        problems = (ElasticNetProblem(rng.standard_normal((30, 8)), rng.standard_normal(30), lambda1, 0.9),
                    DiagonalLasso(rng.uniform(0.5, 2.0, 8), rng.uniform(-3.0, 3.0, 8), lambda1))
        for p in problems:
            for trial in range(6):
                x = rng.standard_normal(8)
                if trial < 5:
                    x[rng.random(8) < 0.4] = 0.0
                    x[trial] = 0.0  # at least one exact zero
                f, (plus, minus) = p.value_and_one_sided_basis(x)
                ref_plus, ref_minus = p.one_sided_basis(x)
                assert f == p.value(x)
                assert plus.tobytes() == ref_plus.tobytes() and minus.tobytes() == ref_minus.tobytes()
                # one array for both partials exactly where no coordinate is at a kink
                assert (plus is minus) == (lambda1 == 0.0 or trial == 5)
                if lambda1 != 0.0 and trial < 5:
                    assert np.any(plus != minus)

    @pytest.mark.parametrize("x", [[1.0, -2.0, 3.0], [1.0, -0.0, 3.0], [0.0, 2.0, 1.0],
                                   [math.nan, 1.0, 2.0], [math.inf, -math.inf, 1.0],
                                   [math.nan, -0.0, math.inf]])
    def test_shared_partials_exactly_off_kinks(self, x):
        # a kink is an entry equal to 0.0 or -0.0; NaN and +-inf are not kinks
        x = np.array(x)
        g = np.array([0.5, -1.5, 2.0])
        zero = x == 0.0
        plus, minus = objectives._l1_one_sided_basis(g, x, 0.7, np.copysign(0.7, x))
        smooth = g + np.copysign(0.7, x)
        assert (plus is minus) == (not zero.any())
        assert plus.tobytes() == np.where(zero, g + 0.7, smooth).tobytes()
        assert minus.tobytes() == np.where(zero, g - 0.7, smooth).tobytes()

    def test_lasso_value_equals_the_plain_formula_bitwise(self):
        rng = np.random.default_rng(13)
        for lambda1 in (0.0, 0.8):
            d, b = rng.uniform(0.5, 2.0, 11), rng.uniform(-3.0, 3.0, 11)
            lasso = DiagonalLasso(d, b, lambda1)
            for _ in range(50):
                x = rng.standard_normal(11) * 10.0 ** rng.uniform(-3, 3)
                x[rng.random(11) < 0.3] = 0.0
                r = x - b
                expected = float(0.5 * (r @ (d * r))) + float(x @ np.copysign(lambda1, x))
                assert lasso.value(x) == expected
                assert lasso.value_and_one_sided_basis(x)[0] == expected

    @pytest.mark.parametrize("lambda1", [0.0, 0.8])
    def test_lasso_value_within_ulps_of_the_summed_formula(self, lambda1):
        # the value from the gradient and sign vector sums the same nonnegative terms in
        # another order, so it stays within a few ulp of the elementwise sum
        rng = np.random.default_rng(14)
        for _ in range(500):
            n = int(rng.integers(2, 12))
            d, b = rng.uniform(0.5, 2.0, n), rng.uniform(-3.0, 3.0, n)
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
            x[rng.random(n) < 0.3] = 0.0
            x[0], x[-1] = 0.0, -0.0
            summed = float(np.sum(0.5 * d * (x - b) ** 2) + lambda1 * np.abs(x).sum())
            assert abs(DiagonalLasso(d, b, lambda1).value(x) - summed) <= 4 * np.spacing(summed)

    def test_rejects_wrong_dimension(self):
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.1, 0.1)
        with pytest.raises(ValueError):
            p.value_and_one_sided_basis([1.0, 2.0, 3.0])


def _kink_rule(g, x, v, lambda1):
    """Reference pair: g.v plus lambda1 times sign(x_i) v_i, or +-|v_i| where x_i == 0."""
    zero = x == 0.0
    gv = float(g @ v)
    plus = gv + lambda1 * float(np.where(zero, np.abs(v), np.sign(x) * v).sum())
    minus = gv + lambda1 * float(np.where(zero, -np.abs(v), np.sign(x) * v).sum())
    return plus, minus


class TestOneSidedFromPartials:
    """one_sided(x, v) is derived from one_sided_basis(x) by one rule for every objective."""

    def _objectives(self, rng, n):
        p = ElasticNetProblem(rng.standard_normal((4, n)), rng.standard_normal(4), 0.6, 0.3)
        lasso = DiagonalLasso(rng.uniform(0.5, 2.0, n), rng.uniform(-3.0, 3.0, n), 0.8)
        return p, p.component(2), lasso

    def test_matches_kink_rule(self):
        rng = np.random.default_rng(21)
        n = 6
        for obj in self._objectives(rng, n):
            for _ in range(20):
                x = rng.standard_normal(n)
                x[rng.random(n) < 0.4] = 0.0
                x[0] = 0.0
                v = rng.standard_normal(n)
                v[rng.random(n) < 0.3] = 0.0
                v[1], v[2] = 0.0, -abs(v[2])  # a zero and a negative entry every time
                pair = obj.one_sided(x, v)
                plus, minus = _kink_rule(obj.smooth_gradient(x), x, v, obj.lambda1)
                assert pair.plus == pytest.approx(plus, rel=1e-12, abs=1e-12)
                assert pair.minus == pytest.approx(minus, rel=1e-12, abs=1e-12)

    def test_zero_direction_gives_zero_pair(self):
        rng = np.random.default_rng(22)
        for obj in self._objectives(rng, 3):
            pair = obj.one_sided(np.zeros(3), np.zeros(3))
            assert (pair.plus, pair.minus) == (0.0, 0.0)

    def test_concave_scalar_needs_no_convexity(self):
        neg_abs = objectives.PiecewiseScalar(
            "negabs", fn=lambda t: -np.abs(t),
            left_slope=lambda t: np.where(t > 0.0, -1.0, 1.0),
            right_slope=lambda t: np.where(t >= 0.0, -1.0, 1.0))
        pair = neg_abs.one_sided([0.0], [1.0])
        assert (pair.plus, pair.minus) == (-1.0, 1.0)
        pair = neg_abs.one_sided([0.0], [-2.0])
        assert (pair.plus, pair.minus) == (-2.0, 2.0)

    def test_infinite_partial_enters_only_when_moving(self):
        root_abs = objectives.PiecewiseScalar(
            "rootabs", fn=lambda t: np.sqrt(np.abs(t)),
            left_slope=lambda t: -np.inf if t == 0.0 else -0.5 / np.sqrt(-t),
            right_slope=lambda t: np.inf if t == 0.0 else 0.5 / np.sqrt(t))
        pair = root_abs.one_sided([0.0], [1.0])
        assert (pair.plus, pair.minus) == (math.inf, -math.inf)
        pair = root_abs.one_sided([0.0], [-3.0])
        assert (pair.plus, pair.minus) == (math.inf, -math.inf)
        pair = root_abs.one_sided([0.0], [0.0])
        assert (pair.plus, pair.minus) == (0.0, 0.0)

    def test_nan_direction_rejected(self):
        for obj in (sum_abs(2), objectives.test_function_1d("abs")):
            with pytest.raises(ValueError):
                obj.one_sided(np.zeros(obj.dimension), np.full(obj.dimension, math.nan))


class TestDiagonalLasso:
    def test_soft_threshold_against_grid_search(self):
        xs = np.arange(-5.0, 5.0001, 1e-4)
        fv = 0.5 * (xs - 3.0) ** 2 + np.abs(xs)
        grid_best = xs[np.argmin(fv)]
        assert diagonal_lasso_minimizer([1.0], [3.0], 1.0)[0] == pytest.approx(grid_best, abs=1e-3)
        assert diagonal_lasso_minimizer([1.0], [3.0], 1.0)[0] == 2.0

    def test_no_penalty_returns_data(self):
        b = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(diagonal_lasso_minimizer(np.ones(3), b, 0.0), b)

    def test_threshold_clips_to_zero(self):
        assert diagonal_lasso_minimizer([1.0], [0.5], 1.0)[0] == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="d and b must be vectors of equal length"):
            DiagonalLasso(np.ones(3), np.zeros(2), 0.5)

    def test_invalid_curvature(self):
        with pytest.raises(ValueError):
            diagonal_lasso_minimizer([0.0], [1.0], 1.0)

    @pytest.mark.parametrize("d,b,name", [
        ([math.nan, 1.0], [1.0, 1.0], "curvatures"), ([math.inf, 1.0], [1.0, 1.0], "curvatures"),
        ([1.0, 1.0], [math.nan, 1.0], "b"), ([1.0, 1.0], [-math.inf, 1.0], "b"),
        ([1.0], [math.inf], "b"),
    ])
    def test_non_finite_data_rejected(self, d, b, name):
        # a NaN curvature passed the d <= 0 check and gave a NaN value and minimizer;
        # a NaN or infinite b came back from the minimizer as a NaN or infinite coordinate
        with pytest.raises(ValueError, match=name):
            DiagonalLasso(d, b, 0.5)
        if math.isnan(d[0]) or name == "b":
            with pytest.raises(ValueError, match="b must be finite" if name == "b" else name):
                diagonal_lasso_minimizer(d, b, 0.5)

    @pytest.mark.parametrize("lambda1", [-1.0, math.nan])
    def test_invalid_lambda1(self, lambda1):
        with pytest.raises(ValueError, match="lambda1"):
            DiagonalLasso(np.ones(2), [1.0, -2.0], lambda1)
        with pytest.raises(ValueError, match="lambda1"):
            diagonal_lasso_minimizer(np.ones(2), [1.0, -2.0], lambda1)

    def test_minimizer_beats_perturbations(self):
        rng = np.random.default_rng(9)
        lasso = DiagonalLasso(rng.uniform(0.5, 2.0, 6), rng.uniform(-3.0, 3.0, 6), 1.0)
        xstar = lasso.minimizer()
        fstar = lasso.value(xstar)
        for _ in range(200):
            assert fstar <= lasso.value(xstar + 0.1 * rng.standard_normal(6)) + 1e-12


    @pytest.mark.parametrize("point", [[1.0], np.ones(4), np.ones((3, 1))])
    def test_point_of_wrong_dimension(self, point):
        # a short point must not broadcast against b
        lasso = DiagonalLasso(np.ones(3), [1.0, 2.0, 3.0], 1.0)
        for oracle in (lasso.value, lasso.smooth_gradient, lasso.one_sided_basis,
                       lasso.value_and_one_sided_basis):
            with pytest.raises(ValueError, match="dimension 3"):
                oracle(point)

class TestCatalog1d:
    def test_abs_pair_at_kink(self):
        pair = objectives.test_function_1d("abs").one_sided([0.0], [1.0])
        assert (pair.plus, pair.minus) == (1.0, -1.0)

    def test_maxaffine_pair_at_kink(self):
        pair = objectives.test_function_1d("maxaffine").one_sided([0.0], [1.0])
        assert (pair.plus, pair.minus) == (2.0, 1.0)

    def test_quad_smooth_pair(self):
        pair = objectives.test_function_1d("quad").one_sided([3.0], [1.0])
        assert (pair.plus, pair.minus) == (6.0, 6.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            objectives.test_function_1d("nope")

    @pytest.mark.parametrize("point", [-0.5, [[-0.5]], [-0.5, 1.0]])
    def test_point_must_be_a_vector_of_one(self, point):
        # as for every other objective, a bare float or another shape is no point
        obj = objectives.test_function_1d("abs")
        for oracle in (obj.value, obj.one_sided_basis, sum_abs(1).value):
            with pytest.raises(ValueError, match="dimension 1"):
                oracle(point)

    def test_oracle_symmetry_under_negated_direction(self):
        rng = np.random.default_rng(10)
        for name in objectives.catalog_1d_names():
            obj = objectives.test_function_1d(name)
            for _ in range(50):
                t = float(rng.uniform(-2, 2))
                if rng.random() < 0.2:
                    t = 0.0
                w = float(rng.uniform(-3, 3))
                assert obj.one_sided([t], [w]).plus == -obj.one_sided([t], [-w]).minus

    def test_lateral_slopes_match_one_sided(self):
        ts = np.array([-1.0, 0.0, 0.5])
        obj = objectives.test_function_1d("quadkink")
        right, left = obj.lateral_slopes(ts)
        for t, r, l in zip(ts, right, left):
            pair = obj.one_sided([t], [1.0])
            assert (pair.plus, pair.minus) == (r, l)


def test_sum_abs_is_pure_l1():
    obj = sum_abs(3)
    assert obj.value([1.0, -2.0, 0.0]) == 3.0
    assert np.array_equal(specular_gradient(obj, [1.0, -2.0, 0.0]), [1.0, -1.0, 0.0])


def _assert_same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


# coordinates: signed zeros (the kinks), subnormals, normals, +-inf and NaN
_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_coordinate, min_size=1, max_size=5),
       st.floats(1e-3, 1e3).filter(lambda v: math.frexp(v)[0] != 0.5),  # not a power of two
       st.sampled_from([0.0, 0.6]), st.integers(0, 2 ** 32 - 1))
def test_partials_equal_the_sign_formula_bitwise(xs, lambda1, lambda2, seed):
    # every oracle's partials are g + lambda1 sign(x) off the kinks and g +- lambda1 at +-0,
    # with g the objective's own smooth gradient
    x = np.array(xs)
    rng = np.random.default_rng(seed)
    p = ElasticNetProblem(rng.standard_normal((3, x.size)), rng.standard_normal(3), lambda1, lambda2)
    lasso = DiagonalLasso(rng.uniform(0.5, 2.0, x.size), rng.uniform(-3.0, 3.0, x.size), lambda1)
    j = int(rng.integers(3))
    component = p.component(j)
    with np.errstate(all="ignore"):  # inf and NaN coordinates
        cases = [(p.smooth_gradient(x), p.one_sided_basis(x)),
                 (p.smooth_gradient(x), p.value_and_one_sided_basis(x)[1]),
                 (component.smooth_gradient(x), component.one_sided_basis(x)),
                 (component.smooth_gradient(x), p.component_one_sided_basis(j, x)),
                 (lasso.smooth_gradient(x), lasso.one_sided_basis(x)),
                 (lasso.smooth_gradient(x), lasso.value_and_one_sided_basis(x)[1])]
        kink = x == 0.0
        for g, (plus, minus) in cases:
            off = g + lambda1 * np.sign(x)
            _assert_same_bits(plus, np.where(kink, g + lambda1, off))
            _assert_same_bits(minus, np.where(kink, g - lambda1, off))
