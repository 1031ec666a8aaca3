"""Optimizer tests: hand-simulated trajectories, schedules, records, and bounds.

The run-level bit-identity tests compare records against the one reference
engine in ``test_bit_identity.py``.
"""

import math

import numpy as np
import pytest

from specopt import checks, harness, objectives, optimizers, specular
from specopt.objectives import DiagonalLasso, ElasticNetProblem, Objective
from specopt.optimizers import (
    Box,
    EuclideanBall,
    StepSchedule,
    adam_run,
    basic_inequality_bound,
    gd_run,
    hspeg_run,
    projected_speg_step,
    speg_run,
    sspeg_run,
)
from specopt.scalar import afun
from specopt.specular import specular_gradient, specular_jacobian
from test_bit_identity import (
    Rules,
    assert_same_record,
    fused_oracle,
    reference_gradient,
    reference_loop,
    reference_oracle,
    reference_partials,
    run_library,
    run_reference,
    separate_oracle,
)
from test_specular import FixedPartials


def half_square_1d():
    return objectives.PiecewiseScalar("halfsq", lambda t: 0.5 * t * t, lambda t: t, lambda t: t)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestSchedules:
    def test_normalized_diminishing_lengths(self):
        sched = StepSchedule.normalized_diminishing(4.0)
        # step length h_k * ||g|| is 4/(k+1) regardless of the gradient norm
        for k, gnorm in [(0, 1.0), (1, 2.0), (9, 0.5)]:
            assert sched.step_size(k, gnorm) * gnorm == pytest.approx(4.0 / (k + 1), rel=1e-15)

    def test_geometric_lengths(self):
        sched = StepSchedule.geometric(0.5)
        for k in range(5):
            assert sched.step_size(k, 2.0) * 2.0 == pytest.approx(2.0 ** -(k + 1), rel=1e-15)

    def test_constant(self):
        assert StepSchedule.constant(0.1).step_size(12, 99.0) == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSchedule.geometric(1.0)
        # an infinite or NaN step parameter is refused, not run into a numerical failure
        lasso = DiagonalLasso(np.ones(2), np.zeros(2), 1.0)
        for bad in (0.0, -1.0, np.inf, -np.inf, np.nan):
            for make in (StepSchedule.normalized_diminishing, StepSchedule.geometric, StepSchedule.constant):
                with pytest.raises(ValueError):
                    make(bad)
            with pytest.raises(ValueError):
                adam_run(lasso, np.ones(2), bad, 5)
            with pytest.raises(ValueError):
                gd_run(lasso, np.ones(2), bad, 5)


    @pytest.mark.parametrize("kind,parameter,message", [
        ("bogus", 0.5, "unknown step schedule 'bogus'"),
        ("normalized_diminishing", math.inf, "c must be positive and finite"),
        ("geometric", 1.0, "ratio must lie in"),
        ("constant", math.nan, "h must be positive and finite"),
    ])
    def test_constructor_validates(self, kind, parameter, message):
        # the dataclass constructor checks what the classmethods check
        with pytest.raises(ValueError, match=message):
            StepSchedule(kind, parameter)

class BadPartialsFrom:
    """The half square t^2 / 2 (one sample term) whose partials are ``bad`` on both sides from call ``call`` on."""

    dimension = m = 1

    def __init__(self, bad, call):
        self.bad, self.call, self.calls = bad, call, 0

    def value(self, x):
        return 0.5 * float(x[0]) ** 2

    def one_sided_basis(self, x):
        self.calls += 1
        g = np.array(x, dtype=float) if self.calls < self.call else np.full(1, self.bad)
        return g, g

    def component_one_sided_basis(self, j, x):
        return self.one_sided_basis(x)


def _runs_from_one(switch_k):
    """Runs of SPEG-s, GD, Adam and H-SPEG (switching at switch_k) from x0 = [1], by method name."""
    x0 = np.array([1.0])
    sched = StepSchedule.normalized_diminishing(4.0)
    return {"SPEG-s": lambda p: speg_run(p, x0, sched, 10),
            "GD": lambda p: gd_run(p, x0, 0.1, 10),
            "Adam": lambda p: adam_run(p, x0, 0.01, 10),
            "H-SPEG": lambda p: hspeg_run(p, x0, sched, switch_k=switch_k, max_iters=10, rng=rng_for(1))}


class TestSpegRuns:
    def test_abs_hand_simulation(self):
        # from x0 = 2 with step lengths 4, 2: iterates 2, -2, 0, then the
        # specular gradient at the kink vanishes
        rec = speg_run(objectives.test_function_1d("abs"), [2.0],
                       StepSchedule.normalized_diminishing(4.0), 100, eta=1e-12)
        assert rec.status == "stationary"
        assert list(rec.f_current) == [2.0, 2.0, 0.0]
        assert rec.final_f_best == 0.0
        assert rec.x_best[0] == 0.0
        assert list(rec.grad_norm) == [1.0, 1.0, 0.0]

    def test_negative_max_iters_rejected(self):
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            speg_run(half_square_1d(), [1.0], StepSchedule.normalized_diminishing(4.0), -1)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, 2.5, 3.0, True, np.True_, np.float64(3.0), "3"])
    @pytest.mark.parametrize("method", ["SPEG", "GD"])
    def test_a_cap_that_is_not_an_integer_is_rejected(self, method, cap):
        # the minimizer's first coordinate is the kink at 0, which these steps keep crossing:
        # the run reaches no fixed point, so a NaN or infinite cap never stopped it
        lasso = DiagonalLasso(np.array([1.0, 2.0]), np.array([0.05, -1.0]), 0.1)
        with pytest.raises(ValueError, match="max_iters must be nonnegative and an integer"):
            if method == "SPEG":
                speg_run(lasso, [3.0, 3.0], StepSchedule.constant(0.3), cap)
            else:
                gd_run(lasso, [3.0, 3.0], 0.3, cap)

    def test_a_numpy_integer_cap_is_an_int_cap(self):
        sched = StepSchedule.normalized_diminishing(4.0)
        want = speg_run(half_square_1d(), [1.0], sched, 7)
        got = speg_run(half_square_1d(), [1.0], sched, np.int64(7))
        assert len(got) == len(want) == 8
        assert got.f_current.tobytes() == want.f_current.tobytes()

    @pytest.mark.parametrize("eta", [-1.0, math.nan])
    def test_negative_or_nan_eta_rejected(self, eta):
        # at the zero gradient of x0 = b these ran on into a ZeroDivisionError
        lasso = DiagonalLasso(np.ones(2), [1.0, 2.0], 0.0)
        sched = StepSchedule.normalized_diminishing(1.0)
        net = ElasticNetProblem(np.eye(2), [1.0, 2.0], 0.0, 0.0)
        for run in (lambda: speg_run(lasso, [1.0, 2.0], sched, 5, eta=eta),
                    lambda: sspeg_run(net, [1.0, 2.0], sched, 5, eta=eta, rng=rng_for(1)),
                    lambda: hspeg_run(net, [1.0, 2.0], sched, 2, 5, eta=eta, rng=rng_for(1))):
            with pytest.raises(ValueError, match="eta"):
                run()

    def test_quadratic_one_exact_step(self):
        rec = speg_run(half_square_1d(), [1.0], StepSchedule.constant(1.0), 10)
        assert rec.status == "stationary"
        assert rec.final_f_best == 0.0
        assert list(rec.f_current) == [0.5, 0.0]

    def test_max_iters_row_count(self):
        rec = speg_run(half_square_1d(), [1.0], StepSchedule.constant(0.1), 7)
        assert rec.status == "max_iters"
        assert len(rec) == 8  # rows 0..7, with 7 steps applied
        assert rec.h_trace.size == 7

    def test_best_iterate_monotone(self):
        rng = rng_for(0)
        p = ElasticNetProblem(rng.standard_normal((6, 4)), rng.standard_normal(6), 0.5, 0.1)
        rec = speg_run(p, rng.standard_normal(4), StepSchedule.normalized_diminishing(4.0), 200)
        assert np.all(np.diff(rec.f_best) <= 0.0)
        assert np.array_equal(rec.f_best, np.minimum.accumulate(rec.f_current))
        assert rec.final_f_best == pytest.approx(p.value(rec.x_best), rel=1e-15)

    @pytest.mark.parametrize("max_iters", [0, 50])
    def test_best_iterate_is_a_private_array(self, max_iters):
        # the loop keeps the best iterate by reference; it must never be the caller's x0
        rng = rng_for(1)
        p = ElasticNetProblem(rng.standard_normal((6, 4)), rng.standard_normal(6), 0.5, 0.1)
        x0 = rng.standard_normal(4)
        start = x0.copy()
        rec = speg_run(p, x0, StepSchedule.normalized_diminishing(4.0), max_iters)
        assert rec.x_best is not x0 and not np.shares_memory(rec.x_best, x0)
        best = rec.x_best.copy()
        x0[:] = 7.0
        assert np.array_equal(rec.x_best, best)
        assert p.value(rec.x_best) == rec.final_f_best
        if max_iters == 0:
            assert np.array_equal(rec.x_best, start)
        else:
            assert rec.final_f_best < rec.f_current[0]

    def test_numerical_failure_preserves_prefix(self):
        # a huge constant step on a strongly convex problem oscillates to overflow
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.0, 1e6)
        rec = gd_run(p, np.ones(2), 0.001, 2000)
        assert rec.status == "numerical_failure"
        assert len(rec) >= 2
        assert np.all(np.isfinite(rec.f_current[:-1]))

    def test_unassemblable_gradient_still_records_value(self):
        # at x = 2e12 both one-sided partials promote to +inf, so the norm is
        # infinite; the row still carries the (finite) objective value
        p = ElasticNetProblem(np.eye(1), np.zeros(1), 0.5, 0.0)
        x0 = np.array([2e12])
        sched = StepSchedule.normalized_diminishing(4.0)
        for rec in (speg_run(p, x0, sched, 10), adam_run(p, x0, 0.01, 10),
                    sspeg_run(p, x0, sched, 10, rng=rng_for(1)),
                    hspeg_run(p, x0, sched, switch_k=3, max_iters=10, rng=rng_for(1))):
            assert rec.status == "numerical_failure"
            assert list(rec.f_current) == [p.value(x0)]
            assert list(rec.grad_norm) == [np.inf]

    def test_unassemblable_gradient_past_the_first_row(self):
        # partials +inf on both sides from the third call on, so each run stops at row 2
        for method, run in _runs_from_one(switch_k=2).items():
            rec = run(BadPartialsFrom(np.inf, 3))
            assert rec.status == "numerical_failure", method
            assert len(rec) == 3 and rec.h_trace.size == 2, method
            assert np.all(np.isfinite(rec.f_current)), method
            assert np.all(np.isfinite(rec.grad_norm[:2])) and rec.grad_norm[2] == np.inf, method

    def test_nan_partials_end_the_run(self):
        # partials NaN from the second call on while the value stays finite:
        # the row records a NaN norm and the run stops
        for method, run in _runs_from_one(switch_k=1).items():
            rec = run(BadPartialsFrom(np.nan, 2))
            assert rec.status == "numerical_failure", method
            assert len(rec) == 2 and rec.h_trace.size == 1, method
            assert np.all(np.isfinite(rec.f_current)), method
            assert rec.grad_norm[0] == 1.0 and math.isnan(rec.grad_norm[1]), method

    def test_nan_in_one_partial_of_a_kink(self):
        # the general path meets the NaN; the run ends the same way
        class NanMinus:
            dimension = 2

            def value(self, x):
                return 0.0

            def one_sided_basis(self, x):
                return np.array([1.0, 2.0]), np.array([-1.0, np.nan])

        rec = speg_run(NanMinus(), np.zeros(2), StepSchedule.normalized_diminishing(4.0), 10)
        assert rec.status == "numerical_failure"
        assert len(rec) == 1 and math.isnan(rec.grad_norm[0])

    def test_nan_beside_an_infinite_pair_records_nan_in_either_order(self):
        # a NaN partial makes the norm NaN whatever else the partials hold
        sched = StepSchedule.normalized_diminishing(4.0)
        for plus, minus in (([np.inf, 1.0], [np.inf, np.nan]), ([np.nan, np.inf], [1.0, 2e12])):
            rec = speg_run(FixedPartials(np.array(plus), np.array(minus)), np.zeros(2), sched, 10)
            assert rec.status == "numerical_failure"
            assert len(rec) == 1 and math.isnan(rec.grad_norm[0])

    def test_malformed_partials_still_raise(self):
        # only NaN partials end a run quietly; partials of the wrong shape are the objective's bug
        class Mismatched:
            dimension = 2

            def value(self, x):
                return 0.0

            def one_sided_basis(self, x):
                return np.ones(2), np.ones(3)

        with pytest.raises(ValueError):
            speg_run(Mismatched(), np.zeros(2), StepSchedule.normalized_diminishing(4.0), 10)


class TestGdAdam:
    def test_gd_single_step(self):
        rec = gd_run(half_square_1d(), [1.0], 0.1, 1)
        assert rec.f_current[-1] == pytest.approx(0.5 * 0.9 ** 2, rel=1e-15)

    def test_gd_linear_contraction(self):
        rec = gd_run(half_square_1d(), [1.0], 0.1, 50)
        ratio = rec.f_current[1:] / rec.f_current[:-1]
        assert np.allclose(ratio, 0.81, atol=1e-12)  # f contracts by 0.9^2 per step

    def test_adam_first_step_bias_corrected(self):
        # constant unit gradient: first update is -lr / (1 + eps)
        class Linear1d:
            dimension = 1

            def value(self, x):
                return float(x[0])

            def one_sided_basis(self, x):
                return np.ones(1), np.ones(1)

        rec = adam_run(Linear1d(), [0.0], 0.01, 1)
        step = 0.0 - rec.f_current[-1]  # value is the coordinate itself
        assert rec.f_current[-1] == pytest.approx(-0.01 * 0.9999999900000002, rel=1e-12)
        assert step == pytest.approx(0.01, rel=1e-7)

    def test_adam_zero_gradient_fixed_point(self):
        class Flat:
            dimension = 1

            def value(self, x):
                return 1.0

            def one_sided_basis(self, x):
                return np.zeros(1), np.zeros(1)

        rec = adam_run(Flat(), [3.0], 0.01, 50)
        assert rec.status == "stationary"
        assert rec.f_current[-1] == 1.0


class TestStochasticRuns:
    def test_single_component_matches_full_run(self):
        # m = 1: the drawn component is always f_1 = f, so the trajectory is
        # identical to the deterministic method on the same schedule
        rng = rng_for(1)
        p = ElasticNetProblem(rng.standard_normal((1, 3)), rng.standard_normal(1), 0.5, 0.5)
        x0 = rng.standard_normal(3)
        sched = StepSchedule.normalized_diminishing(4.0)
        stoch = sspeg_run(p, x0, sched, 50, rng=rng_for(2))
        full = speg_run(p, x0, sched, 50)
        assert np.array_equal(stoch.f_current, full.f_current)
        assert np.array_equal(stoch.grad_norm, full.grad_norm)

    def test_unbiased_at_smooth_points(self):
        rng = rng_for(3)
        p = ElasticNetProblem(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2), 0.0, 0.0)
        x = np.array([0.7, -1.3])
        full = specular_gradient(p, x) * p.m  # component mean has the 1/m absorbed
        draws = rng.integers(p.m, size=100_000)
        sampled = np.stack([specular_gradient(p.component(j), x) for j in range(p.m)])
        emp = sampled[draws].mean(axis=0)
        spread = sampled.std(axis=0) / np.sqrt(draws.size)
        assert np.all(np.abs(emp - sampled.mean(axis=0)) <= 3.0 * spread + 1e-12)
        assert np.allclose(sampled.mean(axis=0), full / p.m, atol=1e-12)

    def test_full_objective_tracked(self):
        # recorded values are those of the full problem, not the sampled term
        rng = rng_for(4)
        p = ElasticNetProblem(rng.standard_normal((5, 3)), rng.standard_normal(5), 0.3, 0.5)
        x0 = rng.standard_normal(3)
        rec = sspeg_run(p, x0, StepSchedule.normalized_diminishing(4.0), 30, rng=rng_for(5))
        assert rec.f_current[0] == p.value(x0)
        assert rec.f_best[-1] == pytest.approx(p.value(rec.x_best), rel=1e-15)

    def test_requires_rng(self):
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.0, 0.0)
        with pytest.raises(ValueError):
            sspeg_run(p, np.ones(2), StepSchedule.constant(0.1), 5, rng=None)

    def test_determinism_same_stream(self):
        rng = rng_for(6)
        p = ElasticNetProblem(rng.standard_normal((4, 3)), rng.standard_normal(4), 1.0, 0.5)
        x0 = rng.standard_normal(3)
        sched = StepSchedule.normalized_diminishing(4.0)
        a = sspeg_run(p, x0, sched, 40, rng=rng_for(7))
        b = sspeg_run(p, x0, sched, 40, rng=rng_for(7))
        assert np.array_equal(a.f_current, b.f_current)
        assert np.array_equal(a.x_best, b.x_best)


class TestSmoothFastPath:
    """Smooth iterates skip the kink machinery; kinked ones still reach it."""

    def _problems(self):
        rng = rng_for(22)
        return (DiagonalLasso(rng.uniform(0.5, 2.0, 7), rng.uniform(-3.0, 3.0, 7), 1.0),
                ElasticNetProblem(rng.standard_normal((9, 7)), rng.standard_normal(9), 0.3, 0.7))

    def test_smooth_runs_skip_the_kernel_and_the_unfused_oracle(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("kink path taken on a smooth run")

        monkeypatch.setattr(specular, "afun_array", forbidden)
        monkeypatch.setattr(optimizers, "specular_gradient", forbidden)
        x0 = rng_for(23).standard_normal(7)  # no exact zero coordinate
        for p in self._problems():
            for rec in (speg_run(p, x0, StepSchedule.normalized_diminishing(4.0), 200),
                        gd_run(p, x0, 0.01, 50), adam_run(p, x0, 0.01, 50)):
                assert rec.status == "max_iters"

    def test_kinked_iterate_still_reaches_the_kernel(self, monkeypatch):
        calls = []
        kernel = specular.afun_array
        monkeypatch.setattr(specular, "afun_array", lambda a, b: calls.append(a.size) or kernel(a, b))
        x0 = rng_for(23).standard_normal(7)
        x0[[1, 4]] = 0.0
        for p in self._problems():
            calls.clear()
            speg_run(p, x0, StepSchedule.normalized_diminishing(4.0), 3)
            assert calls and calls[0] == 2  # both kinked coordinates of x0

    def test_norm_equals_numpy_bitwise(self):
        # the loop's norm, from the smooth-point screen (one shared array) or
        # after the general path (a copy), has the bits of np.linalg.norm
        rng = rng_for(24)
        vectors = [np.zeros(0), np.zeros(3), np.array([-0.0, 0.0]), np.array([3.0, 4.0]),
                   np.array([1e-200, -3e-170]), np.full(4, 7e11)]  # the last fails the screen
        vectors += [rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8) for n in (1, 7, 100, 500)]
        for g in vectors:
            for minus in (g, g.copy()):
                got, norm = specular.specular_with_norm(g, minus)
                assert got.tobytes() == g.tobytes()
                assert np.float64(norm).tobytes() == np.linalg.norm(g).tobytes()
        with np.errstate(over="ignore"):  # the screen's sum overflows
            for g in (np.array([1e200, 1e200]), np.array([np.inf, 1.0]), np.array([np.nan, 1.0])):
                for minus in (g, g.copy()):
                    # promoted to +inf on both sides: an infinite norm; NaN: a NaN norm
                    norm = specular.specular_with_norm(g, minus)[1]
                    assert math.isnan(norm) if np.isnan(g).any() else norm == math.inf
                    with pytest.raises(ValueError):
                        specular_gradient(FixedPartials(g, minus), g)


class TestHybridRuns:
    def _problem(self, seed=8):
        rng = rng_for(seed)
        return (ElasticNetProblem(rng.standard_normal((5, 4)), rng.standard_normal(5), 0.5, 0.5),
                rng.standard_normal(4))

    def test_negative_switch_rejected(self):
        p, x0 = self._problem()
        with pytest.raises(ValueError, match="switch_k must be nonnegative"):
            hspeg_run(p, x0, StepSchedule.normalized_diminishing(4.0), switch_k=-1, max_iters=10, rng=rng_for(1))

    def test_switch_before_the_cap_needs_a_generator(self):
        p, x0 = self._problem()
        with pytest.raises(ValueError, match="hspeg_run needs a seeded random generator"):
            hspeg_run(p, x0, StepSchedule.normalized_diminishing(4.0), switch_k=3, max_iters=10)

    def test_switch_at_cap_equals_full_method(self):
        p, x0 = self._problem()
        sched = StepSchedule.normalized_diminishing(4.0)
        hybrid = hspeg_run(p, x0, sched, switch_k=30, max_iters=30, rng=rng_for(9))
        full = speg_run(p, x0, sched, 30)
        assert np.array_equal(hybrid.f_current, full.f_current)
        assert np.array_equal(hybrid.grad_norm, full.grad_norm)
        assert hybrid.status == full.status

    def test_switch_at_zero_equals_stochastic_method(self):
        p, x0 = self._problem()
        sched = StepSchedule.normalized_diminishing(4.0)
        hybrid = hspeg_run(p, x0, sched, switch_k=0, max_iters=30, rng=rng_for(10))
        stoch = sspeg_run(p, x0, sched, 30, rng=rng_for(10))
        assert np.array_equal(hybrid.f_current, stoch.f_current)
        assert np.array_equal(hybrid.grad_norm, stoch.grad_norm)

    def test_prefix_matches_full_method(self):
        p, x0 = self._problem()
        sched = StepSchedule.normalized_diminishing(4.0)
        hybrid = hspeg_run(p, x0, sched, switch_k=10, max_iters=30, rng=rng_for(11))
        full = speg_run(p, x0, sched, 30)
        assert np.array_equal(hybrid.f_current[:10], full.f_current[:10])
        assert len(hybrid) == 31  # continuous numbering across the switch

    @pytest.mark.parametrize("name, value", [("switch_k", math.nan), ("switch_k", 2.5), ("switch_k", True),
                                             ("max_iters", math.nan), ("max_iters", math.inf)])
    def test_a_switch_or_cap_that_is_not_an_integer_is_rejected(self, name, value):
        # switch_k = nan failed every k < switch_k test and silently ran S-SPEG
        p, x0 = self._problem()
        counts = {"switch_k": 3, "max_iters": 10, name: value}
        with pytest.raises(ValueError, match=f"{name} must be nonnegative and an integer"):
            hspeg_run(p, x0, StepSchedule.normalized_diminishing(4.0), rng=rng_for(1), **counts)

    def test_switch_and_cap_are_required(self):
        p, x0 = self._problem()
        with pytest.raises(TypeError, match="switch_k"):
            hspeg_run(p, x0, StepSchedule.normalized_diminishing(4.0), rng=rng_for(1))


class TestProjection:
    def test_ball_radial_scaling(self):
        ball = EuclideanBall(np.zeros(2), 1.0)
        out = projected_speg_step([2.0, 0.0], [0.0, 0.0], 1.0, ball)
        assert np.allclose(out, [1.0, 0.0], atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ball_far_finite_point(self):
        # the squared distance overflows; the projection is still the radial point
        out = EuclideanBall(np.zeros(2), 1.0).project(np.array([1e200, 1e200]))
        assert np.allclose(out, [math.sqrt(0.5)] * 2, rtol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("center,radius,x,expected", [
        ([-1e308, -1e308], 1.0, [1e308, 1e308], [-1e308 + math.sqrt(0.5)] * 2),
        ([1e308, -1e308], 1e308, [-1e308, 1e308], [1e308 - 1e308 / math.sqrt(2.0), 1e308 / math.sqrt(2.0) - 1e308]),
        ([-1e308, 0.0], 1e308, [1e308, 5.0], [0.0, 2.5]),
        ([-1e308, 0.0], math.inf, [1e308, 5.0], [1e308, 5.0]),
    ], ids=["diagonal", "mixed-signs", "one-axis", "infinite-radius"])
    def test_ball_offset_past_the_largest_float(self, center, radius, x, expected):
        # x - center overflows although both are finite: the radial point (or x, inside) is still finite
        out = EuclideanBall(np.array(center), radius).project(x)
        assert np.isfinite(out).all()
        assert np.allclose(out, expected, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("center,radius,x", [([0.3, -1.2], 0.7, [2.5, 1.1]), (0.0, 1.0, [1e200, -3e199]),
                                                 ([1e-300, 0.0], 1e-301, [0.0, 1e-300])])
    def test_ball_projection_bits_where_the_offset_is_finite(self, center, radius, x):
        center, x = np.asarray(center, dtype=float), np.asarray(x, dtype=float)
        offset = x - center
        expected = center + offset * (radius / specular.vector_norm(offset))
        assert EuclideanBall(center, radius).project(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("constraint", [Box(np.zeros(2), np.ones(2)), EuclideanBall(np.zeros(2), 1.0)],
                             ids=["box", "ball"])
    def test_nan_point_rejected(self, constraint):
        # a NaN coordinate used to project to NaN, silently
        for x in ([math.nan, 0.0], [math.nan, 2.0], [0.5, math.nan]):
            with pytest.raises(ValueError, match="NaN"):
                constraint.project(x)
        with pytest.raises(ValueError, match="NaN"):  # inf - inf in the step
            projected_speg_step([math.inf, 0.0], [1e308, 0.0], 1e10, constraint)

    def test_infinite_point_rejected_by_the_ball(self):
        # the radial scaling of an infinite offset gave inf * 0 = NaN
        ball = EuclideanBall(np.zeros(2), 1.0)
        for x in ([math.inf, 0.0], [0.0, -math.inf], [math.inf, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                ball.project(x)
        with pytest.raises(ValueError, match="finite"):  # the step overflows to -inf
            projected_speg_step([0.0, 0.0], [1e308, 1e308], 1e10, ball)

    def test_box_clips_infinite_coordinates(self):
        # clipping +-inf to the bounds is the exact projection, also of a step that overflows
        box = Box(np.zeros(2), np.ones(2))
        assert np.array_equal(box.project([math.inf, -math.inf]), [1.0, 0.0])
        assert np.array_equal(projected_speg_step([0.0, 0.0], [1e308, -1e308], 1e10, box), [0.0, 1.0])

    def test_box_clamp(self):
        box = Box(np.zeros(2), np.ones(2))
        out = projected_speg_step([-0.5, 2.0], [0.0, 0.0], 1.0, box)
        assert np.array_equal(out, [0.0, 1.0])

    def test_interior_point_unchanged(self):
        ball = EuclideanBall(np.zeros(2), 5.0)
        out = projected_speg_step([1.0, 1.0], [1.0, -1.0], 0.5, ball)
        assert np.array_equal(out, [0.5, 1.5])

    @pytest.mark.parametrize("h", [0.0, -1.0, np.inf, np.nan])
    def test_step_size_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError):
            projected_speg_step(np.ones(3), np.ones(3), h, Box(-1.0, 1.0))

    @pytest.mark.parametrize("constraint", [Box(np.zeros(2), np.ones(2)), EuclideanBall(np.zeros(2), 1.0)],
                             ids=["box", "ball"])
    def test_point_of_the_wrong_shape_rejected(self, constraint):
        # a 1-vector used to broadcast against the 2-d set
        for x in (np.array([5.0]), np.ones(3), np.ones((2, 2)), 5.0):
            with pytest.raises(ValueError, match="shape"):
                constraint.project(x)
        with pytest.raises(ValueError, match="shape"):
            projected_speg_step(np.ones(1), np.ones(1), 0.5, constraint)
        assert constraint.project([0.25, 0.5]).shape == (2,)

    def test_gradient_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            projected_speg_step(np.array([3.0, 1.0]), np.array([1.0]), 0.5, Box(-1.0, 1.0))
        with pytest.raises(ValueError, match="shape"):
            projected_speg_step(np.array([3.0, 1.0]), 1.0, 0.5, Box(-1.0, 1.0))

    def test_scalar_bounds_fit_any_point(self):
        assert np.array_equal(projected_speg_step([3.0, 0.5, -2.0], [0.0, 1.0, 0.0], 0.5, Box(-1.0, 1.0)),
                              [1.0, 0.0, -1.0])
        assert np.allclose(EuclideanBall(0.0, 1.0).project([3.0, 4.0]), [0.6, 0.8], rtol=1e-15)

    def test_malformed_sets(self):
        with pytest.raises(ValueError):
            EuclideanBall(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            Box(np.ones(2), np.zeros(2))
        # a NaN bound or a non-finite center used to project to NaN, silently
        for lo, hi in (([math.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, math.nan]), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                Box(np.array(lo), np.array(hi))
        for center in ([math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf], math.nan):
            with pytest.raises(ValueError, match="center"):
                EuclideanBall(np.array(center), 1.0)
        # a lower bound of +inf or an upper bound of -inf is empty, yet projected to infinity
        for lo, hi in (([math.inf, 0.0], [math.inf, 1.0]), ([0.0, -math.inf], [1.0, -math.inf]),
                       (math.inf, math.inf), (-math.inf, -math.inf)):
            with pytest.raises(ValueError, match="empty"):
                Box(np.array(lo), np.array(hi))
        # infinite box bounds stay legal: a half-space box
        box = Box(np.array([-math.inf, 0.0]), np.array([0.0, math.inf]))
        assert np.array_equal(box.project(np.array([0.5, -0.5])), [0.0, 0.0])


class TestBasicInequality:
    def test_single_iteration_value(self):
        bounds = basic_inequality_bound([1.0], [0.0], [(1.0, 1.0)])
        assert bounds.tolist() == [1.0]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            basic_inequality_bound([1.0], [0.0], [])

    @pytest.mark.parametrize("trace", [np.zeros((0, 2)), [1.0, 2.0], np.ones((3, 3))])
    def test_malformed_array_trace_rejected(self, trace):
        with pytest.raises(ValueError):
            basic_inequality_bound([1.0], [0.0], trace)

    def test_array_trace_equals_pairs_bitwise(self):
        rng = rng_for(26)
        hs, gs = rng.uniform(0.0, 1.0, 500), rng.uniform(0.0, 5.0, 500)
        from_pairs = basic_inequality_bound([1.0, -2.0], [0.5, 0.0], list(zip(hs, gs)))
        from_array = basic_inequality_bound([1.0, -2.0], [0.5, 0.0], np.column_stack((hs, gs)))
        assert from_array.tobytes() == from_pairs.tobytes()

    def test_bound_holds_on_oracle_run(self):
        rng = rng_for(12)
        lasso = DiagonalLasso(rng.uniform(0.5, 2.0, 8), rng.uniform(-3.0, 3.0, 8), 1.0)
        x0 = rng.standard_normal(8)
        rec = speg_run(lasso, x0, StepSchedule.normalized_diminishing(4.0), 3000)
        assert checks.basic_inequality_excess(lasso, x0, lasso.minimizer(), rec) <= 1e-12

    def test_constant_step_shape(self):
        # with h and the gradient norm frozen, the bound decays like
        # R^2/(2hk) + h g^2/2
        bounds = basic_inequality_bound([1.0], [0.0], [(0.1, 1.0)] * 100)
        ks = np.arange(1, 101)
        expected = (1.0 + 0.01 * ks) / (0.2 * ks)
        assert np.allclose(bounds, expected, rtol=1e-12)

    @pytest.mark.parametrize("x0,xstar", [([1.0, 2.0, 3.0], [1.0]), (np.ones((2, 2)), np.zeros((2, 2))),
                                          (1.0, 0.0), ([1.0, math.nan], [0.0, 0.0]),
                                          ([1.0, 2.0], [math.inf, 0.0])])
    def test_points_must_be_finite_vectors_of_one_shape(self, x0, xstar):
        # a short xstar broadcast to the bound [25.05]; a 2-D x0 raised TypeError
        with pytest.raises(ValueError, match="vectors of one shape"):
            basic_inequality_bound(x0, xstar, [(0.1, 1.0)])

    @pytest.mark.parametrize("pair", [(-0.1, 1.0), (0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                                      (0.1, -1.0), (0.1, math.nan), (0.1, math.inf)])
    def test_pairs_must_hold_a_positive_step_and_a_nonnegative_norm(self, pair):
        # h = -0.1 gave the negative "bound" [-5.05], a NaN h the bound [nan]
        with pytest.raises(ValueError, match="positive and finite"):
            basic_inequality_bound([1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [(0.1, 1.0), pair])

    def test_zero_gradient_norm_is_a_valid_pair(self):
        assert basic_inequality_bound([1.0], [0.0], [(1.0, 0.0)]).tolist() == [0.5]


class TestSubgradientProperty:
    def test_specular_gradient_is_a_subgradient(self):
        suite = checks.subgradient_inequality(300, rng_for(13))
        assert suite.passed, suite.detail

    def test_optimality_direction_at_oracle_minimizer(self):
        rng = rng_for(14)
        lasso = DiagonalLasso(rng.uniform(0.5, 2.0, 6), rng.uniform(-3.0, 3.0, 6), 1.0)
        xstar = lasso.minimizer()
        for _ in range(200):
            x = rng.standard_normal(6)
            g = specular_gradient(lasso, x)
            assert float(g @ (x - xstar)) >= -1e-8


def _kinked(x0):
    x0 = np.array(x0, dtype=float)
    x0[::3] = 0.0
    x0[1] = -0.0
    return x0


def _lasso_start(lambda1):
    rng = rng_for(25)
    lasso = DiagonalLasso(rng.uniform(0.5, 2.0, 9), rng.uniform(-3.0, 3.0, 9), lambda1)
    x0 = rng.standard_normal(9)
    x0[::3] = 0.0
    x0[4] = -0.0
    return lasso, x0


def _net_start():
    rng = rng_for(26)
    p = ElasticNetProblem(rng.standard_normal((12, 9)), rng.standard_normal(12), 0.3, 0.7)
    x0 = rng.standard_normal(9)
    x0[::3] = 0.0
    x0[4] = -0.0
    return p, x0


class TestFusedLoopIdentity:
    """Every method's record equals, bit for bit, the reference loop over the separate oracle calls."""

    MAX_ITERS = 60

    def _problem(self):
        rng = rng_for(21)
        p = ElasticNetProblem(rng.standard_normal((12, 9)), rng.standard_normal(12), 0.3, 0.7)
        x0 = rng.standard_normal(9)
        x0[::3] = 0.0  # start on kinks, where the assembly takes the afun branch
        return p, x0

    def _problems(self):
        """The elastic net of the table runs, and the diagonal lasso the check suites run,
        the latter also with lambda1 = 0, where no iterate is ever at a kink."""
        return self._problem(), _lasso_start(1.0), _lasso_start(0.0)

    def _assert_same(self, method, p, x0, rules):
        ref, _ = run_reference(method, p, x0, rules, separate_oracle)
        assert_same_record(run_library(method, p, x0, rules), ref)

    def test_speg(self):
        for p, x0 in self._problems():
            for method in ("SPEG-s", "SPEG-g"):
                self._assert_same(method, p, x0, Rules(self.MAX_ITERS, ratio=0.9))

    def test_sspeg(self):
        self._assert_same("S-SPEG", *self._problem(), Rules(self.MAX_ITERS, seed=3))

    @pytest.mark.parametrize("switch_k", [0, 1, 10, 60, 61, 500])
    def test_hspeg(self, switch_k):
        # from switch_k = MAX_ITERS on, the full method throughout, the last row included
        self._assert_same("H-SPEG", *self._problem(), Rules(self.MAX_ITERS, switch_k=switch_k, seed=4))

    def test_gd(self):
        for p, x0 in self._problems():
            self._assert_same("GD", p, x0, Rules(self.MAX_ITERS))

    def test_adam(self):
        for p, x0 in self._problems():
            self._assert_same("Adam", p, x0, Rules(self.MAX_ITERS))


def _bit_cases():
    """name -> (objective, start, scale of the step parameters c, h and lr)."""
    rng = rng_for(28)
    A, b, x0 = rng.standard_normal((6, 4)), rng.standard_normal(6), _kinked(rng.standard_normal(4))
    lasso_d, lasso_b = rng.uniform(0.5, 2.0, 5), rng.uniform(-3.0, 3.0, 5)
    lasso_x0 = _kinked(rng.standard_normal(5))
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    return {
        "kinked": (ElasticNetProblem(A, b, 0.3, 0.7), x0, 1.0),
        "kinked-lasso": (DiagonalLasso(lasso_d, lasso_b, 1.0), lasso_x0, 1.0),
        "no-l1": (ElasticNetProblem(A, b, 0.0, 0.7), x0, 1.0),
        "no-l1-lasso": (DiagonalLasso(lasso_d, lasso_b, 0.0), lasso_x0, 1.0),
        # full partials near 7e11: each below the threshold, their squares summing past it
        "screen-bound": (ElasticNetProblem(np.eye(4), 2.8e12 * signs, 0.0, 0.5), 0.1 * signs, 1.0),
        # one step of length about 4e13 or 4e160: partials promoted to infinity, or a dot that overflows
        "promoted-1e13": (ElasticNetProblem(A, b, 0.3, 0.7), x0, 1e13),
        "overflow-1e160": (ElasticNetProblem(A, b, 0.3, 0.7), x0, 1e160),
        # every coordinate at its kink, both partials promoted with opposite signs
        "kink-1e13": (ElasticNetProblem(A, b, 1e13, 0.7), np.array([0.0, -0.0, 0.0, -0.0]), 1.0),
    }


_BIT_CASES = _bit_cases()
_BIT_PARAMS = [(case, method) for case, (p, _, _) in _BIT_CASES.items()
               for method in ("SPEG-s", "SPEG-g", "GD", "Adam", "S-SPEG", "H-SPEG")
               if isinstance(p, ElasticNetProblem) or method not in ("S-SPEG", "H-SPEG")]


def _scaled(scale):
    """The rules of TestOneDotPerStep, their step parameters c, h and lr scaled."""
    return Rules(150, c=4.0 * scale, h=0.01 * scale, lr=0.01 * scale)


class TestOneDotPerStep:
    """The loop takes ||g|| from the smooth-point screen's dot, the elastic net reduces with
    np.add.reduce and the lasso forms its value with two dots; every record equals, bit for bit,
    the reference loop's over the reference oracle, which reduces with ndarray.sum and ``@``
    and takes sqrt(g.g) itself."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case,method", _BIT_PARAMS)
    def test_record_matches_two_dot_loop(self, case, method):
        p, x0, scale = _BIT_CASES[case]
        ref, _ = run_reference(method, p, x0, _scaled(scale), reference_oracle)
        assert_same_record(run_library(method, p, x0, _scaled(scale)), ref)

    def test_cases_reach_their_paths(self):
        # each case takes the path its name says, on the SPEG-s run
        runs = {case: run_library("SPEG-s", p, x0, _scaled(scale)) for case, (p, x0, scale) in _BIT_CASES.items()}
        screened = runs["screen-bound"].grad_norm
        assert runs["screen-bound"].status == "max_iters" and np.all((screened >= 1e12) & (screened < math.inf))
        for case in ("promoted-1e13", "overflow-1e160"):
            rec = runs[case]
            assert rec.status == "numerical_failure" and len(rec) == 2 and rec.grad_norm[1] == math.inf, case
        assert runs["overflow-1e160"].f_current[1] == math.inf  # the value overflows as well
        assert runs["kink-1e13"].status == "stationary" and list(runs["kink-1e13"].grad_norm) == [0.0]
        for case in ("kinked", "kinked-lasso", "no-l1", "no-l1-lasso"):
            assert runs[case].status == "max_iters" and np.all(np.isfinite(runs[case].grad_norm)), case


class _SummedLasso:
    """A diagonal lasso whose value is summed as the library summed it before it formed the
    value from the gradient and sign vector: np.add.reduce(0.5 d (r * r)) + lambda1
    np.add.reduce(|x|); its partials are the lasso's own."""

    def __init__(self, lasso):
        self.lasso, self.dimension = lasso, lasso.dimension

    def value_and_one_sided_basis(self, x):
        lasso = self.lasso
        r = x - lasso.b
        f = float(np.add.reduce((0.5 * lasso.d) * (r * r))) + lasso.lambda1 * float(np.add.reduce(np.abs(x)))
        return f, lasso.one_sided_basis(x)


class TestLassoValueFromSign:
    """A step reads only the partials, so forming the lasso's value from its gradient and sign
    vector leaves every step size, gradient norm and status of a run as they were, bit for bit."""

    @pytest.mark.parametrize("lambda1", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("method", ["SPEG-s", "GD", "Adam"])
    def test_steps_match_the_summed_value_bitwise(self, method, lambda1):
        rng = rng_for(30)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            lasso = DiagonalLasso(rng.uniform(0.5, 2.0, n), rng.uniform(-3.0, 3.0, n), lambda1)
            x0 = rng.standard_normal(n)
            x0[rng.random(n) < 0.4] = 0.0
            x0[0], x0[-1] = 0.0, -0.0
            rec = run_library(method, lasso, x0, Rules(300))
            old = run_library(method, _SummedLasso(lasso), x0, Rules(300))
            assert rec.h_trace.tobytes() == old.h_trace.tobytes()
            assert rec.grad_norm.tobytes() == old.grad_norm.tobytes()
            assert rec.status == old.status
            assert np.all(np.abs(rec.f_current - old.f_current) <= 4 * np.spacing(old.f_current))


def _dot_cases():
    """name -> (A, b, lambda1, lambda2, start); the starts hold 0.0 and -0.0."""
    rng = rng_for(47)
    tall_A, tall_b = rng.standard_normal((9, 4)), rng.standard_normal(9)
    wide_A, wide_b = rng.standard_normal((3, 7)), rng.standard_normal(3)
    tall_x0, wide_x0 = _kinked(rng.standard_normal(4)), _kinked(rng.standard_normal(7))
    strided = rng.standard_normal(14)
    strided[[0, 6]] = 0.0, -0.0
    return {
        "m>n": (tall_A, tall_b, 0.3, 0.7, tall_x0),
        "m<n": (wide_A, wide_b, 0.3, 0.7, wide_x0),
        "m>n-no-ridge": (tall_A, tall_b, 0.3, 0.0, tall_x0),
        "m<n-no-ridge": (wide_A, wide_b, 0.05, 0.0, wide_x0),
        "no-l1": (tall_A, tall_b, 0.0, 0.7, tall_x0),
        "strided-start": (wide_A, wide_b, 0.3, 0.7, strided[::2]),
        "n=1": (tall_A[:, :1], tall_b, 0.3, 0.7, np.array([-0.0])),
    }


_DOT_CASES = _dot_cases()


def _same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestDotProducts:
    """The oracle's products are ndarray.dot calls and its value is summed in Python floats; every
    record, and every oracle result, equals the ``@``/np.float64 reference oracle's bit for bit."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", list(harness.METHOD_NAMES))
    @pytest.mark.parametrize("case", list(_DOT_CASES))
    def test_record_matches_matmul_oracle(self, case, method):
        A, b, lambda1, lambda2, x0 = _DOT_CASES[case]
        cfg = harness.ExperimentConfig.from_dict({
            "m": A.shape[0], "n": A.shape[1], "lambda1": lambda1, "lambda2": lambda2,
            "methods": [method], "seed": 0, "max_iters": 300, "switch_k": 20})
        p = ElasticNetProblem(A, b, lambda1, lambda2)
        rules = Rules(cfg.max_iters, c=cfg.schedule_c, h=harness.GD_STEP, lr=harness.ADAM_LR,
                      switch_k=cfg.switch_k, seed=53)
        ref, _ = run_reference(method, p, x0, rules, reference_oracle)
        assert_same_record(harness.run_method(method, p, x0, cfg, rng_for(53)), ref)

    @pytest.mark.parametrize("case", list(_DOT_CASES))
    def test_oracle_matches_matmul_oracle(self, case):
        A, b, lambda1, lambda2, x0 = _DOT_CASES[case]
        p = ElasticNetProblem(A, b, lambda1, lambda2)
        ref = reference_oracle(p)
        v = rng_for(59).standard_normal(p.n)
        v[-1] = 0.0
        for x in (x0, np.repeat(x0, 3)[1::3], 1e150 * x0):
            assert _same_bits(p.value(x), ref.value(x))
            got, want = p.value_and_one_sided_basis(x), ref.full(x)
            assert _same_bits(got[0], want[0]) and all(map(_same_bits, got[1], want[1]))
            plus, minus = want[1]
            ahead, back = v > 0.0, v < 0.0
            pair = p.one_sided(x, v)
            assert _same_bits(pair.plus, float(plus[ahead] @ v[ahead] + minus[back] @ v[back]))
            assert _same_bits(pair.minus, float(minus[ahead] @ v[ahead] + plus[back] @ v[back]))
            for j in range(p.m):
                assert all(map(_same_bits, p.component_one_sided_basis(j, x), ref.sample(j, x)))
                rj = float(A[j] @ x) - float(b[j])
                smooth = 0.5 * rj * rj + (0.5 * lambda2 * (x @ x) if lambda2 else 0.0)
                assert _same_bits(p.component(j).value(x), float(smooth) + lambda1 * float(np.abs(x).sum()))

    def test_reversed_view_has_the_bits_of_its_copy(self):
        A, b, lambda1, lambda2, x0 = _DOT_CASES["m<n"]
        p = ElasticNetProblem(A, b, lambda1, lambda2)
        x = rng_for(61).standard_normal(3 * p.n)[::-3]
        assert _same_bits(p.value(x), p.value(x.copy()))
        assert all(map(_same_bits, p.one_sided_basis(x), p.one_sided_basis(x.copy())))
        assert all(map(_same_bits, p.component_one_sided_basis(1, x), p.component_one_sided_basis(1, x.copy())))


@pytest.fixture
def oracle_rows(monkeypatch):
    """Counts the rows runs evaluate: each row calls the fused hook or value exactly once."""
    calls = [0]
    for cls in (ElasticNetProblem, DiagonalLasso):
        for name in ("value_and_one_sided_basis", "value"):
            def counted(self, x, method=getattr(cls, name)):
                calls[0] += 1
                return method(self, x)
            monkeypatch.setattr(cls, name, counted)
    return calls


class TestFixedPointReplay:
    """Runs whose rows depend on x alone stop evaluating at a fixed point; the record is the reference loop's.

    Every run here is compared byte for byte with reference_loop over the
    fused oracle.  SPEG and GD runs may finish from the first row whose step
    leaves x unchanged; S-SPEG, H-SPEG and Adam carry state past x (the row
    draw, the moments) and must evaluate every row.
    """

    RULES = Rules(300)

    @pytest.mark.parametrize("start", ["net", "lasso", "lasso-no-l1"])
    @pytest.mark.parametrize("method", ["SPEG-s", "SPEG-g", "GD", "Adam"])
    def test_matches_plain_loop(self, method, start, oracle_rows):
        # the starts have exact zeros (0.0 and -0.0); with lambda1 > 0 the first rows take the kink branch
        p, x0 = {"net": _net_start, "lasso": lambda: _lasso_start(1.0),
                 "lasso-no-l1": lambda: _lasso_start(0.0)}[start]()
        ref, stall = run_reference(method, p, x0, self.RULES, fused_oracle)
        oracle_rows[0] = 0
        rec = run_library(method, p, x0, self.RULES)
        assert_same_record(rec, ref)
        if method == "Adam" or stall is None:
            assert oracle_rows[0] == len(rec)
        else:
            assert oracle_rows[0] <= stall + 1
        if method == "SPEG-g":  # summable steps: every start here reaches a fixed point
            assert stall is not None and stall < self.RULES.max_iters

    def test_gd_reaches_a_fixed_point(self, oracle_rows):
        # a constant step, large enough to converge within the run, meets a fixed point too
        p, x0 = _lasso_start(0.0)
        rules = Rules(300, h=0.5)
        ref, stall = run_reference("GD", p, x0, rules, fused_oracle)
        assert stall is not None and stall < rules.max_iters - 1
        oracle_rows[0] = 0
        assert_same_record(run_library("GD", p, x0, rules), ref)
        assert oracle_rows[0] <= stall + 1

    def test_fixed_point_above_the_best_value(self, oracle_rows):
        # the repeated rows keep the running best, not the fixed point's value; which instances
        # stall above their best depends on the BLAS kernel's rounding, so draw until one does
        for seed in range(69, 1069):
            rng = rng_for(seed)
            p = ElasticNetProblem(rng.standard_normal((4, 3)), rng.standard_normal(4), 0.3, 0.2)
            x0 = 3.0 * rng.standard_normal(3)
            ref, stall = run_reference("SPEG-g", p, x0, self.RULES, fused_oracle)
            if stall is not None and ref.f_current[stall] > ref.f_best[stall]:
                break
        else:
            pytest.fail("no instance of seeds 69-1068 stalls above its best value")
        oracle_rows[0] = 0
        assert_same_record(run_library("SPEG-g", p, x0, self.RULES), ref)
        assert oracle_rows[0] <= stall + 1

    def test_table2_geometric_run_stalls(self, oracle_rows):
        A, b, x0 = harness.sample_instance(50, 100, harness.substream(7, 0, 0))
        p = ElasticNetProblem(A, b, 0.01, 1.0)
        rules = Rules(2500, ratio=harness.GEOMETRIC_RATIO)
        ref, stall = run_reference("SPEG-g", p, x0, rules, fused_oracle)
        oracle_rows[0] = 0
        rec = run_library("SPEG-g", p, x0, rules)
        assert_same_record(rec, ref)
        assert rec.status == "max_iters" and len(rec) == 2501
        assert stall is not None and stall < 100
        assert oracle_rows[0] <= stall + 1

    @pytest.mark.parametrize("switch_k", [0, 10])
    def test_sampled_runs_evaluate_every_row(self, switch_k, oracle_rows):
        # under summable steps x stops moving, yet each row draws another component
        p, x0 = _net_start()
        sched, n = StepSchedule.geometric(0.5), self.RULES.max_iters
        partials = reference_partials(fused_oracle(p), p.m, switch_k, 5)
        ref, stall = reference_loop(partials, x0, sched, n, optimizers.DEFAULT_ETA)
        assert stall is not None and stall < n - 1
        oracle_rows[0] = 0
        if switch_k == 0:
            rec = sspeg_run(p, x0, sched, n, rng=rng_for(5))
        else:
            rec = hspeg_run(p, x0, sched, switch_k, n, rng=rng_for(5))
        assert_same_record(rec, ref)
        assert oracle_rows[0] == len(rec)

    def test_adam_evaluates_every_row(self, oracle_rows):
        # a step of 1e-20 cannot move an iterate whose entries are far from zero
        p, _ = _net_start()
        x0 = rng_for(27).uniform(0.5, 2.0, p.dimension)
        rules = Rules(50, lr=1e-20)
        ref, stall = run_reference("Adam", p, x0, rules, fused_oracle)
        assert stall == 0
        oracle_rows[0] = 0
        rec = run_library("Adam", p, x0, rules)
        assert_same_record(rec, ref)
        assert oracle_rows[0] == len(rec)


class MaxPair:
    """f(x) = max(x1, x2) + ||x||^2 / 2: not separable, and it offers only the Objective protocol."""

    dimension = 2

    def value(self, x):
        return float(max(x[0], x[1]) + 0.5 * (x @ x))

    def one_sided_basis(self, x):
        # the max term adds 1 to both partials of the larger coordinate; at a tie
        # f'(x; e_i) = 1 and -f'(x; -e_i) = 0 for both
        plus = np.array([x[0] >= x[1], x[1] >= x[0]], dtype=float) + x
        minus = np.array([x[0] > x[1], x[1] > x[0]], dtype=float) + x
        return plus, minus


class TestUserObjective:
    """A user objective needs dimension, value and one_sided_basis, and nothing else."""

    STARTS = ([1.0, 1.0], [1.0, -0.5])  # on the tie, where every step keeps it, and off it

    def test_protocol(self):
        p = ElasticNetProblem(np.eye(2), np.zeros(2), 0.5, 0.5)
        for obj in (MaxPair(), p, p.component(0), DiagonalLasso(np.ones(2), [1.0, -2.0], 0.5),
                    objectives.test_function_1d("abs")):
            assert isinstance(obj, Objective)

        class DirectionalOnly:
            dimension = 2

            def value(self, x):
                return 0.0

            def one_sided(self, x, v):
                return specular.OneSidedPair(0.0, 0.0)

        assert not isinstance(DirectionalOnly(), Objective)

    def test_gradient_and_jacobian(self):
        obj = MaxPair()
        for x in map(np.array, self.STARTS):
            ref = reference_gradient(*obj.one_sided_basis(x))
            assert specular_gradient(obj, x).tobytes() == ref.tobytes()
            assert specular_jacobian([obj, obj], x).tobytes() == np.vstack([ref, ref]).tobytes()
        assert specular_gradient(obj, [1.0, 1.0])[0] == pytest.approx(afun(2.0, 1.0), rel=1e-15)

    def test_speg_and_adam(self):
        obj, rules = MaxPair(), Rules(40, c=1.0)
        for x0 in self.STARTS:
            for method in ("SPEG-s", "Adam"):
                ref, _ = run_reference(method, obj, x0, rules, separate_oracle)
                assert_same_record(run_library(method, obj, x0, rules), ref)


def test_not_a_subgradient_of_a_non_separable_kink():
    # negative control: specopt checks the subgradient property only for
    # separable kink terms; at 0, MaxPair has g = (sqrt(2) - 1)(1, 1), and
    # f(w) >= f(0) + g.w fails along w = t(-1, -1) for t below 3 - 2 sqrt(2)
    obj = MaxPair()
    g = specular_gradient(obj, np.zeros(2))
    assert g == pytest.approx([math.sqrt(2.0) - 1.0] * 2, rel=1e-15)
    f0 = obj.value(np.zeros(2))
    for t, holds in ((0.1, False), (0.17, False), (0.18, True)):
        w = np.array([-t, -t])
        assert (obj.value(w) >= f0 + float(g @ w)) == holds, t


def _array_holding_twins():
    """Pairs of each array-holding dataclass, built from equal but distinct arrays of two or more entries."""
    A, b = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, -1.0])
    lasso = DiagonalLasso(np.ones(2), [1.0, 2.0], 0.1)
    sched = StepSchedule.normalized_diminishing(1.0)
    make = {
        "ElasticNetProblem": lambda: ElasticNetProblem(A.copy(), b.copy(), 0.1, 0.1),
        "ElasticNetComponent": lambda: objectives.ElasticNetComponent(A[0].copy(), 1.0, 0.1, 0.1),
        "DiagonalLasso": lambda: DiagonalLasso(np.ones(2), [1.0, 2.0], 0.1),
        "Box": lambda: Box(np.zeros(2), np.ones(2)),
        "EuclideanBall": lambda: EuclideanBall(np.zeros(2), 1.0),
        "RunRecord": lambda: speg_run(lasso, [0.0, 0.0], sched, 5),
    }
    return {name: (new(), new()) for name, new in make.items()}


@pytest.mark.parametrize("name", ["ElasticNetProblem", "ElasticNetComponent", "DiagonalLasso", "Box",
                                  "EuclideanBall", "RunRecord"])
def test_array_holding_dataclasses_compare_and_hash_by_identity(name):
    # a dataclass's generated == takes the truth value of comparing array fields, which raises
    first, second = _array_holding_twins()[name]
    assert type(first).__name__ == name
    assert first == first and not first != first
    assert first != second and not first == second
    keyed = {first: 1, second: 2}
    assert keyed[first] == 1 and keyed[second] == 2
