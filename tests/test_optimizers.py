"""Optimizer tests: hand-simulated trajectories, schedules, records, and bounds."""

import math

import numpy as np
import pytest

from specopt import checks, objectives, optimizers, specular
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

class TestSpegRuns:
    def test_abs_hand_simulation(self):
        # from x0 = 2 with step lengths 4, 2: iterates 2, -2, 0, then the
        # specular gradient at the kink vanishes
        rec = speg_run(objectives.test_function_1d("abs"), [2.0],
                       StepSchedule.normalized_diminishing(4.0), 100, eta=1e-12)
        assert rec.status == "stationary"
        assert list(rec.iters) == [0, 1, 2]
        assert list(rec.f_current) == [2.0, 2.0, 0.0]
        assert rec.final_f_best == 0.0
        assert rec.x_best[0] == 0.0
        assert list(rec.grad_norm) == [1.0, 1.0, 0.0]

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
        # at x = 2e12 both one-sided partials promote to +inf, so assembly
        # raises; the row still carries the (finite) objective value
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
        # the half square t^2 / 2 (one sample term) whose partials turn +inf on
        # both sides from the third call on, so each run stops at row 2
        class DivergesOnThirdCall:
            dimension = m = 1

            def __init__(self):
                self.calls = 0

            def value(self, x):
                return 0.5 * float(x[0]) ** 2

            def one_sided_basis(self, x):
                self.calls += 1
                g = np.array(x, dtype=float) if self.calls < 3 else np.full(1, np.inf)
                return g, g

            def component_one_sided_basis(self, j, x):
                return self.one_sided_basis(x)

        x0 = np.array([1.0])
        sched = StepSchedule.normalized_diminishing(4.0)
        runs = {"SPEG-s": lambda p: speg_run(p, x0, sched, 10),
                "GD": lambda p: gd_run(p, x0, 0.1, 10),
                "Adam": lambda p: adam_run(p, x0, 0.01, 10),
                "H-SPEG": lambda p: hspeg_run(p, x0, sched, switch_k=2, max_iters=10, rng=rng_for(1))}
        for method, run in runs.items():
            rec = run(DivergesOnThirdCall())
            assert rec.status == "numerical_failure", method
            assert len(rec) == 3 and rec.h_trace.size == 2, method
            assert np.all(np.isfinite(rec.f_current)), method
            assert np.all(np.isfinite(rec.grad_norm[:2])) and rec.grad_norm[2] == np.inf, method


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


def reference_run(problem, x0, max_iters, eta, gradient, step):
    """The plain loop: value() and the gradient from specular_gradient as separate calls.

    gradient(k, x) -> g; step(k, g, gnorm) -> the displacement subtracted from x.
    """
    x = np.array(x0, dtype=float)
    f_current, f_best, grad_norm = [], [], []
    best = np.inf
    for k in range(max_iters + 1):
        g = gradient(k, x)
        gnorm = float(np.linalg.norm(g))
        f = problem.value(x)
        best = min(best, f)
        f_current.append(f)
        f_best.append(best)
        grad_norm.append(gnorm)
        if gnorm <= eta:
            break
        x = x - step(k, g, gnorm)
    return f_current, f_best, grad_norm


def adam_step(n, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """reference_run's step for Adam with bias correction, keeping its own moments."""
    state = {"m": np.zeros(n), "v": np.zeros(n)}

    def step(k, g, gnorm):
        state["m"] = beta1 * state["m"] + (1.0 - beta1) * g
        state["v"] = beta2 * state["v"] + (1.0 - beta2) * g * g
        m_hat = state["m"] / (1.0 - beta1 ** (k + 1))
        v_hat = state["v"] / (1.0 - beta2 ** (k + 1))
        return lr * (m_hat / (np.sqrt(v_hat) + eps))
    return step


def _lasso_start(lambda1):
    rng = rng_for(25)
    lasso = DiagonalLasso(rng.uniform(0.5, 2.0, 9), rng.uniform(-3.0, 3.0, 9), lambda1)
    x0 = rng.standard_normal(9)
    x0[::3] = 0.0
    x0[4] = -0.0
    return lasso, x0


class TestFusedLoopIdentity:
    """Every method's record equals, bit for bit, the plain loop over the separate oracle calls."""

    MAX_ITERS = 60
    SCHED = StepSchedule.normalized_diminishing(4.0)

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

    def _assert_same(self, rec, ref):
        assert np.array_equal(rec.f_current, ref[0])
        assert np.array_equal(rec.f_best, ref[1])
        assert np.array_equal(rec.grad_norm, ref[2])

    def _scheduled(self, k, g, gnorm, sched=SCHED):
        return sched.step_size(k, gnorm) * g

    def _mixed(self, p, switch_k, rng):
        def gradient(k, x):
            if k < switch_k:
                return specular_gradient(p, x)
            return specular_gradient(p.component(int(rng.integers(p.m))), x)
        return gradient

    def test_speg(self):
        for p, x0 in self._problems():
            for sched in (self.SCHED, StepSchedule.geometric(0.9)):  # SPEG-s, SPEG-g
                ref = reference_run(p, x0, self.MAX_ITERS, 1e-12, lambda k, x: specular_gradient(p, x),
                                    lambda k, g, gnorm: self._scheduled(k, g, gnorm, sched))
                self._assert_same(speg_run(p, x0, sched, self.MAX_ITERS), ref)

    def test_sspeg(self):
        p, x0 = self._problem()
        ref = reference_run(p, x0, self.MAX_ITERS, 1e-12, self._mixed(p, 0, rng_for(3)), self._scheduled)
        self._assert_same(sspeg_run(p, x0, self.SCHED, self.MAX_ITERS, rng=rng_for(3)), ref)

    @pytest.mark.parametrize("switch_k", [0, 1, 10, 60, 61, 500])
    def test_hspeg(self, switch_k):
        p, x0 = self._problem()
        if switch_k >= self.MAX_ITERS:  # the full method throughout, the last row included
            gradient = self._mixed(p, self.MAX_ITERS + 1, None)
        else:
            gradient = self._mixed(p, switch_k, rng_for(4))
        ref = reference_run(p, x0, self.MAX_ITERS, 1e-12, gradient, self._scheduled)
        rec = hspeg_run(p, x0, self.SCHED, switch_k=switch_k, max_iters=self.MAX_ITERS, rng=rng_for(4))
        self._assert_same(rec, ref)

    def test_gd(self):
        for p, x0 in self._problems():
            ref = reference_run(p, x0, self.MAX_ITERS, 0.0, lambda k, x: specular_gradient(p, x),
                                lambda k, g, gnorm: 0.01 * g)
            self._assert_same(gd_run(p, x0, 0.01, self.MAX_ITERS), ref)

    def test_adam(self):
        for p, x0 in self._problems():
            ref = reference_run(p, x0, self.MAX_ITERS, 0.0, lambda k, x: specular_gradient(p, x),
                                adam_step(x0.size, 0.01))
            self._assert_same(adam_run(p, x0, 0.01, self.MAX_ITERS), ref)


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


def bisecting_gradient(obj, x):
    """The specular gradient written out: the partial where both sides agree, afun of the pair at a kink."""
    plus, minus = obj.one_sided_basis(x)
    return np.array([p if p == m else afun(p, m) for p, m in zip(plus.tolist(), minus.tolist())])


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
            ref = bisecting_gradient(obj, x)
            assert specular_gradient(obj, x).tobytes() == ref.tobytes()
            assert specular_jacobian([obj, obj], x).tobytes() == np.vstack([ref, ref]).tobytes()
        assert specular_gradient(obj, [1.0, 1.0])[0] == pytest.approx(afun(2.0, 1.0), rel=1e-15)

    def test_speg_and_adam(self):
        obj, sched = MaxPair(), StepSchedule.normalized_diminishing(1.0)
        for x0 in self.STARTS:
            ref = reference_run(obj, x0, 40, 1e-12, lambda k, x: bisecting_gradient(obj, x),
                                lambda k, g, gnorm: sched.step_size(k, gnorm) * g)
            rec = speg_run(obj, x0, sched, 40)
            assert (list(rec.f_current), list(rec.f_best), list(rec.grad_norm)) == ref
            ref = reference_run(obj, x0, 40, 0.0, lambda k, x: bisecting_gradient(obj, x), adam_step(2, 0.01))
            rec = adam_run(obj, x0, 0.01, 40)
            assert (list(rec.f_current), list(rec.f_best), list(rec.grad_norm)) == ref


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
        rng = rng_for(24)
        vectors = [np.zeros(0), np.zeros(3), np.array([-0.0, 0.0]), np.array([3.0, 4.0]),
                   np.array([1e200, 1e200]), np.array([1e-200, -3e-170]), np.array([np.inf, 1.0]),
                   np.array([np.nan, 1.0])]
        vectors += [rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8) for n in (1, 7, 100, 500)]
        with np.errstate(over="ignore"):
            for g in vectors:
                assert np.float64(optimizers._norm(g)).tobytes() == np.linalg.norm(g).tobytes()


class TestHybridRuns:
    def _problem(self, seed=8):
        rng = rng_for(seed)
        return (ElasticNetProblem(rng.standard_normal((5, 4)), rng.standard_normal(5), 0.5, 0.5),
                rng.standard_normal(4))

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

    def test_default_switch_is_ten(self):
        import inspect

        sig = inspect.signature(hspeg_run)
        assert sig.parameters["switch_k"].default == 10


class TestProjection:
    def test_ball_radial_scaling(self):
        ball = EuclideanBall(np.zeros(2), 1.0)
        out = projected_speg_step([2.0, 0.0], [0.0, 0.0], 1.0, ball)
        assert np.allclose(out, [1.0, 0.0], atol=1e-15)

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

    def test_malformed_sets(self):
        with pytest.raises(ValueError):
            EuclideanBall(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            Box(np.ones(2), np.zeros(2))


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
        from_pairs = basic_inequality_bound([1.0, -2.0], [0.5, 0.0], zip(hs, gs))
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


class TestSubgradientProperty:
    def test_specular_gradient_is_a_subgradient(self):
        rng = rng_for(13)
        for _ in range(300):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            p = ElasticNetProblem(rng.standard_normal((m, n)), rng.standard_normal(m),
                                  float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
            x = rng.standard_normal(n)
            if rng.random() < 0.3:
                x[rng.integers(n)] = 0.0
            w = rng.standard_normal(n)
            g = specular_gradient(p, x)
            fw = p.value(w)
            assert fw >= p.value(x) + float(g @ (w - x)) - 1e-8 * (1.0 + abs(fw))

    def test_optimality_direction_at_oracle_minimizer(self):
        rng = rng_for(14)
        lasso = DiagonalLasso(rng.uniform(0.5, 2.0, 6), rng.uniform(-3.0, 3.0, 6), 1.0)
        xstar = lasso.minimizer()
        for _ in range(200):
            x = rng.standard_normal(6)
            g = specular_gradient(lasso, x)
            assert float(g @ (x - xstar)) >= -1e-8
