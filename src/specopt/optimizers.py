"""Specular-gradient optimizers, classical baselines, schedules, and run records.

All runs share one iteration loop: at iterate x_k the step direction and the
objective value are evaluated and recorded, the stop conditions are checked,
and the update x_{k+1} = x_k - h_k g_k is applied.  A run therefore records
one row per visited iterate, the last one carrying the gradient that
triggered the stop.  Methods are not descent methods, so the best iterate is
tracked separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import ElasticNetProblem
from .specular import HypothesisViolationError, specular_from_one_sided_array
from .specular import specular_gradient  # noqa: F401  not called here; the benchmark tracer patches this name

DEFAULT_ETA = 1e-12

# schedule kind -> (exclusive upper bound of its parameter, message when it is out of (0, bound))
_SCHEDULE_LIMITS = {
    "normalized_diminishing": (math.inf, "c must be positive and finite"),
    "geometric": (1.0, "ratio must lie in (0, 1)"),
    "constant": (math.inf, "h must be positive and finite"),
}


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule h_k.

    normalized_diminishing(c):  h_k = c / ((k+1) ||g_k||)   (step length c/(k+1))
    geometric(ratio):           h_k = ratio^(k+1) / ||g_k|| (step length ratio^(k+1))
    constant(h):                h_k = h

    The diminishing lengths t_k = c/(k+1) are square-summable but not
    summable; the geometric lengths are summable, which is what makes that
    variant stall away from a minimizer.
    """

    kind: str
    parameter: float

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULE_LIMITS:
            raise ValueError(f"unknown step schedule {self.kind!r}; valid: {', '.join(_SCHEDULE_LIMITS)}")
        upper, message = _SCHEDULE_LIMITS[self.kind]
        if not 0.0 < self.parameter < upper:
            raise ValueError(message)
        object.__setattr__(self, "parameter", float(self.parameter))

    @classmethod
    def normalized_diminishing(cls, c: float) -> "StepSchedule":
        return cls("normalized_diminishing", c)

    @classmethod
    def geometric(cls, ratio: float) -> "StepSchedule":
        return cls("geometric", ratio)

    @classmethod
    def constant(cls, h: float) -> "StepSchedule":
        return cls("constant", h)

    def step_size(self, k: int, grad_norm: float) -> float:
        if self.kind == "normalized_diminishing":
            return self.parameter / ((k + 1) * grad_norm)
        if self.kind == "geometric":
            return self.parameter ** (k + 1) / grad_norm
        return self.parameter  # constant, the only other kind __post_init__ admits


@dataclass
class RunRecord:
    """Per-iteration trajectory of one optimizer run.

    Row k holds the objective value, running best value, and step-direction
    norm at iterate x_k.  ``h_trace`` holds the step sizes actually applied
    (one fewer entry than rows when the run stopped cleanly).
    """

    iters: np.ndarray
    f_current: np.ndarray
    f_best: np.ndarray
    grad_norm: np.ndarray
    status: str
    x_best: np.ndarray
    h_trace: np.ndarray

    def __len__(self) -> int:
        return self.iters.size

    @property
    def final_f_best(self) -> float:
        return float(self.f_best[-1])


def _run_loop(evaluate, sched: StepSchedule, x0, max_iters: int, eta: float) -> RunRecord:
    """Shared iteration engine.  evaluate(k, x) -> (f(x), step_vector, grad_norm).

    A step of None with an infinite norm marks an iterate whose gradient
    could not be assembled; the run then stops as a numerical failure.
    evaluate (and so the objective) must not write into x: the best iterate
    is kept by reference, not copied.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    x = np.array(x0, dtype=float, copy=True)
    ks: list[int] = []
    fc: list[float] = []
    fb: list[float] = []
    gn: list[float] = []
    h_trace: list[float] = []
    step_size = sched.step_size
    f_best = math.inf
    x_best = x  # x is a private copy and each step makes a new array, so no copy is needed
    status = "max_iters"
    k = 0
    while True:
        f, g, gnorm = evaluate(k, x)
        if f < f_best:
            f_best = f
            x_best = x
        ks.append(k)
        fc.append(f)
        fb.append(f_best)
        gn.append(gnorm)
        if not (math.isfinite(f) and math.isfinite(gnorm)):
            status = "numerical_failure"
            break
        if gnorm <= eta:
            status = "stationary"
            break
        if k >= max_iters:
            status = "max_iters"
            break
        h = step_size(k, gnorm)
        x = x - h * g
        h_trace.append(h)
        k += 1
    return RunRecord(
        iters=np.asarray(ks, dtype=int),
        f_current=np.asarray(fc),
        f_best=np.asarray(fb),
        grad_norm=np.asarray(gn),
        status=status,
        x_best=x_best,
        h_trace=np.asarray(h_trace),
    )


def _norm(g: np.ndarray) -> float:
    """Euclidean norm of a float vector, the bits of np.linalg.norm without its wrapper."""
    return math.sqrt(float(g.dot(g)))


def _assembling_oracle(value_and_partials):
    """The loop's evaluate(k, x) -> (f, g, ||g||) for f, (plus, minus) = value_and_partials(x).

    g is the specular gradient assembled from the partials; k is ignored.
    Where the one-sided values are both infinite with one sign, g is None and
    its norm infinite.  That happens once an iterate has diverged far enough
    to promote a smooth slope to infinity; the loop then reports the run as
    failed, keeping the record so far.
    """
    def evaluate(k, x):
        f, (plus, minus) = value_and_partials(x)
        try:
            g = specular_from_one_sided_array(plus, minus)
        except HypothesisViolationError:
            return f, None, math.inf
        return f, g, _norm(g)
    return evaluate


def _gradient_oracle(obj):
    """The loop's evaluate(k, x) -> (f(x), g, ||g||), g the specular gradient of obj at x or None."""
    fused = getattr(obj, "value_and_one_sided_basis", None)
    return _assembling_oracle(fused or (lambda x: (float(obj.value(x)), obj.one_sided_basis(x))))


def speg_run(obj, x0, sched: StepSchedule, max_iters: int, eta: float = DEFAULT_ETA) -> RunRecord:
    """Specular gradient method: x_{k+1} = x_k - h_k grad_s f(x_k).

    Stops at the iteration cap or once ||grad_s f(x_k)|| <= eta (a stationary
    point; with a gradient-normalized schedule this also avoids dividing by
    zero).
    """
    return _run_loop(_gradient_oracle(obj), sched, x0, max_iters, eta)


def gd_run(obj, x0, h: float, max_iters: int) -> RunRecord:
    """Constant-step gradient descent along the specular gradient.

    At smooth points the specular gradient equals the classical gradient, so
    this is plain gradient descent wherever the objective is differentiable.
    """
    return speg_run(obj, x0, StepSchedule.constant(h), max_iters, eta=0.0)


def adam_run(obj, x0, lr: float, max_iters: int,
             beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> RunRecord:
    """Adam with bias correction, driven by the specular gradient."""
    if not 0.0 < lr < math.inf:
        raise ValueError("lr must be positive and finite")
    x0 = np.asarray(x0, dtype=float)
    moment = np.zeros_like(x0)
    second = np.zeros_like(x0)
    oracle = _gradient_oracle(obj)

    def evaluate(k, x):
        nonlocal moment, second
        f, g, gnorm = oracle(k, x)
        if g is None:
            return f, None, gnorm
        moment = beta1 * moment + (1.0 - beta1) * g
        second = beta2 * second + (1.0 - beta2) * g * g
        m_hat = moment / (1.0 - beta1 ** (k + 1))
        v_hat = second / (1.0 - beta2 ** (k + 1))
        return f, m_hat / (np.sqrt(v_hat) + eps), gnorm

    return _run_loop(evaluate, StepSchedule.constant(lr), x0, max_iters, eta=0.0)


def _stochastic_run(problem: ElasticNetProblem, x0, sched: StepSchedule, max_iters: int,
                    eta: float, rng, switch_k: int) -> RunRecord:
    """Full specular gradient at iterations k < switch_k, one sampled term's after."""
    full = _gradient_oracle(problem)
    m = problem.m
    sampled = _assembling_oracle(
        lambda x: (float(problem.value(x)), problem.component_one_sided_basis(int(rng.integers(m)), x)))

    def evaluate(k, x):
        return full(k, x) if k < switch_k else sampled(k, x)

    return _run_loop(evaluate, sched, x0, max_iters, eta)


def sspeg_run(problem: ElasticNetProblem, x0, sched: StepSchedule, max_iters: int,
              eta: float = DEFAULT_ETA, rng: np.random.Generator | None = None) -> RunRecord:
    """Stochastic specular gradient method over the sample decomposition.

    Each iteration draws a sample index uniformly (with replacement), steps
    along the specular gradient of that component, and normalizes the step by
    the component gradient norm.  Objective values are those of the full
    problem, so best-iterate tracking is exact at O(m n) cost per iteration.
    """
    if rng is None:
        raise ValueError("sspeg_run needs a seeded random generator")
    return _stochastic_run(problem, x0, sched, max_iters, eta, rng, switch_k=0)


def hspeg_run(problem: ElasticNetProblem, x0, sched: StepSchedule, switch_k: int = 10,
              max_iters: int = 100, eta: float = DEFAULT_ETA,
              rng: np.random.Generator | None = None) -> RunRecord:
    """Hybrid method: full specular gradient for the first switch_k steps, stochastic after.

    Iteration numbering and the step schedule continue across the switch.
    switch_k >= max_iters degenerates to the full method (the generator is
    never consulted); switch_k = 0 degenerates to the stochastic one.
    """
    if switch_k < 0:
        raise ValueError("switch_k must be nonnegative")
    if switch_k >= max_iters:
        switch_k = max_iters + 1  # the last row, k = max_iters, stays full as well
    elif rng is None:
        raise ValueError("hspeg_run needs a seeded random generator")
    return _stochastic_run(problem, x0, sched, max_iters, eta, rng, switch_k)


@dataclass(frozen=True)
class EuclideanBall:
    """Closed ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float)
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    def project(self, x: np.ndarray) -> np.ndarray:
        offset = x - self.center
        dist = float(np.linalg.norm(offset))
        if dist <= self.radius:
            return np.array(x, dtype=float)
        return self.center + offset * (self.radius / dist)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lo <= x <= hi} (coordinatewise)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi coordinatewise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lo, self.hi)


def projected_speg_step(x, g, h: float, constraint) -> np.ndarray:
    """One projected update: the orthogonal projection of x - h g onto the set."""
    if not 0.0 < h < math.inf:
        raise ValueError("step size must be positive and finite")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    return constraint.project(x - h * g)


def basic_inequality_bound(x0, xstar, schedule_trace) -> np.ndarray:
    """Best-iterate suboptimality bounds of the normalized subgradient analysis.

    Entry k is (||x0 - xstar||^2 + sum_{l<=k} h_l^2 ||g_l||^2) / (2 sum_{l<=k} h_l),
    valid against f(best iterate among x_0..x_k) - f(xstar) when xstar is a
    minimizer.  schedule_trace holds the (h_k, grad_norm_k) pairs: a (k, 2)
    array, or any iterable of pairs.
    """
    if not isinstance(schedule_trace, np.ndarray):
        schedule_trace = list(schedule_trace)
    trace = np.asarray(schedule_trace, dtype=float)
    if trace.ndim != 2 or trace.shape[0] == 0 or trace.shape[1] != 2:
        raise ValueError("schedule trace must be a nonempty sequence of (h, grad_norm) pairs")
    x0 = np.asarray(x0, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    r2 = float(np.dot(x0 - xstar, x0 - xstar))
    hs, gs = trace[:, 0], trace[:, 1]
    num = r2 + np.cumsum(hs * hs * gs * gs)
    den = 2.0 * np.cumsum(hs)
    return num / den
