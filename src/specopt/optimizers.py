"""Specular-gradient optimizers, classical baselines, schedules, and run records.

All runs share one iteration loop, ``_run_loop``: at iterate x_k the method
supplies the objective value and the one-sided partials, the loop assembles
the specular gradient g_k, records the row, checks the stop conditions, and
applies x_{k+1} = x_k - h_k d_k, with d_k = g_k or, for Adam, a direction
derived from g_k.  A run therefore records one row per visited iterate, the
last one carrying the gradient that triggered the stop (a norm that is not finite
where it could not be assembled).  Methods are not descent methods, so the
best iterate is tracked separately.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objectives import ElasticNetProblem
from .specular import specular_with_norm, vector_norm
from .specular import specular_gradient  # noqa: F401  not called here; the benchmark tracer patches this name

DEFAULT_ETA = 1e-12


def _normalized_diminishing(c: float, k: int, grad_norm: float) -> float:
    return c / ((k + 1) * grad_norm)


def _geometric(ratio: float, k: int, grad_norm: float) -> float:
    return ratio ** (k + 1) / grad_norm


def _constant(h: float, k: int, grad_norm: float) -> float:
    return h


# schedule kind -> (its step size h_k(parameter, k, ||g_k||), exclusive upper bound of its parameter,
# message when the parameter is out of (0, bound))
_SCHEDULES = {
    "normalized_diminishing": (_normalized_diminishing, math.inf, "c must be positive and finite"),
    "geometric": (_geometric, 1.0, "ratio must lie in (0, 1)"),
    "constant": (_constant, math.inf, "h must be positive and finite"),
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

    Every kind gives steps that do not grow with k at a fixed ||g_k||, and
    ``speg_run`` relies on that: once an iterate repeats bit for bit, no later
    step can move it (see ``_run_loop``).  A new kind must keep that property.
    """

    kind: str
    parameter: float

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULES:
            raise ValueError(f"unknown step schedule {self.kind!r}; valid: {', '.join(_SCHEDULES)}")
        _, upper, message = _SCHEDULES[self.kind]
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
        return _SCHEDULES[self.kind][0](self.parameter, k, grad_norm)


@dataclass(eq=False)  # == and hash() by identity: its arrays have no truth value
class RunRecord:
    """Per-iteration trajectory of one optimizer run.

    Row k holds the objective value, running best value, and specular
    gradient norm at iterate x_k.  ``h_trace`` holds one fewer entry than
    rows, whatever the status, numerical failures included: entry k is the
    schedule's ``step_size(k, grad_norm[k])``, the step taken from row k.
    """

    f_current: np.ndarray
    f_best: np.ndarray
    grad_norm: np.ndarray
    status: str
    x_best: np.ndarray
    h_trace: np.ndarray

    def __len__(self) -> int:
        return self.f_current.size

    @property
    def iters(self) -> np.ndarray:
        """The iteration number of each row, 0 to len - 1."""
        return np.arange(self.f_current.size)

    @property
    def final_f_best(self) -> float:
        return float(self.f_best[-1])


# A diverging run overflows to inf or NaN, which the loop reports as a failed
# run; numpy need not warn about it as well.  Set once per run, not per step.
@np.errstate(over="ignore", invalid="ignore")
def _run_loop(partials, sched: StepSchedule, x0, max_iters: int, eta: float,
              direction=None, stateless: bool = False) -> RunRecord:
    """Shared iteration engine.  partials(x) -> (f(x), (plus, minus)), called once per row, in order.

    The loop assembles the specular gradient g and its norm from the
    one-sided partials, float arrays, and steps along g, or along
    direction(k, g) when that is given.  Partials that cannot be assembled
    give an infinite or NaN norm: the row is recorded with it and the run
    stops as a numerical failure.
    partials (and so the objective) must not write into x: the best iterate
    is kept by reference, not copied.

    stateless promises that partials is a function of x alone, so with no
    direction a row depends on x alone.  Such a run compares each new iterate
    with the last, bit for bit; when a step leaves x unchanged, every later
    step applies the same g with a step size no larger (the schedule's steps
    do not grow in k at a fixed ||g||) and, rounding being monotone, cannot
    move x either.  The loop then appends the remaining rows as copies of
    this one, with their step sizes from the schedule, instead of evaluating
    them, and stops with status max_iters: the same record the evaluated rows
    would give.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    if not eta >= 0.0:  # NaN fails the comparison; a negative eta would step on from a zero gradient
        raise ValueError("eta must be nonnegative")
    x = np.array(x0, dtype=float, copy=True)
    fc: list[float] = []
    fb: list[float] = []
    gn: list[float] = []
    h_trace: list[float] = []
    rule, parameter = _SCHEDULES[sched.kind][0], sched.parameter  # sched.step_size without its lookup
    f_best = math.inf
    x_best = x  # x is a private copy and each step makes a new array, so no copy is needed
    last = x.tobytes() if stateless and direction is None else None  # bytes tell -0.0 from 0.0
    k = 0
    while True:
        f, (plus, minus) = partials(x)
        g, gnorm = specular_with_norm(plus, minus)
        if f < f_best:
            f_best = f
            x_best = x
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
        h = rule(parameter, k, gnorm)
        x = x - h * (g if direction is None else direction(k, g))
        h_trace.append(h)
        if last is not None:
            now = x.tobytes()
            if now == last:  # a fixed point: rows k+1..max_iters repeat row k
                rest = max_iters - k
                fc += [f] * rest
                fb += [f_best] * rest
                gn += [gnorm] * rest
                h_trace += [rule(parameter, j, gnorm) for j in range(k + 1, max_iters)]
                status = "max_iters"
                break
            last = now
        k += 1
    return RunRecord(
        f_current=np.asarray(fc),
        f_best=np.asarray(fb),
        grad_norm=np.asarray(gn),
        status=status,
        x_best=x_best,
        h_trace=np.asarray(h_trace),
    )


def _value_and_partials(obj):
    """The loop's partials(x) for obj: its fused hook, whose partials are float arrays as the
    catalog's are, or value and one_sided_basis, with the partials made float arrays."""
    fused = getattr(obj, "value_and_one_sided_basis", None)
    if fused is not None:
        return fused

    def partials(x):
        plus, minus = obj.one_sided_basis(x)
        return float(obj.value(x)), (np.asarray(plus, dtype=float), np.asarray(minus, dtype=float))

    return partials


def speg_run(obj, x0, sched: StepSchedule, max_iters: int, eta: float = DEFAULT_ETA) -> RunRecord:
    """Specular gradient method: x_{k+1} = x_k - h_k grad_s f(x_k).

    Stops at the iteration cap or once ||grad_s f(x_k)|| <= eta (a stationary
    point; with a gradient-normalized schedule this also avoids dividing by
    zero).
    """
    return _run_loop(_value_and_partials(obj), sched, x0, max_iters, eta, stateless=True)


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
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"{name} must lie in [0, 1)")
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    x0 = np.asarray(x0, dtype=float)
    moment = np.zeros_like(x0)
    second = np.zeros_like(x0)

    def direction(k, g):
        nonlocal moment, second
        moment = beta1 * moment + (1.0 - beta1) * g
        second = beta2 * second + (1.0 - beta2) * g * g
        m_hat = moment / (1.0 - beta1 ** (k + 1))
        v_hat = second / (1.0 - beta2 ** (k + 1))
        return m_hat / (np.sqrt(v_hat) + eps)

    return _run_loop(_value_and_partials(obj), StepSchedule.constant(lr), x0, max_iters, eta=0.0,
                     direction=direction)


def _stochastic_run(problem: ElasticNetProblem, x0, sched: StepSchedule, max_iters: int,
                    eta: float, rng, switch_k: int) -> RunRecord:
    """Full specular gradient at iterations k < switch_k, one sampled term's after."""
    full = _value_and_partials(problem)
    m = problem.m
    rows = itertools.count()  # the loop calls partials once per row: this is the row's k

    def partials(x):
        if next(rows) < switch_k:
            return full(x)
        return float(problem.value(x)), problem.component_one_sided_basis(int(rng.integers(m)), x)

    return _run_loop(partials, sched, x0, max_iters, eta)


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


def _check_point(x, shape: tuple[int, ...]) -> np.ndarray:
    """x as a float array of a set's shape, no coordinate NaN; 0-d bounds (a scalar center or box) fit any shape."""
    x = np.asarray(x, dtype=float)
    if shape and x.shape != shape:
        raise ValueError(f"expected a point of shape {shape}, got shape {x.shape}")
    if np.isnan(x).any():
        raise ValueError("a point to project must have no NaN coordinate")
    return x


@dataclass(frozen=True, eq=False)  # == and hash() by identity: its arrays have no truth value
class EuclideanBall:
    """Closed ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=float)
        if not np.isfinite(center).all():
            raise ValueError("center must be finite")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    def project(self, x: np.ndarray) -> np.ndarray:
        x = _check_point(x, self.center.shape)
        if np.isinf(x).any():  # the radial scaling would make inf * 0 = NaN
            raise ValueError("a point to project onto a ball must be finite")
        with np.errstate(over="ignore"):
            offset = x - self.center
        scale = 1.0
        if not np.isfinite(offset).all():  # past the largest float: halve it, which keeps its direction
            offset, scale = 0.5 * x - 0.5 * self.center, 2.0
        dist = vector_norm(offset)
        if scale * dist <= self.radius:
            return np.array(x, dtype=float)
        return self.center + offset * (self.radius / dist)


@dataclass(frozen=True, eq=False)  # == and hash() by identity: its arrays have no truth value
class Box:
    """Axis-aligned box {x : lo <= x <= hi} (coordinatewise).

    A bound may be -inf below or +inf above, not NaN; a lower bound of +inf
    or an upper bound of -inf leaves no real point in the box.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or not np.all(lo <= hi):  # a NaN bound fails the comparison
            raise ValueError("box bounds must satisfy lo <= hi coordinatewise")
        if np.any(lo == math.inf) or np.any(hi == -math.inf):
            raise ValueError("box is empty: a lower bound is +inf or an upper bound -inf")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(_check_point(x, self.lo.shape), self.lo, self.hi)


def projected_speg_step(x, g, h: float, constraint) -> np.ndarray:
    """One projected update: the orthogonal projection of x - h g onto the set.

    g must have the shape of x, and x the shape of the set (any shape for a
    set with 0-d bounds); otherwise this is a ValueError, not a broadcast.
    """
    if not 0.0 < h < math.inf:
        raise ValueError("step size must be positive and finite")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape != x.shape:
        raise ValueError(f"g has shape {g.shape}, x has shape {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a box clips +-inf exactly; a ball rejects it, both NaN
        step = x - h * g
    return constraint.project(step)


def basic_inequality_bound(x0, xstar, schedule_trace) -> np.ndarray:
    """Best-iterate suboptimality bounds of the normalized subgradient analysis.

    Entry k is (||x0 - xstar||^2 + sum_{l<=k} h_l^2 ||g_l||^2) / (2 sum_{l<=k} h_l),
    valid against f(best iterate among x_0..x_k) - f(xstar) when xstar is a
    minimizer and each g_l is a subgradient.  specopt checks the latter for
    convex functions whose kink terms each depend on one coordinate, as in
    the catalog objectives; for a non-separable kink such as max(x1, x2) the
    specular gradient need not be a subgradient, and the bound does not
    apply.  x0 and xstar are finite vectors of one shape.  schedule_trace
    holds the (h_k, grad_norm_k) pairs, each h positive and finite and each
    norm nonnegative and finite: a (k, 2) array, or any iterable of pairs.
    """
    if not isinstance(schedule_trace, np.ndarray):
        schedule_trace = list(schedule_trace)
    trace = np.asarray(schedule_trace, dtype=float)
    if trace.ndim != 2 or trace.shape[0] == 0 or trace.shape[1] != 2:
        raise ValueError("schedule trace must be a nonempty sequence of (h, grad_norm) pairs")
    hs, gs = trace[:, 0], trace[:, 1]
    if not (np.all((hs > 0.0) & (hs < math.inf)) and np.all((gs >= 0.0) & (gs < math.inf))):  # NaN fails
        raise ValueError("each step size h must be positive and finite, "
                         "each gradient norm nonnegative and finite")
    x0 = np.asarray(x0, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    if x0.ndim != 1 or x0.shape != xstar.shape or not (np.isfinite(x0).all() and np.isfinite(xstar).all()):
        raise ValueError(f"x0 and xstar must be finite vectors of one shape, got {x0.shape} and {xstar.shape}")
    r2 = float(np.dot(x0 - xstar, x0 - xstar))
    num = r2 + np.cumsum(hs * hs * gs * gs)
    den = 2.0 * np.cumsum(hs)
    return num / den
