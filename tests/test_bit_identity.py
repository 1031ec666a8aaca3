"""The one reference engine of the run-level bit-identity tests, and its guard.

The reference exists here once and shares no arithmetic with the library's
loop.  ``reference_gradient`` assembles entry by entry through the scalar
path, ``specular_from_one_sided``, never through ``afun_array``;
``reference_loop`` evaluates every row; ``adam_direction`` is Adam's moment
update; ``reference_oracle`` writes each catalog objective in the residual
form, every product ``@`` and every sum ``ndarray.sum``; ``method_table``
runs each method as ``harness.run_method`` does.  The reference runs take
their oracle as a parameter: the reference oracle, or the library's fused or
separate-call one.  The tests that compare the optimizers' records against
this engine live in ``test_optimizers.py``.  A change that moves a record's
bits on purpose changes the reference oracle, and nothing else here.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import pytest

from specopt import harness, optimizers, specular
from specopt.objectives import DiagonalLasso, ElasticNetProblem
from specopt.optimizers import RunRecord, StepSchedule, adam_run, gd_run, hspeg_run, speg_run, sspeg_run
from specopt.specular import OneSidedPair, specular_from_one_sided


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def reference_gradient(plus, minus) -> np.ndarray:
    """The specular gradient entry by entry: each pair of partials through the scalar path along e_i."""
    return np.array([specular_from_one_sided(OneSidedPair(p, m), 1.0)
                     for p, m in zip(plus.tolist(), minus.tolist())], dtype=float)


# A diverging run overflows to inf or NaN, as the library's loop does; neither warns.
@np.errstate(over="ignore", invalid="ignore")
def reference_loop(partials, x0, sched, max_iters, eta, direction=None):
    """The iteration engine written out with every row evaluated, in its order of operations:
    partials(k, x), reference_gradient, sqrt(g.g) (an infinite norm where the partials cannot
    be assembled), the schedule's step h, x - h d with d = g or direction(k, g).

    Returns the record a run must produce and the first row whose step left x
    unchanged bit for bit (None when no step did).
    """
    x = np.array(x0, dtype=float)
    f_current, f_best, grad_norm, h_trace = [], [], [], []
    best, x_best, stall = math.inf, x, None
    k = 0
    while True:
        f, (plus, minus) = partials(k, x)
        try:
            g = reference_gradient(plus, minus)
        except specular.HypothesisViolationError:
            gnorm = math.inf
        else:
            gnorm = math.sqrt(float(g.dot(g)))
        if f < best:
            best, x_best = f, x
        f_current.append(f)
        f_best.append(best)
        grad_norm.append(gnorm)
        if not (math.isfinite(f) and math.isfinite(gnorm)):
            status = "numerical_failure"
            break
        if gnorm <= eta:
            status = "stationary"
            break
        if k >= max_iters:
            status = "max_iters"
            break
        h = sched.step_size(k, gnorm)
        x_next = x - h * (g if direction is None else direction(k, g))
        if stall is None and x_next.tobytes() == x.tobytes():
            stall = k
        h_trace.append(h)
        x = x_next
        k += 1
    record = RunRecord(np.asarray(f_current), np.asarray(f_best), np.asarray(grad_norm),
                       status, x_best, np.asarray(h_trace))
    return record, stall


def adam_direction(n, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam's bias-corrected direction m_hat / (sqrt(v_hat) + eps) at row k, keeping its own moments."""
    moment, second = np.zeros(n), np.zeros(n)

    def direction(k, g):
        nonlocal moment, second
        moment = beta1 * moment + (1.0 - beta1) * g
        second = beta2 * second + (1.0 - beta2) * g * g
        m_hat = moment / (1.0 - beta1 ** (k + 1))
        v_hat = second / (1.0 - beta2 ** (k + 1))
        return m_hat / (np.sqrt(v_hat) + eps)
    return direction


class Oracle(NamedTuple):
    """How a run reads an objective: value(x), full(x) -> (value, partials), sample(j, x) -> partials."""

    value: Callable
    full: Callable
    sample: Callable | None


def fused_oracle(p) -> Oracle:
    """The library's fused hooks, as its runs call them."""
    return Oracle(p.value, p.value_and_one_sided_basis, getattr(p, "component_one_sided_basis", None))


def separate_oracle(p) -> Oracle:
    """The library's oracle as separate calls: value, one_sided_basis, and the built component's partials."""
    return Oracle(p.value, lambda x: (p.value(x), p.one_sided_basis(x)),
                  lambda j, x: p.component(j).one_sided_basis(x))


def _l1_partials(g, x, lambda1):
    """Partials of the smooth gradient g plus lambda1 |x|: g + lambda1 sign(x_i) off a kink,
    g +- lambda1 at x_i = 0; with lambda1 = 0 the term is left out."""
    if lambda1 == 0.0:
        return g, g
    kink, sign = x == 0.0, np.sign(x)
    return g + lambda1 * np.where(kink, 1.0, sign), g + lambda1 * np.where(kink, -1.0, sign)


def reference_oracle(p) -> Oracle:
    """The catalog objective p in the residual form, every product ``@`` and every sum
    ``ndarray.sum`` in np.float64; a zero ridge weight leaves its term out.  The diagonal
    lasso's value is r.g / 2 + x.t, with r = x - b, g = d r its gradient and t = copysign(lambda1, x).

    For the elastic net this is the library's arithmetic except in two cases,
    neither of which reaches a run's record: on a view with negative strides
    ``@`` sums in numpy's own loop order, while the library's ``ndarray.dot``
    gives the bits of the point's contiguous copy; and a product of one term
    keeps the sign of a zero result under ``.dot``, where ``@`` returns 0.0.
    """
    if isinstance(p, DiagonalLasso):
        def smooth(x):
            r = x - p.b
            g = p.d * r
            return 0.5 * (r @ g), g

        def l1(x):
            return x @ np.copysign(p.lambda1, x)
        sample = None
    else:
        A, b, m, lambda2 = p.A, p.b, p.m, p.lambda2

        def smooth(x):
            r = A @ x - b
            data = 0.5 * (r @ r) / m
            if lambda2 != 0.0:
                data = data + 0.5 * lambda2 * (x @ x)
            return data, A.T @ r / m + lambda2 * x

        def l1(x):
            return p.lambda1 * float(np.abs(x).sum())

        def sample(j, x):
            a = A[j]
            return _l1_partials(a * (float(a @ x) - float(b[j])) + lambda2 * x, x, p.lambda1)

    def full(x):
        value, g = smooth(x)
        return float(value) + float(l1(x)), _l1_partials(g, x, p.lambda1)

    return Oracle(lambda x: full(x)[0], full, sample)


@dataclass(frozen=True)
class Rules:
    """The step rules of one comparison: what ``harness.run_method`` reads from its config."""

    max_iters: int
    c: float = 4.0  # SPEG-s, S-SPEG, H-SPEG: normalized diminishing steps
    ratio: float = harness.GEOMETRIC_RATIO  # SPEG-g
    h: float = 0.01  # GD
    lr: float = 0.01  # Adam
    switch_k: int = 10  # H-SPEG
    seed: int = 29  # the stream S-SPEG and H-SPEG draw their rows from


def method_table(method, rules):
    """(library run, schedule, eta, first sampled row) of method under rules, as ``harness.run_method``.

    The library run takes (p, x0).  The first sampled row is None for a method
    that reads the full partials on every row; H-SPEG's switch at or past the
    cap is one of those.
    """
    n, eta, draws = rules.max_iters, optimizers.DEFAULT_ETA, lambda: rng_for(rules.seed)
    diminishing, geometric = StepSchedule.normalized_diminishing(rules.c), StepSchedule.geometric(rules.ratio)
    switch_k = rules.switch_k if rules.switch_k < n else None
    return {
        "SPEG-s": (lambda p, x0: speg_run(p, x0, diminishing, n), diminishing, eta, None),
        "SPEG-g": (lambda p, x0: speg_run(p, x0, geometric, n), geometric, eta, None),
        "S-SPEG": (lambda p, x0: sspeg_run(p, x0, diminishing, n, rng=draws()), diminishing, eta, 0),
        "H-SPEG": (lambda p, x0: hspeg_run(p, x0, diminishing, rules.switch_k, n, rng=draws()),
                   diminishing, eta, switch_k),
        "GD": (lambda p, x0: gd_run(p, x0, rules.h, n), StepSchedule.constant(rules.h), 0.0, None),
        "Adam": (lambda p, x0: adam_run(p, x0, rules.lr, n), StepSchedule.constant(rules.lr), 0.0, None),
    }[method]


def run_library(method, p, x0, rules) -> RunRecord:
    return method_table(method, rules)[0](p, x0)


def reference_partials(read: Oracle, m, first_sampled, seed):
    """partials(k, x) of a run: read.full before row first_sampled (never when None), after it
    the value and one drawn sample term's partials, the term drawn from rng_for(seed)."""
    draws = rng_for(seed)

    def partials(k, x):
        if first_sampled is None or k < first_sampled:
            return read.full(x)
        return read.value(x), read.sample(int(draws.integers(m)), x)
    return partials


def run_reference(method, p, x0, rules, oracle):
    """reference_loop's (record, stall) for method under rules, reading p through oracle(p)."""
    _, sched, eta, first_sampled = method_table(method, rules)
    partials = reference_partials(oracle(p), getattr(p, "m", None), first_sampled, rules.seed)
    direction = adam_direction(p.dimension) if method == "Adam" else None
    return reference_loop(partials, x0, sched, rules.max_iters, eta, direction)


def assert_same_record(rec, ref):
    for name in ("f_current", "f_best", "grad_norm", "h_trace", "x_best"):
        got, want = getattr(rec, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert rec.status == ref.status


def test_reference_sees_a_mean_kink_kernel(monkeypatch):
    # the mean of the two partials is a subgradient too, so only a reference that
    # assembles without the library's array kernel tells it from afun at a kink
    rng = rng_for(26)
    p = ElasticNetProblem(rng.standard_normal((12, 9)), rng.standard_normal(12), 0.3, 0.7)
    x0 = rng.standard_normal(9)
    x0[::3] = 0.0
    x0[4] = -0.0
    ref, _ = run_reference("SPEG-s", p, x0, Rules(20), fused_oracle)
    assert_same_record(run_library("SPEG-s", p, x0, Rules(20)), ref)
    monkeypatch.setattr(specular, "afun_array", lambda a, b: (a + b) / 2)
    assert_same_record(run_reference("SPEG-s", p, x0, Rules(20), fused_oracle)[0], ref)
    with pytest.raises(AssertionError):
        assert_same_record(run_library("SPEG-s", p, x0, Rules(20)), ref)
