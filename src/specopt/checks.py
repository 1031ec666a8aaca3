"""Invariant suites behind the ``check`` command.

Each suite draws its own deterministic random sample, verifies one family of
identities or inequalities, and reports the worst violation it saw; a NaN
among the values it compares makes that worst NaN, which fails it.  The
``samples`` argument scales the sampling effort (the fast level uses 1e2,
the full level 1e4).  Acceptance criteria 1-4 and 10 call five of these
suites with the gate's own sample counts and streams.  The ordering-lemma
and subgradient suites draw points with zero coordinates, the kinks where the
specular gradient differs from the classical one, and report how many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harness import fork_map
from .objectives import DiagonalLasso, ElasticNetProblem, catalog_1d_names, test_function_1d
from .optimizers import RunRecord, StepSchedule, basic_inequality_bound, speg_run
from .scalar import afun, afun_tan_form, bfun
from .specular import (fd_specular_directional, specular_directional, specular_from_one_sided, specular_gradient,
                       specular_with_norm, vector_norm)

_FAILURES = (ValueError, ArithmeticError)  # a suite reports these as a failed result, e.g. a library NaN check


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _worse(worst: float, *values: float) -> float:
    """max(worst, *values), but NaN once any of them is: ``max`` keeps a NaN only in first place."""
    for value in values:
        if math.isnan(value):
            return math.nan
    return max(worst, *values)


def _slopes(rng: np.random.Generator, size: int) -> np.ndarray:
    """Signed log-uniform slopes covering magnitudes 1e-6 .. 1e6."""
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return sign * 10.0 ** rng.uniform(-6.0, 6.0, size)


def scalar_identities(samples: int, rng: np.random.Generator) -> SuiteResult:
    alphas = _slopes(rng, samples)
    betas = _slopes(rng, samples)
    cs = 10.0 ** rng.uniform(-6.0, 6.0, samples)
    worst = 0.0
    for alpha, beta, c in zip(alphas, betas, cs):
        val = afun(alpha, beta)
        if afun(beta, alpha) != val:
            return SuiteResult("scalar-identities", False, f"symmetry broken at ({alpha}, {beta})")
        if not min(alpha, beta) <= val <= max(alpha, beta):
            return SuiteResult("scalar-identities", False, f"betweenness broken at ({alpha}, {beta})")
        if abs(val) > abs(alpha + beta) / 2.0 + 1e-12:
            return SuiteResult("scalar-identities", False, f"magnitude bound broken at ({alpha}, {beta})")
        err = abs(val - afun_tan_form(alpha, beta)) / (1.0 + abs(val))
        scaled = bfun(alpha, beta, c)
        worst = _worse(worst, err, abs(scaled - afun(alpha / c, beta / c)) / (1.0 + abs(scaled)))
    passed = worst <= 1e-9
    return SuiteResult("scalar-identities", passed, f"worst relative form error {worst:.3e}")


def _random_instance(rng: np.random.Generator, max_mn: int) -> ElasticNetProblem:
    m = int(rng.integers(1, max_mn))
    n = int(rng.integers(1, max_mn))
    A, b = rng.standard_normal((m, n)), rng.standard_normal(m)
    return ElasticNetProblem(A, b, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))


def _kinked(rng: np.random.Generator, z: np.ndarray, nonzero: bool = False) -> np.ndarray:
    """z with each coordinate replaced, in place, by 0.0 or -0.0 with probability 1/2.

    A zero coordinate of x is a kink of the l1 term, where the two one-sided
    partials differ.  With ``nonzero`` a draw that would zero every
    coordinate spares one, so a direction stays a direction.
    """
    u = rng.random(z.size)
    if nonzero and (u < 0.5).all():
        u[u.argmax()] = 1.0
    z[u < 0.5] = 0.0
    z[u < 0.25] = -0.0
    return z


def ordering_lemma(samples: int, rng: np.random.Generator) -> SuiteResult:
    worst = -math.inf
    kinks = 0
    for _ in range(samples):
        p = _random_instance(rng, max_mn=13)
        x = _kinked(rng, rng.standard_normal(p.n))
        v = _kinked(rng, rng.standard_normal(p.n), nonzero=True)
        kinks += int(np.count_nonzero(x == 0.0))
        pair = p.one_sided(x, v)
        ds = specular_from_one_sided(pair, float(np.linalg.norm(v)))
        fx = p.value(x)
        lower = fx - p.value(x - v)
        upper = p.value(x + v) - fx
        chain = (lower - pair.minus, pair.minus - ds, ds - pair.plus, pair.plus - upper)
        worst = _worse(worst, *chain)
    passed = worst <= 1e-9
    return SuiteResult("ordering-lemma", passed,
                       f"worst chain violation {worst:.3e} at {kinks} kink coordinates")


def subgradient_inequality(samples: int, rng: np.random.Generator) -> SuiteResult:
    """The subgradient inequality at kinked points, and each kink entry of g exactly afun's."""
    worst = -math.inf
    kinks = off = 0
    for k in range(samples):
        p = _random_instance(rng, max_mn=21)
        x = _kinked(rng, rng.standard_normal(p.n))
        w = rng.standard_normal(p.n)
        plus, minus = p.one_sided_basis(x)
        g, gnorm = specular_with_norm(plus, minus)
        if not math.isfinite(gnorm):  # a NaN partial, or an infinite pair of one sign
            return SuiteResult("subgradient-inequality", False,
                               f"no finite specular gradient at sample {k}: norm {gnorm}")
        kink = plus != minus
        exact = np.array([afun(a, b) for a, b in zip(plus[kink].tolist(), minus[kink].tolist())])
        kinks += exact.size
        off += int(np.count_nonzero(g[kink].view(np.int64) != exact.view(np.int64)))
        fw = p.value(w)
        gap = p.value(x) + float(g.dot(w - x)) - fw - 1e-8 * (1.0 + abs(fw))
        worst = _worse(worst, gap)
    passed = worst <= 0.0 and off == 0
    return SuiteResult("subgradient-inequality", passed,
                       f"worst inequality slack {worst:.3e} at {kinks} kink coordinates, {off} off afun")


def _random_lasso(rng: np.random.Generator) -> DiagonalLasso:
    n = int(rng.integers(2, 12))
    return DiagonalLasso(rng.uniform(0.5, 2.0, n), rng.uniform(-3.0, 3.0, n), 1.0)


def quasi_fermat(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Directional bound |d_s f(x*)| <= ||v|| at exact soft-threshold minimizers."""
    worst = -math.inf
    n_problems = max(1, samples // 20)
    for i in range(n_problems):
        lasso = _random_lasso(rng)
        xstar = lasso.minimizer()
        try:
            grad = specular_gradient(lasso, xstar)
            worst = _worse(worst, float(np.abs(grad).max()) - 1.0)  # coordinate directions
            for _ in range(20):
                v = rng.standard_normal(lasso.dimension)
                worst = _worse(worst, abs(specular_directional(lasso, xstar, v)) - vector_norm(v))
        except _FAILURES as err:
            return SuiteResult("quasi-fermat", False, f"problem {i} {_raised(err)}")
    passed = worst <= 1e-6
    return SuiteResult("quasi-fermat", passed, f"worst directional excess {worst:.3e}")


def quasi_mvt(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Secant slopes sandwiched by grid extremes of the 1-D specular derivative."""
    intervals = max(2, samples // 25)
    grid_points = 10_000
    worst = -math.inf
    for name in catalog_1d_names():
        obj = test_function_1d(name)
        for _ in range(intervals):
            a, bb = np.sort(rng.uniform(-3.0, 3.0, 2))
            if bb - a < 1e-2:
                bb = a + 1e-2
            ts = np.linspace(a, bb, grid_points + 2)[1:-1]
            right, left = obj.lateral_slopes(ts)
            ds = specular_with_norm(right, left)[0]
            secant = obj.value([bb]) - obj.value([a])
            slack = 1e-3 * (bb - a)
            lo = ds.min() * (bb - a)
            hi = ds.max() * (bb - a)
            worst = _worse(worst, lo - secant - slack, secant - hi - slack)
    passed = worst <= 0.0
    return SuiteResult("quasi-mvt", passed, f"worst sandwich excess {worst:.3e}")


def estimator_consistency(samples: int, rng: np.random.Generator) -> SuiteResult:
    pts = max(4, samples // 10)
    worst = 0.0
    for name in catalog_1d_names():
        obj = test_function_1d(name)
        xs = rng.uniform(1e-3, 2.0, pts - 1) * np.where(rng.random(pts - 1) < 0.5, -1.0, 1.0)
        xs = np.concatenate([[0.0], xs])  # the kink itself, else clear of the sub-step kink band
        for t in xs:
            try:
                analytic = specular_directional(obj, [t], [1.0])
                est = fd_specular_directional(obj.value, [t], [1.0])
            except _FAILURES as err:
                return SuiteResult("estimator-consistency", False, f"{name} at t = {float(t)!r} {_raised(err)}")
            worst = _worse(worst, abs(est.value - analytic))
    passed = worst <= 1e-5
    return SuiteResult("estimator-consistency", passed, f"worst |fd - analytic| {worst:.3e}")


def basic_inequality_excess(obj, x0, xstar, record: RunRecord) -> float:
    """Largest excess of a finished run's best-iterate gap over ``basic_inequality_bound``.

    The run started at x0 and xstar minimizes obj.  Entry k of the bound
    comes from the (h_l, ||g_l||) pairs the run applied up to step k; the gap
    is f_best_k - f(xstar).  A positive result means the bound failed there.
    """
    trace = np.column_stack((record.h_trace, record.grad_norm[: record.h_trace.size]))
    bounds = basic_inequality_bound(x0, xstar, trace)
    gaps = record.f_best[: bounds.size] - obj.value(xstar)
    return float((gaps - bounds).max())


def basic_inequality(samples: int, rng: np.random.Generator) -> SuiteResult:
    n_problems = max(2, samples // 50)
    iters = 2000
    worst = -math.inf
    for i in range(n_problems):
        lasso = _random_lasso(rng)
        x0 = rng.standard_normal(lasso.dimension)
        record = speg_run(lasso, x0, StepSchedule.normalized_diminishing(4.0), iters)
        if record.status == "numerical_failure":  # the bound would be read on the rows before the failure
            return SuiteResult("basic-inequality", False,
                               f"numerical failure in problem {i} at row {len(record) - 1}")
        worst = _worse(worst, basic_inequality_excess(lasso, x0, lasso.minimizer(), record))
    passed = worst <= 1e-9
    return SuiteResult("basic-inequality", passed, f"worst bound violation {worst:.3e}")


SUITES = (
    scalar_identities,
    ordering_lemma,
    subgradient_inequality,
    quasi_fermat,
    quasi_mvt,
    estimator_consistency,
    basic_inequality,
)


def _run_suite(samples: int, seed: int, i: int) -> SuiteResult:
    """Suite ``SUITES[i]`` on its own stream.

    A ValueError or ArithmeticError out of the suite, such as a NaN that a
    library check rejects, fails that suite alone, with one line.
    """
    suite = SUITES[i]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))))
    try:
        return suite(samples, rng)
    except _FAILURES as err:
        return SuiteResult(suite.__name__.replace("_", "-"), False, _raised(err))


def _raised(err: Exception) -> str:
    return f"raised {type(err).__name__}: {err}"


def run_suites(level: str, seed: int = 20_260_810) -> list[SuiteResult]:
    """Every suite's result, in ``SUITES`` order.

    The suites run in two groups through ``fork_map``: ``basic_inequality``,
    the longest suite, as share 0 in this process, and the six sampling
    suites in one forked child when two processes may run, else after it
    here.  Each suite draws from its own stream, so the results do not
    depend on where it ran.
    """
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    samples = 100 if level == "fast" else 10_000
    # by name: a profiler may swap SUITES for wrappers that keep the names
    here = [suite.__name__ for suite in SUITES].index("basic_inequality")
    sampling = [i for i in range(len(SUITES)) if i != here]
    ([last], results), _ = fork_map(lambda group: [_run_suite(samples, seed, i) for i in group],
                                    [[here], sampling])
    results.insert(here, last)
    return results
