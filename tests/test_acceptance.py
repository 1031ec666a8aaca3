"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines.  Criteria 1 to 4 and 10 run the ``specopt check`` suites of
``specopt.checks`` at the gate's own sample counts and random streams.  The
table regimes (criteria 6 to 8) execute 20 seeded trials at 10^4
iterations; the whole gate takes a few minutes.
"""

import math
import time

import numpy as np
import pytest

from specopt import checks
from specopt.cli import main as cli_main
from specopt.harness import ExperimentConfig, run_trials, sample_instance, substream
from specopt.objectives import DiagonalLasso, ElasticNetProblem
from specopt.optimizers import StepSchedule, speg_run
from specopt.scalar import afun, afun_tan_form, bfun
from specopt.specular import specular_gradient

SEED = 20260810
TABLE_ITERS = 10_000  # budget at which the slow baselines actually converge

AFUN_2_1 = 1.387425886722793


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(SEED, spawn_key=key)))


# ---------------------------------------------------------------------------
# shared table runs and certified minimizers

TABLE2 = {"m": 50, "n": 100, "lambda1": 0.01, "lambda2": 1.0, "trials": 20,
          "max_iters": TABLE_ITERS, "methods": ["SPEG-s", "SPEG-g", "GD"], "seed": SEED}
TABLE3 = {"m": 500, "n": 100, "lambda1": 100.0, "lambda2": 1.0, "trials": 20,
          "max_iters": TABLE_ITERS,
          "methods": ["SPEG-s", "S-SPEG", "H-SPEG", "GD", "Adam"], "seed": SEED}
TABLE4 = {"m": 500, "n": 100, "lambda1": 0.0, "lambda2": 0.0, "trials": 20,
          "max_iters": TABLE_ITERS, "methods": ["SPEG-s", "S-SPEG", "Adam"], "seed": SEED}


def _run_table(raw: dict):
    cfg = ExperimentConfig.from_dict(raw)
    start = time.perf_counter()
    stats, records = run_trials(cfg)
    return cfg, stats, records, time.perf_counter() - start


@pytest.fixture(scope="session")
def table2():
    return _run_table(TABLE2)


@pytest.fixture(scope="session")
def table3():
    return _run_table(TABLE3)


@pytest.fixture(scope="session")
def table4():
    return _run_table(TABLE4)


@pytest.fixture(scope="session")
def lasso_oracle_run():
    rng = substream(SEED, 0, 0)
    lasso = DiagonalLasso(rng.uniform(0.5, 2.0, 10), rng.uniform(-3.0, 3.0, 10), 1.0)
    x0 = rng.standard_normal(10)
    start = time.perf_counter()
    record = speg_run(lasso, x0, StepSchedule.normalized_diminishing(4.0), TABLE_ITERS)
    return lasso, x0, record, time.perf_counter() - start


def _trial_problem(raw: dict, trial: int) -> ElasticNetProblem:
    A, b, _ = sample_instance(raw["m"], raw["n"], substream(raw["seed"], trial, 0))
    return ElasticNetProblem(A, b, raw["lambda1"], raw["lambda2"])


def _certified_minimizer(p: ElasticNetProblem) -> np.ndarray:
    """Independent solve: least squares when smooth, proximal gradient otherwise."""
    if p.lambda1 == 0.0 and p.lambda2 == 0.0:
        return np.linalg.lstsq(p.A, p.b, rcond=None)[0]
    lip = np.linalg.norm(p.A, 2) ** 2 / p.m + p.lambda2
    x = np.zeros(p.n)
    for _ in range(1500):
        z = x - p.smooth_gradient(x) / lip
        x = np.sign(z) * np.maximum(np.abs(z) - p.lambda1 / lip, 0.0)
    return x


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_scalar_identities():
    start = time.perf_counter()
    examples = [
        (afun(3.0, 3.0), 3.0),
        (afun(1.0, -1.0), 0.0),
        (afun(2.0, 1.0), AFUN_2_1),
        (afun(0.0, math.inf), 1.0),
        (afun(math.inf, -math.inf), 0.0),
        (afun_tan_form(0.0, 0.0), 0.0),
        (afun_tan_form(1.0, 1.0), 1.0),
        (afun_tan_form(2.0, 1.0), AFUN_2_1),
        (bfun(1.0, 1.0, 2.0), 0.5),
        (bfun(1.0, -1.0, 5.0), 0.0),
        (bfun(2.0, 1.0, 1.0), AFUN_2_1),
    ]
    table_err = max(abs(got - want) for got, want in examples)
    suite = checks.scalar_identities(100_000, _rng(1))
    elapsed = time.perf_counter() - start
    ok = table_err <= 1e-12 and suite.passed and elapsed < 5.0
    _report(1, ok, f"examples err {table_err:.1e}, {suite.detail}, {elapsed:.1f}s")


def test_criterion_02_subgradient_property():
    start = time.perf_counter()
    suite = checks.subgradient_inequality(10_000, _rng(2))
    elapsed = time.perf_counter() - start
    _report(2, suite.passed and elapsed < 30.0, f"{suite.detail}, {elapsed:.1f}s")


def test_criterion_03_ordering_lemma():
    suite = checks.ordering_lemma(10_000, _rng(3))
    _report(3, suite.passed, suite.detail)


def test_criterion_04_estimator_consistency():
    suite = checks.estimator_consistency(1000, _rng(4))
    _report(4, suite.passed, f"{suite.detail} over 4 x 100 points")


def test_criterion_05_oracle_convergence(lasso_oracle_run):
    lasso, x0, record, elapsed = lasso_oracle_run
    xstar = lasso.minimizer()
    dist = float(np.linalg.norm(record.x_best - xstar))
    bound_ok = checks.basic_inequality_excess(lasso, x0, xstar, record) <= 1e-12
    ok = dist <= 1e-3 and bound_ok and elapsed < 10.0
    _report(5, ok, f"|x_best - x*| = {dist:.2e}, bound holds at all "
                   f"{record.h_trace.size} iterations: {bound_ok}, {elapsed:.1f}s")


def test_criterion_06_table2_regime(table2):
    cfg, stats, records, elapsed = table2
    speg_s = stats.per_method["SPEG-s"].mean
    speg_g = stats.per_method["SPEG-g"].mean
    gd = stats.per_method["GD"].mean
    rel = abs(speg_s - gd) / gd
    ok = rel <= 0.005 and speg_g >= 10.0 and elapsed < 120.0
    _report(6, ok, f"SPEG-s {speg_s:.4e} vs GD {gd:.4e} (rel {rel:.2e}), "
                   f"SPEG-g {speg_g:.4e} >= 10, {elapsed:.0f}s")


def test_criterion_07_table3_regime(table3):
    cfg, stats, records, elapsed = table3
    mean = {m: stats.per_method[m].mean for m in cfg.methods}
    family = [mean["SPEG-s"], mean["S-SPEG"], mean["H-SPEG"]]
    ordered = max(family) < mean["Adam"] < mean["GD"]
    ok = (all(v <= 1.0 for v in family) and mean["GD"] >= 100.0
          and 5.0 <= mean["Adam"] <= 20.0 and ordered and elapsed < 300.0)
    _report(7, ok, "means " + ", ".join(f"{m} {mean[m]:.4e}" for m in cfg.methods)
            + f", ordering {ordered}, {elapsed:.0f}s")


def test_criterion_08_table4_smooth_regime(table4):
    cfg, stats, records, elapsed = table4
    speg = stats.per_method["SPEG-s"].mean
    adam = stats.per_method["Adam"].mean
    sspeg = stats.per_method["S-SPEG"].mean
    rel = abs(speg - adam) / adam
    ok = rel <= 0.01 and sspeg >= 10.0
    _report(8, ok, f"SPEG {speg:.4e} vs Adam {adam:.4e} (rel {rel:.2e}), "
                   f"S-SPEG {sspeg:.4e} >= 10, {elapsed:.0f}s")


def test_criterion_09_quasi_fermat(lasso_oracle_run, table2, table3, table4):
    """Quasi-Fermat bounds at the minimizers the converged runs approach.

    Best iterates of subgradient-type methods hover next to the kinks, where
    coordinate partials jump by +-lambda1, so the bounds are evaluated at the
    independently certified minimizer of each converged run's objective.
    """
    checks = []  # (label, problem-like, xstar)
    lasso, _, record, _ = lasso_oracle_run
    xstar = lasso.minimizer()
    if np.linalg.norm(record.x_best - xstar) <= 1e-3:  # criterion-5 convergence
        checks.append(("C5 SPEG-s", lasso, xstar))

    converged = {
        "table2": (table2, lambda s: {"SPEG-s", "GD"} if abs(
            s.per_method["SPEG-s"].mean - s.per_method["GD"].mean) / s.per_method["GD"].mean <= 0.005 else set()),
        "table3": (table3, lambda s: {m for m in ("SPEG-s", "S-SPEG", "H-SPEG")
                                      if s.per_method[m].mean <= 1.0}),
        "table4": (table4, lambda s: {"SPEG-s", "Adam"} if abs(
            s.per_method["SPEG-s"].mean - s.per_method["Adam"].mean) / s.per_method["Adam"].mean <= 0.01 else set()),
    }
    for label, (bundle, which) in converged.items():
        cfg, stats, records, _ = bundle
        methods = which(stats)
        assert methods, f"no converged runs in {label}"
        for trial in range(cfg.trials):
            p = _trial_problem(cfg.as_dict(), trial)
            checks.append((f"{label} trial {trial} ({'/'.join(sorted(methods))})",
                           p, _certified_minimizer(p)))

    rng = _rng(9)
    worst_sum = worst_dir = -math.inf
    for label, problem, xstar in checks:
        grad = specular_gradient(problem, xstar)
        n = problem.dimension
        worst_sum = max(worst_sum, abs(float(grad.sum())) - math.sqrt(n) - 1e-3)
        for _ in range(100):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            worst_dir = max(worst_dir, abs(float(grad @ v)) - 1.0 - 1e-3)
    ok = worst_sum <= 0.0 and worst_dir <= 0.0
    _report(9, ok, f"{len(checks)} converged runs; worst sum excess {worst_sum:.2e}, "
                   f"worst directional excess {worst_dir:.2e}")


def test_criterion_10_quasi_mvt_grid():
    suite = checks.quasi_mvt(500, _rng(10))
    _report(10, suite.passed, f"{suite.detail} over 4 x 20 intervals")


def test_criterion_11_determinism(tmp_path):
    import json

    cfg_path = tmp_path / "table2.json"
    cfg_path.write_text(json.dumps(TABLE2))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["run", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli_main(["run", "--config", str(cfg_path), "--out", str(out2)])
    same_stats = (out1 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()
    same_traj = (out1 / "trajectories.csv").read_bytes() == (out2 / "trajectories.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and same_stats and same_traj
    _report(11, ok, f"exit codes ({code1}, {code2}), stats.json identical: {same_stats}, "
                    f"trajectories.csv identical: {same_traj}")
