"""Where ``checks.run_suites`` runs each suite, and that the place does not change a result;
and that the two suites that draw kinked points reach kinks and catch a wrong kink kernel.

basic-inequality runs in the calling process; the six sampling suites run
together in one forked child when more than one process may run.
"""

import os
import re

import numpy as np
import pytest

from specopt import checks, specular


def _results(seed):
    return [(r.name, bool(r.passed), r.detail) for r in checks.run_suites("fast", seed)]


def _pid_suite(name):
    """A light stand-in for a suite: a closure, as a profiler's wrappers are, reporting its pid."""
    def suite(samples, rng):
        return checks.SuiteResult(name, True, str(os.getpid()))
    suite.__name__ = name
    return suite


@pytest.mark.parametrize("cpus", [2, 4])
def test_results_do_not_depend_on_the_worker_count(monkeypatch, cpus):
    monkeypatch.setenv("SPECOPT_THREADS", "1")
    serial = [_results(seed) for seed in range(16)]
    monkeypatch.delenv("SPECOPT_THREADS")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert [_results(seed) for seed in range(16)] == serial


def test_basic_inequality_runs_its_speg_runs_here(monkeypatch):
    pids = []
    real_speg_run = checks.speg_run

    def speg_run(*args, **kwargs):
        pids.append(os.getpid())
        return real_speg_run(*args, **kwargs)

    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(checks, "speg_run", speg_run)
    results = checks.run_suites("fast", 5)
    assert all(r.passed for r in results)
    assert pids == [os.getpid()] * 2  # max(2, 100 // 50) problems


@pytest.mark.parametrize("threads,cpus,forked", [("1", 8, False), ("2", 2, True), ("8", 4, True)])
def test_sampling_suites_run_in_workers(monkeypatch, threads, cpus, forked):
    monkeypatch.setenv("SPECOPT_THREADS", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(checks, "SUITES", tuple(_pid_suite(s.__name__) for s in checks.SUITES))
    results = checks.run_suites("fast", 0)
    assert [r.name for r in results] == [s.__name__ for s in checks.SUITES]
    here = str(os.getpid())
    *sampling, basic = [r.detail for r in results]
    assert basic == here
    assert len(set(sampling)) == 1
    assert (sampling[0] != here) == forked


@pytest.mark.parametrize("threads,cpus,expected", [(1, 8, None), (2, 2, 1), (8, 4, 1), (8, 16, 1)])
def test_pool_size(monkeypatch, forks, threads, cpus, expected):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("SPECOPT_THREADS", str(threads))
    assert all(r.passed for r in checks.run_suites("fast", 1))
    assert len(forks) == (expected or 0)


def test_serial_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("SPECOPT_THREADS", "4")
    monkeypatch.setattr(checks, "SUITES", tuple(_pid_suite(s.__name__) for s in checks.SUITES))
    assert {r.detail for r in checks.run_suites("fast", 0)} == {str(os.getpid())}


def test_unknown_level_rejected():
    with pytest.raises(ValueError, match="level must be 'fast' or 'full'"):
        checks.run_suites("medium")


@pytest.mark.parametrize("kernel,broken", [(lambda a, b: a, "symmetry"),
                                           (lambda a, b: max(a, b) + 1.0, "betweenness")],
                         ids=["symmetry", "betweenness"])
def test_scalar_identities_name_the_broken_identity(monkeypatch, kernel, broken):
    monkeypatch.setattr(checks, "afun", kernel)
    suite = checks.scalar_identities(10, np.random.default_rng(0))
    assert not suite.passed
    assert suite.detail.startswith(f"{broken} broken at (")


def test_kinked_suites_report_kinks():
    details = {r.name: r.detail for r in checks.run_suites("fast")}
    for name in ("ordering-lemma", "subgradient-inequality"):
        kinks = int(re.search(r"at (\d+) kink coordinates", details[name]).group(1))
        assert kinks > 0, details[name]


@pytest.mark.parametrize("samples", [100, 10_000])
@pytest.mark.parametrize("kernel", [lambda a, b: 3.0 * (a + b), lambda a, b: a, lambda a, b: (a + b) / 2.0],
                         ids=["tripled-sum", "plus", "mean"])
def test_wrong_kink_kernel_fails_the_subgradient_suite(monkeypatch, kernel, samples):
    # plus and the mean are subgradients too: only the exactness check tells them from afun
    monkeypatch.setattr(specular, "afun_array", kernel)
    suite = checks.subgradient_inequality(samples, np.random.default_rng(0))
    assert not suite.passed, suite.detail
