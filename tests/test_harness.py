"""Harness tests: instance sampling, aggregation, config parsing, determinism, fork_map."""

import math
import os
import select
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specopt.harness import (
    METHOD_NAMES,
    _median,
    ConfigError,
    ExperimentConfig,
    aggregate_stats,
    fork_map,
    run_trials,
    sample_instance,
    substream,
)


class TestSampling:
    def test_same_seed_same_instance(self):
        a1 = sample_instance(4, 3, substream(42, 0, 0))
        a2 = sample_instance(4, 3, substream(42, 0, 0))
        for x, y in zip(a1, a2):
            assert np.array_equal(x, y)

    def test_different_trials_differ(self):
        A0, _, _ = sample_instance(4, 3, substream(42, 0, 0))
        A1, _, _ = sample_instance(4, 3, substream(42, 1, 0))
        assert not np.array_equal(A0, A1)

    def test_documented_draw_order(self):
        # A row-major first, then b, then x0, from one stream
        rng = substream(7, 0, 0)
        flat = rng.standard_normal(4 * 3 + 4 + 3)
        A, b, x0 = sample_instance(4, 3, substream(7, 0, 0))
        assert np.array_equal(A.ravel(order="C"), flat[:12])
        assert np.array_equal(b, flat[12:16])
        assert np.array_equal(x0, flat[16:])

    def test_moments(self):
        rng = substream(0, 0, 0)
        draws = rng.standard_normal(1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01


class TestAggregateStats:
    def test_three_values(self):
        assert aggregate_stats([1.0, 2.0, 3.0]) == (2.0, 2.0, 1.0)

    def test_single_value(self):
        assert aggregate_stats([5.0]) == (5.0, 5.0, 0.0)

    def test_even_count_midpoint_median(self):
        mean, median, stddev = aggregate_stats([1.0, 2.0, 3.0, 4.0])
        assert (mean, median) == (2.5, 2.5)
        assert stddev == pytest.approx(1.2909944487358056, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_stats([])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 4), st.data())
    def test_median_equals_numpy_bitwise(self, count, width, data):
        # ties, signed zeros and NaN are where a different partition or NaN rule would show
        cells = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1 / 3, math.inf, -math.inf, math.nan]) | st.floats()
        shape = (count,) if width == 0 else (count, width)
        values = np.array(data.draw(st.lists(cells, min_size=count * max(width, 1),
                                             max_size=count * max(width, 1)))).reshape(shape)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or two huge halves, in a midpoint, in both
            expected, got = np.asarray(np.median(values, axis=0)), np.asarray(_median(values))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestConfig:
    BASE = {"m": 3, "n": 2, "lambda1": 0.0, "lambda2": 1.0,
            "methods": ["GD"], "seed": 1}

    def test_defaults(self):
        cfg = ExperimentConfig.from_dict(dict(self.BASE))
        assert (cfg.trials, cfg.max_iters, cfg.switch_k, cfg.schedule_c) == (20, 100, 10, 4.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(self.BASE, lr=0.1))

    def test_missing_field_rejected(self):
        raw = dict(self.BASE)
        del raw["seed"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_every_field_without_default_is_required(self):
        for name in self.BASE:
            with pytest.raises(ConfigError, match=f"missing config fields: {name}$"):
                ExperimentConfig.from_dict({k: v for k, v in self.BASE.items() if k != name})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(self.BASE, methods=["SGD"]))

    def test_invalid_values_rejected(self):
        for patch in ({"m": 0}, {"lambda1": -1.0}, {"trials": 0}, {"seed": -1}):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(dict(self.BASE, **patch))

    @pytest.mark.parametrize("patch", [
        {"m": 5.5}, {"m": True}, {"n": "3"}, {"trials": True}, {"max_iters": 10.0},
        {"switch_k": False}, {"seed": 1.5}, {"lambda1": float("nan")},
        {"lambda2": float("inf")}, {"schedule_c": float("-inf")}, {"lambda1": True},
        {"lambda2": "1"}, {"methods": "GD"}, {"methods": ["GD", 1]}, {"methods": {"GD": 1}},
    ])
    def test_wrong_types_rejected(self, patch):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(self.BASE, **patch))

    @pytest.mark.parametrize("patch,message", [
        ({"methods": ["GD", "Adam", "GD"]}, "duplicate method names"),
        ({"switch_k": -1}, r"switch_k must lie in \[0, 2\*\*63\), got -1"),
    ])
    def test_duplicate_methods_or_negative_switch_rejected(self, patch, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(dict(self.BASE, **patch))

    def test_matrix_past_what_numpy_can_address_rejected(self):
        # numpy refuses an array of more than intp.max bytes; m = n = 2**40 once passed validation
        limit = np.iinfo(np.intp).max // 8
        assert ExperimentConfig.from_dict(dict(self.BASE, m=limit, n=1)).m == limit  # no array is made
        for m, n in ((limit + 1, 1), (2 ** 40, 2 ** 40)):
            with pytest.raises(ConfigError, match=rf"^m \* n must be at most {limit} .*, got {m * n}$"):
                ExperimentConfig.from_dict(dict(self.BASE, m=m, n=n))

    def test_integer_reals_accepted(self):
        cfg = ExperimentConfig.from_dict(dict(self.BASE, lambda1=0, lambda2=2, schedule_c=4))
        assert (cfg.lambda1, cfg.lambda2, cfg.schedule_c) == (0, 2, 4)


class TestRunTrials:
    def _cfg(self, **kw):
        base = {"m": 4, "n": 3, "lambda1": 0.1, "lambda2": 1.0, "seed": 11,
                "trials": 3, "max_iters": 25,
                "methods": ["SPEG-s", "S-SPEG", "H-SPEG", "GD", "Adam"]}
        base.update(kw)
        return ExperimentConfig.from_dict(base)

    def test_single_trial_stats_equal_run_final(self):
        cfg = self._cfg(methods=["GD"], trials=1, lambda1=0.0)
        stats, records = run_trials(cfg)
        ms = stats.per_method["GD"]
        assert ms.count == 1 and ms.failed == 0
        assert ms.mean == ms.median == records["GD"][0].final_f_best
        assert ms.stddev == 0.0

    def test_rerun_is_identical(self):
        cfg = self._cfg()
        s1, r1 = run_trials(cfg)
        s2, r2 = run_trials(cfg)
        for method in cfg.methods:
            assert s1.per_method[method].finals == s2.per_method[method].finals
            assert s1.per_method[method].trajectory == s2.per_method[method].trajectory
            for a, b in zip(r1[method], r2[method]):
                assert np.array_equal(a.f_current, b.f_current)

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = self._cfg()
        monkeypatch.setenv("SPECOPT_THREADS", "1")
        s1, _ = run_trials(cfg)
        monkeypatch.setenv("SPECOPT_THREADS", "4")
        s4, _ = run_trials(cfg)
        for method in cfg.methods:
            assert s1.per_method[method].finals == s4.per_method[method].finals

    def test_methods_share_instances(self):
        # paired comparison: the first recorded value is f(x0) for every method
        cfg = self._cfg()
        _, records = run_trials(cfg)
        for t in range(cfg.trials):
            starts = {m: records[m][t].f_current[0] for m in cfg.methods}
            assert len(set(starts.values())) == 1

    def test_method_streams_independent_of_listing_order(self):
        s1, _ = run_trials(self._cfg(methods=["S-SPEG", "H-SPEG"]))
        s2, _ = run_trials(self._cfg(methods=["H-SPEG", "S-SPEG"]))
        assert s1.per_method["S-SPEG"].finals == s2.per_method["S-SPEG"].finals
        assert s1.per_method["H-SPEG"].finals == s2.per_method["H-SPEG"].finals

    def test_failed_cells_excluded_and_counted(self):
        # lambda2 = 1e6 makes constant-step GD diverge on every trial
        cfg = self._cfg(methods=["GD", "SPEG-s"], lambda2=1e6)
        stats, records = run_trials(cfg)
        gd = stats.per_method["GD"]
        assert gd.failed == cfg.trials and gd.count == 0
        assert all(rec.status == "numerical_failure" for rec in records["GD"])
        ok = stats.per_method["SPEG-s"]
        assert ok.failed == 0 and len(ok.finals) == cfg.trials

    def test_trajectory_arrays_cover_every_iteration(self):
        cfg = self._cfg(methods=["SPEG-s"], max_iters=15)
        stats, records = run_trials(cfg)
        traj = stats.per_method["SPEG-s"].trajectory
        width = max(len(r) for r in records["SPEG-s"])
        assert len(traj["mean"]) == len(traj["median"]) == len(traj["stddev"]) == width
        series = np.array([list(r.f_best) + [r.final_f_best] * (width - len(r))
                           for r in records["SPEG-s"]])
        assert np.allclose(traj["mean"], series.mean(axis=0), rtol=1e-15)

    @pytest.mark.parametrize("lambda2", [1.0, 1e6])
    def test_records_bitwise_equal_across_worker_counts(self, monkeypatch, lambda2):
        # lambda2 = 1e6 makes every GD cell fail; failed records must match too
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = self._cfg(methods=list(METHOD_NAMES), lambda2=lambda2)
        monkeypatch.setenv("SPECOPT_THREADS", "1")
        s1, r1 = run_trials(cfg)
        monkeypatch.setenv("SPECOPT_THREADS", "4")
        s4, r4 = run_trials(cfg)
        assert (s1.workers, s4.workers) == (1, cfg.trials)
        if lambda2 == 1e6:
            assert all(rec.status == "numerical_failure" for rec in r4["GD"])
        for method in METHOD_NAMES:
            for a, b in zip(r1[method], r4[method], strict=True):
                assert a.status == b.status
                for name in ("f_current", "f_best", "grad_norm", "x_best", "h_trace"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (method, name)

    @pytest.mark.parametrize("threads,cpus,trials,expected", [
        (4, 2, 3, 2), (2, 8, 5, 2), (8, 8, 3, 3), (1, 8, 5, None), (8, 8, 1, None),
    ])
    def test_pool_size_capped(self, monkeypatch, forks, threads, cpus, trials, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("SPECOPT_THREADS", str(threads))
        stats, _ = run_trials(self._cfg(methods=["GD"], trials=trials, max_iters=2))
        assert stats.workers == (expected or 1)
        assert len(forks) == stats.workers - 1  # this process is one of them

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("SPECOPT_THREADS", "4")
        stats, _ = run_trials(self._cfg(methods=["GD"], max_iters=2))
        assert stats.workers == 1


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def gate():
    """A pipe (read end, write end): a child waits on the read end until this process writes."""
    ends = os.pipe()
    yield ends
    for end in ends:
        os.close(end)


def _opened(gate_read) -> bool:
    """Whether the gate opens within 10 s."""
    return bool(select.select([gate_read], [], [], 10.0)[0])


def test_fork_map_runs_its_own_share_before_it_reads_a_pipe(monkeypatch, gate):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
    here = os.getpid()

    def fn(item):
        if os.getpid() == here:
            os.write(gate[1], b"x")
            return "here"
        return "open" if _opened(gate[0]) else "shut"

    assert fork_map(fn, range(4)) == (["here", "open", "here", "open"], 2)


def test_fork_map_deals_items_round_robin_and_returns_them_in_item_order(monkeypatch, forks):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
    done, processes = fork_map(lambda item: (item, os.getpid()), range(8))
    assert processes == 3
    assert [item for item, _ in done] == list(range(8))
    pids = [pid for _, pid in done]
    assert [len(set(pids[k::3])) for k in range(3)] == [1] * 3
    assert len(set(pids)) == 3
    assert pids[0] == os.getpid()
    assert set(pids) - {os.getpid()} == set(forks)
    _assert_no_children()


def test_fork_map_of_no_items_runs_nothing(monkeypatch, forks):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
    assert fork_map(lambda item: item, []) == ([], 1)
    assert forks == []


def test_fork_map_raises_a_childs_exception(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
    here = os.getpid()

    def fn(item):
        if os.getpid() != here and item == 3:
            raise KeyError(f"item {item}")
        return item

    with pytest.raises(KeyError, match="item 3"):
        fork_map(fn, range(4))
    _assert_no_children()


def test_fork_map_sends_an_exception_that_does_not_pickle_as_its_text(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
    here = os.getpid()

    class Unpicklable(Exception):
        """A local class: pickle cannot find it by name."""

    def fn(item):
        if os.getpid() != here:
            raise Unpicklable(f"item {item}")
        return item

    with pytest.raises(RuntimeError, match="^Unpicklable: item 1$"):
        fork_map(fn, range(2))
    _assert_no_children()


@pytest.mark.parametrize("leave,status", [(lambda: os._exit(3), "3"),
                                          (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9")],
                         ids=["exit-3", "sigkill"])
def test_fork_map_raises_when_a_child_exits_without_results(monkeypatch, leave, status):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
    here = os.getpid()

    def fn(item):
        if os.getpid() != here:
            leave()
        return item

    with pytest.raises(ChildProcessError, match=f"exited with status {status} before sending its results"):
        fork_map(fn, range(2))
    _assert_no_children()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt], ids=["share-0-raises", "share-0-interrupted"])
def test_fork_map_kills_and_reaps_its_children_when_its_own_work_raises(monkeypatch, error):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
    here = os.getpid()

    def fn(item):
        if os.getpid() == here:
            raise error("here")
        time.sleep(60)  # a child still at work when this process raises
        return item

    start = time.monotonic()
    with pytest.raises(error, match="here"):
        fork_map(fn, range(4))
    assert time.monotonic() - start < 30
    _assert_no_children()


def test_fork_map_raises_a_childs_failure_without_waiting_for_its_siblings(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
    here = os.getpid()

    def fn(item):
        if os.getpid() != here and item == 1:
            raise KeyError(f"item {item}")
        if os.getpid() != here and item == 2:
            time.sleep(60)  # a sibling still at work when share 1's child fails
        return item

    start = time.monotonic()
    with pytest.raises(KeyError, match="item 1"):
        fork_map(fn, range(3))
    assert time.monotonic() - start < 30
    _assert_no_children()


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_fork_map_rejects_a_bad_thread_count_without_fork(monkeypatch, threads):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setenv("SPECOPT_THREADS", threads)
    with pytest.raises(ConfigError, match="SPECOPT_THREADS"):
        fork_map(lambda item: item, range(4))
