"""CLI tests: bundles, exit codes, sweeps, round trips, and the check command."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specopt.specular
from specopt import checks, cli, harness
from specopt.cli import main
from specopt.harness import ConfigError, ExperimentConfig, run_trials
from specopt.optimizers import RunRecord

BASE_CONFIG = {
    "m": 4, "n": 3, "lambda1": 0.1, "lambda2": 1.0,
    "trials": 2, "max_iters": 20, "methods": ["SPEG-s", "GD"], "seed": 5,
}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _no_trials(cfg):
    raise AssertionError("a trial ran")


def _assert_one_line(err, prefix):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err


def write_config(tmp_path, name="cfg.json", **patch):
    raw = dict(BASE_CONFIG)
    raw.update(patch)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestRunCommand:
    def test_bundle_files_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("stats.json", "trajectories.csv", "runmeta.json"):
            assert (out / name).exists()
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats) == {"SPEG-s", "GD"}
        for ms in stats.values():
            assert ms["count"] == 2 and ms["failed"] == 0
            assert ms["median"] == sorted(ms["finals"])[0] or len(ms["finals"]) == 2

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "m": 4,\n  "n": oops\n}\n')
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert ":3:" in err  # line-numbered message

    def test_unknown_method_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, methods=["BFGS"])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_divergent_cell_exits_two_with_partial_stats(self, tmp_path):
        cfg = write_config(tmp_path, lambda2=1e6, methods=["GD", "SPEG-s"])
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        stats = json.loads((out / "stats.json").read_text())
        assert stats["GD"]["failed"] == 2
        assert stats["GD"]["mean"] is None
        assert stats["SPEG-s"]["count"] == 2

    def test_all_failed_method_writes_strict_json(self, tmp_path):
        cfg = write_config(tmp_path, lambda2=1e6, methods=["GD"])
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        for name in ("stats.json", "runmeta.json"):
            json.loads((out / name).read_text(), parse_constant=_reject_constant)
        stats = json.loads((out / "stats.json").read_text())
        assert [stats["GD"][key] for key in ("mean", "median", "stddev")] == [None, None, None]

    def test_config_echo_lists_every_field(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "runmeta.json").read_text())
        assert meta["config"] == {**BASE_CONFIG, "switch_k": 10, "schedule_c": 4.0}

    @pytest.mark.parametrize("patch", [
        {"m": 5.5}, {"m": True}, {"trials": True}, {"lambda1": math.nan},
        {"lambda2": math.inf}, {"methods": "GD"},
    ])
    def test_wrong_types_are_config_errors(self, tmp_path, capsys, patch):
        cfg = write_config(tmp_path, **patch)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        *(json.dumps({**BASE_CONFIG, name: 10 ** 400}) for name in ("lambda1", "lambda2", "schedule_c")),
        *(json.dumps({**BASE_CONFIG, name: 10 ** 20}) for name in ("m", "n", "trials", "max_iters", "switch_k")),
        json.dumps(BASE_CONFIG)[:-1] + ', "lambda1": 1' + "0" * 5000 + "}",  # past the digit limit
        json.dumps(BASE_CONFIG)[:-1] + ', "m": 7}',  # a field given twice
    ], ids=["lambda1", "lambda2", "schedule_c", "m", "n", "trials", "max_iters", "switch_k",
            "digit-limit", "duplicate"])
    def test_out_of_range_or_ambiguous_fields_are_config_errors(self, tmp_path, capsys, monkeypatch, text):
        # each of these once ended in a traceback, or (a duplicate field) was taken silently
        monkeypatch.setattr(cli, "run_trials", _no_trials)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        _assert_one_line(capsys.readouterr().err, "config error: ")
        assert not (tmp_path / "o").exists()

    def test_huge_trials_override_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_trials", _no_trials)
        argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o"),
                "--trials", "100000000000000000000"]
        assert main(argv) == 1
        _assert_one_line(capsys.readouterr().err,
                         "config error: trials must lie in [1, 2**63), got 100000000000000000000")

    def test_matrix_numpy_cannot_address_is_config_error(self, tmp_path, capsys, monkeypatch):
        # m = n = 2**40 lies below 2**63 and once ended in numpy's "array is too big" traceback
        monkeypatch.setattr(cli, "run_trials", _no_trials)
        cfg = write_config(tmp_path, m=2 ** 40, n=2 ** 40)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        _assert_one_line(capsys.readouterr().err, "config error: m * n must be at most ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 7.28 TiB", "error: out of memory: Unable to allocate 7.28 TiB"),
        ("", "error: out of memory"),
    ])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, message, line):
        # a size numpy accepts but the machine cannot hold; the trials run here, under the patch
        def no_memory(m, n, rng):
            raise MemoryError(message)

        monkeypatch.setenv("SPECOPT_THREADS", "1")
        monkeypatch.setattr(harness, "sample_instance", no_memory)
        assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == line + "\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["not-utf8", "directory"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"\xff\xfe{}")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        _assert_one_line(capsys.readouterr().err, f"config error: cannot read config {cfg}: ")

    def test_field_name_that_is_not_a_string(self):
        with pytest.raises(ConfigError, match="^unknown config fields: 1$"):
            ExperimentConfig.from_dict({1: 2})

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_on_a_file_fails_before_any_trial(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.setattr(cli, "run_trials", _no_trials)
        cfg = write_config(tmp_path)
        (tmp_path / "taken").write_text("")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == 1
        _assert_one_line(capsys.readouterr().err, "error: ")

    def test_outputs_independent_of_worker_count(self, tmp_path, monkeypatch):
        # the second config makes every GD cell fail, so that run exits 2
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for lambda2, expected in ((1.0, 0), (1e6, 2)):
            cfg = write_config(tmp_path, methods=["SPEG-s", "S-SPEG", "GD"], lambda2=lambda2)
            outs = {}
            for threads in ("1", None):
                if threads is None:
                    monkeypatch.delenv("SPECOPT_THREADS", raising=False)
                else:
                    monkeypatch.setenv("SPECOPT_THREADS", threads)
                outs[threads] = tmp_path / f"lambda2-{lambda2:g}-threads-{threads}"
                assert main(["run", "--config", str(cfg), "--out", str(outs[threads])]) == expected
            for name in ("stats.json", "trajectories.csv"):
                assert (outs["1"] / name).read_bytes() == (outs[None] / name).read_bytes()
            workers = [json.loads((out / "runmeta.json").read_text())["trial_workers"]
                       for out in outs.values()]
            assert workers == [1, 2]

    def test_seed_and_trials_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "99", "--trials", "1"])
        meta = json.loads((out1 / "runmeta.json").read_text())
        assert meta["seed"] == 99 and meta["config"]["trials"] == 1
        main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99", "--trials", "1"])
        assert (out1 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()

    def test_csv_round_trip_and_sort_order(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "o"
        main(["run", "--config", str(cfg_path), "--out", str(out)])
        with open(out / "trajectories.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        keys = [(r["method"], int(r["trial"]), int(r["iter"])) for r in rows]
        assert keys == sorted(keys)
        _, records = run_trials(ExperimentConfig.from_dict(BASE_CONFIG))
        by_cell = {}
        for r in rows:
            by_cell.setdefault((r["method"], int(r["trial"])), []).append(r)
        for (method, trial), cell in by_cell.items():
            rec = records[method][trial]
            got_f = np.array([float(r["f_current"]) for r in cell])
            got_b = np.array([float(r["f_best"]) for r in cell])
            got_g = np.array([float(r["grad_norm"]) for r in cell])
            assert np.array_equal(got_f, rec.f_current)  # exact decimal round trip
            assert np.array_equal(got_b, rec.f_best)
            assert np.array_equal(got_g, rec.grad_norm)


class TestHugeFiniteInputs:
    """Finite but huge lambdas or step lengths: the runs fail numerically and nothing warns.

    pytest turns a RuntimeWarning into an error, so numpy overflowing on the
    way to a failed cell would fail the test.
    """

    @pytest.mark.parametrize("patch", [
        {"lambda1": 7.741001517595158e+153}, {"lambda1": 1e160}, {"lambda1": 1e300},
        {"lambda2": 1e300}, {"schedule_c": 1e300},
    ], ids=["fuzz-example", "lambda1-1e160", "lambda1-1e300", "lambda2-1e300", "schedule_c-1e300"])
    def test_failed_cells_without_a_warning(self, tmp_path, capsys, monkeypatch, patch):
        monkeypatch.setenv("SPECOPT_THREADS", "1")  # the trials run here, under the filter
        raw = {"methods": ["SPEG-s", "SPEG-g", "S-SPEG", "H-SPEG", "GD", "Adam"], "max_iters": 5, **patch}
        cfg = write_config(tmp_path, **raw)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        _assert_complete_bundle(out)


def _reference_rows(method, trial, rec):
    """One record's CSV rows as the old per-element loop wrote them: the reference for format_trial_rows."""
    return "".join(f"{method},{trial},{int(rec.iters[i])},"
                   f"{float(rec.f_current[i])!r},{float(rec.f_best[i])!r},{float(rec.grad_norm[i])!r}\n"
                   for i in range(len(rec)))


def _per_element_rows(records):
    """The CSV body of method -> records per trial, methods sorted, from _reference_rows."""
    return "".join(_reference_rows(method, trial, rec)
                   for method in sorted(records) for trial, rec in enumerate(records[method]))


def _record(f_current, grad_norm, status):
    f_current = np.asarray(f_current, dtype=float)
    return RunRecord(f_current=f_current, f_best=np.minimum.accumulate(f_current),
                     grad_norm=np.asarray(grad_norm, dtype=float), status=status, x_best=np.zeros(1),
                     h_trace=np.zeros(0))


class TestTrialRows:
    def test_column_reprs_equal_row_format(self):
        records = {
            "SPEG-s": _record([1 / 3, -0.0, 5e-324, 1e16, -1e-300, 0.1], [1e16, 5e-324, -0.0, 1 / 3, 2.0, 1e22],
                              "max_iters"),
            "GD": _record([2.0, math.inf, math.nan], [1.0, math.nan, -math.inf], "numerical_failure"),
            "Adam": _record([-math.inf], [0.0], "max_iters"),
            "H-SPEG": _record([], [], "max_iters"),
        }
        got = cli.format_trial_rows(7, records)
        assert got == {method: _reference_rows(method, 7, rec) for method, rec in records.items()}
        assert got["H-SPEG"] == ""
        assert got["GD"] == "GD,7,0,2.0,2.0,1.0\nGD,7,1,inf,2.0,nan\nGD,7,2,nan,nan,-inf\n"
        assert "SPEG-s,7,2,5e-324,-0.0,-0.0\n" in got["SPEG-s"]
        assert "SPEG-s,7,3,1e+16,-0.0,0.3333333333333333\n" in got["SPEG-s"]

    def test_equals_per_element_loop_bitwise(self, monkeypatch):
        monkeypatch.setenv("SPECOPT_THREADS", "1")
        cfg = ExperimentConfig.from_dict({**BASE_CONFIG, "lambda2": 1e6, "methods": ["GD", "SPEG-s"]})
        _, records = run_trials(cfg)
        assert records["GD"][0].status == "numerical_failure"
        assert math.isinf(records["GD"][0].grad_norm[-1])
        records["Adam"] = [
            _record([1 / 3, -0.0, 5e-324, 1e16], [1e16, 5e-324, -0.0, 1 / 3], "max_iters"),
            _record([2.0, math.inf, math.nan], [1.0, math.nan, math.inf], "numerical_failure"),
        ]
        per_trial = [cli.format_trial_rows(t, {m: runs[t] for m, runs in records.items()})
                     for t in range(2)]
        for trial, texts in enumerate(per_trial):
            for method, text in texts.items():
                assert text == _reference_rows(method, trial, records[method][trial])
        body = "".join(rows[m] for m in sorted(records) for rows in per_trial)
        assert body == _per_element_rows(records)
        assert "Adam,1,1,inf,2.0,nan\n" in body and "Adam,0,1,-0.0,-0.0,5e-324\n" in body
        assert "Adam,0,3,1e+16,-0.0,0.3333333333333333\n" in body

    def test_bundle_csv_equals_per_element_loop(self, tmp_path):
        cfg = write_config(tmp_path, lambda2=1e6, methods=["SPEG-s", "GD", "Adam"])
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        _, records = run_trials(ExperimentConfig.from_dict(json.loads(cfg.read_text())))
        header = "method,trial,iter,f_current,f_best,grad_norm\n"
        assert (out / "trajectories.csv").read_text() == header + _per_element_rows(records)

    @pytest.mark.parametrize("threads,children", [(None, 1), ("1", 0)], ids=["default", "serial"])
    def test_write_bundle_of_plain_run_trials_equals_run(self, tmp_path, monkeypatch, forks, threads, children):
        # write_bundle formats the rows itself, one fork_map task per trial: trial 1 of 3 in a child
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if threads is None:
            monkeypatch.delenv("SPECOPT_THREADS", raising=False)
        else:
            monkeypatch.setenv("SPECOPT_THREADS", threads)
        path = write_config(tmp_path, trials=3, methods=["SPEG-s", "GD", "Adam"])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
        stats, records = run_trials(cfg)
        direct = tmp_path / "direct"
        direct.mkdir()
        forks.clear()
        cli.write_bundle(direct, cfg, stats, records, 0.0)
        assert len(forks) == children
        for name in ("stats.json", "trajectories.csv"):
            assert (direct / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


# floats whose shortest decimals are easy to get wrong: signed zeros, the least subnormal, other
# subnormals, the smallest normal, and 1e16 and 1e-7, where repr switches to exponent notation
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, 1e-7,
                9999999999999998.0, 0.0001, 1 / 3, 1.0]
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_NON_FINITE = [math.nan, -math.nan, math.inf, -math.inf]


@st.composite
def _float_lists(draw, elements, min_size=0, max_size=30):
    """Lists of floats, often drawn from a few values so that they repeat."""
    pool = draw(st.lists(elements, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool) | elements, min_size=min_size, max_size=max_size))


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=5) | _FINITE
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | _float_lists(_FINITE),
    lambda inner: (st.lists(inner, max_size=4) | _float_lists(_FINITE)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=40)


def _json_reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestTextEqualsReference:
    """The bundle writers format each distinct float once; the texts must equal the plain encoders'."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_DOCS)
    def test_json_text_equals_json_dumps(self, doc):
        assert cli._json_text(doc) == _json_reference(doc)

    @settings(max_examples=100, deadline=None)
    @given(_float_lists(_FINITE), st.sampled_from(_NON_FINITE), st.data())
    def test_json_text_rejects_non_finite_floats(self, floats, bad, data):
        floats.insert(data.draw(st.integers(0, len(floats))), bad)
        doc = data.draw(st.sampled_from([floats, {"a": {"b": floats}}, [[1, floats]], bad, {"x": bad}]))
        with pytest.raises(ValueError):
            _json_reference(doc)
        with pytest.raises(ValueError):
            cli._json_text(doc)

    def test_json_text_of_a_run_equals_json_dumps(self, monkeypatch):
        monkeypatch.setenv("SPECOPT_THREADS", "1")
        cfg = ExperimentConfig.from_dict({**BASE_CONFIG, "methods": ["SPEG-s", "SPEG-g", "GD"], "trials": 3})
        stats, _ = run_trials(cfg)
        doc = {method: vars(ms) for method, ms in stats.per_method.items()}
        assert cli._json_text(doc) == _json_reference(doc)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_trial_rows_equal_the_per_row_formatter(self, data):
        cells = st.floats() | st.sampled_from(_EDGE_FLOATS + _NON_FINITE)
        methods = data.draw(st.lists(st.sampled_from(harness.METHOD_NAMES), min_size=1, max_size=3, unique=True))
        records = {}
        for method in methods:
            rows = data.draw(st.sampled_from([0, 1]) | st.integers(0, 20))
            # one list for the three columns, so repeats run across them as in a real trial
            flat = np.array(data.draw(_float_lists(cells, 3 * rows, 3 * rows)), dtype=float)
            records[method] = RunRecord(f_current=flat[:rows], f_best=flat[rows:2 * rows],
                                        grad_norm=flat[2 * rows:], status="max_iters",
                                        x_best=np.zeros(1), h_trace=np.zeros(0))
        trial = data.draw(st.integers(0, 10 ** 6))
        assert cli.format_trial_rows(trial, records) == {
            method: _reference_rows(method, trial, rec) for method, rec in records.items()}


def _fail_second_write(monkeypatch, error, at=2):
    """Make the at-th Path.write_text call write half its text, then raise error."""
    calls = []
    real = Path.write_text

    def write_text(self, data, *args, **kwargs):
        calls.append(self)
        if len(calls) == at:
            real(self, data[: len(data) // 2], *args, **kwargs)
            raise error
        return real(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text)
    return calls


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


class TestWholeBundles:
    @pytest.mark.parametrize("out", ["o", "a/b/o"])
    def test_failed_write_leaves_no_bundle_and_no_directory(self, tmp_path, capsys, monkeypatch, out):
        cfg = write_config(tmp_path)
        calls = _fail_second_write(monkeypatch, OSError("disk full"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == 1
        _assert_one_line(capsys.readouterr().err, "error: disk full")
        assert [p.name for p in calls] == [".stats.json.tmp", ".trajectories.csv.tmp"]
        assert _tree(tmp_path) == ["cfg.json"]

    def test_any_exception_cleans_up(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        _fail_second_write(monkeypatch, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert _tree(tmp_path) == ["cfg.json"]

    def test_failed_rewrite_keeps_the_earlier_bundle(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        _fail_second_write(monkeypatch, OSError("disk full"))
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "6"]) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_rename_removes_the_files_already_placed(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        (out / "trajectories.csv").mkdir(parents=True)  # stats.json is renamed into place first
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        _assert_one_line(capsys.readouterr().err, "error: ")
        assert _tree(out) == ["trajectories.csv"]

    def test_failed_rename_over_an_earlier_bundle_leaves_it_without_the_placed_files(
            self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real, renamed = os.replace, []

        def replace_once(src, dst):
            if renamed:
                raise OSError("rename failed")
            renamed.append(dst)
            return real(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace_once)
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "6"]) == 1
        _assert_one_line(capsys.readouterr().err, "error: rename failed")
        # stats.json had replaced the earlier one and is removed; the rest of the earlier bundle stays
        assert renamed == [out / "stats.json"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            name: data for name, data in before.items() if name != "stats.json"}

    def test_sweep_failed_first_cell_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, trials=1, max_iters=5)
        _fail_second_write(monkeypatch, OSError("disk full"))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--l1", "0.1,1", "--l2", "1"]) == 1
        _assert_one_line(capsys.readouterr().err, "error: disk full")
        assert _tree(tmp_path) == ["cfg.json"]

    def test_sweep_failed_later_cell_keeps_finished_cells_without_index(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, trials=1, max_iters=5)
        _fail_second_write(monkeypatch, OSError("disk full"), at=5)  # second cell, second file
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--l1", "0.1,1", "--l2", "1"]) == 1
        assert _tree(out) == ["l1_0.1_l2_1", "l1_0.1_l2_1/runmeta.json", "l1_0.1_l2_1/stats.json",
                              "l1_0.1_l2_1/trajectories.csv"]
        _assert_complete_bundle(out / "l1_0.1_l2_1")

    def test_sweep_failed_index_leaves_no_index(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, trials=1, max_iters=5)
        _fail_second_write(monkeypatch, OSError("disk full"), at=4)  # the index, after one cell
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--l1", "0.1", "--l2", "1"]) == 1
        assert not (out / "index.json").exists() and not (out / ".index.json.tmp").exists()
        _assert_complete_bundle(out / "l1_0.1_l2_1")


class TestSweepCommand:
    def test_grid_bundles_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, trials=1, max_iters=5, methods=["SPEG-s"])
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--l1", "0.1,1.0,10.0", "--l2", "0.1,1.0,10.0"])
        assert code == 0
        manifest = json.loads((out / "index.json").read_text())
        assert len(manifest) == 9
        for cell in manifest:
            assert (out / cell["dir"] / "stats.json").exists()
            assert cell["exit_code"] == 0

    def test_single_cell_matches_run(self, tmp_path):
        cfg = write_config(tmp_path, trials=1, max_iters=5, methods=["SPEG-s"])
        sweep_out = tmp_path / "s"
        run_out = tmp_path / "r"
        main(["sweep", "--config", str(cfg), "--out", str(sweep_out),
              "--l1", "0.1", "--l2", "1.0"])
        cfg2 = write_config(tmp_path, "cfg2.json", trials=1, max_iters=5,
                            methods=["SPEG-s"], lambda1=0.1, lambda2=1.0)
        main(["run", "--config", str(cfg2), "--out", str(run_out)])
        cell = sweep_out / "l1_0.1_l2_1"
        assert cell.is_dir()
        assert (cell / "stats.json").read_bytes() == (run_out / "stats.json").read_bytes()

    @pytest.mark.parametrize("l1", ["nan,0.1", "0.1,inf", "0.1,-1"])
    def test_invalid_cell_stops_the_sweep_before_any_cell_runs(self, tmp_path, capsys, l1):
        cfg = write_config(tmp_path, trials=1, max_iters=5, methods=["SPEG-s"])
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--l1", l1, "--l2", "1"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("l1", ["0.1,0.1000001", "0.1,0.1"])
    def test_colliding_cell_directories_rejected(self, tmp_path, capsys, monkeypatch, l1):
        monkeypatch.setattr(cli, "run_trials", _no_trials)
        cfg = write_config(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--l1", l1, "--l2", "1"]) == 1
        _assert_one_line(capsys.readouterr().err, "config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_on_a_file_fails_before_any_cell(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.setattr(cli, "run_trials", _no_trials)
        cfg = write_config(tmp_path)
        (tmp_path / "taken").write_text("")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out),
                     "--l1", "0.1", "--l2", "1"]) == 1
        _assert_one_line(capsys.readouterr().err, "error: ")

    def test_empty_lambda_list_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--l1", "", "--l2", "1.0"]) == 1

    def test_cell_directory_on_a_file_stops_the_sweep(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_trials", _no_trials)
        cfg = write_config(tmp_path)
        out = tmp_path / "s"
        out.mkdir()
        (out / "l1_0.1_l2_1").write_text("")
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--l1", "0.1,1", "--l2", "1"]) == 1
        _assert_one_line(capsys.readouterr().err, "error: ")
        assert sorted(p.name for p in out.iterdir()) == ["l1_0.1_l2_1"]  # no later cell, no index

    def test_non_numeric_lambda_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--l1", "0.1,x", "--l2", "1"]) == 1
        _assert_one_line(capsys.readouterr().err, "config error: ")
        assert not out.exists()


class TestInvalidInvocation:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_thread_count_fails_before_any_directory(self, tmp_path, capsys, monkeypatch,
                                                         command, threads):
        monkeypatch.setattr(cli, "run_trials", _no_trials)
        monkeypatch.setenv("SPECOPT_THREADS", threads)
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "sweep":
            argv += ["--l1", "0.1", "--l2", "1"]
        assert main(argv) == 1
        _assert_one_line(capsys.readouterr().err, "config error: SPECOPT_THREADS")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_thread_count_fails_check_before_any_suite(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("SPECOPT_THREADS", threads)
        assert main(["check", "--level", "fast"]) == 1
        captured = capsys.readouterr()
        _assert_one_line(captured.err, "config error: SPECOPT_THREADS")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "c.json", "--out", "o", "--seed", "abc"],
        ["run", "--config", "c.json"],
        ["sweep", "--config", "c.json", "--out", "o", "--l1", "1", "--l2", "1", "--trials", "2.5"],
        ["check", "--level", "slow"],
        ["specgrad"],
        ["frobnicate"],
        [],
    ], ids=["bad-seed", "no-out", "float-trials", "bad-level", "no-function", "bad-command", "empty"])
    def test_argument_errors_exit_one_with_one_line(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_one_line(captured.err, "error: ")
        assert not (tmp_path / "o").exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["run", "--help"])
        assert stop.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_python_dash_m(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        ok = subprocess.run([sys.executable, "-m", "specopt", "specgrad", "abs2d", "1,0"],
                            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
        assert ok.returncode == 0, ok.stderr
        assert json.loads(ok.stdout)["gradient"] == [1.0, 0.0]
        bad = subprocess.run([sys.executable, "-m", "specopt", "run", "--config", "c.json", "--out", "o",
                              "--seed", "abc"], capture_output=True, text=True, env=env, cwd=tmp_path,
                             timeout=60)
        assert bad.returncode == 1 and bad.stdout == ""
        _assert_one_line(bad.stderr, "error: argument --seed")


# Config fuzzing: up to two fields of a small valid config are dropped or
# replaced by a value of the wrong type, a non-finite or negative number, or
# another valid value, or an unknown field is added.  Sizes stay at most 5, so
# no run forks more than two trial workers.
_ANY_BAD = st.sampled_from([None, True, "5", [], {}, math.nan, math.inf, -math.inf, -1, -0.5])
_SMALL_INT = st.integers(-2, 5)
_REAL = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-2, 5)
_FIELD_VALUES = {
    "m": _SMALL_INT, "n": _SMALL_INT, "trials": _SMALL_INT, "max_iters": _SMALL_INT,
    "switch_k": st.integers(-2, 10), "seed": st.sampled_from([-1, 0, 2 ** 64 - 1, 2 ** 64]),
    "lambda1": _REAL, "lambda2": _REAL, "schedule_c": _REAL,
    "methods": st.lists(st.sampled_from(["SPEG-s", "SPEG-g", "S-SPEG", "H-SPEG", "GD", "Adam",
                                         "BFGS"]), max_size=3) | st.text(max_size=4),
}
_DROP = object()


@st.composite
def _fuzzed_configs(draw):
    raw = {**BASE_CONFIG, "max_iters": 5}
    names = st.sampled_from(sorted(_FIELD_VALUES) + ["extra"])
    for name in draw(st.lists(names, max_size=2, unique=True)):
        value = draw(st.just(_DROP) | _FIELD_VALUES.get(name, _ANY_BAD) | _ANY_BAD)
        if value is _DROP:
            raw.pop(name, None)
        else:
            raw[name] = value
    return raw if draw(st.integers(0, 7)) else draw(st.sampled_from([[raw], 5, "cfg"]))


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_fuzzed_configs())
    def test_config_error_or_complete_bundle(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            cfg.write_text(json.dumps(raw))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(cfg), "--out", str(out)])
            if code == 1:
                _assert_one_line(err.getvalue(), "config error: ")
                assert not out.exists()
                return
            assert code in (0, 2)
            for name in ("stats.json", "runmeta.json"):
                json.loads((out / name).read_text(), parse_constant=_reject_constant)
            with open(out / "trajectories.csv", newline="") as fh:
                assert next(csv.reader(fh)) == ["method", "trial", "iter", "f_current",
                                                "f_best", "grad_norm"]


# Argument fuzzing: --seed and --trials are left out or set, the lambda lists of
# sweep are set; each value set is valid or (one time in six) a malformed
# number, an out-of-range value or an option-like token; SPECOPT_THREADS is
# unset, valid or invalid; --out is a fresh path, a fresh path two directories
# deep, an existing empty directory, an existing file or a path under a file.
# At most 5 trials, so no run forks more than two workers.
_BAD_NUMBER = st.sampled_from(["", "abc", "1.5", "-x", "1e3", "0x10"])
_GOOD_LAMBDA = st.sampled_from(["0", "0.1", "1", " 2 ", "0.1000001", "1e-300"])
_BAD_LAMBDA = st.sampled_from(["-1", "nan", "inf", "1e400", "x", "-0.1"])
_OPTIONS = {
    "--seed": (st.integers(0, 2 ** 64 - 1).map(str), _BAD_NUMBER | st.sampled_from(["-1", str(2 ** 64)])),
    "--trials": (st.integers(1, 5).map(str), _BAD_NUMBER | st.sampled_from(["0", "-2"])),
    "--l1": (st.lists(_GOOD_LAMBDA, min_size=1, max_size=2).map(",".join),
             st.lists(_GOOD_LAMBDA | _BAD_LAMBDA, max_size=2).map(",".join)),
}
_OPTIONS["--l2"] = _OPTIONS["--l1"]


@st.composite
def _fuzzed_arguments(draw):
    command = draw(st.sampled_from(["run", "sweep"]))
    names = ["--seed", "--trials"]
    if command == "sweep" or draw(st.integers(0, 7)) == 0:  # run rejects the lambda lists
        names += ["--l1", "--l2"]
    args = []
    for option in names:
        if option.startswith("--l") or draw(st.integers(0, 3)):
            good, bad = _OPTIONS[option]
            value = draw(bad if draw(st.integers(0, 5)) == 0 else good)
            args += [option, value] if draw(st.booleans()) else [f"{option}={value}"]
    threads = draw(st.sampled_from([None, None, "1", "2", "0", "abc"]))
    out = draw(st.sampled_from(["fresh", "nested", "empty-dir", "file", "under-file"]))
    return command, args, threads, out


_OUT_PATHS = {"fresh": "out", "nested": "new/deeper/out", "empty-dir": "out", "file": "out",
              "under-file": "out/sub"}


def _make_out(tmp, kind):
    """Prepare the --out of one fuzzed command in tmp and return it."""
    if kind == "empty-dir":
        (tmp / "out").mkdir()
    elif kind in ("file", "under-file"):
        (tmp / "out").write_text("")
    return tmp / _OUT_PATHS[kind]


def _assert_complete_bundle(out):
    for name in ("stats.json", "runmeta.json"):
        json.loads((out / name).read_text(), parse_constant=_reject_constant)
    with open(out / "trajectories.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["method", "trial", "iter", "f_current", "f_best", "grad_norm"]


class TestArgumentFuzz:
    @settings(max_examples=100, deadline=None)
    @given(_fuzzed_arguments())
    def test_error_line_or_complete_output(self, drawn):
        command, args, threads, out_kind = drawn
        with tempfile.TemporaryDirectory() as tmp:
            out = _make_out(Path(tmp), out_kind)
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({**BASE_CONFIG, "max_iters": 5}))
            before = _tree(Path(tmp))
            saved = os.environ.pop("SPECOPT_THREADS", None)
            if threads is not None:
                os.environ["SPECOPT_THREADS"] = threads
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(cfg), "--out", str(out), *args])
            finally:
                os.environ.pop("SPECOPT_THREADS", None)
                if saved is not None:
                    os.environ["SPECOPT_THREADS"] = saved
            if code == 1:
                lines = err.getvalue().strip().splitlines()
                assert len(lines) == 1 and lines[0].startswith(("config error: ", "error: ")), lines
                assert _tree(Path(tmp)) == before  # no output directory or file was left
                return
            assert code in (0, 2) and out_kind not in ("file", "under-file")
            if command == "run":
                _assert_complete_bundle(out)
                return
            cells = json.loads((out / "index.json").read_text(), parse_constant=_reject_constant)
            assert cells and code == max(cell["exit_code"] for cell in cells)
            for cell in cells:
                _assert_complete_bundle(out / cell["dir"])


class TestSpecgradCommand:
    def test_abs2d_at_origin(self, capsys):
        assert main(["specgrad", "abs2d", "0,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gradient"] == [0.0, 0.0]
        assert doc["one_sided"] == [{"plus": 1.0, "minus": -1.0}, {"plus": 1.0, "minus": -1.0}]

    def test_abs2d_off_origin(self, capsys):
        assert main(["specgrad", "abs2d", "1,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gradient"] == [1.0, 0.0]

    def test_maxaffine_kink_value(self, capsys):
        assert main(["specgrad", "maxaffine", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gradient"][0] == pytest.approx(1.3874258867, abs=1e-9)

    def test_unknown_function(self):
        assert main(["specgrad", "nope", "0"]) == 1

    def test_dimension_mismatch(self):
        assert main(["specgrad", "abs2d", "1,2,3"]) == 1

    @pytest.mark.parametrize("function,point", [("maxaffine", "nan"), ("abs2d", "1,inf"),
                                                ("abs2d", "0,-inf"), ("quad", "inf")])
    def test_non_finite_point_rejected(self, capsys, function, point):
        assert main(["specgrad", function, point]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("point", ["1e12", "1e200"])
    def test_point_without_a_gradient_rejected(self, capsys, point):
        # the slope 2 x of quad reaches INFINITY_THRESHOLD on both sides, so specular_gradient raises
        assert main(["specgrad", "quad", point]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_one_line(captured.err, "error: one-sided derivatives are both +inf")


class TestCheckCommand:
    def test_fast_level_passes(self, capsys):
        assert main(["check", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7 and "[FAIL]" not in out

    @pytest.mark.parametrize("suite,owner,attr,corrupt", [
        (checks.scalar_identities, checks, "afun", lambda f: lambda a, b: f(a, b) + 1e-6),
        (checks.subgradient_inequality, checks, "specular_with_norm",
         lambda f: lambda plus, minus: (lambda g, norm: (g + 10.0, norm))(*f(plus, minus))),
        (checks.ordering_lemma, checks, "specular_from_one_sided",
         lambda f: lambda pair, vnorm: f(pair, vnorm) + 1e-6),
        (checks.estimator_consistency, checks, "fd_specular_directional",
         lambda f: lambda *a: replace(f(*a), value=f(*a).value + 1e-4)),
        (checks.quasi_mvt, specopt.specular, "_assemble",
         lambda f: lambda right, left: np.zeros_like(f(right, left))),
    ], ids=["scalar", "subgradient", "ordering", "estimator", "quasi-mvt"])
    def test_corruption_fails_the_gate_suites(self, monkeypatch, suite, owner, attr, corrupt):
        # mutation check for the suites behind acceptance criteria 1-4 and 10
        assert suite(100, np.random.default_rng(0)).passed
        monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
        assert not suite(100, np.random.default_rng(0)).passed

    def test_corrupted_kernel_fails_ordering_suite(self, capsys, monkeypatch):
        # mutation check: negating the assembled derivative must trip the suites
        original = specopt.specular.afun
        monkeypatch.setattr(specopt.specular, "afun", lambda a, b: -original(a, b))
        assert main(["check", "--level", "fast"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] ordering-lemma" in out
