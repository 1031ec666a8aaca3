"""The benchmark tracer finds every specopt name it patches.

``perfbench/tracing.py`` looks each patch point up as ``owner.__dict__[attr]``,
so renaming or deleting one of those names would otherwise only show up as a
crash in a traced benchmark run.
"""

import json
from pathlib import Path

import specopt.checks  # noqa: F401  (the tracer wraps names in every module)
import specopt.cli  # noqa: F401
from specopt import objectives, specular

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = {"afun_array": specular.afun_array,
                 "value": objectives.ElasticNetProblem.__dict__["value"]}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert specular.afun_array is not originals["afun_array"]
        assert objectives.ElasticNetProblem.__dict__["value"] is not originals["value"]
    finally:
        left = tracer.uninstall()
    assert left == []
    assert specular.afun_array is originals["afun_array"]
    assert objectives.ElasticNetProblem.__dict__["value"] is originals["value"]


def test_bundle_span_counts_a_real_run(tmp_path, monkeypatch):
    # serial, so the trial cells run in this process, under the tracer's wrappers
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("SPECOPT_THREADS", "1")
    import tracing

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 4, "n": 3, "lambda1": 0.1, "lambda2": 1.0, "trials": 2,
                               "max_iters": 10, "switch_k": 4, "methods": list(tracing.METHODS),
                               "seed": 5}))
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert specopt.cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    finally:
        assert tracer.uninstall() == []
    [span] = [s for s in tracer.spans if s["name"] == "cli.write_bundle"]
    csv_rows = len((out / "trajectories.csv").read_text().splitlines()) - 1
    assert span["rows"] == csv_rows == 6 * 2 * 11
    assert span["bytes"] == sum(p.stat().st_size for p in out.iterdir()) > 0
    assert sorted(p.name for p in out.iterdir()) == ["runmeta.json", "stats.json", "trajectories.csv"]
    metrics = tracer.metrics()
    assert metrics["optimizers.iters"] == csv_rows
    for method in tracing.METHODS:
        assert metrics[f"optimizers.{method}.us_per_iter"] > 0, method
    assert metrics["cli.bundle_bytes"] == span["bytes"]


def test_serial_suites_are_spanned(monkeypatch):
    # serial, so the sampling suites run in this process, under the tracer's wrappers
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("SPECOPT_THREADS", "1")
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        results = specopt.checks.run_suites("fast")
    finally:
        assert tracer.uninstall() == []
    assert all(r.passed for r in results)
    spans = [s["name"] for s in tracer.spans if s["name"].startswith("checks.")]
    assert sorted(spans) == sorted(f"checks.{suite}" for suite in tracing.SUITES)
    assert len(tracing.SUITES) == len(specopt.checks.SUITES) == 7
