"""The benchmark tracer finds every specopt name it patches.

``perfbench/tracing.py`` looks each patch point up as ``owner.__dict__[attr]``,
so renaming or deleting one of those names would otherwise only show up as a
crash in a traced benchmark run.
"""

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
