"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

1. Installs the tracer in this process and removes it again: afterwards every
   attribute of every specopt module and class must be the very object it was
   before.
2. Runs reduced table2 and table3 configs and the fast invariant suites in
   fresh interpreters, once untraced and once traced: stats.json and
   trajectories.csv must be byte-identical and the suite results equal, the
   bundles must pass the independent check, the traced interpreter must
   report every wrapped attribute restored, and it must report exactly the
   per-layer metrics that BENCHMARK.json lists.

Exits with 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import inspect
import json
import shutil
import sys

import run
import tracing

SMALL = {"trials": 2, "max_iters": 200}


def snapshot() -> dict:
    """Every attribute of every loaded specopt module and of the classes they define."""
    attrs = {}
    for name, module in sorted(sys.modules.items()):
        if name != "specopt" and not name.startswith("specopt."):
            continue
        for attr, value in vars(module).items():
            attrs[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cls_attr, cls_value in vars(value).items():
                    attrs[(name, attr, cls_attr)] = cls_value
    return attrs


def check_restore() -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    import specopt.checks  # noqa: F401  (loads every module the tracer wraps)
    import specopt.cli  # noqa: F401

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    during = snapshot()
    left = tracer.uninstall()
    after = snapshot()
    problems = [f"not restored: {name}" for name in left]
    wrapped = [key for key in before if during.get(key) is not before[key]]
    if not wrapped:
        problems.append("installing the tracer wrapped nothing")
    problems += [f"changed after uninstall: {key}" for key in before if after.get(key) is not before[key]]
    problems += [f"added and left: {key}" for key in after if key not in before]
    print(f"restore: {len(wrapped)} attributes wrapped and restored" if not problems else
          "restore: FAILED")
    return problems


def check_identical() -> list[str]:
    problems = []
    work = run.WORK / "selftest"
    for workload in ("table2", "table3"):
        cfg = run.workload_config(workload, 7, **SMALL)
        plain = run.repetition("run", cfg, work / f"{workload}-plain", 120, check=True)
        traced = run.repetition("run", cfg, work / f"{workload}-traced", 120, trace=True, check=True)
        for label, rep in (("untraced", plain), ("traced", traced)):
            if rep["process_code"] != 0 or rep["failed"] or rep.get("problems"):
                problems.append(f"{workload} {label}: {rep.get('problems') or 'run failed'}")
        if plain.get("digests") is None or plain.get("digests") != traced.get("digests"):
            problems.append(f"{workload}: traced outputs differ from untraced")
        if traced.get("not_restored") != []:
            problems.append(f"{workload}: traced child left {traced.get('not_restored')}")
        listed = {m["name"] for m in json.loads(run.BENCHMARK.read_text(encoding="utf-8"))["per_layer"]}
        if set(traced.get("layers", {})) | {"trace.overhead_s"} != listed:
            problems.append(f"{workload}: traced metrics differ from the per_layer list of BENCHMARK.json")
        print(f"{workload}: untraced {plain.get('digests')} traced {traced.get('digests')}")
    cfg = {"seed": 7}
    plain = run.repetition("check", cfg, work / "check-plain", 120, level="fast")
    traced = run.repetition("check", cfg, work / "check-traced", 120, trace=True, level="fast")
    if plain.get("suites") is None or plain.get("suites") != traced.get("suites"):
        problems.append("check: traced suite results differ from untraced")
    if traced.get("not_restored") != []:
        problems.append(f"check: traced child left {traced.get('not_restored')}")
    print(f"check: {len(plain.get('suites') or [])} suites, traced results equal: "
          f"{plain.get('suites') == traced.get('suites')}")
    shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    problems = check_restore() + check_identical()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else "selftest failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
