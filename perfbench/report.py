"""Every metric of every workload in one report.

    python3 perfbench/report.py --seed 1

Runs perfbench/run.py for each workload untraced and traced, then prints
every end-to-end metric with its unit and the failure ratio, every per-layer
metric with the tracing overhead, and the per-method microseconds per
iteration as the Markdown table of the ROADMAP baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    reports = {}
    for workload in workloads:
        for trace in (0, 1):
            subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                           cwd=run.ROOT, capture_output=True, text=True, timeout=200, check=True)
            path = run.WORK / f"{workload}-seed{args.seed}-trace{trace}.json"
            reports[workload, trace] = json.loads(path.read_text(encoding="utf-8"))

    env = reports[workloads[0], 0]["env"]
    print(f"seed {args.seed}, {seconds} s per run; " + json.dumps(env, sort_keys=True))
    all_ok = True
    print("\n| Metric | Unit | " + " | ".join(workloads) + " |")
    print("| --- | --- |" + " --- |" * len(workloads))
    rows = [(m["name"], m["unit"]) for m in bench["end_to_end"]] + [("fail_ratio", "ratio")]
    for name, unit in rows:
        cells = []
        for workload in workloads:
            result = reports[workload, 0]["result"]
            all_ok &= result["correct"] and result["failed"] == 0
            if name == "fail_ratio":
                cells.append(f"{result['failed'] / result['attempted']:.6g}")
            else:
                cells.append(f"{result['metrics'][name]['value']:.6g}" if name in result["metrics"] else "-")
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")

    print("\n| Per-layer metric (traced run) | Unit | " + " | ".join(workloads) + " |")
    print("| --- | --- |" + " --- |" * len(workloads))
    for metric in bench["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        cells = []
        for workload in workloads:
            result = reports[workload, 1]["result"]
            all_ok &= result["correct"] and result["failed"] == 0
            value = result["metrics"].get(name)
            cells.append(f"{value['value']:.6g}" if value else "-")
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")

    print("\n| Regime | Method | us/iter |")
    print("| --- | --- | --- |")
    for workload in workloads:
        metrics = reports[workload, 1]["result"]["metrics"]
        for method in tracing.METHODS:
            value = metrics.get(f"optimizers.{method}.us_per_iter", {}).get("value", 0.0)
            if value:
                print(f"| {workload} | {method} | {value:.1f} |")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
