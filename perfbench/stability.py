"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/stability.py --workload table3 --seeds 1-10

Runs perfbench/run.py once per seed (untraced, ``run_seconds`` from
BENCHMARK.json unless --seconds is given) and prints, for each end-to-end
metric, the median of the per-run values and the distance between their
first and third quartiles as a share of that median, next to the metric's
bound.  A spread below a third of the bound is marked steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="seed list such as 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    all_correct = True
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=200)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = "steady" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{args.workload} {metric['name']:<14} median {med:.6g} {metric['unit']}  spread {spread:.4f}"
              f"  bound {metric['bound']}  {verdict}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
