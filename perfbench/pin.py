"""Pin the output digests of the run workloads.

    python3 perfbench/pin.py --seeds 0-63

For each run workload and seed, runs the workload once, checks its bundle
independently (``run.check_bundle``) and records the sha256 of stats.json and
trajectories.csv in perfbench/pins.json, together with the workload config
and this machine's fingerprint (CPU model, OpenBLAS kernel, numpy, Python).
run.py compares against a pin only on a machine with the same fingerprint,
because OpenBLAS picks its kernel by CPU and another kernel may round
differently.  Seeds already pinned under the same fingerprint and config are
kept; a different fingerprint or config starts the file afresh.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from stability import parse_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-63", help="seed list such as 0-63 or 3,5,8")
    args = parser.parse_args(argv)
    fingerprint = run.fingerprint()
    try:
        pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pins = {}
    if pins.get("fingerprint") != fingerprint:
        pins = {"fingerprint": fingerprint, "workloads": {}}
    work = run.WORK / "pin"
    for workload, spec in run.WORKLOADS.items():
        if spec["kind"] != "run":
            continue
        entry = pins["workloads"].get(workload)
        if entry is None or entry["config"] != spec["config"]:
            entry = pins["workloads"][workload] = {"config": spec["config"], "seeds": {}}
        for seed in parse_seeds(args.seeds):
            cfg = run.workload_config(workload, seed)
            rep = run.repetition("run", cfg, work / f"{workload}-{seed}", run.RUN_LIMIT_S, check=True)
            if rep["process_code"] != 0 or rep["failed"] or rep.get("problems"):
                print(f"{workload} seed {seed}: not pinned, {rep.get('problems') or 'run failed'}",
                      file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = rep["digests"]
            print(f"{workload} seed {seed}: {rep['digests']['stats.json'][:16]}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
