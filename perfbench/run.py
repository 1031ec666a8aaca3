"""Seeded end-to-end and per-layer benchmark of specopt.

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/specopt``.  Each repetition
launches a fresh interpreter (perfbench/child.py) that imports the checkout's
``specopt`` and drives it through a public entry point only:

* ``table2``: ``specopt run`` on the Table 2 regime (m=50, n=100, lambda1=0.01,
  lambda2=1; SPEG-s, SPEG-g, GD).  Full-gradient loop on a 40 KB matrix, so
  interpreter and numpy call overhead in the optimizer, specular and scalar
  layers dominate; the stochastic component path never runs.
* ``table3``: ``specopt run`` on the Table 3 regime (m=500, n=100,
  lambda1=100, lambda2=1; SPEG-s, S-SPEG, H-SPEG, GD, Adam).  The full
  objective value at m=500 takes the largest oracle share, a component
  objective is built on every stochastic iteration, and the bundle is largest.
* ``check_full``: ``checks.run_suites("full", seed)``.  About 400k SPEG
  iterations on small diagonal lassos plus the scalar and finite-difference
  loops; it bypasses the elastic-net data oracle at scale, the trial pool and
  bundle writing.

The seed given here is the only source of the inputs: it becomes the config's
``seed`` (run workloads) or the suites' seed (check_full).  Both run workloads
use 4 trials, at least the 2 CPUs of the machine the sizes were chosen on, so
every worker of the trial pool has work.

With ``--trace 0`` the run first times set-up probes (interpreter start,
``import specopt`` and config validation, up to the first trial or suite),
then repeats the whole workload until ``--seconds`` would be exceeded, and
reports medians over the repetitions.  With ``--trace 1`` it runs the
workload once untraced and once with the per-layer tracer of
perfbench/tracing.py, and reports the per-layer metrics and the tracing
overhead.  Every repetition's outputs are checked: for run workloads the
sha256 of stats.json and trajectories.csv must equal the digests pinned in
perfbench/pins.json for that seed on a machine with the same fingerprint;
seeds or machines without a pin are checked against an independent
recomputation instead (see ``check_bundle``).  For check_full every suite must
pass.  The last line of standard output is the JSON result; the full report,
with the environment, goes to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
PINS = BENCH_DIR / "pins.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # names and units of every metric

WORKLOADS = {
    "table2": {"kind": "run", "config": {
        "m": 50, "n": 100, "lambda1": 0.01, "lambda2": 1.0,
        "methods": ["SPEG-s", "SPEG-g", "GD"], "trials": 4, "max_iters": 2500}},
    "table3": {"kind": "run", "config": {
        "m": 500, "n": 100, "lambda1": 100.0, "lambda2": 1.0,
        "methods": ["SPEG-s", "S-SPEG", "H-SPEG", "GD", "Adam"], "trials": 4, "max_iters": 1500}},
    "check_full": {"kind": "check"},
}
SUITE_COUNT = 7
PROBES = 9
RUN_LIMIT_S = 170.0  # the whole run must end well within 180 s

CSV_HEADER = "method,trial,iter,f_current,f_best,grad_norm"


# ---------------------------------------------------------------- environment

def openblas_config() -> str:
    """Configuration string of the OpenBLAS numpy loaded, including the kernel it picked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                       "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return str(blas.get("openblas configuration", blas.get("name", "unknown")))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state() -> tuple[str | None, bool | None]:
    """(revision, dirty) of the checkout, or (None, None) when it is not the top of a git work tree."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = rev.stdout.split()
        if rev.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return lines[1], bool(status.stdout.strip())


def fingerprint() -> dict:
    """What decides the bits of the outputs besides the code: CPU, BLAS kernel, numpy, Python."""
    return {
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "openblas": openblas_config(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def environment() -> dict:
    revision, dirty = git_state()
    threads = os.environ.get("SPECOPT_THREADS") or str(os.cpu_count() or 1)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "trial_threads": threads,
        **fingerprint(),
        "git_revision": revision,
        "git_dirty": dirty,
    }


# ------------------------------------------------------------------ repetitions

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(spec: dict, rep_dir: Path, timeout: float) -> dict:
    """Run child.py on one spec; return its result with the wall times seen from here."""
    spec = dict(spec, result=str(rep_dir / "result.json"), spans=str(rep_dir / "spans.json"))
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as err:  # subprocess.run has killed and reaped it
        code, stderr = None, f"timed out after {err.timeout:.0f} s"
    t1 = time.monotonic()
    out = {"wall": t1 - t0, "process_code": code, "dir": rep_dir}
    result_path = Path(spec["result"])
    if code == 0 and result_path.exists():
        out.update(json.loads(result_path.read_text(encoding="utf-8")))
        out["setup"] = out["setup_end"] - t0
        src = (ROOT / "src" / "specopt").resolve()
        if Path(out["specopt_file"]).resolve().parent != src:
            out["process_code"] = None
            stderr = f"imported specopt from {out['specopt_file']}, not {src}"
    if out["process_code"] != 0:
        tail = "\n".join((stderr or "").strip().splitlines()[-5:])
        print(f"repetition in {rep_dir.name} failed: {tail}", file=sys.stderr)
    return out


def digests(out_dir: Path) -> dict | None:
    try:
        return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in ("stats.json", "trajectories.csv")}
    except OSError:
        return None


# --------------------------------------------------------------- verification

def reference_start_value(cfg: dict, trial: int) -> float:
    """f(x0) of one trial, drawn as the README documents it, independently of specopt."""
    ss = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(trial, 0))
    rng = np.random.Generator(np.random.Philox(ss))
    A = rng.standard_normal((cfg["m"], cfg["n"]))
    b = rng.standard_normal(cfg["m"])
    x0 = rng.standard_normal(cfg["n"])
    r = A @ x0 - b
    return float(0.5 * (r @ r) / cfg["m"] + 0.5 * cfg["lambda2"] * (x0 @ x0)
                 + cfg["lambda1"] * np.abs(x0).sum())


def check_bundle(out_dir: Path, cfg: dict) -> list[str]:
    """Independent check of a run bundle; returns the problems found (empty when correct).

    Checks the CSV layout and sort order, that f_best is the running minimum of
    f_current, that each trajectory starts at f(x0) of an independently drawn
    instance and improves on it, the row counts the statuses imply, and that
    stats.json aggregates exactly the trajectories in the CSV.
    """
    problems: list[str] = []
    try:
        meta = json.loads((out_dir / "runmeta.json").read_text(encoding="utf-8"))
        stats = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
        with open(out_dir / "trajectories.csv", encoding="utf-8") as csv:
            header = csv.readline().rstrip("\n")
            rows = [line.rstrip("\n").split(",") for line in csv]
    except (OSError, ValueError) as err:
        return [f"unreadable bundle: {err}"]
    methods, trials = sorted(cfg["methods"]), cfg["trials"]
    statuses = meta.get("statuses", {})
    if header != CSV_HEADER:
        problems.append(f"CSV header {header!r}")
    if sorted(statuses) != methods or any(len(statuses[m]) != trials for m in methods):
        return problems + ["runmeta statuses do not cover every cell"]
    groups: dict[tuple[str, int], list[list[str]]] = {}
    for row in rows:
        groups.setdefault((row[0], int(row[1])), []).append(row)
    if list(groups) != [(m, t) for m in methods for t in range(trials)]:
        return problems + ["CSV cells missing or out of order"]
    last_best: dict[tuple[str, int], list[float]] = {}
    for (method, trial), group in groups.items():
        status = statuses[method][trial]
        if [int(r[2]) for r in group] != list(range(len(group))):
            problems.append(f"{method}/{trial}: iterations not 0..k")
        f_cur = [float(r[3]) for r in group]
        f_best = [float(r[4]) for r in group]
        running = math.inf
        for cur, best in zip(f_cur, f_best):
            running = min(running, cur)
            if best != running:
                problems.append(f"{method}/{trial}: f_best is not the running minimum")
                break
        if status == "max_iters" and len(group) != cfg["max_iters"] + 1:
            problems.append(f"{method}/{trial}: {len(group)} rows for status max_iters")
        if not math.isclose(f_cur[0], reference_start_value(cfg, trial), rel_tol=1e-9):
            problems.append(f"{method}/{trial}: f(x0) differs from the independent draw")
        if status != "numerical_failure" and not f_best[-1] < f_cur[0]:
            problems.append(f"{method}/{trial}: no progress from x0")
        last_best[(method, trial)] = f_best
    for method in methods:
        ok = [t for t in range(trials) if statuses[method][t] != "numerical_failure"]
        st = stats.get(method, {})
        finals = [last_best[(method, t)][-1] for t in ok]
        if st.get("finals") != finals or st.get("count") != len(ok) or st.get("failed") != trials - len(ok):
            problems.append(f"{method}: stats finals or counts differ from the CSV")
            continue
        if not ok:
            continue
        width = max(len(last_best[(method, t)]) for t in ok)
        series = np.array([last_best[(method, t)] + [last_best[(method, t)][-1]]
                           * (width - len(last_best[(method, t)])) for t in ok])
        stddev = np.std(series, axis=0, ddof=1) if len(ok) > 1 else np.zeros(width)
        expected = {"mean": np.mean(finals), "median": np.median(finals),
                    "stddev": np.std(finals, ddof=1) if len(ok) > 1 else 0.0}
        for key, value in expected.items():
            if not math.isclose(st[key], float(value), rel_tol=1e-12, abs_tol=1e-300):
                problems.append(f"{method}: stats {key} differs from the CSV")
        traj = st.get("trajectory", {})
        for key, value in (("mean", np.mean(series, axis=0)), ("median", np.median(series, axis=0)),
                           ("stddev", stddev)):
            if len(traj.get(key, [])) != width or not np.allclose(traj[key], value, rtol=1e-12, atol=0.0):
                problems.append(f"{method}: trajectory {key} differs from the CSV")
    return problems


def load_pin(workload: str, cfg: dict, seed: int) -> tuple[dict | None, str]:
    """Pinned digests for this workload and seed, with the reason when there are none."""
    try:
        pins = json.loads(PINS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None, "no pin file"
    entry = pins.get("workloads", {}).get(workload)
    if entry is None or entry.get("config") != {k: v for k, v in cfg.items() if k != "seed"}:
        return None, "config changed since pinning"
    if pins.get("fingerprint") != fingerprint():
        return None, "other machine fingerprint"
    pin = entry.get("seeds", {}).get(str(seed))
    return pin, "pinned" if pin else "seed not pinned"


# -------------------------------------------------------------------- metrics

def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def settle(rep: dict, kind: str, cfg: dict, check: bool) -> dict:
    """Record a finished repetition's cells, iterations and output digests, then drop its bundle.

    A crash or timeout counts every cell (or suite) of the repetition as failed;
    exit code 2 counts the cells whose runmeta.json status is numerical_failure.
    """
    ok = rep["process_code"] == 0
    if kind == "check":
        suites = rep.get("suites", []) if ok else []
        rep["attempted"] = SUITE_COUNT
        rep["failed"] = SUITE_COUNT - sum(1 for s in suites if s[1])
        return rep
    bundle = rep["dir"] / "bundle"
    rep["attempted"] = rep["failed"] = cfg["trials"] * len(cfg["methods"])
    if ok and rep.get("exit_code") in (0, 2):
        try:
            meta = json.loads((bundle / "runmeta.json").read_text(encoding="utf-8"))
            rep["failed"] = sum(status == "numerical_failure"
                                for runs in meta["statuses"].values() for status in runs)
            with open(bundle / "trajectories.csv", "rb") as csv:
                rep["iters"] = sum(1 for _ in csv) - 1
        except (OSError, ValueError, KeyError) as err:
            rep["problems"] = [f"unreadable bundle: {err}"]
        rep["digests"] = digests(bundle)
        if check:
            rep.setdefault("problems", []).extend(check_bundle(bundle, cfg))
    shutil.rmtree(bundle, ignore_errors=True)
    return rep


def workload_config(workload: str, seed: int, **overrides) -> dict:
    """The inputs of one workload: its config with the seed (check_full: the seed alone)."""
    return dict(WORKLOADS[workload].get("config", {}), seed=seed, **overrides)


def repetition(kind: str, cfg: dict, rep_dir: Path, timeout: float, probe: bool = False,
               trace: bool = False, check: bool = False, level: str = "full") -> dict:
    """Launch one repetition of a workload in rep_dir and settle it (probes are not settled)."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    config_path = rep_dir / "config.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    spec = {"kind": kind, "config": str(config_path), "out": str(rep_dir / "bundle"),
            "seed": cfg["seed"], "level": level, "probe": probe, "trace": trace}
    rep = launch(spec, rep_dir, timeout)
    return rep if probe else settle(rep, kind, cfg, check)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63 or args.seconds < 1:
        parser.error("--seed must be in [0, 2^63) and --seconds at least 1")
    if not (ROOT / "src" / "specopt" / "__init__.py").is_file():
        print(f"error: no specopt sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 1

    started = time.monotonic()
    kind = WORKLOADS[args.workload]["kind"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = workload_config(args.workload, args.seed)

    def run(name: str, probe: bool = False, trace: bool = False, check: bool = False) -> dict:
        return repetition(kind, cfg, run_dir / name, RUN_LIMIT_S - (time.monotonic() - started),
                          probe=probe, trace=trace, check=check)

    env = environment()
    run("warmup", probe=True)  # byte-compiles the sources and fills the page cache; not measured
    probes, reps, traced = [], [], None
    if args.trace:
        reps.append(run("rep0", check=True))
        traced = run("traced", trace=True)
    else:
        probes = [run(f"probe{i}", probe=True) for i in range(PROBES)]
        deadline = time.monotonic() + args.seconds
        while True:
            rep = run(f"rep{len(reps)}", check=not reps)
            reps.append(rep)
            now = time.monotonic()
            if (rep["process_code"] != 0 or now + rep["wall"] > deadline
                    or now - started + 2 * rep["wall"] > RUN_LIMIT_S):
                break

    notes: list[str] = []
    measured = reps + ([traced] if traced else [])
    if kind == "run":
        pin, pin_state = load_pin(args.workload, cfg, args.seed)
        notes.append(f"pin: {pin_state}")
        problems = reps[0].get("problems", ["first repetition failed"])
        notes += [f"independent check: {p}" for p in problems[:10]]
        reference = pin or (None if problems else reps[0]["digests"])
        for rep in measured:
            rep["match"] = reference is not None and rep.get("digests") == reference
    else:
        first = reps[0]
        for rep in measured:
            rep["match"] = (rep["failed"] == 0 and rep.get("iters") == first.get("iters")
                            and rep.get("suites") == first.get("suites"))
            if not rep["match"] and rep["failed"] == 0:
                notes.append(f"{rep['dir'].name}: suite results or SPEG iteration count differ from rep0")
    correct = all(rep["match"] for rep in measured)
    if traced is not None:
        if traced.get("not_restored") != []:
            notes.append(f"tracer left wrapped attributes: {traced.get('not_restored')}")
            correct = False
        if not traced["match"]:
            notes.append("traced outputs differ from the untraced run")
    attempted = sum(rep["attempted"] for rep in measured)
    failed = sum(rep["failed"] for rep in measured)

    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if traced is None:
        metrics, metric_lines = end_to_end(bench["end_to_end"], probes, reps)
    else:
        metrics, metric_lines = per_layer(bench["per_layer"], traced, reps[0], args.workload,
                                          cfg.get("methods", ["SPEG-s"]))
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "env": env, "config": cfg, "notes": notes, "result": result,
            "repetitions": [{k: v for k, v in r.items() if k not in ("dir", "layers")}
                            for r in probes + measured]}
    (WORK / f"{tag}.json").write_text(json.dumps(full, indent=1, default=str), encoding="utf-8")
    if traced is not None and (traced["dir"] / "spans.json").exists():
        shutil.copyfile(traced["dir"] / "spans.json", WORK / f"{tag}-spans.json")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{len(reps)} repetition(s), {len(probes)} set-up probe(s)")
    print("\n".join(notes + ["env " + json.dumps(env, sort_keys=True),
                             f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} "
                             f"{'suites' if kind == 'check' else 'cells'} failed)"] + metric_lines))
    print(json.dumps(result))
    return 0


def end_to_end(metrics: list[dict], probes: list[dict], reps: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the repetitions (set-up: over probes and repetitions), with their spread."""
    ok = [r for r in reps if r["process_code"] == 0]
    samples = {
        "wall_s": [r["wall"] for r in ok],
        "setup_s": [r["setup"] for r in probes + ok if r["process_code"] == 0],
        "iters_per_s": [r["iters"] / (r["work_end"] - r["setup_end"]) for r in ok if r.get("iters")],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in ok],
    }
    values, lines = {}, []
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        if name == "outputs_match":
            matched = sum(r["match"] for r in reps)
            value, spread = matched / len(reps), f"{matched} of {len(reps)}"
        else:
            value, spread = median(samples[name]), describe(samples[name])
        if not math.isnan(value):  # a metric without samples is left out; the run is not correct
            values[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<16} {value:.6g} {unit}  ({spread})")
    return values, lines


def per_layer(metrics: list[dict], traced: dict, untraced: dict, workload: str,
              methods: list[str]) -> tuple[dict, list[str]]:
    """The traced run's layer metrics, the tracing overhead and the per-method us/iter rows."""
    layers = dict(traced.get("layers", {})) if traced["process_code"] == 0 else {}
    lines = []
    if layers and untraced["process_code"] == 0:
        layers["trace.overhead_s"] = traced["wall"] - untraced["wall"]
        lines.append(f"traced wall {traced['wall']:.4f} s, untraced wall {untraced['wall']:.4f} s")
    values = {}
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        if name in layers:
            values[name] = {"value": layers[name], "unit": unit}
            lines.append(f"{name:<48} {layers[name]:.6g} {unit}")
    lines += ["| Regime | Method | us/iter |", "| --- | --- | --- |"]
    for method in methods:
        key = f"optimizers.{method}.us_per_iter"
        if key in layers:
            lines.append(f"| {workload} | {method} | {layers[key]:.1f} |")
    return values, lines


if __name__ == "__main__":
    sys.exit(main())
