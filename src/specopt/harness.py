"""Seeded multi-trial experiment runner and statistics aggregation.

Randomness comes from counter-based Philox streams keyed through numpy's
SeedSequence: stream (seed, trial, 0) samples the problem instance and
starting point, stream (seed, trial, 1 + i) drives the draws of the method
with canonical index i.  Normal variates use the generator's ziggurat
sampler.  Every method within a trial consumes the identical instance and
starting point, so comparisons are paired.  Trials are independent, so
``fork_map``, a parallel map, deals them out to this process and to forked
children, and the results do not depend on how many processes ran them.
The first failure, here or in a child, ends the map: the children not yet
reaped are killed and reaped.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

import numpy as np

from .objectives import ElasticNetProblem
from .optimizers import (
    DEFAULT_ETA,
    RunRecord,
    StepSchedule,
    adam_run,
    gd_run,
    hspeg_run,
    speg_run,
    sspeg_run,
)

METHOD_NAMES = ("SPEG-s", "SPEG-g", "S-SPEG", "H-SPEG", "GD", "Adam")

GD_STEP = 1e-3
ADAM_LR = 1e-2
GEOMETRIC_RATIO = 0.5

# integer field -> (least, bits), its range [least, 2**bits): a count fits int64, as len() needs
_INT_FIELDS = dict(m=(1, 63), n=(1, 63), trials=(1, 63), max_iters=(1, 63), switch_k=(0, 63), seed=(0, 64))
_REAL_FIELDS = ("lambda1", "lambda2", "schedule_c")
# the most entries of a float64 array numpy can address, 8 bytes each; a larger m x n A is refused
_MAX_MATRIX_ENTRIES = np.iinfo(np.intp).max // 8


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    m: int
    n: int
    lambda1: float
    lambda2: float
    methods: tuple[str, ...]
    seed: int
    trials: int = 20
    max_iters: int = 100
    switch_k: int = 10
    schedule_c: float = 4.0

    def __post_init__(self) -> None:
        for name, (least, bits) in _INT_FIELDS.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if not least <= value < 2 ** bits:
                raise ConfigError(f"{name} must lie in [{least}, 2**{bits}), got {value}")
        if self.m * self.n > _MAX_MATRIX_ENTRIES:
            raise ConfigError(f"m * n must be at most {_MAX_MATRIX_ENTRIES} (the largest float64 matrix "
                              f"numpy can address), got {self.m * self.n}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not abs(value) <= sys.float_info.max):  # NaN fails; so does an int past any float
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if (not isinstance(self.methods, (list, tuple))
                or not all(isinstance(name, str) for name in self.methods)):
            raise ConfigError(f"methods must be a list of names, got {self.methods!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ConfigError("lambda1 and lambda2 must be nonnegative")
        if not self.schedule_c > 0.0:
            raise ConfigError("schedule_c must be positive")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for name in self.methods:
            if name not in METHOD_NAMES:
                raise ConfigError(f"unknown method {name!r}; valid: {', '.join(METHOD_NAMES)}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate method names")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(sorted(map(str, unknown)))}")
        missing = _REQUIRED_FIELDS - set(raw)
        if missing:
            raise ConfigError(f"missing config fields: {', '.join(sorted(missing))}")
        try:
            return cls(**raw)
        except TypeError as err:
            raise ConfigError(str(err)) from err

    def as_dict(self) -> dict:
        return {**asdict(self), "methods": list(self.methods)}


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}
_REQUIRED_FIELDS = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}


def substream(seed: int, trial: int, role: int) -> np.random.Generator:
    """Philox generator for the (trial, role) substream of a master seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial), int(role)))
    return np.random.Generator(np.random.Philox(ss))


def sample_instance(m: int, n: int, rng: np.random.Generator):
    """Draw one problem instance: A (row-major m x n), then b, then x0, all N(0, 1)."""
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    x0 = rng.standard_normal(n)
    return A, b, x0


def aggregate_stats(finals) -> tuple[float, float, float]:
    """(mean, median, sample standard deviation) of the final objective values.

    Median uses the midpoint convention for even counts; the deviation uses
    the n-1 divisor and is defined as zero for a single value.
    """
    finals = np.asarray(list(finals), dtype=float)
    if finals.size == 0:
        raise ValueError("cannot aggregate an empty sample")
    stddev = float(np.std(finals, ddof=1)) if finals.size > 1 else 0.0
    return float(np.mean(finals)), float(_median(finals)), stddev


def _median(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)``, bit for bit, without the import of numpy.ma (about 9 ms)
    that np.median's NaN check makes on its first call in a process.

    It takes np.median's own steps: one partition with the same kth list,
    the mean of the middle one or two entries, and NaN wherever the
    partition's last entry is NaN.
    """
    count = len(values)
    middle = [count // 2] if count % 2 else [count // 2 - 1, count // 2]
    part = np.partition(values, middle + [-1], axis=0)
    last = part[-1]
    return np.where(np.isnan(last), last, np.mean(part[middle[0]: middle[-1] + 1], axis=0))


def run_method(method: str, problem: ElasticNetProblem, x0, cfg: ExperimentConfig,
               rng: np.random.Generator) -> RunRecord:
    """Run one configured method on one instance."""
    diminishing = StepSchedule.normalized_diminishing(cfg.schedule_c)
    if method == "SPEG-s":
        return speg_run(problem, x0, diminishing, cfg.max_iters, DEFAULT_ETA)
    if method == "SPEG-g":
        return speg_run(problem, x0, StepSchedule.geometric(GEOMETRIC_RATIO), cfg.max_iters, DEFAULT_ETA)
    if method == "S-SPEG":
        return sspeg_run(problem, x0, diminishing, cfg.max_iters, DEFAULT_ETA, rng)
    if method == "H-SPEG":
        return hspeg_run(problem, x0, diminishing, cfg.switch_k, cfg.max_iters, DEFAULT_ETA, rng)
    if method == "GD":
        return gd_run(problem, x0, GD_STEP, cfg.max_iters)
    if method == "Adam":
        return adam_run(problem, x0, ADAM_LR, cfg.max_iters)
    raise ConfigError(f"unknown method {method!r}")


@dataclass
class MethodStats:
    """Aggregated results of one method over the successful trials (None without any)."""

    mean: float | None
    median: float | None
    stddev: float | None
    count: int
    failed: int
    finals: list[float]
    trajectory: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class TrialStats:
    per_method: dict[str, MethodStats]
    workers: int = 1  # processes the trials ran in; 1 when serial


def _run_trial(cfg: ExperimentConfig, trial: int) -> dict[str, RunRecord]:
    """One trial's records, by method."""
    A, b, x0 = sample_instance(cfg.m, cfg.n, substream(cfg.seed, trial, 0))
    problem = ElasticNetProblem(A, b, cfg.lambda1, cfg.lambda2)
    out: dict[str, RunRecord] = {}
    for method in cfg.methods:
        rng = substream(cfg.seed, trial, 1 + METHOD_NAMES.index(method))
        out[method] = run_method(method, problem, x0, cfg, rng)
    return out


def _aggregate(cfg: ExperimentConfig, records: dict[str, list[RunRecord]]) -> dict[str, MethodStats]:
    per_method: dict[str, MethodStats] = {}
    for method in cfg.methods:
        runs = records[method]
        ok = [r for r in runs if r.status != "numerical_failure"]
        failed = len(runs) - len(ok)
        if ok:
            mean, median, stddev = aggregate_stats([r.final_f_best for r in ok])
            finals = [r.final_f_best for r in ok]
            width = max(len(r) for r in ok)
            series = np.empty((len(ok), width))
            for i, r in enumerate(ok):
                series[i, : len(r)] = r.f_best
                series[i, len(r):] = r.f_best[-1]  # stopped runs hold their best value
            traj = {
                "mean": np.mean(series, axis=0).tolist(),
                "median": _median(series).tolist(),
                "stddev": (np.std(series, axis=0, ddof=1) if len(ok) > 1
                           else np.zeros(width)).tolist(),
            }
        else:
            mean = median = stddev = None
            finals = []
            traj = {"mean": [], "median": [], "stddev": []}
        per_method[method] = MethodStats(mean, median, stddev, len(ok), failed, finals, traj)
    return per_method


def default_threads() -> int:
    env = os.environ.get("SPECOPT_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise ConfigError(f"SPECOPT_THREADS must be an integer, got {env!r}") from None
        if threads < 1:
            raise ConfigError("SPECOPT_THREADS must be at least 1")
        return threads
    return os.cpu_count() or 1


def fork_map(fn, items):
    """``[fn(item) for item in items]`` across forked processes and this one.

    Returns (the results in item order, the number of processes that ran
    them).  At most min(``SPECOPT_THREADS`` or the CPU count, CPU count,
    items) processes run at once, this one included; where ``os.fork`` is
    unavailable, or there are no items, that number is 1.  The items, a
    sequence, are dealt round-robin into shares.  This process runs share
    0; every other share runs in a child made by ``os.fork``, which sends
    its results back as one pickle down its own pipe.  Only after its own
    share does this process take the children in order, reading each pipe
    to its end and reaping the child.  A child's exception is raised here,
    and so is a child that exits without its results.  At the first
    failure, here or in a child, the children not yet reaped are killed
    and reaped before the error is raised.  Only results travel by pickle,
    so ``fn`` may be a closure.
    """
    processes = min(default_threads(), os.cpu_count() or 1, len(items))
    if processes < 1 or not hasattr(os, "fork"):
        processes = 1  # every item runs in this process, in order
    done = [None] * len(items)
    children = []  # (pid, the pipe it sends its results down) of each child not yet reaped
    try:
        for share in range(1, processes):
            children.append(_fork_share(fn, items[share::processes]))
        done[::processes] = [fn(item) for item in items[::processes]]
        for share in range(1, processes):
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status != 0 or not payload:
                raise ChildProcessError(f"child process {pid} exited with status "
                                        f"{os.waitstatus_to_exitcode(status)} before sending its results")
            ok, value = pickle.loads(payload)  # bytes this program's own child wrote
            if not ok:
                raise value
            done[share::processes] = value
    except BaseException:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    return done, processes


def _fork_share(fn, share):
    """Fork a child that sends ``(True, [fn(item) for item in share])``, or ``(False, exception)``,
    as one pickle down a new pipe; return (its pid, the pipe's read end as a file)."""
    sys.stdout.flush()  # else the child would write this process's buffered output again
    sys.stderr.flush()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:  # the child: whatever happens, it never returns into the caller's code
        os.close(read)
        try:
            payload = pickle.dumps((True, [fn(item) for item in share]), pickle.HIGHEST_PROTOCOL)
        except BaseException as err:  # sent to the caller, which raises it
            try:
                payload = pickle.dumps((False, err), pickle.HIGHEST_PROTOCOL)
            except Exception:  # an exception that does not pickle goes as its text
                payload = pickle.dumps((False, RuntimeError(f"{type(err).__name__}: {err}")))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    finally:
        os._exit(status)


def run_trials(cfg: ExperimentConfig):
    """Execute every configured method over all trials.

    Returns (TrialStats, records) where records maps method name to the list
    of RunRecords in trial order.  Failed cells (numerical_failure) stay in
    the records but are excluded from the aggregates.

    Trials run through ``fork_map``, which runs a share of them in this
    process and the rest in forked children, as many processes as
    ``SPECOPT_THREADS``, the CPU count and the number of trials allow.  The
    records are the same bits wherever they ran.
    """
    done, processes = fork_map(partial(_run_trial, cfg), range(cfg.trials))
    records = {method: [per_trial[method] for per_trial in done] for method in cfg.methods}
    return TrialStats(_aggregate(cfg, records), processes), records
