"""Command-line interface.

    specopt run      --config cfg.json --out DIR [--seed N] [--trials N]
    specopt sweep    --config cfg.json --l1 0.1,1,10 --l2 0.1,1,10 --out DIR
    specopt check    --level fast|full
    specopt specgrad NAME x1,x2,...

``run`` writes an output bundle of three files: stats.json (per-method
aggregates, null where no trial succeeded, and trajectories),
trajectories.csv (one row per method, trial, and iteration, sorted by that
key), and runmeta.json (config echo, seed, versions, timing, trial worker
count).  Floats serialize with shortest round-trip decimals, so reruns with
the same seed produce byte-identical stats and trajectories.  ``write_bundle``
formats the CSV rows of each trial through ``fork_map``, and a bundle's files
are renamed into place only once all of them are written.
Exit codes: 0 success, 1 invalid input (arguments, config, SPECOPT_THREADS or
an output path) or a run that does not fit in memory (one line on stderr),
2 finished with failed cells.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .harness import ConfigError, ExperimentConfig, default_threads, fork_map, run_trials
from .objectives import catalog_1d_names, sum_abs, test_function_1d
from .specular import specular_gradient


def _unique_fields(pairs: list) -> dict:
    """A JSON object as a dict, refusing a field given twice (json would keep the last)."""
    names = [name for name, _ in pairs]
    if len(set(names)) < len(names):
        raise ConfigError(f"duplicate config field {max(names, key=names.count)!r}")
    return dict(pairs)


def _load_config(path: str, seed=None, trials=None) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}: malformed JSON: {err.msg}") from err
    except ValueError as err:  # a duplicate field, or an integer past Python's digit limit
        raise ConfigError(f"{path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if seed is not None:
        raw["seed"] = seed
    if trials is not None:
        raw["trials"] = trials
    return ExperimentConfig.from_dict(raw)


def format_trial_rows(trial: int, records: dict) -> dict[str, str]:
    """The trajectories.csv rows of one trial, as one text per method.

    Every float of the trial is formatted by one ``_float_reprs`` call, so
    each is ``float.__repr__``'s shortest round-trip decimal; the row number k
    is the iteration.  ``write_bundle`` calls this once per trial.
    """
    columns = [column for rec in records.values() for column in (rec.f_current, rec.f_best, rec.grad_norm)]
    reprs = _float_reprs(np.concatenate(columns)) if columns else []
    texts = {}
    start = 0
    for method, rec in records.items():
        rows = len(rec)
        fc, fb, gn = (reprs[start + i * rows: start + (i + 1) * rows] for i in range(3))
        start += 3 * rows
        lines = zip(itertools.repeat(f"{method},{trial}", rows), map(str, range(rows)), fc, fb, gn)
        texts[method] = "\n".join(map(",".join, lines)) + "\n" if rows else ""
    return texts


def _float_reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each entry of a float64 vector, each distinct bit pattern formatted once.

    The distinct patterns (so -0.0 and 0.0 stay apart) are formatted by one
    ``repr`` of their list and mapped back by index; repeats are common, as a
    run's best value holds for many rows.
    """
    if not values.size:
        return []
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    texts = repr(bits.view(float).tolist())[1:-1].split(", ")
    return list(map(texts.__getitem__, where.tolist()))


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`` and a newline, for str keys.

    json's indenting encoder is pure Python and takes each float in turn, so
    a list of floats goes through ``_float_reprs`` instead; keys and other
    scalars go to ``json.dumps``.
    """
    return _json_value(doc, "\n") + "\n"


def _json_value(value, newline: str) -> str:
    """``value`` as ``_json_text`` writes it, nested at the indent that ``newline`` ends with."""
    inner = newline + "  "
    if isinstance(value, dict):
        brackets = "{}"
        parts = [f"{json.dumps(key)}: {_json_value(value[key], inner)}" for key in sorted(value)]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if value and set(map(type, value)) == {float}:
            floats = np.array(value)
            if not np.isfinite(floats).all():
                raise ValueError("Out of range float values are not JSON compliant")
            parts = _float_reprs(floats)
        else:
            parts = [_json_value(item, inner) for item in value]
    else:
        return json.dumps(value, allow_nan=False)
    if not parts:
        return brackets
    return brackets[0] + inner + ("," + inner).join(parts) + newline + brackets[1]


def _write_whole(out_dir: Path, texts: dict[str, str]) -> None:
    """Write every file of ``texts`` into out_dir, or none of them.

    Each text goes to a temporary name first; only when all are written are
    they renamed into place.  If anything raises, the temporaries and any file
    this call already renamed into place are removed, so no file is ever left
    truncated under its final name.
    """
    staged: list[Path] = []
    placed: list[Path] = []
    try:
        for name, text in texts.items():
            temp = out_dir / f".{name}.tmp"
            staged.append(temp)  # before the write, so a half-written temporary is removed too
            temp.write_text(text, encoding="utf-8")
        for temp, name in zip(staged, texts):
            os.replace(temp, out_dir / name)
            placed.append(out_dir / name)
    except BaseException:
        for path in staged + placed:
            path.unlink(missing_ok=True)
        raise


def write_bundle(out_dir: Path, cfg: ExperimentConfig, stats, records, wall_time_s: float) -> None:
    """Write stats.json, trajectories.csv and runmeta.json into the existing out_dir, whole.

    ``stats`` and ``records`` are ``run_trials(cfg)``'s result.  Each trial's
    CSV rows are one ``format_trial_rows`` task of ``fork_map``, which runs
    them in as many processes as the trials ran in.  ``wall_time_s``, written
    to runmeta.json as is, is the caller's timing of the trials and their
    aggregation; it does not count this call's formatting or writing.
    """
    per_trial, _ = fork_map(
        lambda trial: format_trial_rows(trial, {method: runs[trial] for method, runs in records.items()}),
        range(cfg.trials))
    csv_text = "".join(["method,trial,iter,f_current,f_best,grad_norm\n",
                        *(rows[method] for method in sorted(records) for rows in per_trial)])
    # vars() is the fields themselves, no deep copy: they are JSON values already
    stats_doc = {method: vars(ms) for method, ms in stats.per_method.items()}
    meta = {
        "config": cfg.as_dict(),
        "seed": cfg.seed,
        "versions": {
            "specopt": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall_time_s,
        "trial_workers": stats.workers,
        "statuses": {method: [rec.status for rec in records[method]] for method in sorted(records)},
    }
    _write_whole(out_dir, {"stats.json": _json_text(stats_doc), "trajectories.csv": csv_text,
                           "runmeta.json": _json_text(meta)})


@contextlib.contextmanager
def _output_dir(path: Path):
    """Make the directory ``path`` and its missing parents; if the body raises, remove them.

    Only directories this call made are removed, deepest first, and only
    while they are empty, so a sweep keeps the cells it finished.
    """
    made = []
    missing = path
    while not missing.exists() and missing != missing.parent:
        made.append(missing)
        missing = missing.parent
    path.mkdir(parents=True, exist_ok=True)  # fails on a bad --out before any trial runs
    try:
        yield path
    except BaseException:
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                break
        raise


def _execute(cfg: ExperimentConfig, out_dir: Path) -> int:
    with _output_dir(out_dir):
        start = time.perf_counter()
        stats, records = run_trials(cfg)
        write_bundle(out_dir, cfg, stats, records, time.perf_counter() - start)
    failed = sum(ms.failed for ms in stats.per_method.values())
    return 2 if failed else 0


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed, args.trials)
    default_threads()  # reject a bad SPECOPT_THREADS before --out is made
    return _execute(cfg, Path(args.out))


def _parse_lambda_list(text: str | None) -> list[float]:
    if not text:
        return []
    values = []
    for token in text.split(","):
        token = token.strip()
        if token:
            try:
                values.append(float(token))
            except ValueError:
                raise ConfigError(f"lambda value {token!r} is not a number") from None
    return values


def cmd_sweep(args) -> int:
    base = _load_config(args.config, args.seed, args.trials)
    l1s = _parse_lambda_list(args.l1)
    l2s = _parse_lambda_list(args.l2)
    if not l1s or not l2s:
        raise ConfigError("sweep needs nonempty --l1 and --l2 lists")
    # every cell is validated before any cell runs
    cells = {}
    for l1 in l1s:
        for l2 in l2s:
            name = f"l1_{l1:g}_l2_{l2:g}"
            if name in cells:
                raise ConfigError(f"cells l1={cells[name].lambda1!r} l2={cells[name].lambda2!r} "
                                  f"and l1={l1!r} l2={l2!r} share the directory {name}")
            cells[name] = replace(base, lambda1=l1, lambda2=l2)
    default_threads()  # as in run: a bad SPECOPT_THREADS is a config error before --out is made
    manifest = []
    worst = 0
    with _output_dir(Path(args.out)) as out_root:
        for name, cfg in cells.items():
            # an OSError (say, a cell directory that is a file) ends the sweep with exit 1
            code = _execute(cfg, out_root / name)
            manifest.append({"lambda1": cfg.lambda1, "lambda2": cfg.lambda2, "dir": name,
                             "exit_code": code})
            worst = max(worst, code)
        _write_whole(out_root, {"index.json": json.dumps(manifest, indent=2, allow_nan=False) + "\n"})
    return worst


def cmd_check(args) -> int:
    from .checks import run_suites

    results = run_suites(args.level)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    return 0 if all(r.passed for r in results) else 1


def _specgrad_catalog(name: str):
    if name == "abs2d":
        return sum_abs(2)
    if name in catalog_1d_names():
        return test_function_1d(name)
    raise ValueError(f"unknown function {name!r}; choose from abs2d, {', '.join(catalog_1d_names())}")


def cmd_specgrad(args) -> int:
    try:
        obj = _specgrad_catalog(args.function)
        point = np.array([float(tok) for tok in args.point.split(",") if tok.strip()])
        if point.size != obj.dimension:
            raise ValueError(f"{args.function} expects {obj.dimension} coordinates, got {point.size}")
        if not np.isfinite(point).all():
            raise ValueError(f"coordinates must be finite, got {args.point}")
        grad = specular_gradient(obj, point)  # HypothesisViolationError is a ValueError
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    plus, minus = obj.one_sided_basis(point)
    pairs = [{"plus": p, "minus": m} for p, m in zip(plus.tolist(), minus.tolist())]
    print(json.dumps({"function": args.function, "point": point.tolist(),
                      "gradient": grad.tolist(), "one_sided": pairs}, indent=2, allow_nan=False))
    return 0


class _UsageError(Exception):
    """A command line that argparse cannot parse."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors reach main, which reports them as exit 1 (not argparse's 2)."""

    def error(self, message):
        raise _UsageError(f"{message} (see {self.prog} --help)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="specopt", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a seeded experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--out", required=True, help="output bundle directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--trials", type=int, default=None, help="override the trial count")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a grid of lambda1 x lambda2 cells")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--l1", required=True, help="comma-separated lambda1 values")
    sweep_p.add_argument("--l2", required=True, help="comma-separated lambda2 values")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--trials", type=int, default=None)
    sweep_p.set_defaults(func=cmd_sweep)

    check_p = sub.add_parser("check", help="run the numerical invariant suites")
    check_p.add_argument("--level", choices=("fast", "full"), default="fast")
    check_p.set_defaults(func=cmd_check)

    spec_p = sub.add_parser("specgrad", help="print the specular gradient of a catalog function")
    spec_p.add_argument("function", help="catalog name, e.g. abs2d or maxaffine")
    spec_p.add_argument("point", help="comma-separated coordinates")
    spec_p.set_defaults(func=cmd_specgrad)
    return parser


def main(argv=None) -> int:
    """Run one command; every invalid input, and running out of memory, is exit 1 with one line on stderr."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
    except (_UsageError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
    except MemoryError as err:  # a size numpy accepts but this machine cannot hold
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
    return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
