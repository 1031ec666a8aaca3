"""Cross-kernel contract: a run's numbers agree across OpenBLAS kernels within RTOL.

The bytes of a bundle are fixed for one BLAS kernel, not across kernels:
OpenBLAS picks its kernel when it loads (``OPENBLAS_CORETYPE`` overrides the
pick), and two kernels may sum a product in different orders.  Each test here
runs one small config in two subprocesses, under Prescott (SSE3) and
Sandybridge (AVX), kernels that any x86-64 CPU executes and whose Table 3
bytes differ.  It requires equal statuses, equal row counts, equal
``method,trial,iter`` columns and values within RTOL.  Where the variable is
ignored (numpy not built on OpenBLAS, or another architecture) the two runs
are equal and the tests pass.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

# The largest relative drift measured between kernels was 5.3e-14 (Table 3's
# f_current over 4 trials of 10^4 rows) and 2.7e-14 here (Table 2's
# grad_norm); RTOL leaves a margin of about 20 over the first.
RTOL = 1e-12
KERNELS = ("Prescott", "Sandybridge")
SRC = str(Path(__file__).resolve().parents[1] / "src")

CONFIGS = {
    "table2": {"m": 50, "n": 100, "lambda1": 0.01, "lambda2": 1.0, "trials": 2, "max_iters": 200,
               "methods": ["SPEG-s", "SPEG-g", "GD"], "seed": 31},
    "table3": {"m": 500, "n": 100, "lambda1": 100.0, "lambda2": 1.0, "trials": 2, "max_iters": 200,
               "methods": ["SPEG-s", "S-SPEG", "H-SPEG", "GD", "Adam"], "seed": 31},
}


def _run(tmp_path: Path, config: Path, kernel: str) -> Path:
    out = tmp_path / kernel
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "specopt", "run", "--config", str(config), "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    return out


def _close(a: str | float, b: str | float) -> bool:
    return a == b or math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=0.0)


def _assert_close_tree(a, b, where: str) -> None:
    """Equal JSON trees, except that floats need only agree within RTOL."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), where
        for key in a:
            _assert_close_tree(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (u, v) in enumerate(zip(a, b)):
            _assert_close_tree(u, v, f"{where}[{i}]")
    elif isinstance(a, float) and isinstance(b, float):
        assert _close(a, b), f"{where}: {a!r} against {b!r}"
    else:
        assert a == b, f"{where}: {a!r} against {b!r}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_numbers_agree_across_blas_kernels(tmp_path, name):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(CONFIGS[name]))
    first, second = (_run(tmp_path, config, kernel) for kernel in KERNELS)
    statuses = [json.loads((out / "runmeta.json").read_text())["statuses"] for out in (first, second)]
    assert statuses[0] == statuses[1]
    with open(first / "trajectories.csv", newline="") as f1, open(second / "trajectories.csv", newline="") as f2:
        rows1, rows2 = list(csv.reader(f1)), list(csv.reader(f2))
    assert len(rows1) == len(rows2)
    assert rows1[0] == rows2[0] == ["method", "trial", "iter", "f_current", "f_best", "grad_norm"]
    for r1, r2 in zip(rows1[1:], rows2[1:]):
        assert r1[:3] == r2[:3]
        for column, a, b in zip(rows1[0][3:], r1[3:], r2[3:]):
            assert _close(a, b), f"{column} at {','.join(r1[:3])}: {a} against {b}"
    _assert_close_tree(json.loads((first / "stats.json").read_text()),
                       json.loads((second / "stats.json").read_text()), "stats")
