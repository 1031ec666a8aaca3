"""One benchmark repetition, run in a fresh interpreter by run.py.

    python3 perfbench/child.py SPEC.json

SPEC.json names the workload kind ("run" or "check"), the config file, the
output bundle directory, the seed, the suite level, whether this is a set-up
probe and whether the run is traced, and the files this script writes its
result and its spans to.  The parent sets PYTHONPATH so that
``import specopt`` loads the checkout's ``src`` tree, and times the process
from launch to exit.

Set-up ends when the program reaches its first trial (the entry of
``run_trials`` as ``specopt.cli`` looks it up) or, for the invariant suites,
just before ``checks.run_suites`` is called.  A probe stops there.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


class SetupDone(Exception):
    """Raised at the end of set-up to stop a probe."""


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result: dict = {}

    import specopt
    from specopt import checks, cli

    result["specopt_file"] = specopt.__file__
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    if spec["kind"] == "run":
        real_run_trials = cli.run_trials

        def run_trials(*args, **kwargs):
            result["setup_end"] = time.monotonic()
            if spec["probe"]:
                raise SetupDone
            return real_run_trials(*args, **kwargs)

        cli.run_trials = run_trials
        try:
            result["exit_code"] = cli.main(["run", "--config", spec["config"], "--out", spec["out"]])
        except SetupDone:
            result["exit_code"] = 0
        finally:
            cli.run_trials = real_run_trials
    else:
        result["setup_end"] = time.monotonic()
        result["exit_code"] = 0
        if not spec["probe"]:
            # SPEG iterations, counted at the suite's calls into the optimizer
            iters = 0
            real_speg_run = checks.speg_run

            def speg_run(*args, **kwargs):
                nonlocal iters
                record = real_speg_run(*args, **kwargs)
                iters += len(record)
                return record

            checks.speg_run = speg_run
            try:
                suites = checks.run_suites(spec["level"], spec["seed"])
            finally:
                checks.speg_run = real_speg_run
            result["suites"] = [[s.name, bool(s.passed), s.detail] for s in suites]
            result["iters"] = iters
            result["exit_code"] = 0 if all(s.passed for s in suites) else 1
    result["work_end"] = time.monotonic()

    if tracer is not None:
        result["not_restored"] = tracer.uninstall()
        result["layers"] = tracer.metrics()
        Path(spec["spans"]).write_text(json.dumps({"spans": tracer.spans, "counters": tracer.totals()}),
                                       encoding="utf-8")
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
