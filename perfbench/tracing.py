"""Per-layer tracer for the traced benchmark run.

The tracer wraps specopt's public functions at the place where their callers
look them up (a module global such as ``specopt.optimizers.specular_gradient``
or a method on its class such as ``ElasticNetProblem.value``), so the program
itself is unchanged.  Two kinds of wrapper exist:

* hot-path wrappers (called once or more per optimizer iteration) only add to
  per-thread counters: calls, busy time and self time;
* span wrappers (one call per trial cell, suite, aggregation or bundle) also
  keep a span record: id, parent span, thread, request id, start and end.

Busy time is the calling thread's CPU time (``time.thread_time``), because the
trial pool runs several Python threads that take turns holding the
interpreter lock: a wall-clock span would also count the turns of the other
threads.  The wall-clock duration of each span is kept as well, and the
difference between the two over the trial cells is reported as lock wait.
Self time is busy time minus the busy time of the wrapped calls made inside.

Spans and counters stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from pathlib import Path

METHODS = ("SPEG-s", "SPEG-g", "S-SPEG", "H-SPEG", "GD", "Adam")
OBJECTIVE_CLASSES = ("ElasticNetProblem", "ElasticNetComponent", "DiagonalLasso", "PiecewiseScalar")
SUITES = ("scalar_identities", "ordering_lemma", "subgradient_inequality", "quasi_fermat",
          "quasi_mvt", "estimator_consistency", "basic_inequality")

# Products with the data matrix (or its one row) made by each wrapped oracle
# call: value forms A x; the problem's one_sided_basis forms A x and A^T r,
# the component's forms a.x and only scales a.
_MATVECS = {
    ("ElasticNetProblem", "value"): 1,
    ("ElasticNetProblem", "one_sided_basis"): 2,
    ("ElasticNetComponent", "value"): 1,
    ("ElasticNetComponent", "one_sided_basis"): 1,
}

_SCHEDULE_METHOD = {"normalized_diminishing": "SPEG-s", "geometric": "SPEG-g", "constant": "GD"}


class _ThreadState:
    def __init__(self) -> None:
        self.thread = threading.current_thread().name
        self.stack: list[list] = []  # frames: [child busy time, span id or None]
        self.acc: dict[str, list] = {}  # name -> [calls, busy, self busy, extra1, extra2]
        self.trial: int | None = None


class Tracer:
    """Installs wrappers on specopt, accumulates counters and spans, restores on exit."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._root_span: int | None = None
        self._check_runs = itertools.count()  # request ids of the suites' optimizer runs
        self.spans: list[dict] = []

    # ------------------------------------------------------------------ state

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _account(self, st: _ThreadState, name: str, busy: float, child: float,
                 extra1: float = 0, extra2: float = 0) -> None:
        if st.stack:
            st.stack[-1][0] += busy
        acc = st.acc.get(name)
        if acc is None:
            acc = st.acc[name] = [0, 0.0, 0.0, 0, 0]
        acc[0] += 1
        acc[1] += busy
        acc[2] += busy - child
        acc[3] += extra1
        acc[4] += extra2

    # --------------------------------------------------------------- wrappers

    def _counted(self, name: str, fn, extra=None):
        """Hot-path wrapper: counters only.  extra(args, result) -> (extra1, extra2)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            frame = [0.0, None]
            st.stack.append(frame)
            out = done = None
            c0 = time.thread_time()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                busy = time.thread_time() - c0
                st.stack.pop()
                e1, e2 = extra(args, out) if extra and done else (0, 0)
                tracer._account(st, name, busy, frame[0], e1, e2)

        return wrapper

    def _spanned(self, name: str, fn, request=None, extra=None, root: bool = False):
        """Span wrapper.  request(state, args) -> request id; extra(args, result) -> dict."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            span_id = next(tracer._ids)
            parent = next((f[1] for f in reversed(st.stack) if f[1] is not None), tracer._root_span)
            req = request(st, args) if request else None
            frame = [0.0, span_id]
            st.stack.append(frame)
            if root:
                tracer._root_span = span_id
            out = done = None
            w0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                busy = time.thread_time() - c0
                w1 = time.perf_counter()
                st.stack.pop()
                if root:
                    tracer._root_span = None
                fields = {"rows": 0, "bytes": 0}
                if extra and done:
                    fields.update(extra(args, out))
                tracer._account(st, name, busy, frame[0], fields["rows"], fields["bytes"])
                tracer.spans.append({
                    "id": span_id, "parent": parent, "name": name, "thread": st.thread,
                    "request": req, "start": w0, "end": w1, "busy": busy,
                    "self": busy - frame[0], **fields,
                })

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _request_cell(self, st: _ThreadState, args) -> list:
        return [args[0], st.trial]

    def _request_check_run(self, st: _ThreadState, args) -> list:
        return [_SCHEDULE_METHOD.get(args[2].kind, "SPEG-s"), next(self._check_runs)]

    def install(self) -> None:
        """Wrap every traced entry point of an already imported specopt."""
        import numpy as np
        from specopt import checks, cli, harness, objectives, optimizers, specular

        def afun_array_extra(args, out):
            alpha = np.asarray(args[0])
            return alpha.size, int(np.count_nonzero(alpha != np.asarray(args[1])))

        def remember_trial(fn):
            @functools.wraps(fn)
            def wrapper(seed, trial, role):
                self._state().trial = int(trial)
                return fn(seed, trial, role)
            return wrapper

        def rows_of(args, out):
            return {"rows": len(out)}

        def bundle_extra(args, out):
            out_dir, records = Path(args[0]), args[3]
            size = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
            return {"rows": sum(len(r) for runs in records.values() for r in runs), "bytes": size}

        for module, attr, name in (
            (specular, "afun_array", "scalar.afun_array"),
            (specular, "afun", "scalar.afun"),
            (checks, "afun", "scalar.afun"),
            (checks, "bfun", "scalar.bfun"),
            (optimizers, "specular_gradient", "specular.specular_gradient"),
            (checks, "specular_gradient", "specular.specular_gradient"),
            (specular, "specular_from_one_sided", "specular.specular_from_one_sided"),
            (checks, "specular_from_one_sided", "specular.specular_from_one_sided"),
            (checks, "fd_specular_directional", "specular.fd_specular_directional"),
        ):
            fn = module.__dict__[attr]
            extra = afun_array_extra if attr == "afun_array" else None
            self._patch(module, attr, self._counted(name, fn, extra))

        for cls_name in OBJECTIVE_CLASSES:
            cls = getattr(objectives, cls_name)
            for meth in ("value", "one_sided_basis"):
                matvecs = _MATVECS.get((cls_name, meth), 0)

                def oracle_extra(args, out, matvecs=matvecs):
                    data = getattr(args[0], "A", None)
                    if data is None:
                        data = getattr(args[0], "a", None)
                    cells = data.size if data is not None else 0
                    return matvecs, matvecs * cells * 8

                self._patch(cls, meth, self._counted(f"objectives.{cls_name}.{meth}",
                                                     cls.__dict__[meth], oracle_extra))
        self._patch(objectives.ElasticNetProblem, "component",
                    self._counted("objectives.component", objectives.ElasticNetProblem.__dict__["component"]))

        self._patch(cli, "run_trials", self._spanned("harness.run_trials", cli.run_trials, root=True))
        self._patch(cli, "write_bundle", self._spanned("cli.write_bundle", cli.write_bundle,
                                                       extra=bundle_extra))
        self._patch(harness, "substream", remember_trial(harness.substream))
        self._patch(harness, "sample_instance", self._spanned("harness.sample_instance",
                                                              harness.sample_instance))
        self._patch(harness, "run_method", self._spanned("optimizers.cell", harness.run_method,
                                                         request=self._request_cell, extra=rows_of))
        self._patch(checks, "speg_run", self._spanned("optimizers.cell", checks.speg_run,
                                                      request=self._request_check_run, extra=rows_of))
        self._patch(checks, "SUITES", tuple(self._spanned(f"checks.{s.__name__}", s)
                                            for s in checks.SUITES))

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; return those not restored (empty on success)."""
        restored = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return [f"{owner.__name__}.{attr}" for owner, attr, original in restored
                if owner.__dict__.get(attr) is not original]

    # ---------------------------------------------------------------- results

    def totals(self) -> dict[str, list]:
        """Counters of every thread, merged by name."""
        merged: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, acc in st.acc.items():
                into = merged.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for i, value in enumerate(acc):
                    into[i] += value
        return merged

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json except trace.overhead_s.

        A layer the workload does not run reads 0.  Busy times are thread CPU time.
        """
        t = self.totals()
        zero = [0, 0.0, 0.0, 0, 0]

        def get(name):
            return t.get(name, zero)

        def per(num, den, scale):
            return num * scale / den if den else 0.0

        out: dict[str, float] = {}
        aa = get("scalar.afun_array")
        out["scalar.afun_array.calls"] = aa[0]
        out["scalar.afun_array.elems"] = aa[3]
        out["scalar.afun_array.us_per_call"] = per(aa[1], aa[0], 1e6)
        out["scalar.afun_array.ns_per_elem"] = per(aa[1], aa[3], 1e9)
        out["scalar.afun_array.self_s"] = aa[2]
        out["scalar.afun_array.kink_ratio"] = per(aa[4], aa[3], 1.0)
        af = get("scalar.afun")
        out["scalar.afun.calls"] = af[0]
        out["scalar.afun.ns_per_call"] = per(af[1], af[0], 1e9)
        out["scalar.bfun.calls"] = get("scalar.bfun")[0]
        sg = get("specular.specular_gradient")
        out["specular.specular_gradient.calls"] = sg[0]
        out["specular.specular_gradient.self_us_per_call"] = per(sg[2], sg[0], 1e6)
        out["specular.scalar_fallback_calls"] = get("specular.specular_from_one_sided")[0]
        out["specular.fd_specular_directional.self_s"] = get("specular.fd_specular_directional")[2]
        matvecs = bytes_computed = 0
        for cls in OBJECTIVE_CLASSES:
            for meth in ("value", "one_sided_basis"):
                acc = get(f"objectives.{cls}.{meth}")
                out[f"objectives.{cls}.{meth}.calls"] = acc[0]
                out[f"objectives.{cls}.{meth}.us_per_call"] = per(acc[1], acc[0], 1e6)
                matvecs += acc[3]
                bytes_computed += acc[4]
        out["objectives.matvecs"] = matvecs
        out["objectives.bytes_computed"] = bytes_computed
        out["objectives.component.calls"] = get("objectives.component")[0]

        cells = [s for s in self.spans if s["name"] == "optimizers.cell"]
        iters = sum(s["rows"] for s in cells)
        for method in METHODS:
            mine = [s for s in cells if s["request"][0] == method]
            out[f"optimizers.{method}.us_per_iter"] = per(sum(s["busy"] for s in mine),
                                                          sum(s["rows"] for s in mine), 1e6)
        out["optimizers.iters"] = iters
        out["optimizers.loop.self_us_per_iter"] = per(sum(s["self"] for s in cells), iters, 1e6)

        roots = [s for s in self.spans if s["name"] == "harness.run_trials"]
        samples = [s for s in self.spans if s["name"] == "harness.sample_instance"]
        run_s = sum(s["end"] - s["start"] for s in roots)
        covered = sum(_covered(r, [s for s in cells + samples if s["parent"] == r["id"]])
                      for r in roots)
        busy = sum(s["busy"] for s in cells + samples) if roots else 0.0
        out["harness.run_trials.s"] = run_s
        out["harness.run_trials.self_s"] = run_s - covered
        out["harness.trial_busy_s"] = busy
        out["harness.parallelism"] = per(busy, run_s, 1.0)
        out["harness.lock_wait_s"] = (sum(s["end"] - s["start"] - s["busy"] for s in cells)
                                      if roots else 0.0)
        out["harness.sample_instance.s"] = sum(s["busy"] for s in samples)
        bundles = [s for s in self.spans if s["name"] == "cli.write_bundle"]
        bundle_s = sum(s["end"] - s["start"] for s in bundles)
        out["cli.write_bundle.s"] = bundle_s
        out["cli.write_bundle.us_per_row"] = per(bundle_s, sum(s["rows"] for s in bundles), 1e6)
        out["cli.bundle_bytes"] = sum(s["bytes"] for s in bundles)
        for suite in SUITES:
            out[f"checks.{suite}.s"] = sum(s["end"] - s["start"] for s in self.spans
                                           if s["name"] == f"checks.{suite}")
        return out


def _covered(parent: dict, children: list[dict]) -> float:
    """Length of the part of the parent's interval that the children's intervals cover."""
    spans = sorted((max(c["start"], parent["start"]), min(c["end"], parent["end"])) for c in children)
    total = 0.0
    cur_start = cur_end = None
    for start, end in spans:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
