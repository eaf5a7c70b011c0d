"""Traced child run: the same work as an untraced run, with spans around the
calls into each munipath layer.

    PYTHONPATH=src python3 perfbench/traced.py SPANS.json <munipath pathway args>

The program itself is not changed: the tracer replaces module attributes
with wrappers before the run starts.  Spans (name, start, end, parent,
attributes) are kept in memory and written to SPANS.json when the run ends,
with ``ready`` (imports and wrappers done) and ``finished`` (the CLI has
returned).  Times come from ``time.perf_counter``, the system-wide
monotonic clock, so the parent process can place them inside its own
spawn-to-exit interval.

With a process pool (``--workers 2``), each task run in a worker returns
its spans attached to its result; they are collected as worker spans,
which overlap the parent's and are kept out of its self-time accounting.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import scipy.optimize

import munipath.cli
import munipath.model
import munipath.pathway

# attribute on a worker's task result that carries the worker's spans home
_SPANS_ATTR = "_bench_spans"


class Tracer:
    """Spans of one process; ``parent`` is an index into ``spans``."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.worker_spans: list[dict] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self.stack[-1] if self.stack else None, "attrs": {}}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Append one worker task's span tree to the worker spans."""
        offset = len(self.worker_spans)
        for span in spans:
            if span["parent"] is not None:
                span["parent"] += offset
            self.worker_spans.append(span)


def role_of(options: dict) -> str:
    """The solve's role in a pathway run, read from optimize_building's options."""
    if options.get("include_transition_costs") is False:
        return "status_quo"
    if options.get("allow_refurb") is False and options.get("allow_plant_change") is False:
        return "frozen"
    if "allow_refurb" in options:
        return "resolve"
    return "free"


def _model_size(request) -> dict:
    return {"vars": int(request.n_vars), "rows": int(request.n_rows),
            "nnz": int(len(request.a_vals)),
            "binaries": int(request.integrality.sum())}


def _milp_result(args, kwargs, res) -> dict:
    """One solve's record as HiGHS reports it, with the problem's size."""
    c = args[0] if args else kwargs["c"]
    constraints = kwargs.get("constraints")
    integrality = kwargs.get("integrality")
    return {"status": int(res.status),
            "nodes": getattr(res, "mip_node_count", None),
            "gap": getattr(res, "mip_gap", None),
            "vars": len(c),
            "rows": constraints.A.shape[0] if constraints is not None else 0,
            "integers": int((integrality != 0).sum()) if integrality is not None else 0}


def wrap(tracer: Tracer, modules: list, attr: str, name: str,
         describe=None, tag=None) -> None:
    """Replace ``attr`` in every module with one wrapper that records a span.

    ``tag(args, kwargs)`` adds attributes when the span opens and
    ``describe(args, kwargs, result)`` after it ends.
    """
    original = getattr(modules[0], attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        if tag is not None:
            span["attrs"].update(tag(args, kwargs))
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(span)
        if describe is not None:
            span["attrs"].update(describe(args, kwargs, result))
        return result

    for module in modules:
        setattr(module, attr, traced)


def _wrap_pool(tracer: Tracer) -> None:
    """Time the parent's wait on the pool and collect the workers' spans."""
    solve_one = munipath.pathway._solve_one

    @functools.wraps(solve_one)
    def task(args):
        if os.getpid() == tracer.pid:
            return solve_one(args)
        saved = tracer.spans, tracer.stack
        tracer.spans, tracer.stack = [], []
        span = tracer.open("pathway.worker_task")
        try:
            outcome = solve_one(args)
        finally:
            tracer.close(span)
            spans = tracer.spans
            tracer.spans, tracer.stack = saved
        setattr(outcome, _SPANS_ATTR, spans)
        return outcome

    class TracedPool(ProcessPoolExecutor):
        def __enter__(self):
            self._bench_span = tracer.open("pathway.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._bench_span)

        def map(self, fn, *iterables, **kwargs):
            for outcome in super().map(fn, *iterables, **kwargs):
                tracer.adopt(outcome.__dict__.pop(_SPANS_ATTR, []))
                yield outcome

    munipath.pathway._solve_one = task
    munipath.pathway.ProcessPoolExecutor = TracedPool


def install(tracer: Tracer) -> dict:
    """Wrap every layer boundary; returns the run's result notes."""
    notes: dict = {}

    def plan_result(args, kwargs, path):
        notes["chain_problems"] = path.verify_chain()
        return {"denied": sum(len(st.denied) for st in path.stages)}

    wrap(tracer, [munipath.cli], "load_twin", "twin.load")
    wrap(tracer, [munipath.cli], "default_catalog", "catalog.load")
    wrap(tracer, [munipath.cli], "load_catalog", "catalog.load")
    wrap(tracer, [munipath.cli], "default_scenario", "scenario.load")
    wrap(tracer, [munipath.cli], "load_scenario", "scenario.load")
    wrap(tracer, [munipath.cli], "plan_pathway", "pathway.plan", plan_result)
    wrap(tracer, [munipath.model, munipath.pathway], "optimize_building",
         "model.optimize_building", tag=lambda a, k: {"role": role_of(k)})
    _wrap_pool(tracer)
    wrap(tracer, [munipath.model], "build_model", "model.build",
         lambda a, k, arts: _model_size(arts.request))
    wrap(tracer, [munipath.model], "solve", "model.solve")
    wrap(tracer, [munipath.model], "extract_solution", "model.extract")
    wrap(tracer, [scipy.optimize], "milp", "solver.milp", _milp_result)
    wrap(tracer, [munipath.cli], "path_document", "report.document")
    for attr in ("reports_from_document", "export_csv", "geojson_from_document"):
        wrap(tracer, [munipath.cli], attr, "report.export")
    return notes


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: traced.py SPANS.json ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    notes = install(tracer)
    ready = time.perf_counter()
    try:
        return munipath.cli.main(["pathway", *argv[1:]])
    finally:
        finished = time.perf_counter()
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "worker_spans": tracer.worker_spans,
                       "ready": ready, "finished": finished, **notes}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
