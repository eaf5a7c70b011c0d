#!/usr/bin/env python3
"""munipath benchmark: CLI pathway runs on small building stocks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --pin

Run it from the root of a checkout; it runs the checkout's ``src/munipath``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--pin`` regenerates ``perfbench/references.json``, the pinned answers
every run is checked against.  perfbench/README.md explains the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
WORK = ROOT / ".perfbench_work"

MIP_GAP = 1e-4
STAGES = "2023,2030,2045"
# validate runs after each pathway run; spread over the whole measurement,
# they see the same machine as run_s does, not one burst of it
SETUP_PER_RUN = 3
DEADLINE_S = 170.0  # a run must exit within 180 s
# the CLI lets these silently override --backend and --time-limit
OVERRIDING_ENV = ("MUNIPATH_SOLVER", "MUNIPATH_TIME_LIMIT")
ROLES = ("status_quo", "frozen", "free", "resolve")
# run-to-run noise allowed on top of the tracing overhead in the accounting check
ACCOUNTING_SLACK = 0.03

# Pinned stock fixtures.  Every run cycles through all of them, so each
# seed does the same work: solve times differ several-fold between fixture
# seeds, and a seed-chosen fixture would spread run times beyond any useful
# bound.  ``--seed`` picks the order of the round.  Five buildings give a
# two-worker pool uneven work to balance.
BUILDINGS = 5
RESOLUTION = 240
FIXTURE_SEEDS = (11, 12)
CONFIG = {"buildings": BUILDINGS, "resolution": RESOLUTION, "seeds": list(FIXTURE_SEEDS),
          "stages": STAGES, "mip_gap": MIP_GAP}

# workload -> pathway --workers
WORKLOADS = {"stock_serial": 1, "stock_pool2": 2}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "twin.load_s": "s", "twin.bytes": "B", "catalog.load_s": "s", "scenario.load_s": "s",
    "model.build_s": "s", "model.extract_s": "s", "model.builds": "count",
    "model.vars": "count", "model.rows": "count", "model.nnz": "count",
    "model.binaries": "count", "model.precheck_infeasible": "count",
    **{f"solver.solve_s.{r}": "s" for r in ROLES},
    **{f"solver.solves.{r}": "count" for r in ROLES},
    "solver.nodes.free": "count", "solver.nodes.resolve": "count",
    "solver.free_p50_s": "s", "solver.free_p90_s": "s", "solver.free_max_s": "s",
    "solver.not_optimal": "count",
    "pathway.self_s": "s", "pathway.denied": "count", "pathway.resolve_ratio": "ratio",
    "pathway.frozen_infeasible": "count", "pathway.parent_solve_s": "s",
    "pathway.pool_wait_s": "s",
    "report.document_s": "s", "report.export_s": "s", "report.doc_bytes": "B",
    "trace.run_s": "s", "trace.interpreter_s": "s", "trace.unexplained_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    start: float  # perf_counter at spawn; the clock is system-wide
    wall_s: float
    rss_mb: float
    code: int
    log: Path


class Runner:
    """Runs children one at a time, each in its own session so that a stop
    also reaches its pool workers; nothing outlives the run."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline
        self.proc: subprocess.Popen | None = None

    def run(self, argv: list[str], log: Path) -> Child:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        with open(log, "wb") as fh:
            timer = threading.Timer(remaining, self.kill)
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh,
                                         stderr=subprocess.STDOUT, start_new_session=True)
            timer.start()
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            code = self.proc.returncode
            self.kill()
            self.proc = None
        # ru_maxrss covers the child and the pool workers it waited for
        return Child(t0, wall, usage.ru_maxrss / 1024.0, code, log)

    def kill(self) -> None:
        """Kill the current child's session, if anything of it is left."""
        if self.proc is not None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def stop(self) -> None:
        """Kill the current child's session and reap the child."""
        self.kill()
        if self.proc is not None and self.proc.returncode is None:
            self.proc.wait()


def log_tail(log: Path, lines: int = 5) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def python_cmd(*args) -> list[str]:
    return [sys.executable, *map(str, args)]


def munipath_cmd(*args) -> list[str]:
    return python_cmd("-m", "munipath", *args)


def pathway_cmd(workers: int, twin: Path, out: Path, spans: Path | None) -> list[str]:
    args = [twin, "--periods", STAGES, "--mip-gap", MIP_GAP,
            "--workers", workers, "--out-dir", out]
    if spans is None:
        return munipath_cmd("pathway", *args)
    return python_cmd(HERE / "traced.py", spans, *args)


# ---------------------------------------------------------------------------
# Answers


def relative_deviation(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1.0)


def compare_objectives(got: dict, ref: dict) -> tuple[list[str], float]:
    problems = []
    if set(got) != set(ref):
        problems.append(f"solved building-stages {sorted(got)} != reference {sorted(ref)}")
    devs = [relative_deviation(got[k], ref[k]) for k in set(got) & set(ref)]
    worst = max(devs, default=0.0)
    if worst > MIP_GAP:
        problems.append(f"objective deviates {worst:.3e} from the reference (> mip_gap)")
    return problems, worst


def pathway_answers(out: Path) -> tuple[dict, str]:
    """Objectives per "year/building" and the SHA-256 of path.json."""
    raw = (out / "path.json").read_bytes()
    doc = json.loads(raw)
    objectives = {f"{sd['target_year']}/{bid}": b["objective"]
                  for sd in doc["stages"] for bid, b in sd["buildings"].items()}
    return objectives, hashlib.sha256(raw).hexdigest()


@dataclass
class Sample:
    """One workload run of one fixture."""

    fixture: int
    traced: bool
    child: Child
    twin_bytes: int
    problems: list[str] = field(default_factory=list)
    rel_dev: float = 0.0
    tied: bool = False
    doc_bytes: int = 0
    trace: dict | None = None

    @property
    def completed(self) -> bool:
        return self.child.code == 0


def check(sample: Sample, out: Path, ref: dict, spans: Path | None) -> None:
    if not sample.completed:
        sample.problems.append(f"exit code {sample.child.code}: {log_tail(sample.child.log)}")
        return
    try:
        check_outputs(sample, out, ref, spans)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sample.problems.append(f"unreadable output: {exc!r}")


def check_outputs(sample: Sample, out: Path, ref: dict, spans: Path | None) -> None:
    """Objectives within mip_gap of the pin, and verify_chain() on traced runs.

    A document whose SHA-256 matches the pin is the one whose chain was
    verified when it was pinned.  A different document with objectives in
    tolerance is a tied optimum; its chain (budgets, quotas, implementation
    years) is verified by a traced run after the measurement.
    """
    if spans is not None:
        sample.trace = json.loads(spans.read_text(encoding="utf-8"))
        sample.problems += [f"chain: {p}" for p in sample.trace["chain_problems"]]
    got, sha = pathway_answers(out)
    problems, sample.rel_dev = compare_objectives(got, ref["objectives"])
    sample.problems += problems
    sample.doc_bytes = (out / "path.json").stat().st_size
    sample.tied = not problems and sha != ref["path_sha256"]


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced run


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _role(spans: list[dict], span: dict) -> str | None:
    while span is not None:
        if "role" in span["attrs"]:
            return span["attrs"]["role"]
        span = spans[span["parent"]] if span["parent"] is not None else None
    return None


def self_times(spans: list[dict]) -> list[float]:
    own = [_dur(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _dur(s)
    return own


def interpreter_time(sample: Sample) -> float:
    """Interpreter start, imports and exit: spawn to the traced program's
    start, and its end to the process's exit."""
    child, trace = sample.child, sample.trace
    return (trace["ready"] - child.start) + (child.start + child.wall_s - trace["finished"])


def free_solve_times(trace: dict) -> list[float]:
    out = []
    for spans in (trace["spans"], trace["worker_spans"]):
        out += [_dur(s) for s in spans
                if s["name"] == "model.solve" and _role(spans, s) == "free"]
    return out


def layer_metrics(sample: Sample) -> dict[str, float]:
    trace = sample.trace
    main = trace["spans"]
    tagged = [(s, _role(spans, s)) for spans in (main, trace["worker_spans"]) for s in spans]

    def total(name):
        return sum(_dur(s) for s in main if s["name"] == name)

    def tagged_of(name):
        return [(s, role) for s, role in tagged if s["name"] == name]

    builds = [s for s, _ in tagged_of("model.build")]
    sized = [s["attrs"] for s in builds if "vars" in s["attrs"]]
    solves = tagged_of("model.solve")
    milps = tagged_of("solver.milp")
    own = self_times(main)
    interpreter = interpreter_time(sample)
    plan = [i for i, s in enumerate(main) if s["name"] == "pathway.plan"]
    count = {r: sum(1 for _, role in solves if role == r) for r in ROLES}

    m = {
        "twin.load_s": total("twin.load"),
        "twin.bytes": sample.twin_bytes,
        "catalog.load_s": total("catalog.load"),
        "scenario.load_s": total("scenario.load"),
        "model.build_s": sum(_dur(s) for s in builds),
        "model.extract_s": sum(_dur(s) for s, _ in tagged_of("model.extract")),
        "model.builds": len(builds),
        "model.precheck_infeasible": sum(
            1 for s in builds if s["attrs"].get("error") == "InfeasibleBuildingError"),
        "solver.not_optimal": sum(
            1 for s, _ in milps if s["attrs"].get("status") not in (0, 2)),
        "pathway.self_s": sum(own[i] for i in plan),
        "pathway.denied": sum(main[i]["attrs"].get("denied", 0) for i in plan),
        "pathway.resolve_ratio": count["resolve"] / count["free"] if count["free"] else 0.0,
        "pathway.frozen_infeasible": sum(
            1 for s, role in tagged_of("model.optimize_building")
            if role == "frozen" and "error" in s["attrs"]),
        "pathway.parent_solve_s": total("model.optimize_building") if plan else 0.0,
        "pathway.pool_wait_s": total("pathway.pool"),
        "report.document_s": total("report.document"),
        "report.export_s": total("report.export"),
        "report.doc_bytes": sample.doc_bytes,
        "trace.run_s": sample.child.wall_s,
        "trace.interpreter_s": interpreter,
        # the run outside the interpreter's share and every span: CLI code
        # no wrapper covers, such as argument parsing and writing path.json
        "trace.unexplained_s": sample.child.wall_s - interpreter - sum(own),
    }
    for key in ("vars", "rows", "nnz", "binaries"):
        m[f"model.{key}"] = statistics.fmean(a[key] for a in sized) if sized else 0.0
    for r in ROLES:
        m[f"solver.solve_s.{r}"] = sum(_dur(s) for s, role in solves if role == r)
        m[f"solver.solves.{r}"] = count[r]
    for r in ("free", "resolve"):
        m[f"solver.nodes.{r}"] = sum(s["attrs"]["nodes"] or 0 for s, role in milps
                                     if role == r)
    return m


def accounting(metrics: dict, untraced: float) -> str:
    """Do the interpreter's share and the span self times account for the
    untraced run_s, within the tracing overhead?  Time that no span and no
    interpreter share covers is unexplained; a layer left unwrapped shows
    there."""
    accounted = metrics["trace.run_s"] - metrics["trace.unexplained_s"]
    diff, overhead = accounted - untraced, metrics["trace.overhead_s"]
    verdict = "within" if abs(diff) <= abs(overhead) + ACCOUNTING_SLACK * untraced else "NOT within"
    return (f"accounting: interpreter + span self times {accounted:.4f} s, untraced run_s "
            f"{untraced:.4f} s, difference {diff:+.4f} s, unexplained "
            f"{metrics['trace.unexplained_s']:.4f} s: {verdict} the tracing overhead "
            f"{overhead:+.4f} s (+{ACCOUNTING_SLACK:.0%} of run_s)")


# ---------------------------------------------------------------------------
# Statistics


def fixture_mean(samples: list[Sample], value) -> float:
    """Mean over the fixture set of each fixture's median.

    Every run covers the same fixtures, so this does not depend on the
    seed's rotation or on how many rounds fitted into the run.
    """
    by_fixture: dict[int, list[float]] = defaultdict(list)
    for s in samples:
        by_fixture[s.fixture].append(value(s))
    return statistics.fmean(statistics.median(v) for v in by_fixture.values())


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def describe_timing(name: str, values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name}: median {statistics.median(values):.4f} s"
    if n >= 11:
        q = math.floor(100 * (n - 10) / n)
        line += f", p{q} {nearest_rank(values, q / 100):.4f} s"
    else:
        line += ", no percentile has 10 samples beyond it"
    return line + f" (n={n})"


# ---------------------------------------------------------------------------
# Environment


def child_env() -> tuple[dict, dict]:
    env = dict(os.environ)
    unset = {k: env.pop(k) for k in OVERRIDING_ENV if k in env}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env, unset


def two_process_scaling(work: Path) -> float:
    """Throughput of two CPU-bound processes over one, measured inside each."""
    code = ("import time; t = time.perf_counter(); sum(i * i for i in range(2_000_000)); "
            "print(time.perf_counter() - t)")

    def timed(n: int) -> float:
        logs = [work / f"scaling{n}_{i}.log" for i in range(n)]
        procs = []
        try:
            for log in logs:
                with open(log, "wb") as fh:
                    procs.append(subprocess.Popen(python_cmd("-c", code), stdout=fh,
                                                  stderr=subprocess.STDOUT))
        finally:
            for p in procs:
                p.wait()
        if any(p.returncode for p in procs):
            raise BenchError("scaling check failed: " + log_tail(logs[0]))
        return max(float(log.read_text()) for log in logs)

    return 2.0 * timed(1) / timed(2)


def environment(work: Path, unset: dict) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs
        highs_version = (f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
                         f"{highs.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs_version = "unknown"
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "two_process_scaling": two_process_scaling(work),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "highs": highs_version,
        "unset_env": unset,
    }


# ---------------------------------------------------------------------------
# Runs


def load_references() -> dict:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    if refs["config"] != CONFIG:
        raise BenchError("the references were pinned for another configuration; run --pin")
    return refs["fixtures"]


def generate(runner: Runner, work: Path) -> dict[int, Path]:
    twins = {}
    for seed in FIXTURE_SEEDS:
        twin = work / f"stock_{seed}.json"
        child = runner.run(munipath_cmd("gen-fixture", "--out", twin, "--buildings", BUILDINGS,
                                        "--seed", seed, "--resolution", RESOLUTION),
                           work / "gen.log")
        if child.code != 0:
            raise BenchError(f"gen-fixture failed: {log_tail(child.log)}")
        twins[seed] = twin
    return twins


def run_one(runner: Runner, workers: int, twin: Path, fixture: int, ref: dict,
            work: Path, traced: bool, tag: str) -> Sample:
    out = work / f"out_{tag}"
    out.mkdir()
    spans = out / "spans.json" if traced else None
    child = runner.run(pathway_cmd(workers, twin, out, spans), out / "run.log")
    sample = Sample(fixture, traced, child, twin.stat().st_size)
    check(sample, out, ref, spans)
    return sample


def setup_time(runner: Runner, twin: Path, work: Path) -> float:
    child = runner.run(munipath_cmd("validate", twin), work / "validate.log")
    if child.code != 0:
        raise BenchError(f"validate failed: {log_tail(child.log)}")
    return child.wall_s


def measure(runner: Runner, workers: int, twins: dict[int, Path], order: list[int],
            refs: dict, work: Path, seconds: float,
            trace: bool) -> tuple[list[Sample], list[float]]:
    """Pathway runs, cycling through the fixtures, until the next would
    overrun; returns them and the set-up times.

    At least one round is made.  A traced run starts with one untraced
    round, the baseline of the tracing overhead, and always makes at least
    one traced round.
    """
    samples: list[Sample] = []
    setup: list[float] = []
    rounds = 2 if trace else 1
    start = time.perf_counter()
    while True:
        i = len(samples)
        fixture = order[i % len(order)]
        samples.append(run_one(runner, workers, twins[fixture], fixture, refs[str(fixture)],
                               work, trace and i >= len(order), str(i)))
        setup += [setup_time(runner, twins[fixture], work) for _ in range(SETUP_PER_RUN)]
        elapsed = time.perf_counter() - start
        if i + 1 >= rounds * len(order) and elapsed * (i + 2) / (i + 1) > seconds:
            return samples, setup


def verify_ties(runner: Runner, workers: int, twins: dict[int, Path], refs: dict,
                samples: list[Sample], work: Path) -> None:
    """Verify the chain of each fixture whose document differed from the pin."""
    for fixture in sorted({s.fixture for s in samples if s.tied}):
        check_run = run_one(runner, workers, twins[fixture], fixture, refs[str(fixture)],
                            work, True, f"tie{fixture}")
        for s in samples:
            if s.fixture == fixture and s.tied:
                s.problems += check_run.problems


def pin(runner: Runner, work: Path) -> None:
    """Pin each fixture's answers from a serial traced run whose chain verifies."""
    entries = {}
    for seed, twin in generate(runner, work).items():
        out = work / f"pin_{seed}"
        out.mkdir()
        spans = out / "spans.json"
        child = runner.run(pathway_cmd(1, twin, out, spans), out / "run.log")
        if child.code != 0:
            raise BenchError(f"pin run failed: {log_tail(child.log)}")
        problems = json.loads(spans.read_text(encoding="utf-8"))["chain_problems"]
        if problems:
            raise BenchError(f"pin run of fixture {seed}: chain {problems}")
        objectives, sha = pathway_answers(out)
        entries[str(seed)] = {"objectives": objectives, "path_sha256": sha}
    pinned = {"config": CONFIG, "fixtures": entries}
    REFERENCES.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES.relative_to(ROOT)}")


def report(wl_name: str, samples: list[Sample], setup: list[float], trace: bool) -> dict:
    done = [s for s in samples if s.completed]
    plain = [s for s in done if not s.traced]
    if not plain:
        raise BenchError("no run completed")
    print(describe_timing("run_s per pathway run", [s.child.wall_s for s in plain]))
    print(describe_timing("setup_s", setup))
    failed = sum(1 for s in samples if s.problems)
    print(f"objective_rel_dev: {max(s.rel_dev for s in samples):.3e} (limit mip_gap {MIP_GAP})")
    print(f"failed_ratio: {failed}/{len(samples)}; "
          f"tied optima: {sum(1 for s in samples if s.tied)}")
    for s in samples:
        for p in s.problems:
            print(f"FAILED fixture {s.fixture}: {p}")
    if not trace:
        return {"run_s": fixture_mean(plain, lambda s: s.child.wall_s),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": fixture_mean(plain, lambda s: s.child.rss_mb)}
    traced = [s for s in done if s.traced]
    if not traced:
        raise BenchError("no traced run completed")
    per_run = {id(s): layer_metrics(s) for s in traced}
    metrics = {name: fixture_mean(traced, lambda s, n=name: per_run[id(s)][n])
               for name in per_run[id(traced[0])]}
    # the free-solve distribution pools every traced run's free solves
    free = [t for s in traced for t in free_solve_times(s.trace)]
    for name, q in (("solver.free_p50_s", 0.5), ("solver.free_p90_s", 0.9),
                    ("solver.free_max_s", 1.0)):
        metrics[name] = nearest_rank(free, q) if free else 0.0
    untraced = fixture_mean(plain, lambda s: s.child.wall_s)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced
    print(accounting(metrics, untraced))
    metrics = {name: metrics[name] for name in PER_LAYER}
    WORK.mkdir(exist_ok=True)
    spans_out = WORK / f"spans_{wl_name}.json"
    spans_out.write_text(json.dumps([{"fixture": s.fixture, "wall_s": s.child.wall_s,
                                      **s.trace} for s in traced]), encoding="utf-8")
    print(f"spans of {len(traced)} traced runs: {spans_out.relative_to(ROOT)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned reference answers and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "munipath" / "__init__.py").is_file():
        print(f"no munipath sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    env, unset = child_env()
    runner = Runner(env, time.perf_counter() + DEADLINE_S)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.pin:
            runner.deadline = time.perf_counter() + 3600.0
            pin(runner, work)
            return 0
        workers = WORKLOADS[args.workload]
        refs = load_references()
        k = len(FIXTURE_SEEDS)
        order = [FIXTURE_SEEDS[(args.seed + i) % k] for i in range(k)]
        print("env " + json.dumps(environment(work, unset), sort_keys=True))
        print("config " + json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workers": workers, "fixture_order": order,
            **CONFIG}, sort_keys=True))
        twins = generate(runner, work)
        samples, setup = measure(runner, workers, twins, order, refs, work, args.seconds,
                                 bool(args.trace))
        verify_ties(runner, workers, twins, refs, samples, work)
        metrics = report(args.workload, samples, setup, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(1 for s in samples if s.problems)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
