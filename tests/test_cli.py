"""End-to-end runs of the command-line front end (subprocess level)."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from munipath import cli, model, pathway
from munipath.catalog import default_catalog, save_catalog
from munipath.fixtures import make_fixture_twin
from munipath.scenario import default_scenario, save_scenario
from munipath.solver import SolverError, SolveStatus
from munipath.twin import TimeGrid, load_twin, save_twin

from test_pathway import _fail_solves

EXE = [sys.executable, "-m", "munipath"]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    # The child resolves relative PYTHONPATH entries against its own working
    # directory, which cwd= changes.
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) for entry in env["PYTHONPATH"].split(os.pathsep))
    return subprocess.run(EXE + list(args), capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=560)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One pathway run shared by the output-shape tests: 5 buildings, 2 stages."""
    root = tmp_path_factory.mktemp("cli_run")
    twin_path = root / "twin.json"
    gen = run_cli("gen-fixture", "--out", str(twin_path),
                  "--buildings", "5", "--seed", "3")
    assert gen.returncode == 0, gen.stderr
    out_dir = root / "out"
    res = run_cli("pathway", str(twin_path), "--periods", "2023,2033",
                  "--out-dir", str(out_dir), "--mip-gap", "1e-4",
                  "--workers", "1")
    assert res.returncode == 0, res.stderr
    return root, twin_path, out_dir, res


def test_run_cli_works_from_another_directory(tmp_path):
    res = run_cli("--version", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "munipath" in res.stdout


def test_gen_fixture_then_validate(tmp_path):
    twin_path = tmp_path / "twin.json"
    gen = run_cli("gen-fixture", "--out", str(twin_path), "--buildings", "4")
    assert gen.returncode == 0, gen.stderr
    assert twin_path.exists()
    res = run_cli("validate", str(twin_path))
    assert res.returncode == 0, res.stderr
    assert "OK" in res.stdout
    assert "4 buildings" in res.stdout


@pytest.mark.parametrize("option, value", [
    ("--buildings", "0"), ("--buildings", "-3"),
    ("--resolution", "7"), ("--resolution", "0"), ("--resolution", "-60"),
    ("--seed", "-1"),
])
def test_gen_fixture_bad_argument_exits_2(tmp_path, capsys, option, value):
    out = tmp_path / "twin.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-fixture", "--out", str(out), option, value])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_validate_duplicate_id_exits_1(tmp_path):
    twin_path = tmp_path / "twin.json"
    gen = run_cli("gen-fixture", "--out", str(twin_path), "--buildings", "2")
    assert gen.returncode == 0
    doc = json.loads(twin_path.read_text())
    doc["buildings"][1]["id"] = doc["buildings"][0]["id"]
    twin_path.write_text(json.dumps(doc))
    res = run_cli("validate", str(twin_path))
    assert res.returncode == 1
    assert doc["buildings"][0]["id"] in res.stderr


def test_missing_file_exits_2(tmp_path):
    res = run_cli("validate", str(tmp_path / "nope.json"))
    assert res.returncode == 2
    assert "no such file" in res.stderr


def test_pathway_outputs(small_run):
    root, twin_path, out_dir, res = small_run
    assert (out_dir / "path.json").exists()
    assert (out_dir / "report.csv").exists()
    for year in (2023, 2033):
        assert (out_dir / f"report_{year}.csv").exists()
        assert (out_dir / f"stock_{year}.geojson").exists()
    # run summary on stdout: one line per stage
    assert "2023" in res.stdout and "2033" in res.stdout

    doc = json.loads((out_dir / "path.json").read_text())
    assert doc["stage_years"] == [2023, 2033]
    assert len(doc["stages"]) == 2

    geo = json.loads((out_dir / "stock_2033.geojson").read_text())
    assert geo["type"] == "FeatureCollection"
    assert len(geo["features"]) == 5

    header = (out_dir / "report.csv").read_text().splitlines()[0]
    assert header == "stage_year,metric,key,value"


def test_report_is_pure_and_matches_pathway_outputs(small_run, tmp_path):
    root, twin_path, out_dir, _ = small_run
    doc_path = out_dir / "path.json"
    before = doc_path.read_bytes()
    re_out = tmp_path / "re"
    res = run_cli("report", str(doc_path), "--out-dir", str(re_out))
    assert res.returncode == 0, res.stderr
    assert doc_path.read_bytes() == before  # report never re-solves or rewrites
    for name in ("report.csv", "report_2023.csv", "report_2033.csv",
                 "stock_2023.geojson", "stock_2033.geojson"):
        assert (re_out / name).read_bytes() == (out_dir / name).read_bytes()


def test_paths_that_look_like_documents_are_paths(small_run, tmp_path, monkeypatch, capsys):
    # relative names, so each argument starts with "{" as a document would
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-fixture", "--out", "{twin}.json", "--buildings", "2"]) == 0
    save_catalog(default_catalog(), "{catalog}.json")
    save_scenario(default_scenario(), "{scenario}.json")
    code = cli.main(["validate", "{twin}.json", "--catalog", "{catalog}.json",
                     "--scenario", "{scenario}.json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "2 buildings" in out

    (tmp_path / "{path}.json").write_bytes((small_run[2] / "path.json").read_bytes())
    code = cli.main(["report", "{path}.json", "--out-dir", "re"])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "re" / "report.csv").exists()


def test_report_year_filter(small_run, tmp_path):
    _, _, out_dir, _ = small_run
    only = tmp_path / "only2033"
    res = run_cli("report", str(out_dir / "path.json"),
                  "--out-dir", str(only), "--year", "2033")
    assert res.returncode == 0, res.stderr
    assert sorted(p.name for p in only.iterdir()) == [
        "report_2033.csv", "stock_2033.geojson"]


def test_report_rejects_unknown_year(small_run, tmp_path):
    _, _, out_dir, _ = small_run
    res = run_cli("report", str(out_dir / "path.json"),
                  "--out-dir", str(tmp_path), "--year", "2050")
    assert res.returncode == 2
    assert "2050" in res.stderr


def test_report_rejects_corrupt_document(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    res = run_cli("report", str(bad), "--out-dir", str(tmp_path / "o"))
    assert res.returncode == 2

    not_a_path = tmp_path / "other.json"
    not_a_path.write_text(json.dumps({"something": "else"}))
    res2 = run_cli("report", str(not_a_path), "--out-dir", str(tmp_path / "o2"))
    assert res2.returncode == 2
    assert "not a pathway document" in res2.stderr


def test_report_output_independent_of_hash_seed(small_run, tmp_path):
    _, _, out_dir, _ = small_run
    outs = []
    for seed in ("1", "99"):
        dst = tmp_path / f"seed{seed}"
        res = run_cli("report", str(out_dir / "path.json"), "--out-dir", str(dst),
                      env_extra={"PYTHONHASHSEED": seed})
        assert res.returncode == 0, res.stderr
        outs.append({p.name: p.read_bytes() for p in dst.iterdir()})
    assert outs[0] == outs[1]


def test_pathway_bad_periods_exits_2(tmp_path):
    twin_path = tmp_path / "twin.json"
    run_cli("gen-fixture", "--out", str(twin_path), "--buildings", "2")
    res = run_cli("pathway", str(twin_path), "--periods", "soon,later",
                  "--out-dir", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "--periods" in res.stderr


@pytest.fixture(scope="module")
def twin2(tmp_path_factory):
    twin_path = tmp_path_factory.mktemp("twin2") / "twin.json"
    gen = run_cli("gen-fixture", "--out", str(twin_path), "--buildings", "2")
    assert gen.returncode == 0, gen.stderr
    return twin_path


def test_validate_reads_the_catalog_option(twin2, tmp_path):
    doc = default_catalog().to_dict()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    res = run_cli("validate", str(twin2), "--catalog", str(good))
    assert res.returncode == 0, res.stderr
    doc["technologies"][0]["capex_fix"] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli("validate", str(twin2), "--catalog", str(bad))
    assert res.returncode == 1  # invalid input data
    assert "negative cost entry" in res.stderr
    res = run_cli("validate", str(twin2), "--catalog", str(tmp_path / "none.json"))
    assert res.returncode == 2  # I/O
    assert "no such file" in res.stderr


def test_pathway_unknown_backend_exits_2(twin2, tmp_path):
    # there is no --backend option: every value fails at argument parsing
    for backend in ("bogus", "external:cat", "highs", "reference"):
        res = run_cli("pathway", str(twin2), "--periods", "2023,2030",
                      "--out-dir", str(tmp_path / "out"), "--backend", backend)
        assert res.returncode == 2, backend
        assert "--backend" in res.stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("limit", ["-1", "0", "nan", "soon"])
def test_pathway_non_positive_time_limit_exits_2(twin2, tmp_path, limit):
    res = run_cli("pathway", str(twin2), "--periods", "2023,2030",
                  "--out-dir", str(tmp_path / "out"), "--time-limit", limit)
    assert res.returncode == 2
    assert "--time-limit" in res.stderr
    assert not (tmp_path / "out").exists()


class _BrokenPool:
    """Stand-in for ProcessPoolExecutor whose workers have all died."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        raise BrokenProcessPool("a worker process terminated abruptly")


def test_broken_worker_pool_exits_3(twin2, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pathway, "ProcessPoolExecutor", _BrokenPool)
    code = cli.main(["pathway", str(twin2), "--periods", "2023,2030",
                     "--out-dir", str(tmp_path / "out"), "--workers", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "solver failure" in err
    assert "Traceback" not in err


def test_solver_error_exits_3(twin2, tmp_path, monkeypatch, capsys):
    def broken_solve(request, params=None, start=None):
        raise SolverError("the solver crashed")

    monkeypatch.setattr(model, "solve", broken_solve)
    code = cli.main(["pathway", str(twin2), "--periods", "2023,2030",
                     "--out-dir", str(tmp_path / "out"), "--workers", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "solver failure" in err
    assert "Traceback" not in err


def _summary_counts(stdout: str) -> list[str]:
    """The "not optimal" column of the pathway summary, one entry per stage."""
    return [line.split()[2] for line in stdout.splitlines()[1:]]


def test_optimal_plans_carry_no_status(small_run):
    _, _, out_dir, res = small_run
    doc = json.loads((out_dir / "path.json").read_text())
    for sd in doc["stages"]:
        for entry in sd["buildings"].values():
            assert "status" not in entry and "gap" not in entry
    assert _summary_counts(res.stdout) == ["0", "0"]


def test_plans_not_proven_optimal_are_marked(twin2, tmp_path, monkeypatch, capsys):
    # every solve with a plan stops short of the proof, as at a time limit
    real_solve = model.solve

    def time_limited(request, params=None, start=None):
        out = real_solve(request, params=params)
        if out.status is not SolveStatus.OPTIMAL:
            return out
        return dataclasses.replace(out, status=SolveStatus.FEASIBLE, gap=0.25)

    monkeypatch.setattr(model, "solve", time_limited)
    out_dir = tmp_path / "out"
    code = cli.main(["pathway", str(twin2), "--periods", "2023,2030",
                     "--out-dir", str(out_dir), "--workers", "1"])
    assert code == 0
    doc = json.loads((out_dir / "path.json").read_text())
    counts = []
    for sd in doc["stages"]:
        assert sd["buildings"]
        for entry in sd["buildings"].values():
            assert entry["status"] == "feasible" and entry["gap"] == 0.25
        counts.append(str(len(sd["buildings"])))
    assert _summary_counts(capsys.readouterr().out) == counts


def test_unsolved_buildings_are_counted(twin2, tmp_path, monkeypatch, capsys):
    # b001's free 2030 solve (2023 has only status-quo solves) breaks down
    # numerically; the run still succeeds
    _fail_solves(monkeypatch, "free", {"b001"})
    out_dir = tmp_path / "out"
    code = cli.main(["pathway", str(twin2), "--periods", "2023,2030",
                     "--out-dir", str(out_dir), "--workers", "1"])
    assert code == 0
    doc = json.loads((out_dir / "path.json").read_text())
    assert list(doc["stages"][1]["failed"]) == ["b001"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[4] == "unsolved"
    assert [line.split()[3] for line in lines[1:]] == ["0", "1"]


def test_a_bug_in_the_planner_is_not_an_io_failure(twin2, tmp_path, monkeypatch, capsys):
    # neither an I/O failure nor bad input data: the fault ends with its traceback
    for error in (TypeError, ValueError):
        def buggy_solve(request, params=None, start=None):
            raise error("a bug inside the planner")

        monkeypatch.setattr(model, "solve", buggy_solve)
        with pytest.raises(error, match="a bug inside the planner"):
            cli.main(["pathway", str(twin2), "--periods", "2023,2030",
                      "--out-dir", str(tmp_path / "out"), "--workers", "1"])
        err = capsys.readouterr().err
        assert "I/O failure" not in err
        assert "invalid input" not in err


def test_report_of_a_malformed_document_exits_2(small_run, tmp_path, capsys):
    _, _, out_dir, _ = small_run
    many = json.loads((out_dir / "path.json").read_text())
    many["stages"][0]["report"]["n_buildings"] = "many"
    for name, content in (
            ("missing.json", json.dumps({"stage_years": [2023],
                                         "stages": [{"target_year": 2023}]}).encode()),
            ("not_a_number.json", json.dumps(many).encode()),
            ("not_utf8.json", b'{"stage_years": "\xff"}')):
        doc = tmp_path / name
        doc.write_bytes(content)
        code = cli.main(["report", str(doc), "--out-dir", str(tmp_path / "o")])
        assert code == 2, name
        assert "I/O failure: malformed pathway document" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["twin", "--scenario"])
def test_input_that_is_not_utf8_exits_1(twin2, tmp_path, capsys, option):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"meta": {"id": "Mühlheim"}}'.encode("latin-1"))
    args = [str(bad)] if option == "twin" else [str(twin2), option, str(bad)]
    assert cli.main(["validate", *args]) == 1
    assert "invalid input" in capsys.readouterr().err


def _validate_args(tmp_path, kind: str, keys: tuple, value) -> list[str]:
    """``validate`` arguments for the 2-building 240-minute fixture twin and
    the default catalog and scenario, with the field that ``keys`` lead to
    in the ``kind`` document set to ``value``."""
    docs = {"twin": make_fixture_twin(2, seed=11,
                                      grid=TimeGrid.representative_days(240)).to_dict(),
            "catalog": default_catalog().to_dict(),
            "scenario": default_scenario().to_dict()}
    target = docs[kind]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return ["validate", str(tmp_path / "twin.json"),
            "--catalog", str(tmp_path / "catalog.json"),
            "--scenario", str(tmp_path / "scenario.json")]


# name: (document, keys to the field, a list where an object belongs)
LIST_FOR_OBJECT = {
    "twin_refurb_state": ("twin", ("buildings", 0, "refurb_state"), ["roof"]),
    "twin_demand": ("twin", ("buildings", 0, "demand"), [1.0]),
    "catalog_demand_factor": ("catalog", ("refurbishment", 0, "demand_factor"), [1]),
    "scenario_prices": ("scenario", ("prices",), [1]),
    "scenario_emission_factors": ("scenario", ("emission_factors",), [1]),
}


@pytest.mark.parametrize("case", LIST_FOR_OBJECT)
def test_a_list_for_an_object_is_invalid_input(tmp_path, case):
    res = run_cli(*_validate_args(tmp_path, *LIST_FOR_OBJECT[case]))
    assert res.returncode == 1
    assert res.stderr.startswith("invalid input: malformed")
    assert "Traceback" not in res.stderr


# name: (document, keys to the field, a value out of its range)
OUT_OF_RANGE = {
    "day_weight_negative": ("twin", ("meta", "timegrid", "days", 0, 1), -91.0),
    "day_weight_zero": ("twin", ("meta", "timegrid", "days", 0, 1), 0.0),
    "day_weight_nan": ("twin", ("meta", "timegrid", "days", 0, 1), math.nan),
    "roof_area_nan": ("twin", ("buildings", 0, "roof_area"), math.nan),
    "installed_size_infinite": ("twin", ("buildings", 0, "installed", 0, "size"), math.inf),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_numbers_are_invalid_input(tmp_path, capsys, case):
    assert cli.main(_validate_args(tmp_path, *OUT_OF_RANGE[case])) == 1
    assert capsys.readouterr().err.startswith("invalid input:")


def test_default_workers_are_the_usable_cpus(tmp_path, monkeypatch):
    twin_path = tmp_path / "twin.json"
    save_twin(make_fixture_twin(1, seed=11), twin_path)
    workers = []

    def stub_plan_pathway(*args, **kwargs):
        workers.append(kwargs["workers"])
        raise pathway.PathwayError("stub")

    # 64 host CPUs, of which the process may run on one
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli, "plan_pathway", stub_plan_pathway)
    code = cli.main(["pathway", str(twin_path), "--periods", "2023,2030",
                     "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert workers == [1]


def test_unsolvable_stock_exits_3(tmp_path):
    twin_path = tmp_path / "twin.json"
    gen = run_cli("gen-fixture", "--out", str(twin_path), "--buildings", "2",
                  "--seed", "5")
    assert gen.returncode == 0
    twin = load_twin(twin_path)
    doc = twin.to_dict()
    for rec in doc["buildings"]:
        values = rec["demand"]["space_heat"]["values"]
        rec["demand"]["space_heat"]["values"] = [v + 1e9 for v in values]
    twin_path.write_text(json.dumps(doc))
    res = run_cli("pathway", str(twin_path), "--periods", "2023,2030",
                  "--out-dir", str(tmp_path / "out"), "--workers", "1")
    assert res.returncode == 3
    assert "solver failure" in res.stderr


@pytest.mark.parametrize("periods", ["2023", "2030,2023", "2023,2023"])
def test_pathway_too_few_or_unordered_periods_exits_2(twin2, tmp_path, periods):
    res = run_cli("pathway", str(twin2), "--periods", periods,
                  "--out-dir", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "--periods" in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gap", ["-1", "nan"])
def test_pathway_bad_mip_gap_exits_2(twin2, tmp_path, gap):
    res = run_cli("pathway", str(twin2), "--periods", "2023,2030",
                  "--out-dir", str(tmp_path / "out"), "--mip-gap", gap)
    assert res.returncode == 2
    assert "--mip-gap" in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-2", "1.5", "many"])
def test_pathway_bad_workers_exits_2(twin2, tmp_path, workers):
    res = run_cli("pathway", str(twin2), "--periods", "2023,2030",
                  "--out-dir", str(tmp_path / "out"), "--workers", workers)
    assert res.returncode == 2
    assert "--workers" in res.stderr
    assert not (tmp_path / "out").exists()


# Runs a pathway through cli.main and prints which of the modules that the
# HiGHS solves no longer need were imported: in the process itself, and in
# whichever process ran each building task.
_IMPORTS_SCRIPT = """
import functools, json, os, sys
from munipath import cli, pathway

UNWANTED = ("scipy.optimize", "scipy.sparse")
solve_one, solve_all = pathway._solve_one, pathway._solve_all
seen = []

@functools.wraps(solve_one)
def task(t):
    outcome = solve_one(t)
    outcome.imports = (os.getpid(), [m for m in UNWANTED if m in sys.modules])
    return outcome

def every(tasks, workers):
    outcomes = solve_all(tasks, workers)
    seen.extend(o.imports for o in outcomes)
    return outcomes

pathway._solve_one, pathway._solve_all = task, every
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "pid": os.getpid(), "tasks": seen,
                  "imported": [m for m in UNWANTED if m in sys.modules]}))
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_pathway_imports_neither_scipy_optimize_nor_sparse(tmp_path, child_env, workers):
    twin_path = tmp_path / "twin.json"
    assert cli.main(["gen-fixture", "--out", str(twin_path), "--buildings", "2",
                     "--seed", "11", "--resolution", "240"]) == 0
    res = subprocess.run(
        [sys.executable, "-c", _IMPORTS_SCRIPT, "pathway", str(twin_path),
         "--periods", "2023,2030", "--workers", workers, "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env, timeout=300)
    assert res.returncode == 0, res.stderr
    run = json.loads(res.stdout.splitlines()[-1])
    assert run["code"] == 0
    assert run["imported"] == []
    assert run["tasks"] and all(imported == [] for _, imported in run["tasks"])
    in_workers = {pid for pid, _ in run["tasks"]} - {run["pid"]}
    assert bool(in_workers) == (workers == "2")
