"""End-to-end runs of the command-line front end (subprocess level)."""

import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from munipath import cli, model, pathway
from munipath.catalog import default_catalog, save_catalog
from munipath.scenario import default_scenario, save_scenario
from munipath.solver import SolverError
from munipath.twin import load_twin

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
    for backend in ("bogus", "external:cat"):
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
    def broken_solve(request, backend=None, params=None):
        raise SolverError("the solver crashed")

    monkeypatch.setattr(model, "solve", broken_solve)
    code = cli.main(["pathway", str(twin2), "--periods", "2023,2030",
                     "--out-dir", str(tmp_path / "out"), "--workers", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "solver failure" in err
    assert "Traceback" not in err


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


def test_backend_flag_reaches_every_solve(twin2, tmp_path, monkeypatch):
    backends = []
    real_solve = model.solve

    def recording_solve(request, backend=None, params=None):
        backends.append(backend)
        return real_solve(request, backend=backend, params=params)

    monkeypatch.setattr(model, "solve", recording_solve)
    code = cli.main(["pathway", str(twin2), "--periods", "2023,2030",
                     "--out-dir", str(tmp_path / "out"), "--workers", "1",
                     "--backend", "highs"])
    assert code == 0
    assert backends and set(backends) == {"highs"}


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
