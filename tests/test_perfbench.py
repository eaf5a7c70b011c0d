"""The benchmark's traced child still finds every layer it wraps.

``perfbench/traced.py`` replaces munipath functions by name and tells solve
roles apart by ``optimize_building``'s keywords.  A rename there would not
fail the benchmark; its per-layer metrics would just read zero.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from munipath import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory, child_env):
    """The traced child's exit and its span names, for a 2-building run."""
    tmp_path = tmp_path_factory.mktemp("traced")
    twin_path = tmp_path / "twin.json"
    assert cli.main(["gen-fixture", "--out", str(twin_path), "--buildings", "2",
                     "--seed", "11", "--resolution", "240"]) == 0
    spans_path = tmp_path / "spans.json"
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path),
         str(twin_path), "--periods", "2023,2030", "--workers", "1",
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env, timeout=300)
    doc = json.loads(spans_path.read_text()) if res.returncode == 0 else None
    return res, doc


def test_traced_child_sees_every_role_and_solve(traced_run):
    res, doc = traced_run
    assert res.returncode == 0, res.stderr

    assert doc["chain_problems"] == []
    spans = doc["spans"] + doc["worker_spans"]
    names = Counter(s["name"] for s in spans)
    roles = Counter(s["attrs"]["role"] for s in spans
                    if s["name"] == "model.optimize_building")
    assert {r: roles[r] for r in ("status_quo", "frozen", "free")} == {
        "status_quo": 2, "frozen": 2, "free": 2}
    assert names["model.solve"] > 0


@pytest.mark.xfail(strict=True, reason=(
    "perfbench/traced.py counts HiGHS solves by wrapping scipy.optimize.milp, "
    "which munipath no longer calls; ROADMAP item 6 reads them from SolveOutcome"))
def test_traced_child_sees_every_highs_solve(traced_run):
    res, doc = traced_run
    assert res.returncode == 0, res.stderr
    names = Counter(s["name"] for s in doc["spans"] + doc["worker_spans"])
    assert names["solver.milp"] == names["model.solve"]
