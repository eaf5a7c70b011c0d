"""The benchmark's traced child still finds every layer it wraps.

``perfbench/traced.py`` replaces munipath functions by name and tells solve
roles apart by ``optimize_building``'s keywords.  A rename there would not
fail the benchmark; its per-layer metrics would just read zero.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from munipath import cli

ROOT = Path(__file__).resolve().parent.parent


def test_traced_child_sees_every_role_and_solve(tmp_path):
    twin_path = tmp_path / "twin.json"
    assert cli.main(["gen-fixture", "--out", str(twin_path), "--buildings", "2",
                     "--seed", "11", "--resolution", "240"]) == 0
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + [os.path.abspath(p) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path),
         str(twin_path), "--periods", "2023,2030", "--workers", "1",
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr

    doc = json.loads(spans_path.read_text())
    assert doc["chain_problems"] == []
    spans = doc["spans"] + doc["worker_spans"]
    names = Counter(s["name"] for s in spans)
    roles = Counter(s["attrs"]["role"] for s in spans
                    if s["name"] == "model.optimize_building")
    assert {r: roles[r] for r in ("status_quo", "frozen", "free")} == {
        "status_quo": 2, "frozen": 2, "free": 2}
    assert names["model.solve"] > 0
    assert names["solver.milp"] == names["model.solve"]
