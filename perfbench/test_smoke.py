"""Smoke test of the benchmark itself: every workload at a tiny budget.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run exits 0, prints the result object last, emits every
metric named in BENCHMARK.json with its unit, and that the traced run's
span file parses into a well-formed tree.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
SEED = 424242


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--scale", "0.02"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        return

    run_dir = HERE / "out" / f"{workload}-seed{SEED}-trace1"
    record = json.loads((run_dir / "result.json").read_text(encoding="utf8"))
    assert record["meta"]["seed"] == SEED and len(record["digest"]) == 1
    paths = sorted(run_dir.glob("spans-threads*.csv"))
    assert paths
    for path in paths:
        with open(path, newline="", encoding="utf8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, path
        ids = {int(r["id"]) for r in rows}
        for r in rows:
            assert float(r["end"]) >= float(r["start"])
            parent = int(r["parent"])
            assert parent in ids or (parent == -1 and r["name"].startswith("cli."))
