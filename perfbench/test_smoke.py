"""Smoke test of the benchmark at its smallest sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Kept out of the tier-1 suite (``testpaths`` is ``tests``).  Each workload
runs once untraced and once traced; the result line must be well formed,
report no failed op, and name exactly the metrics BENCHMARK.json lists.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_smallest_sizes(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for meta in listed:
        metric = result["metrics"][meta["name"]]
        assert metric["unit"] == meta["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        values = [metric["value"] for metric in result["metrics"].values()]
        assert all(value > 0 for value in values)


def test_refuses_to_run_without_the_program(tmp_path):
    """With only the benchmark's files present, the run fails loudly."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
