"""The study scripts of ``scripts/`` run end to end at their smallest size
and write the tables they name."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CASES = ("m0-n1-positive", "m1-n1-positive", "m0-n2-positive",
         "m1-n1-negative", "m2-n1-negative")


@pytest.mark.parametrize("script, args, tables", [
    pytest.param("run_blowup_ladder.py", ["--seeds", "1"],
                 ["decay_m0.csv", "decay_m1.csv", "ladder_study.csv",
                  "solved_exponents.csv"], id="blowup-ladder"),
    pytest.param("run_energy_improvement_sweep.py", ["--trials", "3"],
                 [f"{case}/epi.csv" for case in CASES], id="energy-sweep"),
    pytest.param("run_frequency_refinement.py", ["--resolutions", "32"],
                 ["frequency_res32.csv", "summary.csv"],
                 id="frequency-refinement"),
])
def test_study_script_runs(tmp_path, script, args, tables):
    env = dict(os.environ, THIN_EPI_CACHE=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(out),
         *args], env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    for table in tables:
        lines = (out / table).read_text().splitlines()
        assert len(lines) >= 2, table     # a header and at least one row
