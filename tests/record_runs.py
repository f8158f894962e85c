"""Run the hashed commands and their reruns, and record the functions of
the package that they enter.

    PYTHONPATH=src python3 tests/record_runs.py WORK_DIR

Each command of ``scripts/artifact_hashes.py`` runs through ``cli.main``
with its own output and eigenbasis cache directories under WORK_DIR; then
the config that its manifest records runs again, rebuilt through
``RunConfig.from_dict``, into a new directory.  Meanwhile ``sys.setprofile``
records every function of ``thinepi`` that is entered.  A fresh process
starts with empty caches, so no function is hidden by a result that an
earlier caller left in one.

The last line of standard output is one JSON object: "hashed" holds the
hashed file patterns, "runs" holds [command, exit code, output dir, rerun
dir, rerun passed, rerun params] per command, and "entered" holds [module,
name, first line] per function entered.  The commands' own lines go to
standard error.
"""

import contextlib
import importlib.util
import json
import sys
from pathlib import Path

import thinepi
from thinepi.cli import RunConfig, main, run

ROOT = Path(__file__).resolve().parents[1]


def hashed_commands():
    """COMMANDS and HASHED of ``scripts/artifact_hashes.py``."""
    path = ROOT / "scripts" / "artifact_hashes.py"
    spec = importlib.util.spec_from_file_location("artifact_hashes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS, module.HASHED


def record(work: Path) -> dict:
    package = str(Path(thinepi.__file__).parent)
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            entered.add(frame.f_code)

    commands, hashed = hashed_commands()
    runs = []
    sys.setprofile(profile)
    try:
        for k, command in enumerate(commands):
            first, again = work / f"out{k}", work / f"again{k}"
            code = main(command.split() + [
                "--out", str(first), "--cache-dir", str(work / f"cache{k}")])
            passed = params = None
            if (first / "manifest.json").exists():
                data = json.loads((first / "manifest.json").read_text())
                rerun = run(RunConfig.from_dict(
                    dict(data["config"], out_dir=str(again))))
                passed, params = rerun.passed, rerun.config["params"]
            runs.append([command, code, str(first), str(again), passed,
                         params])
    finally:
        sys.setprofile(None)
    return {"hashed": hashed, "runs": runs,
            "entered": sorted([Path(c.co_filename).stem, c.co_name,
                               c.co_firstlineno] for c in entered)}


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):
        result = record(Path(sys.argv[1]))
    print(json.dumps(result))
