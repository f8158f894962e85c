"""Shared test set-up."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import thinepi


@pytest.fixture(scope="session", autouse=True)
def _temporary_eigenbasis_cache(tmp_path_factory):
    """Point the default eigenbasis cache at a temporary directory, so calls
    that pass no ``cache_dir`` never write to ``~/.cache/thin-epi``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("THIN_EPI_CACHE",
                     str(tmp_path_factory.mktemp("eigenbasis-cache")))
        yield


@dataclass
class HashedRuns:
    """What ``record_runs.py`` reports: the hashed file patterns; per
    command its exit code, output directory, rerun directory, and whether
    the rerun passed with which params; and the (module, name, first line)
    of every function of the package entered."""

    hashed: list
    runs: list
    entered: set


@pytest.fixture(scope="session")
def hashed_runs(tmp_path_factory):
    """The hashed commands and their reruns, run once per session in a
    fresh process by ``record_runs.py``."""
    work = tmp_path_factory.mktemp("hashed")
    env = dict(os.environ, PYTHONPATH=str(Path(thinepi.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("record_runs.py")),
         str(work)], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    runs = [(command, code, Path(first), Path(again), passed, params)
            for command, code, first, again, passed, params in result["runs"]]
    return HashedRuns(result["hashed"], runs,
                      {tuple(key) for key in result["entered"]})
