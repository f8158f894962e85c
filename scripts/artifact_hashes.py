#!/usr/bin/env python3
"""Hash the artifacts of a fixed set of CLI runs.

Runs each of the nineteen commands below, with its own output and
eigenbasis cache directories under one temporary directory, and prints one
JSON object that maps "<command>/<file>" to the sha256 of every CSV, SVG and
solution.bin written.  Two checkouts that print the same object write the
same artifact bytes.  The commands' own gate lines go to standard error; the
exit status is 1 if any command did not pass.

With ``--against FILE`` the object is compared with a saved one instead of
printed: every key whose hash moved, appeared or vanished is printed, and
the exit status is 1 on any difference (or if a command did not pass).

Usage: python3 scripts/artifact_hashes.py > parent.json
       python3 scripts/artifact_hashes.py --against parent.json
"""

import argparse
import contextlib
import json
import sys
import tempfile
from pathlib import Path

from thinepi.artifacts import sha256_file
from thinepi.cli import main as cli_main

COMMANDS = (
    "spectral",
    "spectral --n 2",
    "epi-check",
    "epi-check --m 1",
    "epi-check --n 2",
    "epi-check --m 1 --negative",
    "epi-check --m 2 --negative",
    "solve",
    "frequency",
    "blowup",
    "stratify",
    "gap-demo",
    "frequency --case quartic",
    "stratify --case quartic",
    "blowup --case solved",
    "solve --case profile-3d --resolution 16",
    "frequency --case profile-3d --resolution 16",
    "stratify --case profile-3d --resolution 16",
    "solve --resolution 128",
)
HASHED = ("*.csv", "*.svg", "solution.bin")


def compare(saved: dict, hashes: dict) -> list[str]:
    """One line per key whose hash moved, appeared or vanished."""
    lines = []
    for key in sorted(saved.keys() | hashes.keys()):
        if key not in hashes:
            lines.append(f"vanished: {key}")
        elif key not in saved:
            lines.append(f"appeared: {key}")
        elif saved[key] != hashes[key]:
            lines.append(f"moved:    {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Hash the artifacts of a fixed set of CLI runs.")
    parser.add_argument("--against", metavar="FILE",
                        help="compare with a hash object saved from a plain run")
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        saved = json.loads(Path(args.against).read_text())
    hashes, failed = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for k, command in enumerate(COMMANDS):
            out = Path(tmp) / f"out{k}"
            argv = command.split() + ["--out", str(out),
                                      "--cache-dir", str(Path(tmp) / f"cache{k}")]
            print(f"$ thin-epi {command}", file=sys.stderr)
            with contextlib.redirect_stdout(sys.stderr):
                code = cli_main(argv)
            if code != 0:
                failed.append(command)
            files = sorted({path for pattern in HASHED for path in out.rglob(pattern)})
            for path in files:
                hashes[f"{command}/{path.relative_to(out)}"] = sha256_file(path)
    for command in failed:
        print(f"did not pass: thin-epi {command}", file=sys.stderr)
    if saved is None:
        print(json.dumps(hashes, indent=1, sort_keys=True))
        return 1 if failed else 0
    differences = compare(saved, hashes)
    for line in differences:
        print(line)
    print(f"{len(differences)} of {len(saved.keys() | hashes.keys())} "
          f"keys differ from {args.against}")
    return 1 if failed or differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
