"""Deterministic run artifacts: CSV tables, content hashes, run manifests.

Every float is written with 17 significant digits so that identical inputs
produce byte-identical CSV bodies; manifests list each produced file with its
SHA-256 content hash.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "fmt17", "format_cell", "write_csv", "read_csv", "sha256_file",
    "CheckResult", "RunManifest", "hash_files", "load_manifest",
]


def fmt17(x) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def format_cell(value) -> str:
    """Render one CSV cell: bools as true/false, floats via :func:`fmt17`."""
    if type(value) is float:          # the common cell, as fmt17 writes it
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt17(value)
    if value is None:
        return ""
    return str(value)


def write_csv(path, rows, fieldnames=None) -> Path:
    """Write dict rows as CSV with a header row and LF newlines.

    ``fieldnames`` defaults to the keys of the first row (required when
    ``rows`` is empty).
    """
    path = Path(path)
    rows = list(rows)
    if fieldnames is None:
        if not rows:
            raise ValueError("cannot infer CSV fieldnames from zero rows")
        fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([format_cell(row.get(name)) for name in fieldnames])
    return path


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> list[dict]:
    """Read a CSV written by :func:`write_csv` back into typed dict rows.

    Raises ``ValueError`` on an empty file or a header with no data rows.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        table = list(reader)
    if not table:
        raise ValueError(f"empty CSV: {path}")
    header, body = table[0], table[1:]
    if not body:
        raise ValueError(f"CSV has a header but no data rows: {path}")
    rows = []
    for line in body:
        if len(line) != len(header):
            raise ValueError(
                f"malformed CSV row in {path}: expected {len(header)} cells, "
                f"got {len(line)}")
        rows.append({name: _parse_cell(cell) for name, cell in zip(header, line)})
    return rows


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def hash_files(paths, base_dir) -> list[dict]:
    """Hash files at the paths given and report them relative to
    ``base_dir``, sorted by path.  Each path must lie under ``base_dir``."""
    base = Path(base_dir)
    entries = []
    for path in paths:
        path = Path(path)
        entries.append({"path": str(path.relative_to(base)),
                        "sha256": sha256_file(path)})
    entries.sort(key=lambda entry: entry["path"])
    return entries


@dataclass
class CheckResult:
    """One gated pass/fail check attached to a run."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "detail": self.detail}


@dataclass
class RunManifest:
    """Record of one CLI run: config, produced files with hashes, timings,
    and the gated check results."""

    config: dict
    version: str
    files: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "format": "thin-epi-manifest-v1",
            "version": self.version,
            "config": self.config,
            "files": list(self.files),
            "timings": {key: round(float(val), 3)
                        for key, val in sorted(self.timings.items())},
            "checks": [check.to_dict() for check in self.checks],
            "passed": self.passed,
        }

    def write(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=False)
                        + "\n")
        return path


def load_manifest(path) -> RunManifest:
    data = json.loads(Path(path).read_text())
    if data.get("format") != "thin-epi-manifest-v1":
        raise ValueError(f"not a run manifest: {path}")
    manifest = RunManifest(config=data["config"], version=data["version"],
                           files=data["files"], timings=data["timings"])
    manifest.checks = [CheckResult(c["name"], bool(c["passed"]),
                                   c.get("detail", ""))
                       for c in data["checks"]]
    return manifest
