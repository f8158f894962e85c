"""Artifact layer: 17-significant-digit CSV round-trips, content hashes,
run manifests, and deterministic SVG rendering."""

import hashlib
import json

import numpy as np
import pytest

from thinepi.artifacts import (CheckResult, RunManifest, fmt17, format_cell,
                               hash_files, load_manifest, read_csv,
                               sha256_file, write_csv)
from thinepi.svgplot import Figure, histogram, line_plot, loglog_plot


# ---------------------------------------------------------------------------
# Float formatting
# ---------------------------------------------------------------------------

def test_fmt17_round_trips_exactly():
    rng = np.random.default_rng(0)
    values = np.concatenate([
        rng.standard_normal(50),
        10.0 ** rng.uniform(-300, 300, size=50) * np.sign(rng.standard_normal(50)),
        [0.0, 1.0, -1.0, np.pi, 2.0 / 3.0],
    ])
    for x in values:
        assert float(fmt17(x)) == float(x)


def test_fmt17_known_values():
    assert fmt17(np.pi) == "3.1415926535897931"
    assert fmt17(0.1) == "0.10000000000000001"
    assert fmt17(1.0) == "1"


def test_format_cell_types():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(np.bool_(True)) == "true"
    assert format_cell(3) == "3"
    assert format_cell(np.int64(-4)) == "-4"
    assert format_cell(0.5) == "0.5"
    assert format_cell(np.float64(0.5)) == "0.5"
    assert format_cell(None) == ""
    assert format_cell("label") == "label"


def _format_cell_reference(value) -> str:
    """The cell rules as an isinstance chain, without a fast path."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    return str(value)


class _LoudFloat(float):
    """A float subclass that formats itself differently from a float."""

    def __format__(self, spec):
        return "loud"

    def __str__(self):
        return "loud"


@pytest.mark.parametrize("value", [
    0.1, 1.0 / 3.0, 1e-300, -0.0, 0.0, float("nan"), float("inf"),
    float("-inf"), 5e-324, 1.7976931348623157e308,
    np.float64(0.1), np.float64(-0.0), np.float64("nan"),
    np.float32(0.1), np.float32("inf"), _LoudFloat(0.1),
    True, False, np.bool_(True), np.bool_(False),
    0, -4, 10 ** 20, np.int64(-4), np.int32(7), np.uint8(255),
    None, "label", "",
])
def test_format_cell_matches_reference_rules(value):
    assert format_cell(value) == _format_cell_reference(value)


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_preserves_types_and_values(tmp_path):
    rng = np.random.default_rng(1)
    rows = [{"i": int(k), "x": float(rng.standard_normal()),
             "flag": bool(k % 2), "name": f"row{k}"} for k in range(20)]
    path = write_csv(tmp_path / "table.csv", rows)
    back = read_csv(path)
    assert len(back) == 20
    for row, orig in zip(back, rows):
        assert row["i"] == orig["i"] and isinstance(row["i"], int)
        assert row["x"] == orig["x"]
        assert row["flag"] is orig["flag"]
        assert row["name"] == orig["name"]


def test_csv_bytes_deterministic(tmp_path):
    rows = [{"x": 1.0 / 3.0, "y": True}, {"x": -2.5e-17, "y": False}]
    a = write_csv(tmp_path / "a.csv", rows)
    b = write_csv(tmp_path / "b.csv", rows)
    assert a.read_bytes() == b.read_bytes()
    assert b"0.33333333333333331" in a.read_bytes()
    assert a.read_text().endswith("\n")
    assert "\r" not in a.read_text()


def test_write_csv_empty_rows_needs_fieldnames(tmp_path):
    with pytest.raises(ValueError, match="fieldnames"):
        write_csv(tmp_path / "x.csv", [])
    path = write_csv(tmp_path / "x.csv", [], fieldnames=["a", "b"])
    assert path.read_text() == "a,b\n"


def test_read_csv_rejects_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty CSV"):
        read_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_csv(header_only)


def test_read_csv_rejects_ragged_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="malformed"):
        read_csv(bad)


# ---------------------------------------------------------------------------
# Hashing and manifests
# ---------------------------------------------------------------------------

def test_sha256_file_matches_direct_hash(tmp_path):
    path = tmp_path / "blob.bin"
    payload = bytes(range(256)) * 300
    path.write_bytes(payload)
    assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


def test_hash_files_relative_and_sorted(tmp_path):
    (tmp_path / "b.txt").write_text("bee")
    (tmp_path / "a.txt").write_text("ay")
    entries = hash_files([tmp_path / "b.txt", tmp_path / "a.txt"], tmp_path)
    assert [e["path"] for e in entries] == ["a.txt", "b.txt"]
    assert all(len(e["sha256"]) == 64 for e in entries)


def test_manifest_round_trip_and_passed(tmp_path):
    manifest = RunManifest(
        config={"subcommand": "gap-demo", "seed": 7},
        version="0.1.0",
        files=[{"path": "gap.csv", "sha256": "0" * 64}],
        timings={"total": 0.25},
        checks=[CheckResult("a", True, "fine"),
                CheckResult("b", True)])
    assert manifest.passed
    path = manifest.write(tmp_path / "manifest.json")
    data = json.loads(path.read_text())
    assert data["format"] == "thin-epi-manifest-v1"
    assert data["passed"] is True
    back = load_manifest(path)
    assert back.config == manifest.config
    assert [c.name for c in back.checks] == ["a", "b"]
    assert back.passed

    manifest.checks.append(CheckResult("c", False, "broken"))
    assert not manifest.passed


def test_load_manifest_rejects_other_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError, match="not a run manifest"):
        load_manifest(path)


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def test_svg_line_plot_is_self_contained_and_deterministic(tmp_path):
    xs = np.linspace(0.1, 0.6, 12)
    ys = 1.5 + 0.01 * np.sin(20 * xs)
    a = line_plot(tmp_path / "a.svg", xs, ys, title="curve",
                  xlabel="radius", ylabel="value")
    b = line_plot(tmp_path / "b.svg", xs, ys, title="curve",
                  xlabel="radius", ylabel="value")
    text = a.read_text()
    assert a.read_bytes() == b.read_bytes()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "polyline" in text
    assert "href" not in text and "url(" not in text
    assert "curve" in text and "radius" in text


def test_svg_loglog_plot_with_fit_line(tmp_path):
    radii = np.geomspace(0.01, 0.6, 10)
    dist = 0.3 * radii ** 0.5
    path = loglog_plot(tmp_path / "fit.svg", radii, dist, slope=0.5,
                       intercept=np.log(0.3), title="decay")
    text = path.read_text()
    assert text.count("<circle") == 10
    assert "stroke-dasharray" in text     # the fitted line
    assert "slope 0.500" in text


def test_svg_histogram_counts_every_value(tmp_path):
    values = np.concatenate([np.zeros(5), np.ones(3), 2 * np.ones(2)])
    path = histogram(tmp_path / "h.svg", values, bins=4)
    text = path.read_text()
    assert text.count("<rect") >= 3       # background, frame, bars


def test_svg_log_axis_rejects_nonpositive_only_series(tmp_path):
    fig = Figure(xlog=True, ylog=True)
    with pytest.raises(ValueError, match="no plottable points"):
        fig.add_points([0.0, -1.0], [1.0, 2.0])


def test_svg_figure_requires_data():
    with pytest.raises(ValueError, match="no data series"):
        Figure().render()


def test_svg_histogram_rejects_empty():
    with pytest.raises(ValueError, match="no finite values"):
        histogram("/tmp/never.svg", [np.nan, np.inf])
