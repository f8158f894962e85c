"""Command-line pipelines: config validation, per-subcommand artifacts,
gated exit codes, manifest hashing, and rerun determinism."""

import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import thinepi
from thinepi.artifacts import load_manifest, read_csv, sha256_file
from thinepi.cli import PARAMS, RunConfig, _run_epi, case_spec, main, run
from thinepi.frequency import (stratify_contact, truncated_frequency,
                               weiss_monotonicity_check)
from thinepi.solver import load_solution
from thinepi.traces import TraceBatch, trace_from_profile


def _config(subcommand, out_dir, **params):
    return RunConfig(subcommand=subcommand, out_dir=str(out_dir),
                     params=params, seed=7)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_empty_config_lists_missing_keys():
    with pytest.raises(ValueError) as err:
        RunConfig.from_dict({})
    message = str(err.value)
    assert "missing required keys" in message
    assert "subcommand" in message and "out_dir" in message


def test_unknown_subcommand_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown subcommand"):
        run(RunConfig(subcommand="fit-everything", out_dir=str(tmp_path)))


def test_config_dict_round_trip(tmp_path):
    config = _config("gap-demo", tmp_path, pairs="0:1")
    back = RunConfig.from_dict(config.to_dict())
    assert back == config


@pytest.mark.parametrize("subcommand, params, named", [
    # n = 3 is no choice: the run must not fall back to the n = 2 path
    pytest.param("spectral", {"n": 3, "vectors": 2},
                 "n must be one of 1, 2, got 3", id="spectral-n3"),
    pytest.param("epi-check", {"trails": 2, "trials": 2},
                 "unknown parameters ['trails']", id="epi-check-trails"),
    pytest.param("gap-demo", {"pairz": "0:1"},
                 "unknown parameters ['pairz']", id="gap-demo-pairz"),
    pytest.param("solve", {"case": "bogus"},
                 "case must be one of halfspace, ", id="solve-case"),
    pytest.param("frequency", {"case": "bogus", "resolution": 16},
                 "got 'bogus'", id="frequency-case"),
    pytest.param("stratify", {"case": "bogus"}, "got 'bogus'",
                 id="stratify-case"),
    pytest.param("blowup", {"case": "bogus"},
                 "case must be one of constructed, solved", id="blowup-case"),
    pytest.param("blowup", {"rungs": "many"},
                 "rungs must be int, got 'many'", id="blowup-rungs"),
    # JSON values that a cast would change silently
    pytest.param("epi-check", {"negative": "false"},
                 "negative must be bool, got 'false'",
                 id="epi-check-str-bool"),
    pytest.param("epi-check", {"trials": 2.7},
                 "trials must be int, got 2.7", id="epi-check-fraction"),
    pytest.param("epi-check", {"trials": True},
                 "trials must be int, got True", id="epi-check-bool-int"),
])
def test_bad_params_are_named_before_any_work(tmp_path, subcommand, params,
                                              named):
    data = {"subcommand": subcommand, "out_dir": str(tmp_path / "out"),
            "params": params}
    with pytest.raises(ValueError, match=re.escape(named)):
        RunConfig.from_dict(data)
    with pytest.raises(ValueError, match=re.escape(named)):
        run(RunConfig(**data))
    assert not (tmp_path / "out").exists()
    # the same values as options: the parser exits 2
    argv = [subcommand] + [f"--{key}={value}" for key, value in params.items()]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2


def test_library_defaults_match_the_parameter_table():
    # the CLI's defaults and the library's are one value each
    for function, table, name in (
            (truncated_frequency, "frequency", "count"),
            (stratify_contact, "stratify", "max_points")):
        default = inspect.signature(function).parameters[name].default
        assert PARAMS[table][name][1] == default


def test_manifest_records_resolved_params_and_reruns_to_same_bytes(
        hashed_runs):
    # Each hashed command, then a run of the config its manifest records,
    # rebuilt through RunConfig.from_dict: every hashed file is the same.
    recorded = {}
    for command, code, first, again, passed, params in hashed_runs.runs:
        assert code == 0, command
        data = json.loads((first / "manifest.json").read_text())["config"]
        assert passed and params == data["params"]
        names = sorted(path.name for pattern in hashed_runs.hashed
                       for path in first.glob(pattern))
        assert names, command
        for name in names:
            assert ((again / name).read_bytes()
                    == (first / name).read_bytes()), (command, name)
        recorded[command] = data["params"]
    expected = {
        "spectral --n 2": {"resolution": 256, "mu": 0.5, "vectors": 20,
                           "tol": 0.004},
        "epi-check --n 2": {"resolution": 48},
        "frequency": {"theta": 0.25},
        "blowup": {"rungs": 16, "r_max": 0.6},
        "blowup --case solved": {"rungs": 10, "r_max": 0.45},
    }
    for command, values in expected.items():
        assert {key: recorded[command][key] for key in values} == values


def _run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter on this
    checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(thinepi.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout.strip()


def _scipy_after_commands(commands, tmp_path):
    """Exit codes of ``commands`` run one after another in one fresh
    process, each with its own output directory and the cache directory
    ``tmp_path / "cache"``, and the scipy modules loaded after them."""
    argvs = [command.split() + ["--out", str(tmp_path / f"out{k}"),
                                "--cache-dir", str(tmp_path / "cache")]
             for k, command in enumerate(commands)]
    code = ("import contextlib, io, json, sys\n"
            "from thinepi.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules\n"
            "                                if m.split('.')[0] == 'scipy')]))")
    return json.loads(_run_fresh(code).splitlines()[-1])


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # No module of the package imports scipy.integrate, and every command
    # pays for what importing the CLI loads.
    code = "import sys, thinepi.cli; print('scipy.integrate' in sys.modules)"
    assert _run_fresh(code) == "False"
    # scipy is imported on first use, by the discrete eigenbasis on a cache
    # miss only, so the CLI loads none of it ...
    code = ("import sys, thinepi.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _run_fresh(code) == "[]"
    # ... nor do the commands whose answers are closed forms and numpy,
    commands = ["epi-check", "gap-demo", "spectral --n 1", "blowup"]
    assert _scipy_after_commands(commands, tmp_path) == [[0] * 4, []]
    # nor those that solve a field and read it along radius ladders,
    commands = ["solve", "frequency", "stratify", "blowup --case solved"]
    assert _scipy_after_commands(commands, tmp_path) == [[0] * 4, []]
    # nor a discrete eigenbasis read back from a warm cache.
    assert run(RunConfig(subcommand="spectral", out_dir=str(tmp_path / "cold"),
                         params={"n": 2}, cache_dir=str(tmp_path / "cache"))
               ).passed
    assert _scipy_after_commands(["spectral --n 2"], tmp_path) == [[0], []]


def test_case_catalog_builds_and_rejects():
    for case in ("halfspace", "profile", "quartic", "near-profile"):
        spec = case_spec(case, 32)
        assert spec.dimension == 2 and spec.resolution == 32
    assert case_spec("profile-3d", 16).dimension == 3
    with pytest.raises(ValueError, match="unknown solve case"):
        case_spec("bogus", 32)


def test_near_profile_case_depends_on_seed():
    a = case_spec("near-profile", 32, seed=1)
    b = case_spec("near-profile", 32, seed=2)
    pts = np.array([[0.3, 0.4], [-0.5, 0.2]])
    assert not np.allclose(a.g(pts), b.g(pts))


# ---------------------------------------------------------------------------
# Subcommand runs (coarse, fast settings)
# ---------------------------------------------------------------------------

def test_gap_demo_run_and_rerun_hashes(tmp_path):
    manifest = run(_config("gap-demo", tmp_path / "one"))
    assert manifest.passed
    rows = read_csv(tmp_path / "one" / "gap.csv")
    assert len(rows) == 3 * 40
    assert all(row["contradiction"] is True for row in rows)

    again = run(_config("gap-demo", tmp_path / "two"))
    assert again.files == manifest.files       # identical content hashes


def test_relative_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest = run(_config("gap-demo", "runs/gap"))
    assert manifest.passed
    assert [entry["path"] for entry in manifest.files] == ["gap.csv"]
    assert manifest.files[0]["sha256"] == sha256_file(
        tmp_path / "runs" / "gap" / "gap.csv")
    # the CLI default output directory, runs/<subcommand>, is relative too
    assert main(["gap-demo"]) == 0
    assert (tmp_path / "runs" / "gap-demo" / "manifest.json").is_file()


def test_manifest_hashes_match_files_on_disk(tmp_path):
    manifest = run(_config("gap-demo", tmp_path))
    listed = json.loads((tmp_path / "manifest.json").read_text())["files"]
    assert listed == manifest.files
    for entry in listed:
        assert sha256_file(tmp_path / entry["path"]) == entry["sha256"]


def test_solve_run_artifacts_and_gates(tmp_path):
    manifest = run(_config("solve", tmp_path, case="halfspace",
                           resolution=32))
    assert manifest.passed
    names = {check.name for check in manifest.checks}
    assert {"converged", "complementarity", "feasibility",
            "sup-error-vs-exact"} <= names
    produced = {entry["path"] for entry in manifest.files}
    assert {"solution.bin", "solution.json", "thin_line.csv"} <= produced

    sol = load_solution(tmp_path / "solution")
    rows = read_csv(tmp_path / "thin_line.csv")
    assert len(rows) == 65
    mid = rows[32]
    assert mid["x1"] == 0.0
    assert mid["u"] == pytest.approx(float(sol.values[32, 0]), abs=0)
    assert any(row["contact"] for row in rows)


def test_solve_run_from_config_file(tmp_path):
    config_path = tmp_path / "problem.json"
    config_path.write_text(json.dumps({
        "dimension": 2, "h": 1 / 32, "obstacle": {"kind": "zero"},
        "boundary": {"kind": "halfspace", "mu": 1.5}}))
    manifest = run(_config("solve", tmp_path / "out",
                           config=str(config_path)))
    assert manifest.passed
    assert manifest.config["params"]["config"] == str(config_path)


def test_solve_config_with_projected_sor_keys(tmp_path, capsys):
    # A config written for the projected SOR solver: ``omega`` and
    # ``max_sweeps`` are ignored, and a ``tol`` other than the fixed one
    # is an error that names the key.
    problem = {"dimension": 2, "h": 1 / 32, "obstacle": {"kind": "zero"},
               "boundary": {"kind": "halfspace", "mu": 1.5},
               "omega": 1.8, "max_sweeps": 5000}
    config_path = tmp_path / "problem.json"
    config_path.write_text(json.dumps(problem))
    assert main(["solve", "--config", str(config_path),
                 "--out", str(tmp_path / "old")]) == 0
    config_path.write_text(json.dumps(dict(problem, tol=1e-6)))
    code = main(["solve", "--config", str(config_path),
                 "--out", str(tmp_path / "loose")])
    assert code == 2
    assert "'tol'" in capsys.readouterr().err


def test_epi_check_run_positive(tmp_path):
    manifest = run(_config("epi-check", tmp_path, m=0, n=1, trials=25,
                           resolution=1024))
    assert manifest.passed
    rows = read_csv(tmp_path / "epi.csv")
    assert len(rows) == 25
    assert min(row["slack"] for row in rows) >= -1e-8
    assert all(row["passed"] for row in rows)
    assert (tmp_path / "epi_slack.svg").exists()


def test_epi_check_run_negative(tmp_path):
    manifest = run(_config("epi-check", tmp_path, m=1, n=1, trials=10,
                           negative=True, resolution=1024))
    assert manifest.passed
    rows = read_csv(tmp_path / "epi.csv")
    assert len(rows) == 10
    for row in rows:
        assert -0.05 < row["w_z"] < 0.0
        assert 2.0 < row["alpha"] < 3.0
        assert row["alpha_in_range"] is True


def test_frequency_run_emits_curve(tmp_path):
    manifest = run(_config("frequency", tmp_path, case="halfspace",
                           resolution=32))
    assert manifest.passed
    rows = read_csv(tmp_path / "frequency.csv")
    assert {"radius", "H", "I", "Phi", "normalized", "truncated"} \
        <= set(rows[0])
    plateau = [check for check in manifest.checks
               if check.name == "frequency-plateau"]
    assert "1.49" in plateau[0].detail
    svg = (tmp_path / "frequency_phi.svg").read_text()
    assert "polyline" in svg
    assert {entry["path"] for entry in manifest.files} >= \
        {"frequency.csv", "frequency_phi.svg"}


@pytest.mark.parametrize("subcommand", ["frequency", "stratify"])
@pytest.mark.parametrize("case", ["halfspace", "profile", "profile-3d",
                                  "quartic", "near-profile"])
def test_frequency_config_file_matches_case(tmp_path, subcommand, case):
    # A catalog problem read from a file is analysed as the catalog case
    # is, a nonzero polynomial obstacle through the same zero-obstacle
    # normal form.
    resolution = 16 if case == "profile-3d" else 32
    config_file = tmp_path / "problem.json"
    config_file.write_text(json.dumps(
        case_spec(case, resolution, 7).to_config()))
    run(_config(subcommand, tmp_path / "case", case=case,
                resolution=resolution))
    run(_config(subcommand, tmp_path / "file", config=str(config_file)))
    table = f"{subcommand}.csv"
    assert ((tmp_path / "case" / table).read_bytes()
            == (tmp_path / "file" / table).read_bytes())


def test_constant_obstacle_is_reduced_as_its_polynomial(tmp_path):
    # A constant obstacle and the degree-0 polynomial of the same value are
    # one problem: both are reduced to zero obstacle, and the halfspace
    # solution raised by 0.2 reads its frequency 3/2 at the origin.
    boundary = {"kind": "sum", "terms": [{"kind": "halfspace", "mu": 1.5},
                                         {"kind": "constant", "value": 0.2}]}
    twins = {"constant": {"kind": "constant", "value": 0.2},
             "polynomial": {"kind": "polynomial", "coeffs": [[[0], 0.2]]}}
    tables = {}
    for name, obstacle in twins.items():
        config_file = tmp_path / f"{name}.json"
        config_file.write_text(json.dumps({
            "dimension": 2, "h": 1 / 64, "obstacle": obstacle,
            "boundary": boundary}))
        for subcommand in ("frequency", "stratify"):
            out = tmp_path / f"{name}-{subcommand}"
            checks = _checks(run(_config(subcommand, out,
                                         config=str(config_file))))
            assert all(check.passed for check in checks.values())
            tables[name, subcommand] = (
                out / f"{subcommand}.csv").read_bytes()
            if subcommand == "frequency":
                detail = checks["frequency-plateau"].detail
                mu = float(detail.split()[-1])
                assert abs(mu - 1.5) <= 1e-3, detail
    for subcommand in ("frequency", "stratify"):
        assert (tables["constant", subcommand]
                == tables["polynomial", subcommand])


def test_blowup_run_constructed(tmp_path):
    manifest = run(_config("blowup", tmp_path, case="constructed", m=0))
    assert manifest.passed
    rows = read_csv(tmp_path / "blowup.csv")
    dist = [row["dist_linf"] for row in rows]
    assert all(b < a for a, b in zip(dist, dist[1:]))
    svg = (tmp_path / "blowup_decay.svg").read_text()
    assert "circle" in svg and "stroke-dasharray" in svg


def test_main_blowup_without_decay_fails_named_checks(tmp_path, capsys):
    # amplitude 0 leaves the profile alone: every sup distance is rounding
    # noise, so no decay exponent can be fitted
    code = main(["blowup", "--amplitude", "0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    for name in ("fit-resolved", "decay-exponent"):
        line = next(ln for ln in out.splitlines() if f"  {name}  " in ln)
        assert line.startswith("FAIL") and "no exponent was fitted" in line


def test_blowup_without_decay_draws_no_fit_line(tmp_path):
    # the figure draws blowup_fit's line, and a degenerate fit has none
    run(_config("blowup", tmp_path, amplitude=0.0))
    svg = (tmp_path / "blowup_decay.svg").read_text()
    assert "circle" in svg and "stroke-dasharray" not in svg


def _checks(manifest) -> dict:
    return {check.name: check for check in manifest.checks}


def test_blowup_run_solved_checks_the_weiss_chain(tmp_path):
    manifest = run(_config("blowup", tmp_path, case="solved"))
    checks = _checks(manifest)
    assert list(checks) == ["fit-resolved", "decay-exponent",
                            "weiss-monotone", "weiss-rate"]
    assert manifest.passed
    rows = read_csv(tmp_path / "weiss.csv")
    assert len(rows) == 9                  # steps of the fit's 10 rungs
    assert [row["r_hi"] for row in rows] == [
        row["radius"] for row in read_csv(tmp_path / "blowup.csv")][:-1]
    assert all(row["W_lo"] < row["W_hi"] for row in rows)
    assert "weiss.csv" in {entry["path"] for entry in manifest.files}


def test_main_blowup_solved_fails_weiss_gates(tmp_path, capsys, monkeypatch):
    # a report with a negative margin and an energy that does not decay
    def broken(*args):
        rep = weiss_monotonicity_check(*args)
        return dataclasses.replace(
            rep, min_margin_gradient=-1.0,
            energies=np.full_like(rep.energies, rep.energies[0]))

    monkeypatch.setattr(thinepi.cli, "weiss_monotonicity_check", broken)
    code = main(["blowup", "--case", "solved", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  weiss-monotone" in out and "FAIL  weiss-rate" in out
    assert "PASS  fit-resolved" in out and "PASS  decay-exponent" in out


def test_weiss_rate_names_a_nonpositive_rung(tmp_path, monkeypatch):
    def negative_at_third(*args):
        rep = weiss_monotonicity_check(*args)
        rep.energies[2] = -rep.energies[2]
        return rep

    monkeypatch.setattr(thinepi.cli, "weiss_monotonicity_check",
                        negative_at_third)
    rate = _checks(run(_config("blowup", tmp_path, case="solved")))[
        "weiss-rate"]
    assert not rate.passed and "rung 2" in rate.detail


# Seeds 7, 11, 42, 101, 202, 303 and 1234 set the weiss-rate band.
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_weiss_gates_pass_on_other_seeds(tmp_path, seed):
    config = RunConfig(subcommand="blowup", out_dir=str(tmp_path),
                       params={"case": "solved"}, seed=seed)
    checks = _checks(run(config))
    assert checks["weiss-monotone"].passed, checks["weiss-monotone"].detail
    assert checks["weiss-rate"].passed, checks["weiss-rate"].detail


def test_stratify_run(tmp_path):
    manifest = run(_config("stratify", tmp_path, case="halfspace",
                           resolution=32, max_points=24))
    assert manifest.passed
    rows = read_csv(tmp_path / "stratify.csv")
    labels = {row["label"] for row in rows}
    assert 1.0 in labels or 1.5 in labels


def test_spectral_run_exact_basis(tmp_path):
    manifest = run(_config("spectral", tmp_path, n=1, vectors=20))
    assert manifest.passed
    rows = read_csv(tmp_path / "spectral.csv")
    assert len(rows) == 20
    assert max(row["rel_diff_mu"] for row in rows) <= 1e-10
    assert max(row["rel_diff_raised"] for row in rows) <= 1e-10


def test_spectral_sphere_run_repeats_bytes(tmp_path):
    # Each run gets a fresh cache, so both solve the eigenproblem.
    digests = []
    for k in range(2):
        config = _config("spectral", tmp_path / f"out{k}", n=2)
        config.cache_dir = str(tmp_path / f"cache{k}")
        assert run(config).passed
        digests.append(sha256_file(tmp_path / f"out{k}" / "spectral.csv"))
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

def test_figures_drawn_without_reading_tables_back(tmp_path, monkeypatch):
    # Each pipeline draws its figure from the results it holds.
    def refuse(path):
        raise AssertionError(f"read back {path}")

    monkeypatch.setattr("thinepi.artifacts.read_csv", refuse)
    monkeypatch.setattr("thinepi.cli.read_csv", refuse, raising=False)
    for subcommand, params, figure in (
            ("epi-check", {"trials": 10, "resolution": 1024}, "epi_slack.svg"),
            ("frequency", {"resolution": 32}, "frequency_phi.svg"),
            ("blowup", {}, "blowup_decay.svg")):
        out = tmp_path / subcommand
        manifest = run(_config(subcommand, out, **params))
        assert manifest.passed
        assert figure in {entry["path"] for entry in manifest.files}


# ---------------------------------------------------------------------------
# Entry point and exit codes
# ---------------------------------------------------------------------------

def test_main_success_exit_zero(tmp_path, capsys):
    code = main(["gap-demo", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS  contradiction-m0-n1" in out
    assert "manifest:" in out


def test_main_failed_gate_exit_one(tmp_path, capsys):
    code = main(["spectral", "--n", "1", "--vectors", "5",
                 "--tol", "0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  spectral-vs-quadrature" in out
    assert load_manifest(tmp_path / "manifest.json").passed is False


def test_main_error_exit_two(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


_HALF = {"kind": "halfspace", "mu": 1.5}


@pytest.mark.parametrize("problem, named", [
    ({"boundary": {"kind": "halfspace"}}, ["boundary", "'mu'"]),
    ({"obstacle": "zero"}, ["obstacle", "'zero'"]),
    ({"boundary": {"kind": "sum", "terms": [
        _HALF, {"kind": "scaled", "factor": 2.0, "of": {"kind": "mode"}}]}},
     ["boundary: terms[1]: of:", "'j'", "'power'"]),
    ({"boundary": {"kind": "scaled", "factor": "2", "of": _HALF}},
     ["boundary", "'factor'", "'2'"]),
    ({"obstacle": _HALF}, ["obstacle", "'halfspace'"]),
    ({"rhs": 1.0}, ["'rhs'"]),
    ({"boundary": None}, ["boundary", "None"]),
    ({"boundary": {"kind": "profile", "m": 0, "n": 2}},
     ["boundary", "'profile'", "R^3"]),
    ({"dimension": 3, "h": 1 / 16}, ["boundary", "'halfspace'", "R^2"]),
    ({"boundary": {"kind": "mode", "j": 2.5, "power": 2}},
     ["boundary", "'j'", "integer", "2.5"]),
    ({"boundary": {"kind": "profile", "m": True}},
     ["boundary", "'m'", "True"]),
    ({"boundary": {"kind": "halfspace", "mu": True}},
     ["boundary", "'mu'", "True"]),
], ids=["missing-key", "string", "nested", "bad-value", "halfspace-obstacle",
        "rhs", "null-boundary", "profile-of-other-dimension",
        "halfspace-in-3d", "fractional-mode-index", "bool-profile-m",
        "bool-halfspace-mu"])
def test_main_bad_problem_config_exits_two(tmp_path, capsys, problem, named):
    # A malformed or unsupported problem is an input error, exit 2, whose
    # message names the field and the key or value at fault.
    config_path = tmp_path / "problem.json"
    config_path.write_text(json.dumps(dict(
        {"dimension": 2, "h": 1 / 32, "obstacle": {"kind": "zero"},
         "boundary": _HALF}, **problem)))
    code = main(["solve", "--config", str(config_path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert all(name in err for name in named), err


def test_main_epi_check_refuses_an_m_past_float_range(tmp_path, capsys):
    # The harmonic extension divides by (2m+1)!, which overflows a float.
    code = main(["epi-check", "--m", "100", "--trials", "2",
                 "--out", str(tmp_path)])
    assert code == 2
    assert ("error: epi-check run failed: m=100 is too large"
            in capsys.readouterr().err)


def test_main_solve_prints_the_certified_kkt_residual(tmp_path, capsys):
    # The converged line prints the residual its gate compares with tol.
    assert main(["solve", "--resolution", "32", "--out", str(tmp_path)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "converged" in line)
    stats = load_solution(tmp_path / "solution").stats()
    assert f"KKT residual {stats['kkt']:.3e}, tol 1e-10" in line


def test_main_rejects_unknown_case():
    with pytest.raises(SystemExit):
        main(["solve", "--case", "bogus", "--out", "/tmp/never"])


def test_main_bad_pairs_exit_two(tmp_path, capsys):
    code = main(["gap-demo", "--pairs", "whoops", "--out", str(tmp_path)])
    assert code == 2
    assert "bad (m, n) pair" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["-1:1", "0:0"])
def test_main_meaningless_pairs_exit_two(tmp_path, capsys, pair):
    # m < 0 gives homogeneity 2m+1 < 1, and n = 0 has no thin plane.
    code = main(["gap-demo", f"--pairs={pair}", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "need m >= 0 and n >= 1" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_main_zero_counts_name_the_flag(tmp_path, capsys):
    for argv, flag in ((["epi-check", "--trials", "0"], "--trials"),
                       (["spectral", "--vectors", "0"], "--vectors")):
        code = main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {argv[0]} run failed: {flag} must be at least 1" in err


@pytest.mark.parametrize("n", ["1", "2"])
def test_main_spectral_zero_modes_names_the_flag(tmp_path, capsys, n):
    # Refused before any basis is built: the analytic n = 1 basis and the
    # discrete n = 2 one failed in their own terms.
    code = main(["spectral", "--n", n, "--modes", "0", "--out", str(tmp_path)])
    assert code == 2
    assert ("error: spectral run failed: --modes must be at least 1, got 0"
            in capsys.readouterr().err)
    assert not (tmp_path / "spectral.csv").exists()


def test_main_stratify_rejects_max_points_below_one(tmp_path, capsys,
                                                    monkeypatch):
    def no_solve(spec):
        raise RuntimeError("max_points is checked after the solve")

    # the check comes before the solve, which dominates the run
    monkeypatch.setattr(thinepi.cli, "solve_thin_obstacle", no_solve)
    code = main(["stratify", "--resolution", "16", "--max-points", "0",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "max_points must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "stratify.csv").exists()


@pytest.mark.parametrize("eps", ["-0.1", "0"])
def test_main_epi_check_rejects_nonpositive_eps(tmp_path, capsys,
                                                monkeypatch, eps):
    def no_basis(*args, **kwargs):
        raise RuntimeError("--eps is checked after the basis work")

    # a negative radius has no traces to sample, and a zero one passes
    # vacuously with every trace equal to the profile trace
    monkeypatch.setattr(thinepi.cli, "choose_delta", no_basis)
    code = main(["epi-check", f"--eps={eps}", "--trials", "2",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: epi-check run failed: --eps must be positive" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_main_epi_check_certifies_beyond_default_eps(tmp_path, capsys):
    # the sampler draws traces up to 0.95 * eps from the profile trace, and
    # the admissibility check must bound them by the same eps
    code = main(["epi-check", "--eps", "0.2", "--trials", "20",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "PASS  reports-passed" in capsys.readouterr().out


@pytest.mark.parametrize("eps", ["inf", "1e300"])
def test_main_epi_check_names_an_eps_the_sampler_cannot_meet(tmp_path, capsys,
                                                              eps):
    # Proposals scaled by such an eps have no finite distance to test, so
    # the sampler keeps none of them and says so.
    code = main(["epi-check", "--eps", eps, "--trials", "2",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert ("error: epi-check run failed: rejection sampling kept 0 of 2 "
            f"traces within eps={float(eps):g} from 100 proposals") in err
    assert "Traceback" not in err


def test_main_epi_check_eps_bounds_the_trace_distance(tmp_path, capsys,
                                                      monkeypatch):
    def at_distance(p, basis, m, count, rng, eps):
        # one unit-norm tail mode: every trace is 0.08 from the profile
        coeffs = np.zeros((count, basis.count))
        coeffs[:, -1] = 0.08
        return TraceBatch(trace_from_profile(p, basis.grid), basis, coeffs)

    monkeypatch.setattr(thinepi.cli, "sample_positive_traces", at_distance)
    code = main(["epi-check", "--eps", "0.05", "--trials", "3",
                 "--out", str(tmp_path / "narrow")])
    assert code == 2
    assert ("trial 0: trace fails admissibility checks: ['within_eps']"
            in capsys.readouterr().err)
    assert main(["epi-check", "--eps", "0.1", "--trials", "3",
                 "--out", str(tmp_path / "wide")]) == 0


def test_epi_check_batch_memory(tmp_path):
    # One (T, N) block of trace values at a time: at n = 2, 200 trials and
    # resolution 48 (N = 4704) a block is 7.2 MiB.  The batch peaks at about
    # 17.7 MiB of traced allocation; certifying trace by trace with
    # per-trace (N, 3) gradients peaked at 32.0 MiB, and a stacked
    # (T, N, 3) gradient array alone would add 21.5 MiB.
    config = _config("epi-check", tmp_path, n=2, trials=200)
    config.cache_dir = str(tmp_path / "cache")
    config.params = config.validate()     # pipelines read resolved params
    tracemalloc.start()
    try:
        _run_epi(config, tmp_path, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, f"peak traced allocation {peak / 2 ** 20:.1f} MiB"


def _digests_per_blas_threads(tmp_path, argv, name):
    """sha256 of the file ``name`` that the command ``argv`` writes, run in
    fresh processes with one and with two BLAS threads."""
    code = "import sys, thinepi.cli; sys.exit(thinepi.cli.main(sys.argv[1:]))"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(thinepi.__file__).parents[1]))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out),
                        "--cache-dir", str(tmp_path / "cache")],
                       env=env, check=True, capture_output=True, timeout=300)
        digests.append(sha256_file(out / name))
    return digests


@pytest.mark.parametrize("flags", [pytest.param(["--n", "2"], id="n2"),
                                   pytest.param(["--m", "1"], id="m1")])
def test_epi_check_bytes_do_not_depend_on_blas_threads(tmp_path, flags):
    digests = _digests_per_blas_threads(
        tmp_path, ["epi-check", *flags, "--trials", "20"], "epi.csv")
    assert digests[0] == digests[1]


def test_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # About 25,000 free nodes: the inner solve's products are pairwise sums,
    # not BLAS dots that split long vectors across threads.
    digests = _digests_per_blas_threads(
        tmp_path, ["solve", "--resolution", "128"], "solution.bin")
    assert digests[0] == digests[1]
