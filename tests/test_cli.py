"""Command-line pipelines: config validation, per-subcommand artifacts,
gated exit codes, manifest hashing, and rerun determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import thinepi
from thinepi.artifacts import load_manifest, read_csv, sha256_file
from thinepi.cli import (RunConfig, _run_epi, case_spec, emit_plots, main,
                         run)
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
    assert not np.allclose(a.boundary(pts), b.boundary(pts))


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


def test_frequency_config_file_matches_case(tmp_path):
    # A nonzero polynomial obstacle read from a file is analysed through the
    # same zero-obstacle normal form as the catalog case.
    config_file = tmp_path / "quartic.json"
    config_file.write_text(json.dumps(case_spec("quartic", 32).to_config()))
    run(_config("frequency", tmp_path / "case", case="quartic",
                resolution=32))
    run(_config("frequency", tmp_path / "file", config=str(config_file)))
    assert ((tmp_path / "case" / "frequency.csv").read_bytes()
            == (tmp_path / "file" / "frequency.csv").read_bytes())


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
# Plot emission
# ---------------------------------------------------------------------------

def test_emit_plots_rejects_empty_csv(tmp_path):
    (tmp_path / "frequency.csv").write_text("")
    with pytest.raises(ValueError, match="empty CSV"):
        emit_plots(tmp_path)


def test_emit_plots_rejects_header_only_csv(tmp_path):
    (tmp_path / "blowup.csv").write_text("radius,dist_l2,dist_linf\n")
    with pytest.raises(ValueError, match="no data rows"):
        emit_plots(tmp_path)


def test_emit_plots_ignores_unknown_tables(tmp_path):
    (tmp_path / "notes.csv").write_text("a\n1\n")
    assert emit_plots(tmp_path) == []


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
