"""Command-line pipelines tying the library together.

Each subcommand runs one experiment — spectral identity checks,
energy-improvement trials, the constrained solver, frequency ladders,
blow-up decay fits, contact stratification, or the frequency-gap
demonstration — and writes CSV/SVG artifacts plus a JSON manifest.  The
manifest lists every produced file with a SHA-256 content hash; seeds and
ladders fully determine a run, so identical configurations reproduce
identical artifact bytes.  The process exits 0 only if every gated check
passes.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import CheckResult, RunManifest, hash_files, read_csv, write_csv
from .epiperimetric import (DEFAULT_CONFIG, adapted_half_basis,
                            build_competitor_negative, choose_delta, gap_demo,
                            sample_negative_traces, sample_positive_traces,
                            verify_epi)
from .frequency import (FrequencyParams, blowup_fit, stratify_contact,
                        truncated_frequency)
from .grids import build_grid, radii_ladder
from .profiles import halfspace_2d, make_profile
from .solver import ProblemSpec, solve_thin_obstacle, zero_obstacle_field
from .spectral import eigenbasis, half_sphere_basis
from .svgplot import histogram, line_plot, loglog_plot
from .traces import trace_from_basis
from .weiss import homogeneous_extension, weiss_quadrature, weiss_raised, \
    weiss_spectral

SUBCOMMANDS = ("spectral", "epi-check", "solve", "frequency", "blowup",
               "stratify", "gap-demo")

__all__ = ["RunConfig", "RunManifest", "run", "emit_plots", "main",
           "SUBCOMMANDS"]


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Everything that determines a run: subcommand, module parameters,
    output directory, cache directory, seed."""

    subcommand: str = ""
    out_dir: str = ""
    params: dict = field(default_factory=dict)
    cache_dir: str | None = None
    seed: int = 7

    def validate(self) -> None:
        missing = [name for name in ("subcommand", "out_dir")
                   if not getattr(self, name)]
        if missing:
            raise ValueError(f"config missing required keys: "
                             f"{', '.join(missing)}")
        if self.subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}; "
                             f"expected one of {', '.join(SUBCOMMANDS)}")

    def to_dict(self) -> dict:
        return {"subcommand": self.subcommand, "out_dir": self.out_dir,
                "params": dict(self.params), "cache_dir": self.cache_dir,
                "seed": self.seed}

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        config = RunConfig(
            subcommand=data.get("subcommand", ""),
            out_dir=data.get("out_dir", ""),
            params=dict(data.get("params", {})),
            cache_dir=data.get("cache_dir"),
            seed=int(data.get("seed", 7)))
        config.validate()
        return config


# ---------------------------------------------------------------------------
# Problem catalog for solver-backed subcommands
# ---------------------------------------------------------------------------

SOLVE_CASES = ("halfspace", "profile", "profile-3d", "quartic",
               "near-profile")


def case_spec(case: str, resolution: int, seed: int = 7) -> ProblemSpec:
    """Build a catalog problem from pure config dictionaries (so the manifest
    config snapshot reproduces it exactly)."""
    config = {"dimension": 2, "h": 1.0 / resolution,
              "obstacle": {"kind": "zero"}, "k": 2, "gamma": 0.5}
    if case == "halfspace":
        config["boundary"] = {"kind": "halfspace", "mu": 1.5}
    elif case == "profile":
        config["boundary"] = {"kind": "profile", "m": 0, "n": 1}
    elif case == "profile-3d":
        config["dimension"] = 3
        config["boundary"] = {"kind": "profile", "m": 0, "n": 2}
    elif case == "quartic":
        config["obstacle"] = {"kind": "polynomial", "coeffs": [[[4], 1.0]]}
        config["boundary"] = {"kind": "sum", "terms": [
            {"kind": "polynomial", "coeffs": [[[4, 0], 1.0]]},
            {"kind": "scaled", "factor": 2.0,
             "of": {"kind": "profile", "m": 0, "n": 1}}]}
    elif case == "near-profile":
        # Catalog profile plus a seeded random even bump vanishing at the
        # equator, mixture normalized and scale-equalized at r0 = 0.3.
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        terms = [{"kind": "mode", "j": j, "power": j,
                  "amplitude": 0.02 * float(a) / 0.3 ** (j - 2)}
                 for j, a in zip((2, 3), amps)]
        config["boundary"] = {"kind": "sum", "terms":
                              [{"kind": "profile", "m": 0, "n": 1}] + terms}
    else:
        raise ValueError(f"unknown solve case {case!r}; available: "
                         f"{', '.join(SOLVE_CASES)}")
    return ProblemSpec.from_config(config)


def _solve_case(config: RunConfig, default_case: str, timings: dict):
    params = config.params
    case = params.get("case", default_case)
    resolution = int(params.get("resolution", 64))
    config_file = params.get("config")
    if config_file:
        spec = ProblemSpec.from_file(config_file)
    else:
        spec = case_spec(case, resolution, config.seed)
    t0 = time.perf_counter()
    sol = solve_thin_obstacle(spec)
    timings["solve"] = time.perf_counter() - t0
    return case, spec, sol


# ---------------------------------------------------------------------------
# Pipelines (each returns produced files and gated checks)
# ---------------------------------------------------------------------------

def _run_spectral(config: RunConfig, out: Path, timings: dict):
    params = config.params
    n = int(params.get("n", 1))
    modes = int(params.get("modes", 8))
    mu = float(params.get("mu", 1.0 if n == 1 else 0.5))
    vectors = int(params.get("vectors", 100 if n == 1 else 20))
    resolution = int(params.get("resolution", 2048 if n == 1 else 256))
    if n == 1:
        tol = float(params.get("tol", 1e-8))
    else:
        # Discrete-basis routes agree to second order in the mesh; anchor the
        # default gate at 1e-3 for resolution 512 and scale with h^2.
        tol = float(params.get("tol",
                               max(1e-3, 1e-3 * (512.0 / resolution) ** 2)))

    t0 = time.perf_counter()
    if n == 1:
        grid = build_grid(1, resolution)
        basis = half_sphere_basis(1, modes, grid)
    else:
        grid = build_grid(2, resolution)
        basis = eigenbasis(grid, grid.equator, modes,
                           cache_dir=config.cache_dir)
    timings["basis"] = time.perf_counter() - t0

    rng = np.random.default_rng(config.seed)
    rows, worst = [], 0.0
    t0 = time.perf_counter()
    for trial in range(vectors):
        c = rng.standard_normal(modes)
        c /= np.linalg.norm(c)
        alpha = mu + rng.uniform(0.1, 1.0)
        spectral_mu = weiss_spectral(c, basis, mu)
        raised = weiss_raised(c, basis, mu, alpha)
        trace = trace_from_basis(basis, c)
        quad_mu = weiss_quadrature(homogeneous_extension(trace, mu), mu)
        quad_raised = weiss_quadrature(homogeneous_extension(trace, alpha), mu)
        rel_mu = abs(quad_mu - spectral_mu) / max(abs(spectral_mu), 1e-30)
        rel_raised = (abs(quad_raised - raised.value)
                      / max(abs(raised.value), 1e-30))
        worst = max(worst, rel_mu, rel_raised)
        rows.append({
            "trial": trial, "mu": mu, "alpha": alpha,
            "w_mu_spectral": spectral_mu, "w_mu_quadrature": quad_mu,
            "rel_diff_mu": rel_mu,
            "w_raised_spectral": raised.value,
            "w_raised_quadrature": quad_raised,
            "rel_diff_raised": rel_raised,
            "raising_residual": raised.residual,
        })
    timings["trials"] = time.perf_counter() - t0

    files = [write_csv(out / "spectral.csv", rows)]
    checks = [CheckResult(
        "spectral-vs-quadrature", worst <= tol,
        f"worst relative difference {worst:.3e} over {vectors} vectors "
        f"(n={n}, tolerance {tol:g})")]
    return files, checks


def _run_epi(config: RunConfig, out: Path, timings: dict):
    params = config.params
    m = int(params.get("m", 0))
    n = int(params.get("n", 1))
    trials = int(params.get("trials", 200))
    eps = float(params.get("eps", DEFAULT_CONFIG.eps))
    negative = bool(params.get("negative", False))
    resolution = int(params.get("resolution", 4096 if n == 1 else 48))

    t0 = time.perf_counter()
    if n == 1:
        grid = build_grid(1, resolution)
    else:
        grid = build_grid(2, resolution, kind="latlong")
    p = make_profile(m, n)
    delta, basis = choose_delta(p, grid, m, cache_dir=config.cache_dir)
    half = adapted_half_basis(p, grid)
    timings["basis"] = time.perf_counter() - t0

    rng = np.random.default_rng(config.seed)
    rows = []
    min_slack = np.inf
    all_passed = True
    t0 = time.perf_counter()
    if negative:
        traces = sample_negative_traces(p, basis, m, trials, rng, eps)
        alpha_ok = True
        window_ok = True
        for trial, trace in enumerate(traces):
            _, alpha, rep = build_competitor_negative(trace, p, delta, m,
                                                      basis_delta=basis)
            min_slack = min(min_slack, rep.slack)
            all_passed = all_passed and rep.passed
            alpha_ok = alpha_ok and rep.alpha_in_range
            window_ok = window_ok and -0.05 < rep.w_z < 0.0
            rows.append({
                "trial": trial, "mu": rep.mu, "alpha": alpha,
                "kappa": rep.kappa, "w_z": rep.w_z, "w_zeta": rep.w_zeta,
                "bound": rep.bound, "slack": rep.slack, "c_ell": rep.c_ell,
                "alpha_in_range": rep.alpha_in_range, "passed": rep.passed,
            })
        checks = [
            CheckResult("slack-floor", min_slack >= DEFAULT_CONFIG.slack_floor,
                        f"min slack {min_slack:.3e} over {trials} trials "
                        f"(floor {DEFAULT_CONFIG.slack_floor:g})"),
            CheckResult("alpha-in-band", alpha_ok,
                        f"every alpha inside ({2 * m}, {2 * m + 1})"),
            CheckResult("energy-window", window_ok,
                        "every base energy in (-0.05, 0)"),
            CheckResult("reports-passed", all_passed,
                        "all competitor reports passed"),
        ]
    else:
        traces = sample_positive_traces(p, basis, m, trials, rng, eps=eps)
        for trial, trace in enumerate(traces):
            rep = verify_epi(trace, p, delta, m, basis, half)
            min_slack = min(min_slack, rep.slack)
            all_passed = all_passed and rep.passed
            rows.append({
                "trial": trial, "mu": rep.mu, "alpha": rep.alpha,
                "kappa": rep.kappa, "w_z": rep.w_z, "w_zeta": rep.w_zeta,
                "bound": rep.bound, "slack": rep.slack,
                "slack_quad": rep.slack_quad,
                "route_discrepancy": rep.route_discrepancy,
                "passed": rep.passed,
            })
        checks = [
            CheckResult("slack-floor", min_slack >= DEFAULT_CONFIG.slack_floor,
                        f"min slack {min_slack:.3e} over {trials} trials "
                        f"(floor {DEFAULT_CONFIG.slack_floor:g})"),
            CheckResult("reports-passed", all_passed,
                        f"all {trials} competitor reports passed "
                        f"(m={m}, n={n}, delta={delta:g})"),
        ]
    timings["trials"] = time.perf_counter() - t0

    files = [write_csv(out / "epi.csv", rows)]
    return files, checks


def _run_solve(config: RunConfig, out: Path, timings: dict):
    case, spec, sol = _solve_case(config, "halfspace", timings)

    bin_path, json_path = sol.dump(out / "solution")
    u_thin = sol.values[..., 0].ravel()
    points = sol.thin_points()
    # Complementarity residuals exist only on the free (non-frozen) thin
    # nodes; spread them over the full lattice with zeros on the frozen ring.
    comp_full = np.zeros(points.shape[0])
    comp_full[sol.kind[..., 0].ravel() == 2] = sol.complementarity.ravel()
    rows = []
    for idx in range(points.shape[0]):
        row = {f"x{axis + 1}": points[idx, axis]
               for axis in range(points.shape[1])}
        row.update({
            "u": u_thin[idx], "obstacle": sol.phi_thin.ravel()[idx],
            "contact": bool(sol.contact.ravel()[idx]),
            "complementarity": comp_full[idx],
        })
        rows.append(row)
    files = [bin_path, json_path, write_csv(out / "thin_line.csv", rows)]

    comp_max = float(np.max(np.abs(sol.complementarity)))
    feasibility = float(np.min(u_thin - sol.phi_thin.ravel()))
    checks = [
        CheckResult("converged", sol.converged,
                    f"{sol.sweeps} PDAS iterations, KKT residual "
                    f"{sol.laplace_residual:.3e}"),
        CheckResult("complementarity", comp_max <= 1e-9,
                    f"max residual {comp_max:.3e}"),
        CheckResult("feasibility", feasibility >= -1e-12,
                    f"min(u - obstacle) = {feasibility:.3e}"),
    ]
    exact = {"halfspace": halfspace_2d(1.5), "profile": make_profile(0, 1),
             "profile-3d": make_profile(0, 2)}.get(case)
    if exact is not None and not config.params.get("config"):
        err = sol.max_error_vs(exact)
        checks.append(CheckResult(
            "sup-error-vs-exact", err <= 5e-2,
            f"sup error {err:.3e} at h = 1/{spec.resolution}"))
    return files, checks


def _run_frequency(config: RunConfig, out: Path, timings: dict):
    params = config.params
    _, spec, sol = _solve_case(config, "halfspace", timings)
    freq_params = FrequencyParams(
        theta=params.get("theta"),
        c_phi=float(params.get("c_phi", 10.0)),
        k=spec.k, gamma=spec.gamma)
    count = int(params.get("count", 24))
    violation_tol = float(params.get("violation_tol", 1e-2))

    t0 = time.perf_counter()
    profile = truncated_frequency(
        zero_obstacle_field(sol), np.zeros(spec.dimension),
        params=freq_params, count=count)
    timings["frequency"] = time.perf_counter() - t0

    files = [write_csv(out / "frequency.csv", profile.rows())]
    worst = profile.max_violation()
    checks = [CheckResult(
        "frequency-monotone", worst <= violation_tol,
        f"max monotonicity violation {worst:.3e} over "
        f"{len(profile.radii)} radii (tolerance {violation_tol:g})")]
    try:
        mu_est = profile.mu_estimate()
        checks.append(CheckResult(
            "frequency-plateau", bool(np.isfinite(mu_est)),
            f"homogeneity estimate {mu_est:.6f}"))
    except ValueError as err:
        checks.append(CheckResult("frequency-plateau", False, str(err)))
    return files, checks


def _run_blowup(config: RunConfig, out: Path, timings: dict):
    params = config.params
    case = params.get("case", "constructed")
    m = int(params.get("m", 0))

    t0 = time.perf_counter()
    if case == "constructed":
        # Catalog profile plus a half-integer mode sitting 1/2 above its
        # homogeneity; the fitted decay exponent should be 1/2.
        rungs = int(params.get("rungs", 16))
        r_max = float(params.get("r_max", 0.6))
        p = make_profile(m, 1)
        mode = halfspace_2d(2.0 * m + 1.5)
        amplitude = float(params.get("amplitude", 0.3))

        def v(points):
            return p(points) + amplitude * mode(points)

        radii = radii_ladder(r_max, rungs)[::-1]
        fit = blowup_fit(v, np.zeros(2), m, radii)
        expected = "0.5 +/- 0.05"
        exponent_ok = abs(fit.exponent - 0.5) <= 0.05
    elif case == "solved":
        rungs = int(params.get("rungs", 10))
        r_max = float(params.get("r_max", 0.45))
        sol_config = RunConfig(subcommand="solve", out_dir=config.out_dir,
                               params={"case": "near-profile",
                                       "resolution":
                                       int(params.get("resolution", 32))},
                               cache_dir=config.cache_dir, seed=config.seed)
        _, _, sol = _solve_case(sol_config, "near-profile", timings)
        radii = radii_ladder(r_max, rungs)[::-1]
        fit = blowup_fit(sol, np.zeros(2), m, radii)
        expected = "> 0"
        exponent_ok = fit.exponent > 0.0
    else:
        raise ValueError(f"unknown blowup case {case!r}; "
                         "available: constructed, solved")
    timings["fit"] = time.perf_counter() - t0

    files = [write_csv(out / "blowup.csv", fit.rows())]
    checks = [
        CheckResult("fit-resolved", not fit.degenerate and fit.admissible,
                    f"catalog fit admissible over {len(fit.radii)} radii"),
        CheckResult("decay-exponent", exponent_ok,
                    f"fitted exponent {fit.exponent:.4f} "
                    f"(band [{fit.band[0]:.4f}, {fit.band[1]:.4f}], "
                    f"expected {expected})"),
    ]
    return files, checks


def _run_stratify(config: RunConfig, out: Path, timings: dict):
    params = config.params
    case, spec, sol = _solve_case(config, "halfspace", timings)
    max_points = int(params.get("max_points", 48))

    t0 = time.perf_counter()
    report = stratify_contact(sol, max_points=max_points)
    timings["stratify"] = time.perf_counter() - t0

    rows = []
    for entry in report.rows:
        x0 = np.atleast_1d(np.asarray(entry["x0"], dtype=float))
        row = {f"x{axis + 1}": x0[axis] for axis in range(x0.size)}
        row["mu_estimate"] = entry["mu_estimate"]
        row["label"] = ("unresolved" if entry["label"] == "unresolved"
                        else entry["label"])
        rows.append(row)
    fieldnames = None
    if not rows:
        fieldnames = [f"x{axis + 1}" for axis in range(spec.dimension - 1)]
        fieldnames += ["mu_estimate", "label"]
    files = [write_csv(out / "stratify.csv", rows, fieldnames=fieldnames)]

    labels = report.labels()
    labeled = sum(labels.values())
    resolved = len(rows) - len(report.unresolved)
    detail = (f"{labeled} labeled across {len(labels)} strata "
              f"{sorted(labels.items())}, {len(report.unresolved)} "
              f"unresolved, {len(report.unlabeled)} unlabeled")
    # Boundary-adjacent contact nodes blur on coarse grids; gate on a clear
    # majority of the resolvable points carrying a catalog label.
    checks = [CheckResult("strata-resolved",
                          bool(rows) and labeled >= 1 and
                          2 * labeled >= resolved, detail)]
    if report.line_fits:
        worst_rms = max(fitted.residual_rms for fitted in report.line_fits)
        checks.append(CheckResult(
            "stratum-lines", worst_rms <= 0.2,
            f"{len(report.line_fits)} stratum line fits, worst residual "
            f"rms {worst_rms:.3e}"))
    return files, checks


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad (m, n) pair {chunk!r}; expected 'm:n' "
                             "entries separated by commas")
        pairs.append((int(parts[0]), int(parts[1])))
    if not pairs:
        raise ValueError("no (m, n) pairs given")
    return pairs


def _run_gap(config: RunConfig, out: Path, timings: dict):
    pairs = _parse_pairs(config.params.get("pairs", "0:1,1:1,0:2"))
    t0 = time.perf_counter()
    rows, checks = [], []
    for m, n in pairs:
        report = gap_demo(m, n)
        for gap_row in report.rows:
            rows.append({
                "m": m, "n": n, "mu": report.mu, "c_m": report.c_m,
                "t": gap_row.t, "expression": gap_row.expression,
                "deviation": gap_row.deviation,
                "leading_term": gap_row.leading_term,
                "required": gap_row.required,
                "contradiction": gap_row.contradiction,
            })
        checks.append(CheckResult(
            f"contradiction-m{m}-n{n}", report.all_contradict,
            f"{len(report.rows)} t values, c_m = {report.c_m:g}"))
        if n == 1:
            checks.append(CheckResult(
                f"isolation-window-m{m}-n{n}",
                not report.admissible_in_window,
                f"no admissible frequency inside "
                f"({report.window[0]:g}, {report.window[1]:g}) u "
                f"({report.window[1]:g}, {report.window[2]:g})"))
    timings["gap"] = time.perf_counter() - t0

    files = [write_csv(out / "gap.csv", rows)]
    return files, checks


_PIPELINES = {
    "spectral": _run_spectral,
    "epi-check": _run_epi,
    "solve": _run_solve,
    "frequency": _run_frequency,
    "blowup": _run_blowup,
    "stratify": _run_stratify,
    "gap-demo": _run_gap,
}


# ---------------------------------------------------------------------------
# Plot emission
# ---------------------------------------------------------------------------

def emit_plots(source) -> list[Path]:
    """Render SVG figures for the known CSV artifacts.

    ``source`` is a directory or an iterable of CSV paths.  Emits a frequency
    polyline, a blow-up log-log scatter with its fitted line, and a slack
    histogram, for whichever of those tables are present.  Empty or malformed
    CSV files raise ``ValueError``.
    """
    if isinstance(source, (str, Path)) and Path(source).is_dir():
        paths = sorted(Path(source).glob("*.csv"))
    else:
        paths = [Path(p) for p in source]
    made = []
    for path in paths:
        if path.suffix != ".csv":
            continue
        if path.name == "frequency.csv":
            rows = read_csv(path)
            made.append(line_plot(
                path.with_name("frequency_phi.svg"),
                [row["radius"] for row in rows],
                [row["Phi"] for row in rows],
                title="Truncated frequency along the radius ladder",
                xlabel="radius", ylabel="frequency"))
        elif path.name == "blowup.csv":
            rows = read_csv(path)
            radii = np.array([row["radius"] for row in rows], dtype=float)
            dist = np.array([row["dist_linf"] for row in rows], dtype=float)
            keep = dist > 1e-13
            slope = intercept = None
            if np.count_nonzero(keep) >= 2:
                slope, intercept = np.polyfit(np.log(radii[keep]),
                                              np.log(dist[keep]), 1)
            made.append(loglog_plot(
                path.with_name("blowup_decay.svg"), radii, dist,
                slope=slope, intercept=intercept,
                title="Distance to the blow-up limit",
                xlabel="radius", ylabel="sup distance"))
        elif path.name == "epi.csv":
            rows = read_csv(path)
            made.append(histogram(
                path.with_name("epi_slack.svg"),
                [row["slack"] for row in rows], bins=24,
                title="Energy-improvement slack", xlabel="slack"))
    return made


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run(config: RunConfig) -> RunManifest:
    """Execute the configured pipeline, write artifacts and the manifest."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict = {}
    t_start = time.perf_counter()
    try:
        files, checks = _PIPELINES[config.subcommand](config, out, timings)
    except ValueError as err:
        raise ValueError(f"{config.subcommand} run failed: {err}") from err
    files = list(files) + emit_plots([p for p in files
                                      if Path(p).suffix == ".csv"])
    timings["total"] = time.perf_counter() - t_start

    manifest = RunManifest(
        config=config.to_dict(), version=__version__,
        files=hash_files(files, out), timings=timings, checks=checks)
    manifest.write(out / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_COMMON_KEYS = ("subcommand", "out", "cache_dir", "seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thin-epi",
        description="Desk-scale checks for thin-obstacle energy decay: "
                    "spectral identities, competitor constructions, a "
                    "constrained solver, and frequency analysis.")
    parser.add_argument("--version", action="version",
                        version=f"thin-epi {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, description):
        p = sub.add_parser(name, help=description, description=description)
        p.add_argument("--out", default=None,
                       help="output directory (default runs/<subcommand>)")
        p.add_argument("--cache-dir", default=None,
                       help="eigenbasis cache directory "
                            "(default $THIN_EPI_CACHE)")
        p.add_argument("--seed", type=int, default=7,
                       help="random seed (default 7)")
        return p

    p = add("spectral", "compare closed-form energies against quadrature "
                        "for random coefficient vectors")
    p.add_argument("--n", type=int, default=1, choices=(1, 2))
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--modes", type=int, default=8)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--vectors", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = add("epi-check", "sample admissible traces and verify the "
                         "energy-improvement inequality trial by trial")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=1, choices=(1, 2))
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--eps", type=float, default=DEFAULT_CONFIG.eps)
    p.add_argument("--negative", action="store_true",
                   help="run the negative-energy variant")
    p.add_argument("--resolution", type=int, default=None)

    p = add("solve", "solve a thin-obstacle problem and dump the solution")
    p.add_argument("--case", default="halfspace", choices=SOLVE_CASES)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--config", default=None,
                   help="JSON problem description (overrides --case)")

    p = add("frequency", "solve, then trace the truncated frequency along "
                         "a radius ladder")
    p.add_argument("--case", default="halfspace", choices=SOLVE_CASES)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--c-phi", type=float, default=10.0)
    p.add_argument("--count", type=int, default=24)
    p.add_argument("--violation-tol", type=float, default=1e-2)

    p = add("blowup", "fit the decay rate of rescalings toward the catalog "
                      "limit")
    p.add_argument("--case", default="constructed",
                   choices=("constructed", "solved"))
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--rungs", type=int, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--amplitude", type=float, default=0.3)

    p = add("stratify", "label contact-set points by their local "
                        "homogeneity")
    p.add_argument("--case", default="halfspace", choices=SOLVE_CASES)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--max-points", type=int, default=48)

    p = add("gap-demo", "frequency-gap sign contradiction and isolation "
                        "window")
    p.add_argument("--pairs", default="0:1,1:1,0:2",
                   help="comma-separated m:n pairs (default 0:1,1:1,0:2)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    params = {key: value for key, value in vars(args).items()
              if key not in _COMMON_KEYS and value is not None}
    out_dir = args.out or str(Path("runs") / args.subcommand)
    config = RunConfig(subcommand=args.subcommand, out_dir=out_dir,
                       params=params, cache_dir=args.cache_dir,
                       seed=args.seed)
    try:
        manifest = run(config)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for check in manifest.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status}  {check.name}"
        if check.detail:
            line += f"  ({check.detail})"
        print(line)
    print(f"manifest: {Path(config.out_dir) / 'manifest.json'}")
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
