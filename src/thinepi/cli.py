"""Command-line pipelines tying the library together.

Each subcommand runs one experiment — spectral identity checks,
energy-improvement trials, the constrained solver, frequency ladders,
blow-up decay fits, contact stratification, or the frequency-gap
demonstration — and writes CSV/SVG artifacts plus a JSON manifest.  A
pipeline draws its figure from the results it holds, next to the table it
writes of them: a frequency curve, a blow-up log-log scatter with
``blowup_fit``'s line (none when the fit is degenerate), a slack histogram.
The manifest lists every produced file with a SHA-256 content hash; seeds
and ladders fully determine a run, so identical configurations reproduce
identical artifact bytes.  The process exits 0 only if every gated check
passes.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .artifacts import CheckResult, RunManifest, hash_files, write_csv
from .epiperimetric import (EPS, ROUTE_TOL, SLACK_FLOOR, adapted_half_basis,
                            certify_negative, certify_positive, choose_delta,
                            gap_demo, sample_negative_traces,
                            sample_positive_traces)
from .frequency import (LADDER_RUNGS, STRATIFY_POINTS, FrequencyParams,
                        blowup_fit, stratify_contact, truncated_frequency,
                        weiss_monotonicity_check)
from .grids import build_grid, radii_ladder
from .profiles import halfspace_2d, make_profile
from .solver import ProblemSpec, solve_thin_obstacle, zero_obstacle_field
from .spectral import eigenbasis, half_sphere_basis
from .svgplot import histogram, line_plot, loglog_plot
from .traces import TraceColumns
from .weiss import weiss_raised, weiss_rows, weiss_spectral

__all__ = ["RunConfig", "RunManifest", "run", "main", "SUBCOMMANDS"]


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

DEFAULT_SEED = 7


@dataclass
class RunConfig:
    """Everything that determines a run: subcommand, module parameters,
    output directory, cache directory, seed."""

    subcommand: str = ""
    out_dir: str = ""
    params: dict = field(default_factory=dict)
    cache_dir: str | None = None
    seed: int = DEFAULT_SEED

    def validate(self) -> dict:
        """Check the config and return its params resolved against the
        subcommand's table in ``PARAMS``."""
        missing = [name for name in ("subcommand", "out_dir")
                   if not getattr(self, name)]
        if missing:
            raise ValueError(f"config missing required keys: "
                             f"{', '.join(missing)}")
        if self.subcommand not in SUBCOMMANDS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}; "
                             f"expected one of {', '.join(SUBCOMMANDS)}")
        table = PARAMS[self.subcommand]
        unknown = sorted(set(self.params) - set(table))
        if unknown:
            raise ValueError(f"{self.subcommand}: unknown parameters {unknown}"
                             f"; expected one of {', '.join(table)}")
        given = {k: v for k, v in self.params.items() if v is not None}
        resolved: dict = {}
        for name, (kind, default, choices) in table.items():
            value = given[name] if name in given else default
            if callable(value):
                value = value(resolved)
            if value is not None:
                try:
                    value = _cast(kind, value)
                except (TypeError, ValueError):
                    raise ValueError(f"{self.subcommand}: {name} must be "
                                     f"{kind.__name__}, got {value!r}")
                if choices and value not in choices:
                    raise ValueError(
                        f"{self.subcommand}: {name} must be one of "
                        f"{', '.join(map(str, choices))}, got {value!r}")
            resolved[name] = value
        return resolved

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        config = RunConfig(**data)
        config.validate()
        return config


def _cast(kind, value):
    """``value`` as ``kind``, refusing casts that would change it silently:
    a bool parameter takes only a bool, a number parameter no bool, and an
    int parameter no fraction."""
    if kind is bool and not isinstance(value, bool):
        raise TypeError(value)
    if kind in (int, float) and isinstance(value, bool):
        raise TypeError(value)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return kind(value)


SOLVE_CASES = ("halfspace", "profile", "profile-3d", "quartic",
               "near-profile")


# Each subcommand's parameters, in resolution order: name -> (type, default,
# choices).  A default is a constant, None (unset), or a function of the
# parameters resolved before it.  ``RunConfig.validate`` resolves a run's
# params against its table once; the pipelines read the resolved values,
# the manifest records them, and ``_build_parser`` makes one option of each.
_SOLVE_PARAMS = {"case": (str, "halfspace", SOLVE_CASES),
                 "resolution": (int, 64, None),
                 "config": (str, None, None)}   # JSON problem, over --case
PARAMS = {
    "spectral": {
        "n": (int, 1, (1, 2)),
        "resolution": (int, lambda p: 2048 if p["n"] == 1 else 256, None),
        "modes": (int, 8, None),
        "mu": (float, lambda p: 1.0 if p["n"] == 1 else 0.5, None),
        "vectors": (int, lambda p: 100 if p["n"] == 1 else 20, None),
        # Discrete-basis routes agree to second order in the mesh: at n = 2
        # the gate is 1e-3 at resolution 512 and scales with h^2.
        "tol": (float, lambda p: 1e-8 if p["n"] == 1 else
                max(1e-3, 1e-3 * (512.0 / p["resolution"]) ** 2), None),
    },
    "epi-check": {
        "m": (int, 0, None), "n": (int, 1, (1, 2)),
        "trials": (int, 200, None), "eps": (float, EPS, None),
        "negative": (bool, False, None),
        "resolution": (int, lambda p: 4096 if p["n"] == 1 else 48, None),
    },
    "solve": _SOLVE_PARAMS,
    "frequency": {**_SOLVE_PARAMS, "theta": (float, None, None),
                  "count": (int, LADDER_RUNGS, None),
                  "violation_tol": (float, 1e-2, None)},
    "blowup": {
        "case": (str, "constructed", ("constructed", "solved")),
        "m": (int, 0, None),
        "rungs": (int, lambda p: 10 if p["case"] == "solved" else 16, None),
        "r_max": (float, lambda p: 0.45 if p["case"] == "solved" else 0.6,
                  None),
        "resolution": (int, 32, None), "amplitude": (float, 0.3, None),
    },
    "stratify": {**_SOLVE_PARAMS,
                 "max_points": (int, STRATIFY_POINTS, None)},
    "gap-demo": {"pairs": (str, "0:1,1:1,0:2", None)},   # m:n, comma-separated
}


# ---------------------------------------------------------------------------
# Problem catalog for solver-backed subcommands
# ---------------------------------------------------------------------------

def case_spec(case: str, resolution: int,
              seed: int = DEFAULT_SEED) -> ProblemSpec:
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


def _solve_case(params: dict, seed: int, timings: dict):
    """Solve the problem of resolved solve params: the JSON file
    ``config``, or else the catalog ``case`` at ``resolution``."""
    if params["config"]:
        spec = ProblemSpec.from_file(params["config"])
    else:
        spec = case_spec(params["case"], params["resolution"], seed)
    t0 = time.perf_counter()
    sol = solve_thin_obstacle(spec)
    timings["solve"] = time.perf_counter() - t0
    return spec, sol


# ---------------------------------------------------------------------------
# Pipelines (each returns its produced files, figures included, and checks)
# ---------------------------------------------------------------------------

def _run_spectral(config: RunConfig, out: Path, timings: dict):
    """Compare closed-form energies against quadrature for random
    coefficient vectors."""
    params = config.params
    n, modes, mu = params["n"], params["modes"], params["mu"]
    vectors, resolution, tol = (params["vectors"], params["resolution"],
                                params["tol"])
    if modes < 1:
        raise ValueError(f"--modes must be at least 1, got {modes}")
    if vectors < 1:
        raise ValueError(f"--vectors must be at least 1, got {vectors}")

    t0 = time.perf_counter()
    if n == 1:
        grid = build_grid(1, resolution)
        basis = half_sphere_basis(1, modes, grid)
    else:
        grid = build_grid(2, resolution)
        basis = eigenbasis(grid, modes, cache_dir=config.cache_dir)
    timings["basis"] = time.perf_counter() - t0

    rng = np.random.default_rng(config.seed)
    t0 = time.perf_counter()
    coeffs, alphas = np.empty((vectors, modes)), np.empty(vectors)
    for trial in range(vectors):
        c = rng.standard_normal(modes)
        coeffs[trial] = c / np.linalg.norm(c)
        alphas[trial] = mu + rng.uniform(0.1, 1.0)
    # Both routes for all vectors at once: eigenvalue sums, and the
    # closed radial form over the basis's nodal-quadrature Gram matrices.
    spectral_mu = weiss_spectral(coeffs, basis, mu)
    raised = weiss_raised(coeffs, basis, mu, alphas)
    columns = TraceColumns.of_basis(basis)
    quad_mu = weiss_rows(columns, mu, [(mu, coeffs)])
    quad_raised = weiss_rows(columns, mu, [(alphas, coeffs)])
    rel_mu = abs(quad_mu - spectral_mu) / np.maximum(abs(spectral_mu), 1e-30)
    rel_raised = (abs(quad_raised - raised.value)
                  / np.maximum(abs(raised.value), 1e-30))
    worst = float(max(rel_mu.max(), rel_raised.max()))
    rows = [{
        "trial": trial, "mu": mu, "alpha": float(alphas[trial]),
        "w_mu_spectral": float(spectral_mu[trial]),
        "w_mu_quadrature": float(quad_mu[trial]),
        "rel_diff_mu": float(rel_mu[trial]),
        "w_raised_spectral": float(raised.value[trial]),
        "w_raised_quadrature": float(quad_raised[trial]),
        "rel_diff_raised": float(rel_raised[trial]),
        "raising_residual": float(raised.residual[trial]),
    } for trial in range(vectors)]
    timings["trials"] = time.perf_counter() - t0

    files = [write_csv(out / "spectral.csv", rows)]
    checks = [CheckResult(
        "spectral-vs-quadrature", worst <= tol,
        f"worst relative difference {worst:.3e} over {vectors} vectors "
        f"(n={n}, tolerance {tol:g})")]
    return files, checks


def _run_epi(config: RunConfig, out: Path, timings: dict):
    """Sample admissible traces and verify the energy-improvement inequality
    trial by trial (--negative: the negative-energy variant)."""
    params = config.params
    m, n, trials = params["m"], params["n"], params["trials"]
    eps, negative, resolution = (params["eps"], params["negative"],
                                 params["resolution"])
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    if not eps > 0.0:
        raise ValueError(f"--eps must be positive, got {eps}")

    t0 = time.perf_counter()
    if n == 1:
        grid = build_grid(1, resolution)
    else:
        grid = build_grid(2, resolution, kind="latlong")
    p = make_profile(m, n)
    delta, basis = choose_delta(p, grid, m)
    # only the positive certificate splits off the half-sphere modes
    half = None if negative else adapted_half_basis(p, grid)
    timings["basis"] = time.perf_counter() - t0

    rng = np.random.default_rng(config.seed)
    t0 = time.perf_counter()
    # The run's trials are drawn first and then certified as one batch.
    if negative:
        reports = certify_negative(
            sample_negative_traces(p, basis, m, trials, rng, eps), p, m, eps)
        alpha_ok = all(rep.alpha_in_range for rep in reports)
        window_ok = all(-0.05 < rep.w_z < 0.0 for rep in reports)
        rows = [{
            "trial": trial, "mu": rep.mu, "alpha": rep.alpha,
            "kappa": rep.kappa, "w_z": rep.w_z, "w_zeta": rep.w_zeta,
            "bound": rep.bound, "slack": rep.slack, "c_ell": rep.c_ell,
            "alpha_in_range": rep.alpha_in_range, "passed": rep.passed,
        } for trial, rep in enumerate(reports)]
        checks = [
            CheckResult("alpha-in-band", alpha_ok,
                        f"every alpha inside ({2 * m}, {2 * m + 1})"),
            CheckResult("energy-window", window_ok,
                        "every base energy in (-0.05, 0)"),
            CheckResult("reports-passed", all(rep.passed for rep in reports),
                        f"all competitor reports passed, routes within {ROUTE_TOL:g}"),
        ]
    else:
        reports = certify_positive(
            sample_positive_traces(p, basis, m, trials, rng, eps=eps),
            p, m, half, eps)
        rows = [{
            "trial": trial, "mu": rep.mu, "alpha": rep.alpha,
            "kappa": rep.kappa, "w_z": rep.w_z, "w_zeta": rep.w_zeta,
            "bound": rep.bound, "slack": rep.slack,
            "slack_quad": rep.slack_quad,
            "route_discrepancy": rep.route_discrepancy,
            "passed": rep.passed,
        } for trial, rep in enumerate(reports)]
        checks = [
            CheckResult("reports-passed", all(rep.passed for rep in reports),
                        f"all {trials} competitor reports passed (m={m}, n={n}, "
                        f"delta={delta:g}, routes within {ROUTE_TOL:g})"),
        ]
    min_slack = min(rep.slack for rep in reports)
    checks.insert(0, CheckResult("slack-floor", min_slack >= SLACK_FLOOR,
                                 f"min slack {min_slack:.3e} over {trials} "
                                 f"trials (floor {SLACK_FLOOR:g})"))
    timings["trials"] = time.perf_counter() - t0

    files = [write_csv(out / "epi.csv", rows),
             histogram(out / "epi_slack.svg", [rep.slack for rep in reports],
                       bins=24, title="Energy-improvement slack",
                       xlabel="slack")]
    return files, checks


def _run_solve(config: RunConfig, out: Path, timings: dict):
    """Solve a thin-obstacle problem and dump the solution (--config: a JSON
    problem description, over --case)."""
    spec, sol = _solve_case(config.params, config.seed, timings)

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
                    f"{sol.kkt:.3e}, tol {spec.tol:g}"),
        CheckResult("complementarity", comp_max <= 1e-9,
                    f"max residual {comp_max:.3e}"),
        CheckResult("feasibility", feasibility >= -1e-12,
                    f"min(u - obstacle) = {feasibility:.3e}"),
    ]
    exact = {"halfspace": halfspace_2d(1.5), "profile": make_profile(0, 1),
             "profile-3d": make_profile(0, 2)}.get(config.params["case"])
    if exact is not None and not config.params["config"]:
        err = sol.max_error_vs(exact)
        checks.append(CheckResult(
            "sup-error-vs-exact", err <= 5e-2,
            f"sup error {err:.3e} at h = 1/{spec.resolution}"))
    return files, checks


def _run_frequency(config: RunConfig, out: Path, timings: dict):
    """Solve, then trace the truncated frequency along a radius ladder."""
    params = config.params
    spec, sol = _solve_case(params, config.seed, timings)
    freq_params = FrequencyParams(theta=params["theta"], k=spec.k,
                                  gamma=spec.gamma)
    # theta unset is gamma/2 of the solved problem; record the value used
    params["theta"] = freq_params.resolved_theta()
    count, violation_tol = params["count"], params["violation_tol"]

    t0 = time.perf_counter()
    profile = truncated_frequency(
        zero_obstacle_field(sol), np.zeros(spec.dimension),
        params=freq_params, count=count)
    rows = profile.rows()               # reads the pairing I of the CSV
    timings["frequency"] = time.perf_counter() - t0

    files = [write_csv(out / "frequency.csv", rows),
             line_plot(out / "frequency_phi.svg", profile.radii, profile.Phi,
                       title="Truncated frequency along the radius ladder",
                       xlabel="radius", ylabel="frequency")]
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
    """Fit the decay rate of rescalings toward the catalog limit."""
    params = config.params
    case, m = params["case"], params["m"]
    radii = radii_ladder(params["r_max"], params["rungs"])[::-1]

    t0 = time.perf_counter()
    if case == "constructed":
        # Catalog profile plus a half-integer mode sitting 1/2 above its
        # homogeneity; the fitted decay exponent should be 1/2.
        p = make_profile(m, 1)
        mode = halfspace_2d(2.0 * m + 1.5)
        amplitude = params["amplitude"]

        def v(points):
            return p(points) + amplitude * mode(points)

        fit = blowup_fit(v, np.zeros(2), m, radii)
        expected = "0.5 +/- 0.05"
        exponent_ok = (fit.exponent is not None
                       and abs(fit.exponent - 0.5) <= 0.05)
    else:
        _, sol = _solve_case({"case": "near-profile", "config": None,
                              "resolution": params["resolution"]},
                             config.seed, timings)
        fit = blowup_fit(sol, np.zeros(2), m, radii)
        expected = "> 0"
        exponent_ok = fit.exponent is not None and fit.exponent > 0.0
    timings["fit"] = time.perf_counter() - t0

    files = [write_csv(out / "blowup.csv", fit.rows()),
             loglog_plot(out / "blowup_decay.svg", fit.radii, fit.dist_linf,
                         slope=fit.exponent, intercept=fit.intercept,
                         title="Distance to the blow-up limit",
                         xlabel="radius", ylabel="sup distance")]
    if fit.exponent is None:
        resolved = (f"no exponent was fitted: degenerate fit over "
                    f"{len(fit.radii)} radii")
        fitted = f"{resolved}, expected {expected}"
    else:
        resolved = f"catalog fit admissible over {len(fit.radii)} radii"
        fitted = (f"fitted exponent {fit.exponent:.4f} "
                  f"(band [{fit.band[0]:.4f}, {fit.band[1]:.4f}], "
                  f"expected {expected})")
    checks = [
        CheckResult("fit-resolved", not fit.degenerate and fit.admissible,
                    resolved),
        CheckResult("decay-exponent", exponent_ok, fitted),
    ]
    if case == "solved":
        t0 = time.perf_counter()
        weiss = weiss_monotonicity_check(sol, fit.mu, radii, np.zeros(2))
        timings["weiss"] = time.perf_counter() - t0
        files.append(write_csv(out / "weiss.csv", weiss.rows()))
        checks += [
            CheckResult("weiss-monotone", weiss.passed(),
                        f"min margins {weiss.min_margin_gradient:.3e} "
                        f"(gradient), {weiss.min_margin_competitor:.3e} "
                        f"(competitor) over {len(weiss.steps)} steps"),
            _weiss_rate(weiss, fit.exponent),
        ]
    return files, checks


# The paper's chain: a Weiss energy decaying like r^gamma gives blow-ups
# converging like r^(gamma/2), so the log-log slope of W over the ladder is
# about twice the fitted blow-up exponent.
WEISS_RATE_BAND = (1.7, 2.3)


def _weiss_rate(weiss, exponent: float | None) -> CheckResult:
    """Gate: W > 0 on every rung, and the log-log slope of W over the
    ladder, divided by the fitted blow-up exponent, lies in
    ``WEISS_RATE_BAND``."""
    for i, (r, w) in enumerate(zip(weiss.radii, weiss.energies)):
        if not w > 0.0:
            return CheckResult("weiss-rate", False,
                               f"W = {w:.3e} is not positive at rung {i} "
                               f"(radius {r:.4g})")
    if exponent is None:
        return CheckResult("weiss-rate", False,
                           "no blow-up exponent was fitted")
    slope = float(np.polyfit(np.log(weiss.radii), np.log(weiss.energies),
                             1)[0])
    lo, hi = WEISS_RATE_BAND
    ratio = slope / exponent
    return CheckResult("weiss-rate", lo <= ratio <= hi,
                       f"W slope {slope:.4f} is {ratio:.3f} times the "
                       f"fitted exponent {exponent:.4f} (band [{lo}, {hi}])")


def _run_stratify(config: RunConfig, out: Path, timings: dict):
    """Label contact-set points by their local homogeneity."""
    params = config.params
    max_points = params["max_points"]
    if max_points < 1:          # before the solve, which dominates the run
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    spec, sol = _solve_case(params, config.seed, timings)

    t0 = time.perf_counter()
    report = stratify_contact(sol, max_points=max_points)
    timings["stratify"] = time.perf_counter() - t0

    rows = []
    for entry in report.rows:
        x0 = np.atleast_1d(np.asarray(entry["x0"], dtype=float))
        row = {f"x{axis + 1}": x0[axis] for axis in range(x0.size)}
        row["mu_estimate"] = entry["mu_estimate"]
        row["label"] = entry["label"]
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
    """Frequency-gap sign contradiction and isolation window (--pairs:
    comma-separated m:n pairs)."""
    pairs = _parse_pairs(config.params["pairs"])
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
SUBCOMMANDS = tuple(_PIPELINES)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run(config: RunConfig) -> RunManifest:
    """Execute the configured pipeline, write artifacts and the manifest,
    whose config records every resolved parameter."""
    config = replace(config, params=config.validate())
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict = {}
    t_start = time.perf_counter()
    try:
        files, checks = _PIPELINES[config.subcommand](config, out, timings)
    except ValueError as err:
        raise ValueError(f"{config.subcommand} run failed: {err}") from err
    timings["total"] = time.perf_counter() - t_start

    manifest = RunManifest(
        config=config.to_dict(), version=__version__,
        files=hash_files(files, out), timings=timings, checks=checks)
    manifest.write(out / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thin-epi",
        description="Desk-scale checks for thin-obstacle energy decay: "
                    "spectral identities, competitor constructions, a "
                    "constrained solver, and frequency analysis.")
    parser.add_argument("--version", action="version",
                        version=f"thin-epi {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, pipeline in _PIPELINES.items():
        p = sub.add_parser(name, help=pipeline.__doc__,
                           description=pipeline.__doc__)
        p.add_argument("--out",
                       help="output directory (default runs/<subcommand>)")
        p.add_argument("--cache-dir",
                       help="eigenbasis cache directory "
                            "(default $THIN_EPI_CACHE)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"random seed (default {DEFAULT_SEED})")
        # An unset option stays None, and the run fills in its default.
        for key, (kind, _, choices) in PARAMS[name].items():
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type=kind, choices=choices)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    params = {key: getattr(args, key) for key in PARAMS[args.subcommand]}
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
