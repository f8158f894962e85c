"""The two benchmark workloads: inputs, ops, and the checks on each op.

`build(name, seed, work_dir, smoke)` does the workload's set-up and returns
a `Workload`: its ops in their fixed order and its final checks.  Every
``thinepi`` function is called through its module attribute, so the traced
run's wrappers see the benchmark's own calls as well.
"""

from __future__ import annotations

import itertools
import os
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from thinepi import cli, epiperimetric, frequency, grids, profiles, solver, \
    traces

import checks

@dataclass
class Op:
    """One timed call; ``check`` gets the call's result and returns None
    when the output is right, or the reason it is wrong."""

    name: str
    run: object
    check: object


@dataclass
class Workload:
    ops: list
    final_checks: list = field(default_factory=list)   # callables -> str|None


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in
            np.random.default_rng(seed).integers(0, 2 ** 31, size=count)]


# ---------------------------------------------------------------------------
# certify: the certificate subcommands through cli.run
# ---------------------------------------------------------------------------

def _certify(seed, work_dir, smoke):
    runs = [("epi-check", {"m": 0, "n": 1}), ("epi-check", {"m": 1, "n": 1}),
            ("epi-check", {"m": 0, "n": 2}),
            ("epi-check", {"m": 1, "negative": True}),
            ("epi-check", {"m": 2, "negative": True}),
            ("spectral", {"n": 1}), ("spectral", {"n": 2})]
    if smoke:
        for sub, params in runs:
            if sub == "epi-check":
                params["trials"] = 3
            else:
                params["vectors"] = 2
    counter = itertools.count()
    ops = []
    for (sub, params), op_seed in zip(runs, _seeds(seed, len(runs))):
        label = sub + "".join(f" {k}={v}" for k, v in params.items())

        def run(sub=sub, params=params, op_seed=op_seed):
            # A fresh eigenbasis cache and output directory for every run.
            base = work_dir / f"op{next(counter)}"
            cache = base / "cache"
            os.environ["THIN_EPI_CACHE"] = str(cache)
            config = cli.RunConfig(subcommand=sub, out_dir=str(base / "out"),
                                   params=dict(params), cache_dir=str(cache),
                                   seed=op_seed)
            return base, cli.run(config)

        def check(result, sub=sub, params=params):
            base, manifest = result
            try:
                problem = checks.check_manifest(manifest)
                if problem is None and sub == "epi-check":
                    problem = checks.check_epi_rows(
                        checks.read_rows(base / "out" / "epi.csv"),
                        params["m"], params.get("n", 1),
                        params.get("negative", False))
                if problem is None and sub == "spectral" and params["n"] == 1:
                    problem = checks.check_route_agreement(
                        checks.read_rows(base / "out" / "spectral.csv"))
                return problem
            finally:
                shutil.rmtree(base, ignore_errors=True)

        ops.append(Op(label, run, check))
    return Workload(ops, [_worked_case])


def _worked_case():
    """The closed-form energy-improvement case, m = 0, n = 1."""
    eps = 0.1
    p = profiles.make_profile(0, 1)
    grid = grids.build_grid(1, 4096)
    delta, basis = epiperimetric.choose_delta(p, grid, 0)
    if not abs(basis.lambdas[1] - 4.0) <= 1e-9:
        return f"second constrained mode has eigenvalue {basis.lambdas[1]!r}"
    coeffs = np.zeros(basis.count)
    coeffs[1] = eps
    trace = (traces.trace_from_profile(p, grid)
             + traces.trace_from_basis(basis, coeffs))
    report = epiperimetric.verify_epi(
        trace, p, delta, 0, basis, epiperimetric.adapted_half_basis(p, grid))
    return checks.check_worked_case(report, eps)


# ---------------------------------------------------------------------------
# analyze: frequency-layer diagnostics on solved and exact fields
# ---------------------------------------------------------------------------

def _solve_quiet(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # the no-compiler fallback note
        return solver.solve_thin_obstacle(spec)


def _analyze(seed, work_dir, smoke):
    p01 = profiles.make_profile(0, 1)
    half15 = profiles.halfspace_2d(1.5)
    origin = np.zeros(2)
    field_seeds = _seeds(seed, 1 if smoke else 3)
    radii = np.random.default_rng(seed).uniform(0.28, 0.32,
                                                size=len(field_seeds))
    fields = [_solve_quiet(cli.case_spec("near-profile", 32, s))
              for s in field_seeds]
    halfspace = _solve_quiet(cli.case_spec("halfspace", 32 if smoke else 64))
    exact_params = frequency.FrequencyParams(theta=0.25, c_phi=10.0, k=2,
                                             gamma=0.5)
    solved_params = frequency.FrequencyParams(k=2, gamma=0.5)
    solved_ladder = grids.radii_ladder(0.45, 10)[::-1]
    exact_ladder = grids.radii_ladder(0.6, 16)[::-1]

    def constructed(points):
        # profile plus the mode 1/2 above its homogeneity: decay exponent 1/2
        return p01(points) + 0.3 * half15(points)

    constants = {}
    ops = []
    for s, sol, r in zip(field_seeds, fields, radii):
        r = float(r)
        ops += [
            Op(f"truncated_frequency near-profile seed={s}",
               lambda sol=sol: frequency.truncated_frequency(
                   sol, origin, params=solved_params),
               _check_solved_frequency),
            Op(f"blowup_fit near-profile seed={s}",
               lambda sol=sol: frequency.blowup_fit(sol, origin, 0,
                                                    solved_ladder),
               _check_solved_blowup),
            Op(f"vanishing_on_Zdelta_check near-profile seed={s}",
               lambda sol=sol, r=r: frequency.vanishing_on_Zdelta_check(
                   sol, r, p01, 0.4, eta3=0.1),
               _check_zdelta),
            Op(f"linfty_l2_check near-profile seed={s}",
               lambda sol=sol, r=r: frequency.linfty_l2_check(sol, p01, r),
               lambda rep, s=s: _check_linfty(rep, s, constants)),
        ]
    ops += [
        Op("stratify_contact halfspace",
           lambda: frequency.stratify_contact(halfspace),
           _check_strata),
        Op("truncated_frequency profile(0,1)",
           lambda: frequency.truncated_frequency(p01, origin,
                                                 params=exact_params,
                                                 r_max=0.6),
           lambda prof: _check_exact_frequency(prof, 1 + 2 * 1.0)),
        Op("truncated_frequency halfspace(1.5)",
           lambda: frequency.truncated_frequency(half15, origin,
                                                 params=exact_params,
                                                 r_max=0.6),
           lambda prof: _check_exact_frequency(prof, 1 + 2 * 1.5)),
        Op("blowup_fit constructed",
           lambda: frequency.blowup_fit(constructed, origin, 0, exact_ladder),
           _check_constructed_blowup),
    ]

    def constants_ratio():
        values = np.array(list(constants.values()))
        ratio = values.max() / values.min() if values.size else 1.0
        return None if ratio < 2.0 else f"L-inf/L2 constants ratio {ratio:.3f}"

    def solved_fields():
        # The set-up's 2D solves: residual, feasibility and complementarity
        # on every field, and the sup error of the halfspace field.
        problems = [f"near-profile seed={s}: {problem}"
                    for s, sol in zip(field_seeds, fields)
                    if (problem := checks.check_solution(
                        sol, sol.spec.tol, checks.zero_obstacle))]
        problem = checks.check_solution(halfspace, halfspace.spec.tol,
                                        checks.zero_obstacle, half15,
                                        2.0 * halfspace.spec.h)
        if problem:
            problems.append(f"halfspace: {problem}")
        return "; ".join(problems) or None

    return Workload(ops, [solved_fields, constants_ratio])


def _check_solved_frequency(prof):
    # Monotone up to the CLI's 1e-2 gate, plateau at the nearby profile's
    # homogeneity 1 within the stratification label tolerance 0.1.
    if not np.all(np.isfinite(prof.Phi)):
        return "non-finite frequency"
    if not prof.max_violation() <= 1e-2:
        return f"monotonicity violation {prof.max_violation():.3e}"
    mu = prof.mu_estimate()
    return None if abs(mu - 1.0) <= 0.1 else f"homogeneity estimate {mu!r}"


def _check_solved_blowup(fit):
    if fit.degenerate or not fit.exponent > 0.0:
        return f"solved decay exponent {fit.exponent!r} not > 0"
    return None


def _check_constructed_blowup(fit):
    if fit.degenerate or not abs(fit.exponent - 0.5) <= 0.05:
        return f"constructed decay exponent {fit.exponent!r} not 0.5 +/- 0.05"
    return None


def _check_zdelta(rep):
    if rep.skipped or not rep.hypothesis_linf <= 0.1:
        return f"closeness hypothesis failed ({rep.hypothesis_linf:.3e})"
    if not rep.max_sup_rescaled <= rep.contact_tol:
        return f"zero-set sup {rep.max_sup_rescaled:.3e} above tolerance"
    return None


def _check_linfty(rep, s, constants):
    c = rep.c_empirical
    if not (np.isfinite(c) and c > 0.0):
        return f"L-infinity/L2 constant {c!r}"
    constants[s] = c
    return None


def _check_exact_frequency(prof, expected):
    worst = float(np.max(np.abs(prof.normalized() - expected)))
    return None if worst <= 1e-6 else f"frequency off n + 2 mu by {worst:.3e}"


def _check_strata(report):
    """Exact contact set of halfspace(1.5): the half-line x1 <= 0."""
    x1 = [float(np.atleast_1d(row["x0"])[0]) for row in report.rows]
    if not x1:
        return "no contact nodes"
    if max(x1) > 1e-12:
        return f"contact node at x1 = {max(x1)!r} > 0"
    nearest = min(report.rows, key=lambda row: abs(
        float(np.atleast_1d(row["x0"])[0])))
    if nearest["label"] != 1.5:
        return f"contact node nearest the origin labelled {nearest['label']!r}"
    resolved = len(report.rows) - len(report.unresolved)
    ones = report.labels().get(1.0, 0)
    if not 2 * ones > resolved:
        return f"{ones} of {resolved} resolved nodes labelled 1.0"
    return None


_BUILDERS = {"certify": _certify, "analyze": _analyze}


def build(name: str, seed: int, work_dir: Path, smoke: bool) -> Workload:
    return _BUILDERS[name](seed, Path(work_dir), smoke)
