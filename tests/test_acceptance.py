"""End-to-end verification gates, one per criterion, each printing a single
pass/fail line with its measured figures."""

import time

import numpy as np
import pytest

from thinepi.cli import case_spec
from thinepi.epiperimetric import (EPS, adapted_half_basis,
                                   certify_negative, certify_positive,
                                   choose_delta, gap_demo,
                                   sample_negative_traces,
                                   sample_positive_traces, verify_epi)
from thinepi.frequency import (FrequencyParams, blowup_fit, linfty_l2_check,
                               truncated_frequency, vanishing_on_Zdelta_check)
from thinepi.grids import build_grid, radii_ladder
from thinepi.profiles import halfspace_2d, make_profile
from thinepi.solver import (ProblemSpec, solve_thin_obstacle,
                            zero_obstacle_field)
from thinepi.spectral import eigenbasis, half_sphere_basis
from thinepi.traces import (SphericalTrace, TraceColumns, trace_from_basis,
                            trace_from_profile)
from thinepi.weiss import (beta_rows, bilinear_rows, weiss_raised, weiss_rows,
                           weiss_spectral)


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {name}: " \
           f"{'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def _solve_case(case_config: dict) -> object:
    return solve_thin_obstacle(ProblemSpec.from_config(case_config))


def near_profile_solution(seed: int):
    """The CLI's near-profile case at h = 1/32: the catalog profile plus a
    seeded random even bump vanishing at the equator."""
    return solve_thin_obstacle(case_spec("near-profile", 32, seed))


# ---------------------------------------------------------------------------
# 1. Spectral identities: closed forms vs ball quadrature
# ---------------------------------------------------------------------------

def test_criterion_01_spectral_identity_suite(tmp_path):
    t_start = time.perf_counter()

    # Exact half-circle basis: 100 random coefficient vectors, both the
    # matched-exponent and the raised-exponent energies, 1e-8 relative.
    circle = build_grid(1, 2048)
    basis = half_sphere_basis(1, 10, circle)
    rng = np.random.default_rng(11)
    worst_exact = 0.0
    for _ in range(100):
        c = rng.standard_normal(10)
        c /= np.linalg.norm(c)
        mu = rng.uniform(0.5, 2.5)
        alpha = mu + rng.uniform(0.1, 1.0)
        trace = trace_from_basis(basis, c)
        w_mu = weiss_spectral(c, basis, mu)
        columns = TraceColumns.of_trace(trace)
        q_mu = weiss_rows(columns, mu, [(mu, np.ones((1, 1)))])[0]
        w_up = weiss_raised(c, basis, mu, alpha).value
        q_up = weiss_rows(columns, mu, [(alpha, np.ones((1, 1)))])[0]
        worst_exact = max(worst_exact,
                          abs(q_mu - w_mu) / max(abs(w_mu), 1e-30),
                          abs(q_up - w_up) / max(abs(w_up), 1e-30))

    # Discrete S^2 basis: within 1e-3 at the fine grid, improving under
    # refinement.
    mu2 = 0.5
    rng2 = np.random.default_rng(5)
    worsts = []
    for res in (256, 512):
        sphere = build_grid(2, res)
        disc = eigenbasis(sphere, 6, cache_dir=tmp_path)
        worst = 0.0
        for _ in range(10):
            c = rng2.standard_normal(6)
            c /= np.linalg.norm(c)
            w_s = weiss_spectral(c, disc, mu2)
            trace = trace_from_basis(disc, c)
            w_q = weiss_rows(TraceColumns.of_trace(trace), mu2,
                             [(mu2, np.ones((1, 1)))])[0]
            worst = max(worst, abs(w_q - w_s) / abs(w_s))
        worsts.append(worst)
    elapsed = time.perf_counter() - t_start

    passed = (worst_exact <= 1e-8 and worsts[1] <= 1e-3
              and worsts[1] < worsts[0] and elapsed < 60.0)
    _report(1, "spectral identity suite", passed,
            f"exact-basis worst rel {worst_exact:.2e} <= 1e-8; discrete "
            f"worst rel {worsts[1]:.2e} <= 1e-3 improving from "
            f"{worsts[0]:.2e}; runtime {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. Double-product identity between the bilinear form and the pairing
# ---------------------------------------------------------------------------

def _halfspace_traces(grid):
    """(values (N, 6), gradient rows (6, N, 2)) of the unit-norm traces of
    the explicit 2D solutions of homogeneity 1.5, 2, 3.5, 4, 5.5 and 6, none
    of which vanishes on the equator."""
    traces = [trace_from_profile(halfspace_2d(mu), grid)
              for mu in (1.5, 2.0, 3.5, 4.0, 5.5, 6.0)]
    scale = np.array([1.0 / np.sqrt(grid.inner(t.values, t.values))
                      for t in traces])
    return (np.column_stack([t.values for t in traces]) * scale,
            np.stack([t.grad for t in traces]) * scale[:, None, None])


def test_criterion_02_double_product_identity():
    circle = build_grid(1, 2 ** 17)
    sin_basis = half_sphere_basis(1, 10, circle)
    values, grads = _halfspace_traces(circle)
    rng = np.random.default_rng(19)
    worst = 0.0
    for pair in range(50):
        phi_c = rng.standard_normal(6)
        # Half the pairs use a second factor that does NOT vanish at the
        # equator (explicit 2D solutions), half one that does (sine modes).
        if pair % 2 == 0:
            a = rng.standard_normal(values.shape[1])
            psi = SphericalTrace(circle, values @ a,
                                 grad=np.einsum("k,kij->ij", a, grads))
        else:
            psi = trace_from_basis(sin_basis, rng.standard_normal(10))
        mu = rng.uniform(0.5, 2.5)
        alpha = rng.uniform(0.5, 3.0)
        beta = beta_rows(phi_c[None], sin_basis, np.ones((1, 1)),
                         psi.values[:, None], mu)[0]
        columns = TraceColumns.of_trace(
            trace_from_basis(sin_basis, phi_c)).join(TraceColumns.of_trace(psi))
        r_val = bilinear_rows(columns, mu, (mu, np.array([[1.0, 0.0]])),
                              (alpha, np.array([[0.0, 1.0]])))[0]
        worst = max(worst,
                    abs((1 + alpha + mu - 1.0) * r_val - beta))

    _report(2, "double-product identity", worst <= 1e-6,
            f"worst |scaled bilinear - pairing| {worst:.2e} <= 1e-6 over "
            f"50 pairs incl. equator-nonvanishing second factors")


# ---------------------------------------------------------------------------
# 3. Positive energy improvement with closed-form worked case
# ---------------------------------------------------------------------------

def test_criterion_03_positive_energy_improvement():
    circle = build_grid(1, 4096)
    latlong = build_grid(2, 48, kind="latlong")
    rng = np.random.default_rng(23)
    min_slack = np.inf
    kappa_ok = True
    for m, n in ((0, 1), (1, 1), (0, 2)):
        grid = circle if n == 1 else latlong
        p = make_profile(m, n)
        _, basis = choose_delta(p, grid, m)
        half = adapted_half_basis(p, grid)
        # One batch per case, certified as epi-check certifies its trials.
        batch = sample_positive_traces(p, basis, m, 200, rng)
        for rep in certify_positive(batch, p, m, half, EPS):
            min_slack = min(min_slack, rep.slack)
            kappa_ok = kappa_ok and \
                abs(rep.kappa - 0.5 / (n + 4 * m + 1.5)) < 1e-15

    # Worked closed-form case: single second-mode perturbation.
    eps = 0.1
    p01 = make_profile(0, 1)
    delta01, basis01 = choose_delta(p01, circle, 0)
    half01 = adapted_half_basis(p01, circle)
    coeffs = np.zeros(basis01.count)
    coeffs[1] = eps
    worked = trace_from_profile(p01, circle) \
        + trace_from_basis(basis01, coeffs)
    rep = verify_epi(worked, p01, delta01, 0, basis_delta=basis01,
                     half_basis=half01)
    rel = max(abs(rep.w_z - 1.5 * eps ** 2) / (1.5 * eps ** 2),
              abs(rep.w_zeta - 13.0 / 12.0 * eps ** 2)
              / (13.0 / 12.0 * eps ** 2),
              abs(rep.slack - 7.0 / 60.0 * eps ** 2)
              / (7.0 / 60.0 * eps ** 2))

    passed = min_slack >= -1e-8 and kappa_ok and rel <= 1e-6
    _report(3, "positive energy improvement", passed,
            f"600 traces across three cases, min slack {min_slack:.2e} >= "
            f"-1e-8, decay constant matches 0.5/(n+4m+3/2); worked case "
            f"(1.5, 13/12, 7/60)*eps^2 within rel {rel:.2e} <= 1e-6")


# ---------------------------------------------------------------------------
# 4. Negative-side energy improvement
# ---------------------------------------------------------------------------

def test_criterion_04_negative_energy_improvement():
    circle = build_grid(1, 4096)
    rng = np.random.default_rng(29)
    min_slack = np.inf
    window_ok = alpha_ok = True
    for m in (1, 2):
        p = make_profile(m, 1)
        _, basis = choose_delta(p, circle, m)
        batch = sample_negative_traces(p, basis, m, 100, rng)
        for rep in certify_negative(batch, p, m, EPS):
            min_slack = min(min_slack, rep.slack)
            window_ok = window_ok and -0.05 < rep.w_z < 0.0
            alpha_ok = alpha_ok and 2 * m < rep.alpha < 2 * m + 1

    passed = min_slack >= -1e-8 and window_ok and alpha_ok
    _report(4, "negative energy improvement", passed,
            f"200 traces with base energy in (-0.05, 0), min slack "
            f"{min_slack:.2e} >= -1e-8, homogeneity parameter inside "
            f"(2m, 2m+1) in every trial")


# ---------------------------------------------------------------------------
# 5. Off-homogeneity identities for the explicit 2D solutions
# ---------------------------------------------------------------------------

def _offdegree_defects(trace, mu, t):
    """W_mu(r^(mu+t) c) and the defects of both identities for traces of
    (mu+t)-homogeneous solutions,

        W_mu(r^(mu+t) c) = t |c|^2,
        W_mu(r^mu c)     = (1 + t/(n+2mu-1)) W_mu(r^(mu+t) c),

    with both energies from one ``weiss_rows`` call, one power per row."""
    grid = trace.grid
    w_off, w_mu = weiss_rows(TraceColumns.of_trace(trace), mu,
                             [(np.array([mu + t, mu]), np.ones((2, 1)))])
    return (w_off, w_off - t * grid.inner(trace.values, trace.values),
            w_mu - (1.0 + t / (grid.n + 2.0 * mu - 1.0)) * w_off)


def test_criterion_05_offdegree_identities():
    fine = build_grid(1, 2 ** 17)
    coarse = build_grid(1, 4096)
    worst_exact = worst_quad = 0.0
    w_three_halves = None
    for hom in (1.5, 2.0, 3.0):
        sol = halfspace_2d(hom)
        t = hom - 1.0
        w_off, *defects = _offdegree_defects(
            trace_from_profile(sol, fine), 1.0, t)
        worst_exact = max([worst_exact] + [abs(d) for d in defects])
        if hom == 1.5:
            w_three_halves = w_off
        sampled = trace_from_profile(sol, coarse)
        _, *defects = _offdegree_defects(
            SphericalTrace(coarse, sampled.values), 1.0, t)
        worst_quad = max([worst_quad] + [abs(d) for d in defects])

    pi_err = abs(w_three_halves - np.pi / 2.0)
    passed = worst_exact <= 1e-6 and worst_quad <= 1e-3 and pi_err <= 1e-6
    _report(5, "off-homogeneity identities", passed,
            f"both identities: derivative route worst {worst_exact:.2e} <= "
            f"1e-6, sampled route worst {worst_quad:.2e} <= 1e-3; "
            f"3/2-homogeneous energy err vs pi/2 = {pi_err:.2e}")


# ---------------------------------------------------------------------------
# 6. Frequency-gap arithmetic
# ---------------------------------------------------------------------------

def test_criterion_06_frequency_gap_arithmetic():
    all_ok = True
    window_ok = True
    details = []
    for m, n in ((0, 1), (1, 1), (0, 2)):
        rep = gap_demo(m, n)
        ts = np.array([row.t for row in rep.rows])
        covered = (np.max(np.abs(ts)) == pytest.approx(0.1)
                   and np.all(ts != 0.0))
        all_ok = all_ok and rep.all_contradict and covered
        if n == 1:
            window_ok = window_ok and not rep.admissible_in_window
        details.append(f"(m={m},n={n}) c={rep.c_m:.4g}")

    passed = all_ok and window_ok
    _report(6, "frequency-gap arithmetic", passed,
            f"sign contradiction at every t with |t| <= 0.1, t != 0, for "
            f"{'; '.join(details)}; no admissible homogeneity in the "
            f"punctured window for n=1")


# ---------------------------------------------------------------------------
# 7. Solver accuracy against the exact 3/2-homogeneous solution
# ---------------------------------------------------------------------------

def test_criterion_07_solver_accuracy():
    exact = halfspace_2d(1.5)
    errors, comps, runtimes = [], [], {}
    for res in (64, 128, 256):
        sol = _solve_case({
            "dimension": 2, "h": 1.0 / res, "obstacle": {"kind": "zero"},
            "boundary": {"kind": "halfspace", "mu": 1.5},
            "k": 2, "gamma": 0.5})
        errors.append(sol.max_error_vs(exact))
        comps.append(float(np.max(np.abs(sol.complementarity))))
        runtimes[res] = sol.runtime

    passed = (errors[0] <= 5e-2 and errors[1] < errors[0]
              and errors[2] < errors[1] and max(comps) <= 1e-9
              and runtimes[128] < 300.0)
    _report(7, "solver accuracy", passed,
            f"sup errors {errors[0]:.2e} -> {errors[1]:.2e} -> "
            f"{errors[2]:.2e} (<= 5e-2 at h=1/64, decreasing twice); "
            f"max complementarity {max(comps):.1e} <= 1e-9; h=1/128 "
            f"runtime {runtimes[128]:.1f}s < 300s")


# ---------------------------------------------------------------------------
# 8. Frequency monotonicity on the solved quartic-obstacle case
# ---------------------------------------------------------------------------

def test_criterion_08_frequency_monotonicity():
    params = FrequencyParams(theta=0.25, k=2, gamma=0.5)

    violations = []
    for res in (32, 64, 128):
        sol = solve_thin_obstacle(case_spec("quartic", res))
        assert np.count_nonzero(sol.contact) > 0
        field = zero_obstacle_field(sol)
        prof = truncated_frequency(field, np.zeros(2), params=params)
        violations.append(prof.max_violation())

    shrink_ok = all(fine <= max(coarse / 3.0, 1e-9)
                    for coarse, fine in zip(violations, violations[1:]))

    # Homogeneous inputs: the normalized value equals n + 2*homogeneity.
    worst_hom = 0.0
    for v, expected in ((make_profile(0, 1), 3.0), (halfspace_2d(1.5), 4.0)):
        prof = truncated_frequency(v, np.zeros(2), params=params, r_max=0.6)
        worst_hom = max(worst_hom,
                        float(np.max(np.abs(prof.normalized() - expected))))

    passed = (max(violations) <= 1e-2 and shrink_ok and worst_hom <= 1e-6)
    _report(8, "frequency monotonicity", passed,
            f"solved quartic-obstacle case (theta=0.25, prefactor 10): max "
            f"violations per grid {[f'{v:.1e}' for v in violations]} <= "
            f"1e-2, shrinking under refinement; homogeneous inputs match "
            f"n+2*homogeneity within {worst_hom:.1e} <= 1e-6")


# ---------------------------------------------------------------------------
# 9. Blow-up convergence rate
# ---------------------------------------------------------------------------

def test_criterion_09_blowup_rate():
    # Constructed input: catalog profile plus the half-integer mode sitting
    # 1/2 above its homogeneity; fitted decay exponent must be 0.5 +/- 0.05.
    exponents = {}
    for m in (0, 1):
        p = make_profile(m, 1)
        mode = halfspace_2d(2.0 * m + 1.5)

        def v(points, p=p, mode=mode):
            return p(points) + 0.3 * mode(points)

        fit = blowup_fit(v, np.zeros(2), m, radii_ladder(0.6, 16)[::-1])
        exponents[m] = fit.exponent
    constructed_ok = all(abs(e - 0.5) <= 0.05 for e in exponents.values())

    # Solved near-profile problems: strictly positive fitted exponents.
    solved = []
    for seed in (101, 202, 303):
        sol = near_profile_solution(seed)
        fit = blowup_fit(sol, np.zeros(2), 0, radii_ladder(0.45, 10)[::-1])
        solved.append(fit.exponent)
    solved_ok = all(e > 0.0 for e in solved)

    _report(9, "blow-up decay rate", constructed_ok and solved_ok,
            f"constructed exponents m=0: {exponents[0]:.3f}, m=1: "
            f"{exponents[1]:.3f} (0.5 +/- 0.05); solved exponents "
            f"{[f'{e:.2f}' for e in solved]} all > 0")


# ---------------------------------------------------------------------------
# 10. Contact diagnostics: vanishing on the thick zero set and the
#     sup-vs-L2 interpolation constant
# ---------------------------------------------------------------------------

def test_criterion_10_contact_diagnostics():
    p01 = make_profile(0, 1)
    rng = np.random.default_rng(777)
    radii = rng.uniform(0.28, 0.32, size=50)
    sup_ok = True
    hypothesis_ok = True
    constants = []
    for seed in range(50):
        sol = near_profile_solution(seed)
        r = float(radii[seed])
        zrep = vanishing_on_Zdelta_check(sol, r, p01, 0.4, eta3=0.1)
        hypothesis_ok = hypothesis_ok and not zrep.skipped \
            and zrep.hypothesis_linf <= 0.1
        sup_ok = sup_ok and zrep.max_sup_rescaled <= zrep.contact_tol
        lrep = linfty_l2_check(sol, p01, r)
        constants.append(lrep.c_empirical)

    constants = np.array(constants)
    finite = bool(np.all(np.isfinite(constants)) and np.all(constants > 0))
    ratio = float(np.max(constants) / np.min(constants))
    passed = hypothesis_ok and sup_ok and finite and ratio < 2.0
    _report(10, "contact diagnostics", passed,
            f"50 solved instances below the closeness gate: zero-set sup "
            f"<= contact tolerance in every trial; interpolation constant "
            f"(exponent 1/4) finite with max/min ratio {ratio:.2f} < 2")
