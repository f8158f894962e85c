"""Competitor constructions: decomposition invariants, decay certificates,
off-homogeneity identities, gap arithmetic."""

import dataclasses

import numpy as np
import pytest

from thinepi import epiperimetric
from thinepi.epiperimetric import (EPS, adapted_half_basis,
                                   certify_negative, certify_positive,
                                   choose_delta, gap_demo,
                                   sample_negative_traces,
                                   sample_positive_traces, solve_alpha,
                                   verify_epi)
from thinepi.grids import build_grid
from thinepi.polynomials import Polynomial
from thinepi.profiles import halfspace_2d, make_profile
from thinepi.spectral import eigenbasis, lambda_of, mode_count_ell
from thinepi.traces import (SphericalTrace, TraceBatch, TraceColumns,
                            trace_from_basis, trace_from_profile)
from thinepi.weiss import weiss_rows


@pytest.fixture(scope="module")
def circle():
    return build_grid(1, 4096)


@pytest.fixture(scope="module")
def latlong():
    return build_grid(2, 48, kind="latlong")


@pytest.fixture(scope="module")
def setup01(circle):
    p = make_profile(0, 1)
    delta, basis = choose_delta(p, circle, 0)
    half = adapted_half_basis(p, circle)
    return p, delta, basis, half


@pytest.fixture(scope="module")
def setup11(circle):
    p = make_profile(1, 1)
    delta, basis = choose_delta(p, circle, 1)
    half = adapted_half_basis(p, circle)
    return p, delta, basis, half


@pytest.fixture(scope="module")
def setup21(circle):
    p = make_profile(2, 1)
    delta, basis = choose_delta(p, circle, 2)
    return p, delta, basis, None


@pytest.fixture(scope="module")
def setup02(latlong):
    p = make_profile(0, 2)
    delta, basis = choose_delta(p, latlong, 0)
    half = adapted_half_basis(p, latlong)
    return p, delta, basis, half


def _traces(batch):
    """The traces of a batch one by one, each the sum of the offset and
    its basis combination."""
    return [batch.offset + trace_from_basis(batch.basis, row)
            for row in batch.coeffs]


def _negative(c, p, m, basis):
    """``certify_negative``'s report on one trace."""
    return certify_negative(TraceBatch.of_trace(c, basis), p, m, EPS)[0]


# ---------------------------------------------------------------------------
# Basis selection
# ---------------------------------------------------------------------------

def _assert_analytic_contact_basis(delta, basis, m, n):
    """``choose_delta`` returned delta = 0.4, so Z_delta is the whole
    equator, and the first mode of the analytic basis above the low block
    has eigenvalue lambda(2m+2) exactly."""
    assert delta == epiperimetric.DELTA == 0.4
    assert basis.lambdas[mode_count_ell(n, m)] == lambda_of(2 * m + 2, n)
    assert basis.equator_dn is not None


def test_choose_delta_picks_top_of_ladder_with_full_mask(setup01, setup11, setup02):
    for (p, delta, basis, _), n, m in ((setup01, 1, 0), (setup11, 1, 1),
                                       (setup02, 2, 0)):
        _assert_analytic_contact_basis(delta, basis, m, n)


@pytest.mark.parametrize("m, n", [(2, 1), (26, 1), (1, 2), (5, 2)])
def test_choose_delta_gives_the_analytic_basis_on_the_cli_grids(m, n):
    # More of the profiles epi-check builds, on its grids.
    grid = build_grid(1, 4096) if n == 1 else build_grid(2, 48, kind="latlong")
    _assert_analytic_contact_basis(*choose_delta(make_profile(m, n), grid, m),
                                   m, n)


def test_choose_delta_fails_when_no_ladder_entry_works(circle, monkeypatch):
    p = make_profile(0, 1)   # normalized slope factor 1/sqrt(pi) ~ 0.564
    monkeypatch.setattr(epiperimetric, "DELTA", 0.6)
    with pytest.raises(ValueError, match="Z_delta at delta=0.6 holds 0 of "
                                         "the 2 equator nodes"):
        choose_delta(p, circle, 0)


def test_choose_delta_refuses_a_partial_contact_set(latlong):
    # The slope factor x1^2 falls below delta near x1 = 0 on the equator.
    p = make_profile(1, 2, Polynomial.monomial(2, (2, 0)))
    with pytest.raises(ValueError, match=r"Z_delta at delta=0.4 holds 66 of "
                                         r"the 96 equator nodes"):
        choose_delta(p, latlong, 1)


def test_adapted_half_basis_last_mode_is_profile_trace(setup01, setup11, setup02):
    for p, _, _, half in (setup01, setup11, setup02):
        tr = p.trace_on(half.grid)
        assert np.array_equal(half.values[:, -1], tr)
        assert half.orthonormality_defect() < 1e-10


def test_adapted_half_basis_equator_derivative_matches_slope(circle, setup01):
    _, _, _, half = setup01
    # derivative into the upper half of the profile trace at the two thin
    # boundary points equals minus the normalized slope
    expected = -1.0 / np.sqrt(np.pi)
    assert half.equator_dn[-1] == pytest.approx([expected, expected], rel=1e-12)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def _decompose(c, p, basis, half, cond_threshold=epiperimetric.COND_THRESHOLD):
    """(nu, phi coefficients, moment condition, reconstruction error) of
    one trace, by the certificates' batch decomposition."""
    nu, phi, cond, _, recon = epiperimetric._decompose(
        TraceBatch.of_trace(c, basis), p, half, EPS, cond_threshold)
    return nu[0], phi[0], cond, float(recon[0])


def test_profile_trace_decomposes_to_unit_vector(setup01, setup11, setup02):
    for p, _, basis, half in (setup01, setup11, setup02):
        c = trace_from_profile(p, basis.grid)
        nu, phi, cond, _ = _decompose(c, p, basis, half)
        ell = mode_count_ell(basis.grid.n, p.m)
        expected = np.zeros(ell)
        expected[-1] = 1.0
        assert nu == pytest.approx(expected, abs=1e-10)
        assert cond < 1.0 + 1e-8
        assert np.max(np.abs(phi)) < 1e-10


def test_decomposition_invariants(setup01):
    p, _, basis, half = setup01
    rng = np.random.default_rng(21)
    for c in _traces(sample_positive_traces(p, basis, 0, 5, rng)):
        nu, phi, _, recon = _decompose(c, p, basis, half)
        p_part = trace_from_basis(half, nu)
        remainder = trace_from_basis(basis, phi)
        assert recon <= 1e-8
        moments = basis.mass_rows(nu.size) @ (c.values - p_part.values)
        assert np.max(np.abs(moments)) <= 1e-8
        assert np.max(np.abs(remainder.values[basis.grid.equator])) <= 1e-12
        # idempotence: decomposing P + phi returns the same coefficients
        again_nu, again_phi, _, _ = _decompose(p_part + remainder, p, basis,
                                               half)
        assert again_nu == pytest.approx(nu, abs=1e-10)
        assert again_phi == pytest.approx(phi, abs=1e-10)


def test_decompose_rejects_bad_traces(setup01, circle):
    p, _, basis, half = setup01
    # odd trace
    odd = trace_from_profile(p, circle)
    vals = odd.values.copy()
    vals[circle.size // 2 + 1:] *= -1.0
    vals[1:circle.size // 2] *= 1.0
    bad = trace_from_profile(p, circle)
    bad.values = vals + 0.3
    bad.grad = None
    with pytest.raises(ValueError, match="admissibility"):
        _decompose(bad, p, basis, half)
    # negative on the thin set
    neg = trace_from_profile(p, circle)
    neg.values = neg.values - 0.01
    neg.grad = None
    with pytest.raises(ValueError, match="admissibility"):
        _decompose(neg, p, basis, half)


def test_admissibility_checked_once_per_certificate(monkeypatch, setup01, setup11):
    # One vectorised check per batch, so one per one-trace certificate.
    checked = []
    real = epiperimetric._admissibility

    def counting(*args):
        checked.append(args)
        return real(*args)

    monkeypatch.setattr(epiperimetric, "_admissibility", counting)
    rng = np.random.default_rng(24)
    p, delta, basis, half = setup01
    batch = sample_positive_traces(p, basis, 0, 3, rng)
    reports = certify_positive(batch, p, 0, half, EPS)
    assert len(checked) == 1
    for c, batch_rep in zip(_traces(batch), reports):
        checked.clear()
        rep = verify_epi(c, p, delta, 0, basis_delta=basis, half_basis=half)
        assert len(checked) == 1
        _, flags = real(TraceBatch.of_trace(c, basis), p, EPS)
        assert rep.flags == batch_rep.flags == {k: bool(v[0])
                                                for k, v in flags.items()}
    p, delta, basis, _ = setup11
    for c in _traces(sample_negative_traces(p, basis, 1, 3, rng)):
        checked.clear()
        _negative(c, p, 1, basis)
        assert len(checked) == 1


def test_decompose_condition_threshold(setup01):
    p, _, basis, half = setup01
    c = trace_from_profile(p, basis.grid)
    with pytest.raises(ValueError, match="condition"):
        _decompose(c, p, basis, half, cond_threshold=0.5)


# ---------------------------------------------------------------------------
# Positive-case certificate
# ---------------------------------------------------------------------------

def test_worked_positive_case_exact_values(setup01):
    p, delta, basis, half = setup01
    eps = 0.1
    coeffs = np.zeros(basis.count)
    coeffs[1] = eps
    c = trace_from_profile(p, basis.grid) + trace_from_basis(basis, coeffs)
    rep = verify_epi(c, p, delta, 0, basis_delta=basis, half_basis=half)
    assert rep.w_z == pytest.approx(1.5 * eps ** 2, rel=1e-10)
    assert rep.w_zeta == pytest.approx(13.0 / 12.0 * eps ** 2, rel=1e-10)
    assert rep.slack == pytest.approx(7.0 / 60.0 * eps ** 2, rel=1e-10)
    assert rep.kappa == pytest.approx(0.5 / 2.5, abs=1e-15)
    assert rep.route_discrepancy < 1e-12
    assert rep.passed


def test_positive_certificate_random_traces(setup01, setup11, setup02):
    rng = np.random.default_rng(22)
    for (p, _, basis, half), m in ((setup01, 0), (setup11, 1), (setup02, 0)):
        n = basis.grid.n
        kap = 0.5 / (n + 4 * m + 1.5)
        batch = sample_positive_traces(p, basis, m, 20, rng)
        for rep in certify_positive(batch, p, m, half, EPS):
            assert rep.kappa == pytest.approx(kap, abs=1e-15)
            assert rep.slack >= -1e-8
            assert rep.w_zeta <= (1 - kap) * rep.w_z + 1e-8
            assert rep.slack == pytest.approx(rep.slack_predicted, abs=1e-9)
            assert rep.route_discrepancy < 1e-10
            assert rep.passed


def test_positive_competitor_boundary_matches_trace(setup01):
    p, _, basis, half = setup01
    rng = np.random.default_rng(23)
    c, = _traces(sample_positive_traces(p, basis, 0, 1, rng))
    nu, phi, _, _ = _decompose(c, p, basis, half)
    p_part, remainder = trace_from_basis(half, nu), trace_from_basis(basis, phi)
    assert np.max(np.abs(p_part.values + remainder.values - c.values)) < 1e-10


def _assert_reports_match(batch_report, single):
    for name, value in vars(single).items():
        got = getattr(batch_report, name)
        if isinstance(value, (bool, dict)):
            assert got == value, name
        else:
            # route_discrepancy compares two routes that agree to rounding,
            # so it gets an absolute floor at rounding level
            assert got == pytest.approx(value, rel=1e-10, abs=1e-15), name


def test_batch_matches_one_trace_api(circle, setup01, setup02, setup11):
    rng = np.random.default_rng(31)
    for (p, delta, basis, half), m in ((setup01, 0), (setup02, 0)):
        batch = sample_positive_traces(p, basis, m, 6, rng)
        reports = certify_positive(batch, p, m, half, EPS)
        assert len(reports) == 6
        for c, rep in zip(_traces(batch), reports):
            single = verify_epi(c, p, delta, m, basis_delta=basis,
                                half_basis=half)
            _assert_reports_match(rep, single)
    p1, _, basis1, _ = setup11
    p2 = make_profile(2, 1)
    _, basis2 = choose_delta(p2, circle, 2)
    for p, basis, m in ((p1, basis1, 1), (p2, basis2, 2)):
        batch = sample_negative_traces(p, basis, m, 6, rng)
        reports = certify_negative(batch, p, m, EPS)
        for c, rep in zip(_traces(batch), reports):
            _assert_reports_match(rep, _negative(c, p, m, basis))


def test_batch_names_the_inadmissible_trial(setup01):
    p, delta, basis, half = setup01
    batch = sample_positive_traces(p, basis, 0, 4, np.random.default_rng(32))
    batch.coeffs[2] *= 0.3 / np.linalg.norm(batch.coeffs[2])
    with pytest.raises(ValueError, match=r"trial 2: trace fails admissibility "
                                         r"checks: \['within_eps'\]"):
        certify_positive(batch, p, 0, half, EPS)


def _nodal_sample(cls, offset, basis, count, eps, propose):
    """Reference sampler: one proposal at a time, both tests on the
    reconstructed node values, the thin-set test too, which the batch
    sampler leaves out."""
    grid = offset.grid
    out = []
    for _ in range(50 * count):
        if len(out) == count:
            break
        coeffs = propose()
        if coeffs is None:
            continue
        values = offset.values + basis.reconstruct(coeffs)
        diff = values - offset.values
        if (np.min(values[grid.equator]) >= -1e-12
                and np.sqrt(grid.inner(diff, diff)) <= eps):
            out.append(coeffs)
    if len(out) < count:
        raise ValueError("rejection sampling failed to produce traces")
    return cls(offset, basis, np.array(out))


@pytest.mark.parametrize("case, sampler, m", [
    ("setup01", sample_positive_traces, 0),
    ("setup02", sample_positive_traces, 0),
    ("setup11", sample_negative_traces, 1),
    ("setup21", sample_negative_traces, 2),
])
def test_sampler_matches_nodal_reference(case, sampler, m, request,
                                         monkeypatch):
    # The epi-check command's four sampler cases at its default 200 trials:
    # the same rows are accepted and the generator ends in the same state.
    p, _, basis, _ = request.getfixturevalue(case)
    rng = np.random.default_rng(41)
    batch = sampler(p, basis, m, 200, rng)
    with monkeypatch.context() as patch:
        patch.setattr(TraceBatch, "sample", classmethod(_nodal_sample))
        ref_rng = np.random.default_rng(41)
        reference = sampler(p, basis, m, 200, ref_rng)
    assert np.array_equal(batch.coeffs, reference.coeffs)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sampler_rejects_as_the_nodal_reference(monkeypatch):
    # The proposals straddle eps, so the distance test rejects some here.
    circle = build_grid(1, 1024)
    p = make_profile(0, 1)
    basis = eigenbasis(circle, 8)
    offset = trace_from_profile(p, circle)

    def draw(rng):
        def propose():
            if rng.uniform() < 0.1:
                return None
            a = rng.standard_normal(basis.count)
            return a * (EPS * rng.uniform(0.9, 1.1) / np.linalg.norm(a))
        return propose

    rng, ref_rng = np.random.default_rng(44), np.random.default_rng(44)
    batch = TraceBatch.sample(offset, basis, 40, EPS, draw(rng))
    reference = _nodal_sample(TraceBatch, offset, basis, 40, EPS,
                              draw(ref_rng))
    assert np.array_equal(batch.coeffs, reference.coeffs)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.all(batch.values()[:, circle.equator] == 0.0)
    assert (np.linalg.norm(batch.coeffs, axis=1) > 0.98 * EPS).any()


def test_sampler_gives_up_after_fifty_proposals_per_trace(setup01):
    p, _, basis, _ = setup01
    calls = []

    def propose():
        calls.append(None)
        return None

    with pytest.raises(ValueError, match="kept 0 of 7 traces within eps=0.1 "
                                         "from 350 proposals"):
        TraceBatch.sample(trace_from_profile(p, basis.grid), basis, 7, EPS,
                          propose)
    assert len(calls) == 50 * 7


@pytest.mark.parametrize("case", ["setup01", "setup02"])
def test_admissibility_names_a_trial_broken_at_one_mirror_pair(case, request):
    p, _, basis, _ = request.getfixturevalue(case)
    grid = basis.grid
    batch = sample_positive_traces(p, basis, 0, 5, np.random.default_rng(42))
    node = int(np.flatnonzero(grid.nodes[:, -1] > 0.5)[0])
    assert grid.reflect[node] != node

    class OneBrokenPair(TraceBatch):
        def values(self):
            block = super().values()
            block[3, node] += 1e-9
            return block

    _, flags = epiperimetric._admissibility(batch, p, EPS)
    assert all(np.all(ok) for ok in flags.values())
    broken = OneBrokenPair(batch.offset, basis, batch.coeffs)
    with pytest.raises(ValueError, match=r"trial 3: trace fails admissibility "
                                         r"checks: \['even'\]"):
        epiperimetric._admissibility(broken, p, EPS)


def _assert_report_types(report):
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if f.type == "float":
            assert type(value) is float, f.name
        elif f.type == "bool":
            assert type(value) is bool, f.name
    assert report.flags
    for name, ok in report.flags.items():
        assert type(ok) is bool, name


def test_report_fields_are_python_scalars(setup01, setup02, setup11):
    # epi.csv is written from these fields: a flag that became a number
    # would be written as 1/0 instead of true/false.
    rng = np.random.default_rng(43)
    for (p, _, basis, half), m in ((setup01, 0), (setup02, 0)):
        for rep in certify_positive(sample_positive_traces(p, basis, m, 3, rng),
                                    p, m, half, EPS):
            _assert_report_types(rep)
    p, _, basis, _ = setup11
    reports = certify_negative(sample_negative_traces(p, basis, 1, 3, rng),
                               p, 1, EPS)
    for rep in reports:
        _assert_report_types(rep)
        assert type(rep.alpha_in_range) is bool
        assert type(rep.sign_ok) is bool


# ---------------------------------------------------------------------------
# Negative-case certificate
# ---------------------------------------------------------------------------

def test_negative_worked_case(setup11):
    p, delta, basis, half = setup11
    a = 0.1
    coeffs = np.zeros(basis.count)
    coeffs[0] = a
    c = trace_from_profile(p, basis.grid) + trace_from_basis(basis, coeffs)
    rep = _negative(c, p, 1, basis)
    alpha = rep.alpha
    w_exact = (1.0 - 9.0) * a * a / 6.0
    assert rep.w_z == pytest.approx(w_exact, rel=1e-10)
    absw = -w_exact
    closed = (3.0 - absw * 3.0) / (1.0 + absw)
    assert alpha == pytest.approx(closed, abs=1e-11)
    assert 2.0 < alpha < 3.0
    # per-mode decay identity for the lowered competitor
    n = 1
    defect = -absw / (n + 2 * alpha - 1.0) * (lambda_of(alpha, n) - 1.0) * a * a
    assert rep.w_zeta - (1.0 + absw) * rep.w_z == pytest.approx(defect, rel=1e-9)
    assert rep.slack >= -1e-8
    assert rep.passed


def test_negative_certificate_random_traces(circle, setup11):
    p, delta, basis, half = setup11
    rng = np.random.default_rng(24)
    for rep in certify_negative(sample_negative_traces(p, basis, 1, 20, rng),
                                p, 1, EPS):
        assert -0.05 < rep.w_z < 0.0
        assert 2.0 < rep.alpha < 3.0
        assert rep.w_zeta <= (1.0 + abs(rep.w_z)) * rep.w_z + 1e-8
        assert rep.kappa == pytest.approx(abs(rep.w_z), rel=1e-12)
        assert rep.sign_ok
        assert rep.passed
        # quadrature route agrees
        assert rep.w_zeta_quad == pytest.approx(rep.w_zeta, abs=1e-10)
        assert rep.w_z_quad == pytest.approx(rep.w_z, abs=1e-10)


def test_reports_fail_when_the_energy_routes_disagree(monkeypatch, setup01,
                                                     setup11):
    # The quadrature route off by 1e-9 leaves every slack as it was, and
    # only the comparison of the two routes can fail the reports.
    rng = np.random.default_rng(26)
    p0, _, basis0, half = setup01
    p1, _, basis1, _ = setup11
    positive = sample_positive_traces(p0, basis0, 0, 5, rng)
    negative = sample_negative_traces(p1, basis1, 1, 5, rng)

    def certify():
        return (certify_positive(positive, p0, 0, half, EPS)
                + certify_negative(negative, p1, 1, EPS))

    assert all(rep.passed for rep in certify())
    monkeypatch.setattr(epiperimetric, "weiss_rows",
                        lambda *args: weiss_rows(*args) + 1e-9)
    reports = certify()
    assert all(rep.slack >= epiperimetric.SLACK_FLOOR for rep in reports)
    assert not any(rep.passed for rep in reports)


def test_negative_certificate_higher_profile(circle):
    p = make_profile(2, 1)
    delta, basis = choose_delta(p, circle, 2)
    rng = np.random.default_rng(25)
    for rep in certify_negative(sample_negative_traces(p, basis, 2, 5, rng),
                                p, 2, EPS):
        assert 4.0 < rep.alpha < 5.0
        assert rep.passed


def test_negative_needs_modes_below_profile(setup01):
    p, delta, basis, half = setup01
    rng = np.random.default_rng(26)
    with pytest.raises(ValueError, match="m >= 1"):
        sample_negative_traces(p, basis, 0, 1, rng)


def test_negative_rejects_nonnegative_energy(setup11):
    p, delta, basis, half = setup11
    c = trace_from_profile(p, basis.grid)
    with pytest.raises(ValueError, match="not negative"):
        _negative(c, p, 1, basis)


def test_solve_alpha_matches_closed_form():
    rng = np.random.default_rng(27)
    for m, n in ((0, 1), (1, 1), (0, 2), (2, 1)):
        mu = 2.0 * m + 1.0
        hi = (mu - 2 * m) / (n + 2 * m + mu - 1.0)
        for _ in range(5):
            target = rng.uniform(0.01, 0.9) * hi
            alpha = solve_alpha(target, m, mu, n)
            closed = (mu - target * (n + mu - 1.0)) / (1.0 + target)
            assert alpha == pytest.approx(closed, abs=1e-11)
    with pytest.raises(ValueError, match="bracket"):
        solve_alpha(1.5, 0, 1.0, 1)


# ---------------------------------------------------------------------------
# Off-homogeneity identities
# ---------------------------------------------------------------------------

def _offdegree(c, mu, t):
    """W_mu(r^(mu+t) c) and the defects of the identities

        W_mu(r^(mu+t) c) = t |c|^2,
        W_mu(r^mu c)     = (1 + t/(n+2mu-1)) W_mu(r^(mu+t) c)

    for a trace c of a (mu+t)-homogeneous solution, both energies from one
    ``weiss_rows`` call with one power per row."""
    grid = c.grid
    w_off, w_mu = weiss_rows(TraceColumns.of_trace(c), mu,
                             [(np.array([mu + t, mu]), np.ones((2, 1)))])
    return (w_off, w_off - t * grid.inner(c.values, c.values),
            w_mu - (1.0 + t / (grid.n + 2.0 * mu - 1.0)) * w_off)


def test_offdegree_identities_explicit_solutions(circle):
    cases = ((1.5, np.pi / 2.0), (2.0, np.pi), (3.0, 2.0 * np.pi))
    mu = 1.0
    for hom, expected in cases:
        c = trace_from_profile(halfspace_2d(hom), circle)
        w_off, defect1, defect2 = _offdegree(c, mu, hom - mu)
        assert w_off == pytest.approx(expected, rel=1e-12)
        assert abs(defect1) < 1e-10
        assert abs(defect2) < 1e-10


def test_offdegree_numeric_derivative_route(circle):
    # A trace without derivative data: its surface derivatives are
    # reconstructed from its node values.
    c = trace_from_profile(halfspace_2d(1.5), circle)
    w_off, defect1, _ = _offdegree(SphericalTrace(c.grid, c.values), 1.0, 0.5)
    assert w_off == pytest.approx(np.pi / 2.0, rel=1e-3)
    assert abs(defect1) < 1e-3


# ---------------------------------------------------------------------------
# Gap arithmetic
# ---------------------------------------------------------------------------

def test_gap_demo_contradicts_everywhere():
    expected_c = {(0, 1): 0.5, (1, 1): 1.0 / 6.0, (0, 2): 1.0 / 3.0}
    for (m, n), cval in expected_c.items():
        rep = gap_demo(m, n)
        assert rep.c_m == pytest.approx(cval)
        assert rep.all_contradict
        assert len(rep.rows) == 40
        for row in rep.rows:
            assert row.t != 0.0
            assert np.sign(row.deviation) == np.sign(row.leading_term)
            assert abs(row.deviation - row.leading_term) < 3 * row.t ** 2


def test_gap_demo_window_is_empty_for_n1():
    for m in (0, 1):
        rep = gap_demo(m, 1)
        assert rep.admissible_in_window == []
        mu = 2 * m + 1
        assert rep.window == (mu - 0.1, mu, mu + 0.4)


@pytest.mark.parametrize("m, n", [(-1, 1), (0, 0)])
def test_gap_demo_rejects_meaningless_pairs(m, n):
    with pytest.raises(ValueError, match="need m >= 0 and n >= 1"):
        gap_demo(m, n)

