"""Energy evaluations: closed-form oracles, route agreement, pairings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinepi import frequency
from thinepi.grids import build_grid
from thinepi.profiles import halfspace_2d, make_profile
from thinepi.spectral import eigenbasis, half_sphere_basis
from thinepi.traces import SphericalTrace, TraceColumns, circle_dtheta, \
    trace_from_basis, trace_from_profile
from thinepi.weiss import (beta_rows, bilinear_rows, kappa, weiss_raised,
                           weiss_rows, weiss_spectral)


@pytest.fixture(scope="module")
def circle():
    return build_grid(1, 2048)


@pytest.fixture(scope="module")
def sin_basis(circle):
    return half_sphere_basis(1, 10, grid=circle)


def _energy(trace, degree, mu):
    """W_mu(r^degree * trace): the row form over the trace's one column."""
    return float(weiss_rows(TraceColumns.of_trace(trace), mu,
                            [(degree, np.ones((1, 1)))])[0])


def _pairing(s, a, t, b, mu):
    """R_mu(r^a s, r^b t): the row form over the columns [s | t]."""
    columns = TraceColumns.of_trace(s).join(TraceColumns.of_trace(t))
    return float(bilinear_rows(columns, mu, (a, np.array([[1.0, 0.0]])),
                               (b, np.array([[0.0, 1.0]])))[0])


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------

def test_constant_function_energy_is_minus_mu_times_sphere_area(circle):
    const = SphericalTrace(circle, np.ones(circle.size),
                           grad=np.zeros((circle.size, 2)))
    for mu in (0.5, 1.0, 2.0):
        assert _energy(const, 0.0, mu) == pytest.approx(-mu * 2.0 * np.pi, rel=1e-12)


def test_row_form_zero_numerator_is_exact_zero(circle):
    # degree 0 on S^1 has the non-integrable radial power r^-1, but the
    # constant's Dirichlet numerator vanishes, so only the boundary remains
    const = SphericalTrace(circle, np.ones(circle.size),
                           grad=np.zeros((circle.size, 2)))
    w = weiss_rows(TraceColumns.of_trace(const), 1.0, [(0.0, np.ones((1, 1)))])
    assert w[0] == pytest.approx(-2.0 * np.pi, rel=1e-12)


def test_constant_function_energy_n2():
    g = build_grid(2, 64)
    const = SphericalTrace(g, np.ones(g.size))
    assert _energy(const, 0.0, 2.0) == pytest.approx(-8.0 * np.pi, rel=1e-10)


def test_profile_extension_has_zero_energy(circle):
    p = make_profile(0, 1)
    assert abs(_energy(trace_from_profile(p, circle), 1.0, 1.0)) < 1e-12


def test_halfspace_three_halves_energy(circle):
    c = trace_from_profile(halfspace_2d(1.5), circle)
    assert _energy(c, 1.5, 1.0) == \
        pytest.approx(np.pi / 2.0, rel=1e-12)
    assert _energy(c, 1.0, 1.0) == \
        pytest.approx(5.0 * np.pi / 8.0, rel=1e-12)


def test_halfspace_integer_homogeneity_energies(circle):
    c2 = trace_from_profile(halfspace_2d(2.0), circle)
    assert _energy(c2, 2.0, 1.0) == \
        pytest.approx(np.pi, rel=1e-12)
    c3 = trace_from_profile(halfspace_2d(3.0), circle)
    assert _energy(c3, 3.0, 1.0) == \
        pytest.approx(2.0 * np.pi, rel=1e-12)


def test_single_mode_raised_energy_worked_case(sin_basis):
    # mode with angular eigenvalue 4 at mu=1: base 3/2, raised (at 3/2) 13/12,
    # contraction defect -7/60, all scaling quadratically in the amplitude
    for eps in (1.0, 0.1):
        c = np.zeros(10)
        c[1] = eps
        rep = weiss_raised(c, sin_basis, 1.0, 1.5)
        assert rep.base_value == pytest.approx(1.5 * eps ** 2, rel=1e-14)
        assert rep.value == pytest.approx(13.0 / 12.0 * eps ** 2, rel=1e-14)
        assert rep.kappa == pytest.approx(0.2, abs=1e-15)
        assert rep.residual == pytest.approx(-7.0 / 60.0 * eps ** 2, rel=1e-13)
        assert rep.value - (1.0 - rep.kappa) * rep.base_value == \
            pytest.approx(rep.residual, abs=1e-13)


# ---------------------------------------------------------------------------
# Route agreement
# ---------------------------------------------------------------------------

def test_spectral_matches_quadrature_random_vectors(circle, sin_basis):
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.standard_normal(10)
        mu = rng.uniform(0.5, 3.0)
        tr = trace_from_basis(sin_basis, c)
        wq = _energy(tr, mu, mu)
        ws = weiss_spectral(c, sin_basis, mu)
        assert wq == pytest.approx(ws, rel=1e-10)


def test_raised_spectral_matches_quadrature(circle, sin_basis):
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = rng.standard_normal(10)
        mu, alpha = 1.0, rng.uniform(1.1, 2.5)
        tr = trace_from_basis(sin_basis, c)
        wq = _energy(tr, alpha, mu)
        rep = weiss_raised(c, sin_basis, mu, alpha)
        assert wq == pytest.approx(rep.value, rel=1e-10)
        assert rep.value - (1.0 - rep.kappa) * rep.base_value == \
            pytest.approx(rep.residual, rel=1e-9, abs=1e-12)


def test_discrete_n2_routes_agree_and_improve(tmp_path):
    rng = np.random.default_rng(5)
    mu = 0.5
    worsts = []
    for res in (128, 256):
        g = build_grid(2, res)
        basis = eigenbasis(g, 6, cache_dir=tmp_path)
        worst = 0.0
        for _ in range(10):
            c = rng.standard_normal(6)
            c /= np.linalg.norm(c)
            ws = weiss_spectral(c, basis, mu)
            tr = SphericalTrace(g, basis.reconstruct(c))
            wq = _energy(tr, mu, mu)
            worst = max(worst, abs(wq - ws) / abs(ws))
        worsts.append(worst)
    assert worsts[1] < 3e-3
    assert worsts[1] < 0.5 * worsts[0]


def test_quadratic_scaling_of_energy(sin_basis):
    rng = np.random.default_rng(6)
    c = rng.standard_normal(10)
    for mu in (1.0, 3.0):
        base = weiss_spectral(c, sin_basis, mu)
        for s in (0.1, 2.0, -1.0):
            assert weiss_spectral(s * c, sin_basis, mu) == \
                pytest.approx(s * s * base, rel=1e-12)


# ---------------------------------------------------------------------------
# Bilinear form and surface pairing
# ---------------------------------------------------------------------------

def test_bilinear_rows_of_v_with_itself_is_the_energy(circle, sin_basis):
    rng = np.random.default_rng(7)
    c = rng.standard_normal(10)
    v = trace_from_basis(sin_basis, c)
    w = _energy(v, 2.0, 2.0)
    assert _pairing(v, 2.0, v, 2.0, 2.0) == pytest.approx(w, rel=1e-13)


def _off_equator_trace(grid, coeffs):
    """sum_k coeffs[k] t_k over the first unit-norm traces t_k of the
    explicit 2D solutions of homogeneity 1.5, 2, 3.5, 4, 5.5 and 6, none of
    which vanishes on the equator, with closed-form gradient rows."""
    values, grad = np.zeros(grid.size), np.zeros((grid.size, 2))
    for a, mu in zip(coeffs, (1.5, 2.0, 3.5, 4.0, 5.5, 6.0)):
        t = trace_from_profile(halfspace_2d(mu), grid)
        scale = a / np.sqrt(grid.inner(t.values, t.values))
        values += scale * t.values
        grad += scale * t.grad
    return SphericalTrace(grid, values, grad=grad)


def _beta(phi_c, basis, psi, mu):
    """beta_mu of the basis combination phi_c with the trace psi."""
    return beta_rows(phi_c[None], basis, np.ones((1, 1)), psi.values[:, None],
                     mu)[0]


def test_beta_rows_predicts_bilinear_rows(circle, sin_basis):
    # kinked-times-kinked integrands make both routes second order in the
    # angular step, so agreement at 2048 nodes is ~1e-4 for the three
    # lowest solutions and tightens on the fine grid exercised below
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi_c = rng.standard_normal(6)
        psi = _off_equator_trace(circle, rng.standard_normal(3))
        assert np.max(np.abs(psi.values[circle.equator])) > 1e-3
        mu = rng.uniform(0.5, 2.5)
        alpha = rng.uniform(0.5, 3.0)
        beta = _beta(phi_c, sin_basis, psi, mu)
        rq = _pairing(trace_from_basis(sin_basis, phi_c), mu, psi, alpha, mu)
        n = 1
        assert beta / (n + alpha + mu - 1.0) == pytest.approx(rq, rel=2e-3,
                                                              abs=1e-3)
        assert (n + alpha + mu - 1.0) * rq - beta == pytest.approx(0.0, abs=2e-3)


def test_beta_identity_tight_on_fine_circle():
    grid = build_grid(1, 2 ** 17)
    sin10 = half_sphere_basis(1, 10, grid=grid)
    rng = np.random.default_rng(19)
    for _ in range(3):
        phi_c = rng.standard_normal(6)
        psi = _off_equator_trace(grid, rng.standard_normal(6))
        mu, alpha = rng.uniform(0.5, 2.5), rng.uniform(0.5, 3.0)
        beta = _beta(phi_c, sin10, psi, mu)
        rq = _pairing(trace_from_basis(sin10, phi_c), mu, psi, alpha, mu)
        assert abs((1 + alpha + mu - 1.0) * rq - beta) < 1e-6


def test_beta_rows_is_the_spectral_term_for_vanishing_psi(circle, sin_basis):
    # psi built from the constrained basis itself vanishes at the equator,
    # so the equator term drops and orthonormal modes leave
    # sum_j (lambda_j - lambda(mu)) c_j d_j
    rng = np.random.default_rng(10)
    d = rng.standard_normal(10)
    c = rng.standard_normal(6)
    beta = _beta(c, sin_basis, trace_from_basis(sin_basis, d), 1.0)
    spectral = float(np.sum((sin_basis.lambdas[:6] - 1.0) * c * d[:6]))
    assert beta == pytest.approx(spectral, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Sampled route details
# ---------------------------------------------------------------------------

def _sampled(degree, trace):
    """r^degree * trace sampled on the ball at frequency._default_radii(64)."""
    radii, _ = frequency._default_radii(64)
    return np.power(radii, degree)[:, None] * trace.values[None, :]


def test_sampled_route_matches_closed_form(sin_basis):
    rng = np.random.default_rng(11)
    c = rng.standard_normal(10)
    tr = trace_from_basis(sin_basis, c)
    mu = 2.0
    exact = _energy(tr, mu, mu)
    got = frequency._sampled_energy(_sampled(mu, tr), tr.grid, mu)
    assert got == pytest.approx(exact, rel=1e-4)


def test_default_radii_is_shared_and_read_only():
    radii, weights = frequency._default_radii(64)
    radii2, weights2 = frequency._default_radii(64)
    assert radii is radii2 and weights is weights2
    assert radii[-1] == 1.0 and weights[-1] == 0.0
    with pytest.raises(ValueError):
        radii[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0
    assert frequency._default_radii(24)[0].size == 25


def test_sum_energy_expands_bilinearly(circle, sin_basis):
    # W(a + b) = W(a) + W(b) + 2 R(a, b) for a = r^1 s and b = r^1.5 t,
    # all as row forms over the columns [s | t]
    rng = np.random.default_rng(12)
    s = trace_from_basis(sin_basis, rng.standard_normal(10))
    t = trace_from_basis(sin_basis, rng.standard_normal(10))
    mu = 1.0
    columns = TraceColumns.of_trace(s).join(TraceColumns.of_trace(t))
    a, b = (1.0, np.array([[1.0, 0.0]])), (1.5, np.array([[0.0, 1.0]]))
    expected = weiss_rows(columns, mu, [a]) + weiss_rows(columns, mu, [b]) \
        + 2.0 * bilinear_rows(columns, mu, a, b)
    assert weiss_rows(columns, mu, [a, b])[0] == \
        pytest.approx(expected[0], rel=1e-12)


@given(st.floats(1.01, 5.0), st.floats(0.25, 4.0))
@settings(max_examples=30, deadline=None)
def test_kappa_matches_its_definition(alpha, mu):
    n = 1
    assert kappa(alpha, mu, n) == pytest.approx((alpha - mu) / (n + alpha + mu - 1))


def _circle_closed_forms(name, grid):
    """(values, gradient rows) pairs with closed-form gradients."""
    if name == "half-basis":
        basis = half_sphere_basis(1, 6, grid=grid)
        return list(zip(basis.values.T, basis.grads))
    field = {"profile-m1": lambda: make_profile(1, 1),
             "halfspace-1.5": lambda: halfspace_2d(1.5),
             "halfspace-3": lambda: halfspace_2d(3.0)}[name]()
    tr = trace_from_profile(field, grid)
    return [(tr.values, tr.grad)]


# The reconstruction error relative to the largest row norm grows with the
# degree: 2.8e-5 for the profile, 1.1e-4 for the degree-6 mode.  At 5e-5
# the profile's bound is below 1e-4 absolute (its row norms reach 1.69).
@pytest.mark.parametrize("name, rtol", [
    pytest.param(name, rtol, id=name) for name, rtol in (
        ("profile-m1", 5e-5), ("halfspace-1.5", 5e-5), ("halfspace-3", 5e-5),
        ("half-basis", 2e-4))])
def test_circle_gradient_rows_match_reconstruction(circle, name, rtol):
    for values, grad in _circle_closed_forms(name, circle):
        assert np.max(np.abs(np.sum(grad * circle.nodes, axis=1))) <= 1e-12
        scale = np.max(np.linalg.norm(grad, axis=1))
        err = np.linalg.norm(circle_dtheta(circle, values) - grad, axis=1)
        assert np.max(err) <= rtol * scale
