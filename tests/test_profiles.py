"""Blow-up profile catalog and explicit 2D solution families."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinepi.grids import build_grid
from thinepi.polynomials import Polynomial
from thinepi.profiles import (
    BlowupProfile,
    admissible_frequencies,
    halfspace_2d,
    in_frequency_list,
    make_profile,
    operator_T,
    verify_admissible,
    zero_set,
)
from thinepi.spectral import half_sphere_basis


def test_make_profile_m0_n1_normalization():
    p = make_profile(0, 1)
    assert np.isclose(p.normalization, 1 / np.sqrt(np.pi))
    pts = np.array([[0.3, 0.4], [0.3, -0.4], [1.0, 0.0]])
    vals = p(pts)
    assert np.allclose(vals, [-0.4 / np.sqrt(np.pi), -0.4 / np.sqrt(np.pi), 0.0])
    assert np.isclose(p.trace_norm_exact(), 1.0)


def test_make_profile_m1_n1_matches_cubic_family():
    p = make_profile(1, 1, Polynomial.monomial(1, (2,), 3.0))
    # -|x2|(3x1^2 - x2^2), normalized by 1/sqrt(pi)
    assert p.p1.coeffs == {(0, 0): -1.0}
    s = 1 / np.sqrt(np.pi)
    pt = np.array([0.5, 0.25])
    expect = -0.25 * (3 * 0.25 - 0.0625) * s
    assert np.isclose(p(pt), expect)
    assert np.isclose(p.normalization, s)


def test_make_profile_rejects_sign_violation():
    with pytest.raises(ValueError, match="admissible"):
        make_profile(0, 1, Polynomial.constant(1, -1.0))


def test_make_profile_rejects_inhomogeneous_p0():
    with pytest.raises(ValueError, match="homogeneous"):
        make_profile(1, 1, Polynomial(1, {(2,): 1.0, (1,): 1.0}))


def test_make_profile_refuses_an_m_whose_extension_overflows():
    # The extension divides by (2m+1)!; 171! is past the largest float, so
    # m = 85 is the first m refused, by name, for either n.
    for n in (1, 2):
        with pytest.raises(ValueError, match="m=85 is too large"):
            make_profile(85, n)
    with pytest.raises(ValueError, match="m=1000000000 is too large"):
        make_profile(10 ** 9, 2)


def test_default_m1_n2_profile_is_admissible():
    p = make_profile(1, 2)
    report = verify_admissible(p)
    assert report.passed
    assert np.isclose(p.trace_norm_exact(), 1.0)
    # p1 forced by harmonicity of the odd extension of |x'|^2.
    assert np.isclose(p.p1.coeffs.get((0, 0, 0), 0.0), -2.0 / 3.0)


def test_verify_admissible_reports_failures_without_raising():
    # p = +|x2|: slope factor -1, superharmonicity violated.
    bad = BlowupProfile(m=0, n=1, p0=Polynomial.constant(1, -1.0),
                        p1=Polynomial.zero(2))
    report = verify_admissible(bad)
    assert not report.passed
    assert any("sign" in f for f in report.failures())

    # p = -|x2| x1^2 with the harmonic correction dropped: Lap p = -2|x2|.
    bad2 = BlowupProfile(m=1, n=1, p0=Polynomial.monomial(1, (2,)),
                         p1=Polynomial.zero(2))
    report2 = verify_admissible(bad2)
    assert not report2.passed
    assert any("harmonic" in f for f in report2.failures())


@pytest.mark.parametrize("m, n", [(18, 1), (22, 2)])
def test_default_profiles_past_the_roundoff_of_their_terms(m, n):
    # The first m of each n whose Laplacian, a sum of terms far larger than
    # p that cancel, read as "not harmonic" when its roundoff was measured
    # against max(max |p|, 1).
    p = make_profile(m, n)
    assert verify_admissible(p).harmonic_residual < 1e-14
    # The largest coefficient of p1 off by a relative 1e-4 is not harmonic.
    e, c = max(p.p1.coeffs.items(), key=lambda item: abs(item[1]))
    off = Polynomial(n + 1, {**p.p1.coeffs, e: c * (1.0 + 1e-4)})
    report = verify_admissible(BlowupProfile(m=m, n=n, p0=p.p0, p1=off))
    assert not report.passed
    assert any("harmonic" in f for f in report.failures())


def test_default_profile_past_the_roundoff_of_its_euler_terms():
    # The first m at n = 1 whose Euler residual, a difference of terms far
    # larger than p, read as "not homogeneous" when its roundoff was
    # measured against max(max |p|, 1).
    p = make_profile(24, 1)
    assert verify_admissible(p).euler_residual < 1e-14


def test_make_profile_refuses_values_lost_to_roundoff():
    # p sums terms far larger than itself: from m = 26 at n = 2 their
    # roundoff is above the tolerance relative to p, and m is refused by
    # name, with the roundoff.
    make_profile(25, 2)
    with pytest.raises(ValueError, match=r"m=26 .*roundoff 1\.\d+e-08"):
        make_profile(26, 2)


def test_operator_T_linearity_and_values():
    p = make_profile(0, 1)
    T = operator_T(p)
    assert np.isclose(T(np.array([1.0])), 1 / np.sqrt(np.pi))
    p2 = make_profile(1, 1)
    T2 = operator_T(p2)
    # slope 3 x1^2 / sqrt(pi) at x1 = +-1
    assert np.isclose(T2(np.array([1.0])), 3 / np.sqrt(np.pi))
    assert np.isclose(T2(np.array([-1.0])), 3 / np.sqrt(np.pi))
    # scaling the profile scales T linearly
    p3 = make_profile(0, 1, normalize=False)
    p3.normalization = 2.5
    assert np.isclose(operator_T(p3)(np.array([0.2])), 2.5)


def test_zero_set_circle():
    grid = build_grid(1, 64)
    p = make_profile(0, 1)
    # T = 1/sqrt(pi) ~ 0.564 >= 0.3 at both points
    assert np.array_equal(zero_set(p, 0.3, grid), np.sort(grid.equator))
    assert np.array_equal(zero_set(p, 0.0, grid), np.sort(grid.equator))
    assert zero_set(p, 0.6, grid).size == 0


def test_zero_set_monotone_in_delta_s2():
    grid = build_grid(2, 32)
    # Nonconstant slope on the equator: p0 = x1^2 (varies on the ring).
    p = make_profile(1, 2, Polynomial.monomial(2, (2, 0)))
    sizes = [zero_set(p, d, grid).size for d in (0.0, 0.1, 0.3, 0.8)]
    assert sizes[0] == grid.equator.size
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    small = set(zero_set(p, 0.3, grid).tolist())
    large = set(zero_set(p, 0.1, grid).tolist())
    assert small <= large


def test_profile_trace_in_top_eigenspace():
    # The sphere trace of a profile of homogeneity 2m+1 lies in the span of
    # half-sphere modes with that homogeneity: projection residual <= 1e-8.
    for m, n in [(0, 1), (1, 1), (0, 2), (1, 2)]:
        grid = build_grid(n, 512 if n == 1 else 32,
                          kind=None if n == 1 else "latlong")
        p = make_profile(m, n)
        basis = half_sphere_basis(n, 2 * m + 1, grid)
        tr = p.trace_on(grid)
        coeffs = basis.mass_rows(basis.count) @ tr
        top = basis.degrees == 2 * m + 1
        recon = basis.values[:, top] @ coeffs[top]
        err = np.sqrt(grid.inner(tr - recon, tr - recon))
        assert err < 1e-8, f"(m={m}, n={n}): residual {err:.2e}"


def test_trace_gradient_tangential_and_even_norm():
    grid = build_grid(1, 256)
    p = make_profile(1, 1)
    g = p.trace_gradient_on(grid)
    dots = np.sum(g * grid.nodes, axis=1)
    assert np.max(np.abs(dots)) < 1e-12
    sq = np.sum(g * g, axis=1)
    assert np.allclose(sq, sq[grid.reflect])


def test_admissible_frequency_list():
    assert admissible_frequencies(4.0) == [1.0, 1.5, 2.0, 3.0, 3.5, 4.0]
    assert in_frequency_list(1.5)
    assert in_frequency_list(1.0)
    assert not in_frequency_list(1.3)
    assert not in_frequency_list(0.5)  # 2m - 1/2 needs m >= 1


def test_halfspace_families():
    s32 = halfspace_2d(1.5)
    assert s32.family == "halfinteger"
    grid = build_grid(1, 512)
    tr = s32.trace_on(grid)
    assert np.isclose(grid.inner(tr, tr), np.pi, atol=1e-12)
    # contact half-line: trace vanishes at theta = pi, positive at theta = 0
    assert abs(tr[grid.size // 2]) < 1e-14
    assert tr[0] == 1.0

    s1 = halfspace_2d(1.0)
    assert s1.family == "odd"
    tr1 = s1.trace_on(grid)
    assert np.isclose(grid.inner(tr1, tr1), np.pi, atol=1e-12)
    assert np.all(tr1 <= 1e-14)  # -|sin| <= 0
    assert np.allclose(tr1, make_profile(0, 1).trace_on(grid) * np.sqrt(np.pi))

    s2 = halfspace_2d(2.0)
    assert s2.family == "even"
    # plain harmonic polynomial Re(z^2): value at (x1, x2)
    pts = np.array([[0.6, 0.8], [0.6, -0.8]])
    assert np.allclose(s2(pts), 0.36 - 0.64)

    with pytest.raises(ValueError):
        halfspace_2d(1.3)


def test_halfspace_harmonic_off_line():
    # Finite-difference Laplacian at points off the thin line is small.
    for mu in (1.5, 2.0, 3.0):
        sol = halfspace_2d(mu)
        rng = np.random.default_rng(int(10 * mu))
        pts = rng.uniform(-0.7, 0.7, size=(40, 2))
        pts[:, 1] = np.sign(pts[:, 1]) * (0.2 + np.abs(pts[:, 1]) / 2)
        h = 1e-4
        lap = (
            sol(pts + [h, 0]) + sol(pts - [h, 0])
            + sol(pts + [0, h]) + sol(pts - [0, h]) - 4 * sol(pts)
        ) / h**2
        assert np.max(np.abs(lap)) < 1e-4, f"mu={mu}"


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=2))
@settings(max_examples=12, deadline=None)
def test_profile_euler_identity(m, n):
    p = make_profile(m, n)
    rng = np.random.default_rng(m * 7 + n)
    pts = rng.standard_normal((30, n + 1))
    report = verify_admissible(p)
    assert report.passed
    assert report.euler_residual < 1e-9
    # direct scaling check of (2m+1)-homogeneity
    lam = 1.7
    assert np.allclose(p(lam * pts), lam ** (2 * m + 1) * p(pts), rtol=1e-9)
