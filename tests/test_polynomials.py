"""Polynomial calculus and exact sphere moments."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thinepi.polynomials import (
    Polynomial,
    even_harmonic_extension,
    monomial_sphere_integral,
    monomials_of_degree,
    odd_harmonic_extension,
)


def test_basic_algebra_and_evaluation():
    x = Polynomial.monomial(2, (1, 0))
    y = Polynomial.monomial(2, (0, 1))
    p = (x * x + y * y.scale(3.0)) + Polynomial.constant(2, 2.0).scale(-1.0)
    pts = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert np.allclose(p(pts), [1.0 + 12.0 - 2.0, 3.0 - 2.0])
    assert p.diff(0).coeffs == {(1, 0): 2.0}


def test_laplacian_and_gradient():
    # harmonic: x^3 - 3 x y^2
    p = Polynomial(2, {(3, 0): 1.0, (1, 2): -3.0})
    assert p.laplacian().is_zero(tol=1e-14)
    gx, gy = p.gradient()
    pt = np.array([2.0, 1.0])
    assert np.isclose(gx(pt), 3 * 4 - 3 * 1)
    assert np.isclose(gy(pt), -6 * 2 * 1)


def test_sphere_moments_circle():
    # On S^1: integral of x^2 = pi, x^4 = 3pi/4, x^2 y^2 = pi/4.
    assert np.isclose(monomial_sphere_integral((2, 0)), np.pi)
    assert np.isclose(monomial_sphere_integral((4, 0)), 3 * np.pi / 4)
    assert np.isclose(monomial_sphere_integral((2, 2)), np.pi / 4)
    assert monomial_sphere_integral((1, 2)) == 0.0


def test_sphere_moments_s2():
    # On S^2: area 4pi; integral of z^2 = 4pi/3; z^4 = 4pi/5.
    assert np.isclose(monomial_sphere_integral((0, 0, 0)), 4 * np.pi)
    assert np.isclose(monomial_sphere_integral((0, 0, 2)), 4 * np.pi / 3)
    assert np.isclose(monomial_sphere_integral((0, 0, 4)), 4 * np.pi / 5)
    assert np.isclose(monomial_sphere_integral((2, 2, 0)), 4 * np.pi / 15)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_odd_extension_is_harmonic_and_odd(deg, nvars):
    rng = np.random.default_rng(deg * 10 + nvars)
    coeffs = {e: float(rng.standard_normal()) for e in monomials_of_degree(nvars, deg)}
    q = Polynomial(nvars, coeffs)
    P = odd_harmonic_extension(q)
    scale = max((abs(c) for c in P.coeffs.values()), default=1.0)
    assert P.laplacian().is_zero(tol=1e-12 * scale)
    # odd powers of the last variable only
    assert all(e[-1] % 2 == 1 for e in P.coeffs)
    # slope at t=0 is q
    slope = P.diff(nvars)
    on_plane = Polynomial(nvars + 1, {e: c for e, c in slope.coeffs.items() if e[-1] == 0})
    assert (on_plane + q.lift(nvars + 1).scale(-1.0)).is_zero(
        tol=1e-12 * max(scale, 1.0))


def test_even_extension_restricts_to_q():
    q = Polynomial(2, {(2, 0): 1.0, (0, 2): -4.0})
    P = even_harmonic_extension(q)
    scale = max(abs(c) for c in P.coeffs.values())
    assert P.laplacian().is_zero(tol=1e-12 * scale)
    assert all(e[-1] % 2 == 0 for e in P.coeffs)
    pts = np.array([[0.3, -0.7, 0.0], [1.0, 2.0, 0.0]])
    assert np.allclose(P(pts), q(pts[:, :2]))


def test_polynomial_sphere_integral_combination():
    p = Polynomial(3, {(2, 0, 0): 1.0, (0, 0, 2): 2.0, (1, 1, 0): 5.0})
    expected = 4 * np.pi / 3 + 2 * 4 * np.pi / 3  # odd term drops
    assert np.isclose(p.sphere_integral(), expected)
