"""Grid construction: quadrature exactness, reflection involution, equators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinepi.grids import SPHERE_AREA, build_grid, radial_rule, radii_ladder


def test_circle_basic_structure():
    g = build_grid(1, 128)
    assert g.size == 128
    assert np.isclose(g.weights.sum(), SPHERE_AREA[1], rtol=0, atol=1e-14)
    # Involution is exact and order 2.
    assert np.array_equal(g.reflect[g.reflect], np.arange(g.size))
    assert np.array_equal(np.sort(g.equator), [0, 64])
    # Reflected nodes match exactly in the first coordinate, negate the second.
    assert np.array_equal(g.nodes[g.reflect, 0], g.nodes[:, 0])
    assert np.array_equal(g.nodes[g.reflect, 1], -g.nodes[:, 1])


def test_circle_trapezoid_exact_for_trig_polynomials():
    g = build_grid(1, 64)
    # Trapezoid rule on the full circle integrates e^{ik theta} exactly for
    # |k| < N; check a few products of reflected sine modes.
    for j, k in [(1, 1), (2, 2), (3, 5), (4, 4)]:
        f = np.sin(j * g.theta_folded) * np.sin(k * g.theta_folded)
        exact = np.pi if j == k else 0.0
        assert abs(g.weights @ f - exact) < 1e-13
    x, y = g.nodes.T
    assert np.allclose(np.arctan2(np.abs(y), x), g.theta_folded, atol=1e-12)


def test_octasphere_structure():
    g = build_grid(2, 32)
    assert np.isclose(g.weights.sum(), SPHERE_AREA[2], rtol=0, atol=1e-12)
    assert np.array_equal(g.reflect[g.reflect], np.arange(g.size))
    # Reflection negates the last coordinate exactly.
    assert np.array_equal(g.nodes[g.reflect, 2], -g.nodes[:, 2])
    assert np.array_equal(g.nodes[g.reflect, :2], g.nodes[:, :2])
    # Equator nodes have last coordinate exactly zero and are fixed points.
    assert np.all(g.nodes[g.equator, 2] == 0.0)
    assert np.array_equal(g.reflect[g.equator], g.equator)
    # Equator ring size is 4 * 2^level.
    assert g.equator.size in (16, 32, 64, 128)
    assert np.isclose(g.equator_weights.sum(), 2 * np.pi, atol=1e-12)
    # All triangles have vertices on the unit sphere.
    assert np.allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-14)


def test_latlong_structure():
    g = build_grid(2, 24, kind="latlong")
    nlat, nlon = g.shape
    assert nlat % 2 == 1
    assert g.size == nlat * nlon
    assert np.isclose(g.weights.sum(), SPHERE_AREA[2], rtol=0, atol=1e-12)
    assert np.array_equal(g.reflect[g.reflect], np.arange(g.size))
    assert np.all(g.nodes[g.equator, 2] == 0.0)
    assert g.equator.size == nlon
    # Gauss-Legendre x trapezoid integrates low-degree polynomials exactly.
    x, y, z = g.nodes.T
    assert abs(g.weights @ (x * x) - SPHERE_AREA[2] / 3) < 1e-12
    assert abs(g.weights @ (z * z * z)) < 1e-14
    assert abs(g.weights @ (x * y * z)) < 1e-14


def test_latlong_even_projection_idempotent():
    g = build_grid(2, 24, kind="latlong")
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.size)
    fe = 0.5 * (f + f[g.reflect])
    assert np.array_equal(fe[g.reflect], fe)
    assert np.array_equal(0.5 * (fe + fe[g.reflect]), fe)


@given(st.integers(min_value=8, max_value=200))
@settings(max_examples=20, deadline=None)
def test_circle_reflection_is_involution(half_resolution):
    resolution = 2 * half_resolution
    g = build_grid(1, resolution)
    assert np.array_equal(g.reflect[g.reflect], np.arange(g.size))
    assert np.array_equal(np.sort(g.equator), [0, resolution // 2])
    # Folded angles of mirror partners are bit-identical.
    assert np.array_equal(g.theta_folded, g.theta_folded[g.reflect])
    # Mirror-partner nodes match bit for bit under negation of the last
    # coordinate, so even traces evaluated nodewise are exactly even.
    assert np.array_equal(g.nodes[g.reflect, 0], g.nodes[:, 0])
    assert np.array_equal(g.nodes[g.reflect, 1], -g.nodes[:, 1])


def test_invalid_grid_arguments():
    with pytest.raises(ValueError):
        build_grid(3, 32)
    with pytest.raises(ValueError):
        build_grid(1, 8)
    with pytest.raises(ValueError):
        build_grid(1, 33)
    with pytest.raises(ValueError):
        build_grid(2, 32, kind="icosahedron")


def test_radial_rule_polynomial_exactness():
    r, w = radial_rule(64)
    # integral of r^k on (0,1) = 1/(k+1); Gauss with 64 points is exact to
    # degree 127 and excellent for the fractional powers used downstream.
    for k in (0, 1, 2, 5, 10):
        assert abs(w @ r**k - 1.0 / (k + 1)) < 1e-14
    assert abs(w @ np.sqrt(r) - 2.0 / 3.0) < 1e-6


def test_radial_rule_is_shared_and_read_only():
    r, w = radial_rule(64)
    r2, w2 = radial_rule(64)
    assert np.array_equal(r, r2) and np.array_equal(w, w2)
    with pytest.raises(ValueError):
        r[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("n, resolution, kind",
                         [(1, 64, "circle"), (2, 16, "latlong"),
                          (2, 32, "tri")])
def test_mirror_halves_cover_each_reflect_orbit_once(n, resolution, kind):
    g = build_grid(n, resolution, kind=kind)
    reps, spread = g.mirror_halves
    assert g.mirror_halves[0] is reps and g.mirror_halves[1] is spread
    for shared in (reps, spread):
        with pytest.raises(ValueError):
            shared[0] = 0
    # One representative per orbit {i, reflect[i]}.
    orbits = np.minimum(np.arange(g.size), g.reflect)
    assert np.array_equal(np.sort(orbits[reps]), np.unique(orbits))
    assert reps.size == (g.size + g.equator.size) // 2
    # Every node maps to the representative of its own orbit ...
    assert np.array_equal(orbits[reps[spread]], orbits)
    # ... so expanding the representatives gives back every node, up to the
    # sign of the last coordinate.
    expanded = g.nodes[reps][spread]
    assert np.array_equal(expanded[:, :-1], g.nodes[:, :-1])
    assert np.array_equal(np.abs(expanded[:, -1]), np.abs(g.nodes[:, -1]))


def test_radii_ladder_geometric():
    r = radii_ladder(0.5, 12)
    assert r.size == 12
    assert np.all(np.diff(r) > 0)
    ratios = r[1:] / r[:-1]
    assert np.allclose(ratios, 2.0 ** 0.25, atol=1e-14)
    assert np.isclose(r[-1], 0.5)


def _octasphere_reference(resolution):
    """The recursive octahedron subdivision with a dict of vertex keys, kept
    as an oracle for the vectorised build."""
    level = max(2, int(np.ceil(np.log2(max(resolution, 8) / 4))))
    e1, e2, e3 = np.eye(3)
    upper_faces = [
        (e1, e2, e3), (e2, -e1, e3), (-e1, -e2, e3), (-e2, e1, e3),
    ]

    verts, index, tris = [], {}, []

    def vid(v):
        v = v + 0.0  # canonicalize -0.0 to +0.0 so mirrored keys match
        key = v.tobytes()
        i = index.get(key)
        if i is None:
            i = len(verts)
            index[key] = i
            verts.append(v)
        return i

    def midpoint(a, b):
        m = a + b
        return m / np.sqrt(m @ m)

    def subdivide(a, b, c, depth):
        if depth == 0:
            tris.append((vid(a), vid(b), vid(c)))
            return
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        subdivide(a, ab, ca, depth - 1)
        subdivide(ab, b, bc, depth - 1)
        subdivide(ca, bc, c, depth - 1)
        subdivide(ab, bc, ca, depth - 1)

    for a, b, c in upper_faces:
        subdivide(a, b, c, level)

    n_upper_tris = len(tris)
    mirror = np.array([1.0, 1.0, -1.0])
    upper_vert_count = len(verts)
    mirrored_of = np.empty(upper_vert_count, dtype=int)
    for i in range(upper_vert_count):
        mirrored_of[i] = vid(verts[i] * mirror)
    for t in range(n_upper_tris):
        a, b, c = tris[t]
        tris.append((mirrored_of[a], mirrored_of[c], mirrored_of[b]))

    nodes = np.array(verts)
    triangles = np.array(tris, dtype=int)
    nvert = nodes.shape[0]
    reflect = np.empty(nvert, dtype=int)
    for i in range(nvert):
        reflect[i] = index[(nodes[i] * mirror + 0.0).tobytes()]

    equator = np.nonzero(nodes[:, 2] == 0.0)[0]
    equator = equator[np.argsort(np.arctan2(nodes[equator, 1], nodes[equator, 0]))]

    a, b, c = nodes[triangles[:, 0]], nodes[triangles[:, 1]], nodes[triangles[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    weights = np.zeros(nvert)
    for k in range(3):
        np.add.at(weights, triangles[:, k], areas / 3.0)
    weights *= SPHERE_AREA[2] / weights.sum()

    ang = np.arctan2(nodes[equator, 1], nodes[equator, 0])
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    eq_w = 0.5 * (gaps + np.roll(gaps, 1))
    return {"nodes": nodes, "weights": weights, "reflect": reflect,
            "equator": equator, "triangles": triangles, "equator_weights": eq_w}


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("resolution", [16, 32, 64, 256])
def test_octasphere_matches_recursive_reference(resolution):
    g = build_grid(2, resolution)
    for name, want in _octasphere_reference(resolution).items():
        _assert_bit_identical(getattr(g, name), want)


def _gradient_geometry_reference(grid):
    """``SphereGrid.gradient_geometry`` from (T, 3) corner gathers and
    ``np.cross``, kept as an oracle for the build on coordinate rows."""
    tris = grid.triangles
    a, b, c = grid.nodes[tris[:, 0]], grid.nodes[tris[:, 1]], grid.nodes[tris[:, 2]]
    u = b - a
    v = c - a
    normal = np.cross(u, v)
    norm2 = np.sum(normal * normal, axis=1)[:, None]
    p = np.cross(v, normal) / norm2
    q = np.cross(normal, u) / norm2
    on_equator = np.zeros(grid.size, dtype=bool)
    on_equator[grid.equator] = True
    upper_tri = grid.nodes[tris, 2].sum(axis=1) > 0.0
    weights = np.where(on_equator[tris] & ~upper_tri[:, None], 0.0,
                       0.5 * np.sqrt(norm2))
    weights /= np.bincount(tris.ravel(), weights=weights.ravel(),
                           minlength=grid.size)[tris]
    return p, q, weights


@pytest.mark.parametrize("resolution", [16, 64, 256])
def test_gradient_geometry_matches_cross_reference(resolution):
    g = build_grid(2, resolution)
    for got, want in zip(g.gradient_geometry, _gradient_geometry_reference(g)):
        _assert_bit_identical(got, want)
        assert got.flags.c_contiguous


def _latlong_reference(resolution):
    """The per-latitude loop that filled the lat-long nodes and weights."""
    nlat = resolution + 1 if resolution % 2 == 0 else resolution
    nlon = 2 * resolution
    z, wz = np.polynomial.legendre.leggauss(nlat)
    z = 0.5 * (z - z[::-1])
    wz = 0.5 * (wz + wz[::-1])
    z[nlat // 2] = 0.0
    phi = np.arange(nlon) * (2.0 * np.pi / nlon)
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    nodes = np.empty((nlat * nlon, 3))
    weights = np.empty(nlat * nlon)
    for i in range(nlat):
        sl = slice(i * nlon, (i + 1) * nlon)
        nodes[sl, 0] = rho[i] * np.cos(phi)
        nodes[sl, 1] = rho[i] * np.sin(phi)
        nodes[sl, 2] = z[i]
        weights[sl] = wz[i] * (2.0 * np.pi / nlon)
    return nodes, weights


@pytest.mark.parametrize("resolution", [24, 48])
def test_latlong_matches_loop_reference(resolution):
    g = build_grid(2, resolution, kind="latlong")
    nodes, weights = _latlong_reference(resolution)
    _assert_bit_identical(g.nodes, nodes)
    _assert_bit_identical(g.weights, weights)
    assert g.nodes.flags.c_contiguous
