"""Vertex gradients on the triangulated sphere against a plain reference,
and the gradient Gram matrix of trace columns against pairwise products."""

from __future__ import annotations

import numpy as np
import pytest

from thinepi.grids import build_grid
from thinepi.spectral import eigenbasis, half_sphere_basis
from thinepi.traces import SphericalTrace, TraceColumns, vertex_gradients


def reference_vertex_gradients(grid, values):
    """Per-triangle P1 gradients scattered to vertices with ``np.add.at``:
    area-weighted averages, upper triangles only at equator vertices, then
    projected tangentially."""
    tris = grid.triangles
    a, b, c = grid.nodes[tris[:, 0]], grid.nodes[tris[:, 1]], grid.nodes[tris[:, 2]]
    va, vb, vc = values[tris[:, 0]], values[tris[:, 1]], values[tris[:, 2]]
    u = b - a
    v = c - a
    normal = np.cross(u, v)
    norm2 = np.sum(normal * normal, axis=1)
    # gradient of the linear interpolant: solve in the triangle plane
    #   g . u = vb - va, g . v = vc - va, g . normal = 0
    g = (
        np.cross(v, normal) * (vb - va)[:, None]
        + np.cross(normal, u) * (vc - va)[:, None]
    ) / norm2[:, None]
    areas = 0.5 * np.sqrt(norm2)
    upper_tri = grid.nodes[tris, 2].sum(axis=1) > 0.0

    accum = np.zeros((grid.size, 3))
    wsum = np.zeros(grid.size)
    for k in range(3):
        np.add.at(accum, tris[:, k], areas[:, None] * g)
        np.add.at(wsum, tris[:, k], areas)
    # redo equator vertices with upper triangles only
    eq_set = np.zeros(grid.size, dtype=bool)
    eq_set[grid.equator] = True
    accum[eq_set] = 0.0
    wsum[eq_set] = 0.0
    sel = eq_set[tris].any(axis=1) & upper_tri
    for k in range(3):
        vs = tris[sel, k]
        on_eq = eq_set[vs]
        np.add.at(accum, vs[on_eq], areas[sel][on_eq, None] * g[sel][on_eq])
        np.add.at(wsum, vs[on_eq], areas[sel][on_eq])
    out = accum / np.maximum(wsum, 1e-300)[:, None]
    out -= np.sum(out * grid.nodes, axis=1, keepdims=True) * grid.nodes
    return out


@pytest.mark.parametrize("resolution", [32, 256])
def test_vertex_gradients_match_reference(resolution):
    grid = build_grid(2, resolution)
    rng = np.random.default_rng(resolution)
    for _ in range(3):
        values = rng.standard_normal(grid.size)
        values = 0.5 * (values + values[grid.reflect])
        expect = reference_vertex_gradients(grid, values)
        got = vertex_gradients(grid, values)
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(got - expect)) <= 1e-13 * scale
        # equator rows carry the upper-sided gradient, not a zero
        assert np.all(np.abs(got[grid.equator]).sum(axis=1) > 0.0)


def test_vertex_gradients_repeat_on_one_grid():
    grid = build_grid(2, 32)
    values = np.random.default_rng(3).standard_normal(grid.size)
    values = 0.5 * (values + values[grid.reflect])
    first = vertex_gradients(grid, values)
    assert np.array_equal(vertex_gradients(grid, values), first)


def test_vertex_gradients_need_triangles():
    grid = build_grid(2, 24, kind="latlong")
    with pytest.raises(ValueError):
        vertex_gradients(grid, np.zeros(grid.size))


@pytest.mark.parametrize("kind", ["circle", "tri"])
def test_gradient_gram_matches_pairwise_products(kind, tmp_path):
    if kind == "circle":
        basis = half_sphere_basis(1, 6, grid=build_grid(1, 512))
        grads = basis.grads
    else:
        grid = build_grid(2, 32)
        basis = eigenbasis(grid, 6, cache_dir=tmp_path)
        grads = [None] * basis.count
    grid = basis.grid
    traces = [SphericalTrace(grid, v, grad=g) for v, g in zip(basis.values.T, grads)]
    expected = np.array([[grid.weights @ a.gradient_dot(b) for b in traces]
                         for a in traces])
    gram = TraceColumns.of_basis(basis).grams[1]
    assert np.max(np.abs(gram - expected)) <= 1e-12 * np.max(np.abs(expected))
