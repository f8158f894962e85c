"""Eigenbases: analytic formulas, discrete convergence, sectors, caching."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from thinepi import spectral
from thinepi.grids import build_grid
from thinepi.spectral import (
    EigenBasis,
    eigenbasis,
    half_sphere_basis,
    lambda_of,
    mode_count_ell,
    multiplicity,
)


def test_lambda_of_values():
    assert lambda_of(1, 1) == 1.0
    assert lambda_of(0, 1) == 0.0
    assert lambda_of(0, 2) == 0.0
    assert lambda_of(1.5, 1) == 2.25
    assert lambda_of(3, 1) == 9.0
    assert lambda_of(2, 2) == 6.0
    with pytest.raises(ValueError):
        lambda_of(-0.5, 1)


def test_mode_counts():
    assert mode_count_ell(1, 0) == 1
    assert mode_count_ell(1, 1) == 3
    assert mode_count_ell(2, 0) == 1
    assert mode_count_ell(2, 1) == 6
    assert multiplicity(2, 3) == 3


def test_half_circle_analytic_basis():
    grid = build_grid(1, 512)
    basis = half_sphere_basis(1, 4, grid)
    assert np.allclose(basis.lambdas, [1.0, 4.0, 9.0, 16.0])
    assert basis.orthonormality_defect() < 1e-12
    # Mode 1 is |sin theta|/sqrt(pi), evenly reflected.
    expect = np.sin(grid.theta_folded) / np.sqrt(np.pi)
    assert np.allclose(basis.values[:, 0], expect, atol=1e-12)
    # Exact evenness and exact vanishing on the equator.
    for k in range(basis.count):
        assert np.array_equal(basis.values[:, k], basis.values[grid.reflect, k])
    assert np.all(basis.values[grid.equator, :] == 0.0)
    # Upper-sided equator derivatives: +j/sqrt(pi) at theta=0,
    # -j cos(j pi)/sqrt(pi) at theta=pi.
    s = 1 / np.sqrt(np.pi)
    assert np.allclose(basis.equator_dn[0], [s, s])
    assert np.allclose(basis.equator_dn[1], [2 * s, -2 * s])


def test_oddlift_s2_basis_orthonormal_and_eigen():
    grid = build_grid(2, 32, kind="latlong")
    basis = half_sphere_basis(2, 3, grid)
    # degrees 1,2,3 with multiplicities 1,2,3
    assert basis.count == 6
    assert np.allclose(basis.lambdas, [2.0, 6.0, 6.0, 12.0, 12.0, 12.0])
    # Products of reflected odd-lift pairs are polynomials: Gauss-Legendre
    # quadrature is exact, so analytic orthonormality shows up at machine level.
    assert basis.orthonormality_defect() < 1e-10
    # Degree-1 mode is sqrt(3/(4pi)) |x3|.
    expect = np.sqrt(3.0 / (4.0 * np.pi)) * np.abs(grid.nodes[:, 2])
    assert np.allclose(np.abs(basis.values[:, 0]), expect, atol=1e-12)
    # Gradient columns are tangential.
    dots = np.sum(basis.grads[3] * grid.nodes, axis=1)
    assert np.max(np.abs(dots)) < 1e-12


def test_oddlift_polys_are_harmonic():
    grid = build_grid(2, 24, kind="latlong")
    basis = half_sphere_basis(2, 4, grid)
    for P in basis.polys:
        scale = max(abs(c) for c in P.coeffs.values())
        assert P.laplacian().is_zero(tol=1e-11 * scale)


def test_discrete_circle_full_mask_matches_sin_spectrum(tmp_path):
    grid = build_grid(1, 256)
    basis = eigenbasis(grid, 4, cache_dir=tmp_path)
    h = 2 * np.pi / grid.size
    for j, lam in enumerate(basis.lambdas, start=1):
        # second-order accurate: relative error about (j h)^2 / 12
        assert abs(lam - j * j) < 2.0 * j**4 * h * h / 12 + 1e-10
    assert basis.orthonormality_defect() < 1e-8
    assert basis.rayleigh_defect() < 1e-8
    assert np.all(basis.values[grid.equator, :] == 0.0)
    for k in range(basis.count):
        assert np.array_equal(basis.values[:, k], basis.values[grid.reflect, k])


def test_discrete_circle_second_order_convergence(tmp_path):
    errs = []
    for res in (64, 128, 256):
        grid = build_grid(1, res)
        basis = eigenbasis(grid, 3, cache_dir=tmp_path)
        errs.append(np.max(np.abs(basis.lambdas - np.array([1.0, 4.0, 9.0]))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 3.0  # second order: ratio about 4
    assert errs[1] / errs[2] > 3.0


def test_discrete_tri_sphere_spectrum(tmp_path):
    expect = np.array([2.0, 6.0, 6.0, 12.0, 12.0, 12.0])
    rels = []
    for res in (32, 64):
        grid = build_grid(2, res)
        basis = eigenbasis(grid, 6, cache_dir=tmp_path)
        rels.append(np.max(np.abs(basis.lambdas - expect) / expect))
    assert rels[1] < 0.02
    assert rels[0] / rels[1] > 3.0  # second-order convergence
    assert basis.orthonormality_defect() < 1e-8
    assert np.all(basis.values[grid.equator, :] == 0.0)
    for k in range(basis.count):
        assert np.array_equal(basis.values[:, k], basis.values[grid.reflect, k])


def test_iterative_eigenbasis_repeats_bit_for_bit(tmp_path):
    # ARPACK solves every size from a fixed start vector, so a fresh solve
    # repeats its bytes.  Both grids split into mirror sectors, and the
    # degenerate lambda ~ 6 pair comes from two sectors, one mode each, on a
    # small grid as on a large one.
    for res in (64, 256):
        grid = build_grid(2, res)
        a = eigenbasis(grid, 8, cache_dir=tmp_path / f"a{res}")
        b = eigenbasis(grid, 8, cache_dir=tmp_path / f"b{res}")
        assert np.array_equal(a.lambdas, b.lambdas)
        assert np.array_equal(a.values, b.values)


@pytest.fixture(scope="module")
def sphere256(tmp_path_factory):
    """The 8-mode basis of ``spectral --n 2``: resolution 256."""
    grid = build_grid(2, 256)
    return eigenbasis(grid, 8, cache_dir=tmp_path_factory.mktemp("sphere256"))


def test_eigenbasis_holds_both_copies_of_a_double_eigenvalue(sphere256):
    # The operator has 19.969006 twice; one block solved for 8 modes
    # returned the next eigenvalue 19.975773 in place of the second copy.
    lam = sphere256.lambdas
    assert abs(lam[7] - 19.969006) < 1e-6
    assert abs(lam[7] - lam[6]) <= spectral.TIE_TOL
    assert np.all(np.diff(lam) >= -spectral.TIE_TOL)


def test_sector_modes_are_even_or_odd_under_each_mirror(sphere256):
    grid, values = sphere256.grid, sphere256.values
    assert sphere256.orthonormality_defect() < 1e-12
    assert sphere256.rayleigh_defect() < 1e-10
    for axis in (0, 1):
        mirror = spectral._mirror(grid.nodes, axis)
        flipped = grid.nodes.copy()
        flipped[:, axis] = -flipped[:, axis]
        assert np.array_equal(grid.nodes[mirror], flipped)
        for k in range(sphere256.count):
            even = np.max(np.abs(values[mirror, k] - values[:, k]))
            odd = np.max(np.abs(values[mirror, k] + values[:, k]))
            assert min(even, odd) < 1e-12, (axis, k, even, odd)


def test_mirror_refuses_an_asymmetric_point_set():
    points = np.array([[0.6, 0.8, 0.0], [-0.6, 0.8, 0.0], [0.8, 0.6, 0.0]])
    assert np.array_equal(spectral._mirror(points[:2], 0), [1, 0])
    with pytest.raises(ValueError, match="not symmetric under x0 -> -x0"):
        spectral._mirror(points, 0)


def _solves(monkeypatch):
    """A list that records the size of every ARPACK solve."""
    import scipy.sparse.linalg as spla

    sizes, eigsh = [], spla.eigsh

    def counted(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counted)
    return sizes


def test_sectors_only_for_mirror_invariant_masks_and_large_sectors(
        tmp_path, monkeypatch):
    sizes = _solves(monkeypatch)
    grid = build_grid(2, 64)
    eigenbasis(grid, 8, cache_dir=tmp_path)
    assert sizes == [136, 120, 120, 105]   # 481 unknowns in four sectors
    # At resolution 16 a sector would have at most 3 unknowns.
    sizes.clear()
    small = build_grid(2, 16)
    eigenbasis(small, 3, cache_dir=tmp_path)
    assert sizes == [25]
    # The circle has one block.
    sizes.clear()
    circle = build_grid(1, 64)
    eigenbasis(circle, 3, cache_dir=tmp_path)
    assert sizes == [31]


def test_eigenbasis_needs_fewer_modes_than_unknowns(tmp_path):
    # The circle at resolution 16 reduces to 9 nodes, 7 of them off the
    # equator; ARPACK finds at most 6 modes, and a count of 7 is refused by
    # name before any solve.
    grid = build_grid(1, 16)
    assert eigenbasis(grid, 6, cache_dir=tmp_path).count == 6
    with pytest.raises(ValueError, match="requested 7 modes but only 7"):
        eigenbasis(grid, 7, cache_dir=tmp_path)


def _tri_operator_reference(grid, rep, red_index):
    """The cotangent assembly from per-corner lists of (T, 3) gathers,
    concatenated into one triplet array each, kept as an oracle for the
    row-wise assembly into preallocated triplets."""
    import scipy.sparse as sp

    tris = grid.triangles
    a, b, c = grid.nodes[tris[:, 0]], grid.nodes[tris[:, 1]], grid.nodes[tris[:, 2]]
    rows, cols, vals = [], [], []
    for (i1, i2), (p0, p1, p2) in (
        ((1, 2), (a, b, c)), ((2, 0), (b, c, a)), ((0, 1), (c, a, b)),
    ):
        u = p1 - p0
        v = p2 - p0
        cross = np.linalg.norm(np.cross(u, v), axis=1)
        cot = 0.5 * np.sum(u * v, axis=1) / np.maximum(cross, 1e-300)
        e1, e2 = tris[:, i1], tris[:, i2]
        rows += [e1, e2, e1, e2]
        cols += [e1, e2, e2, e1]
        vals += [cot, cot, -cot, -cot]
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.size, grid.size),
    ).tocsr()
    nred = int(red_index.max()) + 1
    P = sp.coo_matrix(
        (np.ones(grid.size), (np.arange(grid.size), red_index[rep])),
        shape=(grid.size, nred),
    ).tocsr()
    return (P.T @ K @ P).tocsr(), P.T @ grid.weights


@pytest.mark.parametrize("resolution", [16, 64, 256])
def test_tri_operator_matches_reference(resolution):
    grid = build_grid(2, resolution)
    rep, red_index = spectral._representatives(grid)
    K, m = spectral._reduced_operator(grid, rep, red_index)
    K_ref, m_ref = _tri_operator_reference(grid, rep, red_index)
    for got, want in ((K.indptr, K_ref.indptr), (K.indices, K_ref.indices),
                      (K.data, K_ref.data), (m, m_ref)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _traced(build):
    """``build()`` and the peak bytes it held at once above what it started
    with, as ``tracemalloc`` traces them."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_tri_grid_build_footprint():
    # The cold build of the S^2 triangulation holds at most 4x the bytes of
    # the grid it returns.
    build_grid(2, 16)
    grid, peak = _traced(lambda: build_grid(2, 256))
    nbytes = sum(getattr(grid, name).nbytes for name in (
        "nodes", "weights", "reflect", "equator", "triangles", "equator_weights"))
    assert peak <= 4 * nbytes


def test_tri_operator_footprint():
    # The cotangent operator at resolution 256 (393,216 triplets) is
    # assembled within 13.5 MiB; scipy is imported before the trace.
    small = build_grid(2, 16)
    spectral._reduced_operator(small, *spectral._representatives(small))
    grid = build_grid(2, 256)
    rep, red_index = spectral._representatives(grid)
    _, peak = _traced(lambda: spectral._reduced_operator(grid, rep, red_index))
    assert peak <= 13.5 * 2 ** 20


@pytest.mark.parametrize("grid", [build_grid(1, 256),
                                  build_grid(2, 24, kind="latlong")],
                         ids=["circle", "latlong"])
def test_mass_rows_are_weighted_mode_rows(grid):
    basis = half_sphere_basis(grid.n, 5, grid=grid)
    for k in (1, 3, basis.count):
        rows = basis.mass_rows(k)
        fresh = basis.values[:, :k].T * grid.weights
        assert rows.shape == fresh.shape and rows.strides == fresh.strides
        assert rows.tobytes(order="A") == fresh.tobytes(order="A")


def test_eigenbasis_validations(tmp_path):
    grid = build_grid(1, 64)
    with pytest.raises(ValueError, match="unknowns remain"):
        eigenbasis(grid, 1000, cache_dir=tmp_path)


def test_cache_roundtrip(tmp_path):
    grid = build_grid(1, 64)
    a = eigenbasis(grid, 3, cache_dir=tmp_path)
    files = list((tmp_path / "eigenbases").glob("*.npz"))
    assert len(files) == 1
    b = eigenbasis(grid, 3, cache_dir=tmp_path)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.lambdas, b.lambdas)


def test_cache_hit_builds_no_operator(tmp_path, monkeypatch):
    grids = (build_grid(1, 64), build_grid(2, 16))
    stored = [eigenbasis(grid, 3, cache_dir=tmp_path)
              for grid in grids]

    def no_build(*args):
        raise AssertionError("a cache hit built the reduced operator")

    monkeypatch.setattr(spectral, "_reduced_operator", no_build)
    for grid, a in zip(grids, stored):
        b = eigenbasis(grid, 3, cache_dir=tmp_path)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.lambdas, b.lambdas)
        # the size check still comes first, from the index maps alone
        with pytest.raises(ValueError, match="unknowns remain"):
            eigenbasis(grid, 1000, cache_dir=tmp_path)


def test_cache_recomputes_wrong_or_unreadable_file(tmp_path):
    grid = build_grid(1, 64)
    right = eigenbasis(grid, 3, cache_dir=tmp_path)
    [path] = (tmp_path / "eigenbases").glob("*.npz")
    eigenbasis(grid, 4, cache_dir=tmp_path)
    [other] = set((tmp_path / "eigenbases").glob("*.npz")) - {path}
    # a basis of another mode count, then garbage, planted at the key
    for planted in (other.read_bytes(), b"not an npz file"):
        path.write_bytes(planted)
        back = eigenbasis(grid, 3, cache_dir=tmp_path)
        assert np.array_equal(back.values, right.values)
        assert np.array_equal(back.lambdas, right.lambdas)
        with np.load(path) as stored:
            assert np.array_equal(stored["values"], right.values)


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("THIN_EPI_CACHE", str(tmp_path))
    grid = build_grid(1, 64)
    eigenbasis(grid, 2)
    assert list((tmp_path / "eigenbases").glob("*.npz"))
