"""Eigenbases of the spherical Laplacian, even in the last coordinate, with
Dirichlet conditions on the whole equator.

Two routes are provided and kept deliberately independent so they can check
each other:

* analytic bases — reflected Dirichlet modes on the half-circle (n=1) and
  evenly reflected restrictions of harmonic polynomials odd in the last
  coordinate (n=2), with exact eigenvalues ``lambda_of(j, n) = j(n+j-1)``
  and exact L^2 normalizations;
* discrete bases — generalized eigenproblems for the even-reduced
  finite-difference operator on the circle or the cotangent-weight operator
  on the triangulated sphere, with the equator nodes eliminated by block
  reduction, solved by shift-invert ARPACK (``scipy.sparse.linalg.eigsh``)
  at every size, so a basis has fewer modes than the reduced problem has
  unknowns.  On the sphere, the mirrors x -> -x and y -> -y split the
  problem into their four sign sectors, solved one at a time: smaller
  factors, and the copies of a degenerate eigenvalue that the mirrors tell
  apart come from different sectors, so the lowest modes hold every copy.

Discrete results can be cached on disk keyed by (dimension, grid kind,
resolution, mode count); the cache directory is taken from the
``THIN_EPI_CACHE`` environment variable unless given explicitly.  A cache
hit builds no operator; scipy is imported only to build and solve a miss.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import numpy as np

from .grids import SphereGrid, _corner_edges, _cross
from .polynomials import Polynomial, monomials_of_degree, odd_harmonic_extension

SQRT_PI = float(np.sqrt(np.pi))
EIG_TOL = 1e-10
TIE_TOL = 1e-9


def lambda_of(alpha: float, n: int) -> float:
    """Eigenvalue whose homogeneous harmonic extension has exponent alpha
    (elementwise over an array of exponents)."""
    if np.min(alpha) < 0:
        raise ValueError(f"homogeneity must be nonnegative, got {alpha}")
    return alpha * (n + alpha - 1)


def multiplicity(n: int, j: int) -> int:
    """Dimension of the degree-j eigenspace of the half-sphere Dirichlet problem."""
    if j < 1:
        raise ValueError(f"degree must be >= 1, got {j}")
    return comb(n + j - 2, j - 1)


def mode_count_ell(n: int, m: int) -> int:
    """Number of half-sphere modes (with multiplicity) of homogeneity <= 2m+1."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return sum(multiplicity(n, j) for j in range(1, 2 * m + 2))


# ---------------------------------------------------------------------------
# Basis container
# ---------------------------------------------------------------------------

@dataclass
class EigenBasis:
    """Ordered even eigenmodes vanishing on the equator.

    ``values`` has one column per mode, normalized to unit L^2 norm on the
    sphere.  For analytic bases, ``grads`` holds the closed-form tangential
    gradient rows of every mode in ambient coordinates, upper-sided at the
    equator, and ``equator_dn`` holds the one-sided derivative taken from the
    upper half sphere in the direction of the upper pole, evaluated at the
    equator nodes.
    """

    grid: SphereGrid
    lambdas: np.ndarray            # (count,) nondecreasing
    values: np.ndarray             # (N, count)
    degrees: np.ndarray | None = None      # per-mode homogeneity (analytic)
    grads: np.ndarray | None = None        # (count, N, n+1), analytic
    equator_dn: np.ndarray | None = None   # (count, n_equator)
    polys: list = field(default_factory=list, repr=False)  # n=2 analytic

    @property
    def count(self) -> int:
        return self.values.shape[1]

    def mass_rows(self, k: int) -> np.ndarray:
        """Rows ``values[:, :k].T * grid.weights``, whose products with node
        values are quadrature inner products with the first k modes."""
        return self.values[:, :k].T * self.grid.weights

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return self.values @ np.asarray(coeffs, dtype=float)

    def orthonormality_defect(self) -> float:
        gram = self.values.T @ (self.grid.weights[:, None] * self.values)
        return float(np.max(np.abs(gram - np.eye(self.count))))

    def rayleigh_defect(self) -> float:
        """Max relative gap between stored eigenvalues and Rayleigh quotients.

        Only available for discrete bases (needs the assembled operator).
        """
        rep, red_index = _representatives(self.grid)
        K, M = _reduced_operator(self.grid, rep, red_index)
        defect = 0.0
        for k in range(self.count):
            u = np.empty(K.shape[0])
            u[red_index[rep]] = self.values[:, k]
            num = float(u @ (K @ u))
            den = float(u @ (M * u))
            defect = max(defect, abs(num / den - self.lambdas[k]) / (1.0 + self.lambdas[k]))
        return defect


# ---------------------------------------------------------------------------
# Analytic bases
# ---------------------------------------------------------------------------

def half_sphere_basis(n: int, max_degree: int, grid: SphereGrid) -> EigenBasis:
    """Exact basis vanishing on the whole equator, evenly reflected.

    n=1: sin(j*theta)/sqrt(pi) on [0, pi] folded over the reflection;
    n=2: harmonic polynomials odd in x3, evaluated at (x', |x3|), with exact
    Gram-matrix orthonormalization; degree j contributes ``multiplicity(n, j)``
    modes with eigenvalue j(n+j-1).
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    if grid.n != n:
        raise ValueError(f"grid dimension {grid.n} does not match n={n}")
    if n == 1:
        return _circle_analytic_basis(grid, max_degree)
    return _sphere_oddlift_basis(grid, max_degree)


def _circle_analytic_basis(grid: SphereGrid, max_degree: int) -> EigenBasis:
    th = grid.theta_folded
    cols, dcols, lams, degs, eq_dn = [], [], [], [], []
    for j in range(1, max_degree + 1):
        cols.append(np.sin(j * th) / SQRT_PI)
        dcols.append(j * np.cos(j * th) / SQRT_PI)
        # Upper-pointing tangents at the equator: +d/dtheta at theta=0,
        # -d/dtheta at theta=pi.
        eq_dn.append(np.array([j / SQRT_PI, -j * np.cos(j * np.pi) / SQRT_PI]))
        lams.append(float(j * j))
        degs.append(j)
    values = np.column_stack(cols)
    values[grid.equator, :] = 0.0  # sin(j*0), sin(j*pi): pin exactly
    return EigenBasis(
        grid=grid, lambdas=np.array(lams), values=values,
        degrees=np.array(degs),
        grads=np.stack(dcols)[:, :, None] * grid.folded_tangents,
        equator_dn=np.array(eq_dn),
    )


def _sphere_oddlift_basis(grid: SphereGrid, max_degree: int) -> EigenBasis:
    pts = grid.nodes.copy()
    pts[:, 2] = np.abs(pts[:, 2])
    eq_pts = grid.nodes[grid.equator]

    cols, lams, degs, polys = [], [], [], []
    grads_list = []
    eq_dn_rows = []
    for j in range(1, max_degree + 1):
        raw = [odd_harmonic_extension(Polynomial.monomial(2, e))
               for e in monomials_of_degree(2, j - 1)]
        gram = np.array([[ (a * b).sphere_integral() for b in raw] for a in raw])
        L = np.linalg.cholesky(gram)
        coeffs = np.linalg.inv(L)  # rows give orthonormal combinations
        for s in range(len(raw)):
            P = Polynomial.zero(3)
            for t in range(s + 1):
                P = P + raw[t].scale(coeffs[s, t])
            polys.append(P)
            cols.append(P(pts))
            lams.append(float(lambda_of(j, 2)))
            degs.append(j)
            grads_list.append(P.reflected_sphere_gradient(grid.nodes))
            eq_dn_rows.append(P.diff(2)(eq_pts))
    values = np.column_stack(cols)
    values[grid.equator, :] = 0.0
    return EigenBasis(
        grid=grid, lambdas=np.array(lams), values=values,
        degrees=np.array(degs), grads=np.stack(grads_list),
        equator_dn=np.array(eq_dn_rows), polys=polys,
    )


# ---------------------------------------------------------------------------
# Discrete operators
# ---------------------------------------------------------------------------

def _representatives(grid: SphereGrid):
    """The even reduction's index maps, from the grid alone: ``rep[i]`` maps
    each grid node to its representative (itself on the closed upper half,
    its mirror partner below), and ``red_index`` maps representative grid
    nodes to reduced unknown indices (-1 elsewhere)."""
    if grid.n == 1:
        rep = np.minimum(np.arange(grid.size), grid.reflect)
    elif grid.kind == "tri":
        rep = np.where(grid.nodes[:, 2] < 0.0, grid.reflect, np.arange(grid.size))
    else:
        raise ValueError("discrete S^2 eigenbases require the triangulated grid")
    reps = np.unique(rep)
    red_index = np.full(grid.size, -1, dtype=int)
    red_index[reps] = np.arange(reps.size)
    return rep, red_index


def _reduced_operator(grid: SphereGrid, rep, red_index):
    """Even-reduced stiffness (sparse) and diagonal mass (vector) over the
    representatives of ``_representatives(grid)``."""
    if grid.n == 1:
        return _circle_reduced_operator(grid)
    return _tri_reduced_operator(grid, rep, red_index)


def _circle_reduced_operator(grid: SphereGrid):
    import scipy.sparse as sp

    num = grid.size
    half = num // 2
    h = 2.0 * np.pi / num
    nred = half + 1
    main = np.full(nred, 4.0 / h)
    main[0] = main[-1] = 2.0 / h
    off = np.full(nred - 1, -2.0 / h)
    K = sp.diags([off, main, off], offsets=(-1, 0, 1), format="csr")
    m = np.full(nred, 2.0 * h)
    m[0] = m[-1] = h
    return K, m


def _tri_reduced_operator(grid: SphereGrid, rep, red_index):
    import scipy.sparse as sp

    tris = grid.triangles
    # Triplets (row, col, value) per corner k: (e1, e1, c), (e2, e2, c),
    # (e1, e2, -c), (e2, e1, -c).  scipy sums each entry's duplicates in this
    # order, so the order fixes the operator's bits.
    rows = np.empty((3, 4, tris.shape[0]), dtype=np.int32)
    cols = np.empty_like(rows)
    vals = np.empty(rows.shape)
    for k in range(3):
        # Half-cotangent c of the angle at corner k, weighting edge (e1, e2).
        u, v = _corner_edges(grid.nodes, tris, k)
        normal = _cross(u, v)
        cross = np.sqrt(np.add.reduce(normal * normal))
        vals[k, :2] = 0.5 * np.add.reduce(u * v) / np.maximum(cross, 1e-300)
        vals[k, 2:] = -vals[k, 0]
        del u, v, normal, cross
        e1, e2 = tris[:, (k + 1) % 3], tris[:, (k + 2) % 3]
        rows[k, ::2], rows[k, 1::2] = e1, e2
        cols[k, ::3], cols[k, 1:3] = e1, e2
    K = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(grid.size, grid.size)).tocsr()
    del rows, cols, vals

    nred = int(red_index.max()) + 1
    P = sp.coo_matrix(
        (np.ones(grid.size), (np.arange(grid.size), red_index[rep])),
        shape=(grid.size, nred),
    ).tocsr()
    K_red = (P.T @ K @ P).tocsr()
    m_red = P.T @ grid.weights
    return K_red, m_red


def eigenbasis(grid: SphereGrid, count: int,
               cache_dir: str | os.PathLike | None = None) -> EigenBasis:
    """First ``count`` even eigenmodes vanishing on the equator.

    The equator rows are eliminated by reduction to the other unknowns, so
    eigenfunctions vanish there exactly.  On the triangulated sphere the
    block splits into four sign sectors of the mirrors x -> -x and
    y -> -y (``_blocks``); ARPACK solves each sector for ``count`` modes,
    and the lowest ``count`` of them are kept.  On the circle, or when a
    sector has at most ``count`` unknowns, ARPACK solves the one block, so
    ``count`` must be less than its number of unknowns.
    """
    rep, red_index = _representatives(grid)
    unknowns = int(red_index.max()) + 1 - grid.equator.size
    if count >= unknowns:
        raise ValueError(
            f"requested {count} modes but only {unknowns} unknowns "
            f"remain; ARPACK needs fewer modes than unknowns")

    cached = _cache_load(grid, count, cache_dir)
    if cached is not None:
        return cached

    K, m = _reduced_operator(grid, rep, red_index)
    lams, modes = [], []
    for P in _blocks(grid, red_index, count):
        # A sector column's mass sums the masses of its orbit.
        lam, vec = _lowest_modes(P.T @ K @ P, abs(P).T @ m, count)
        lams.append(lam)
        modes.append(P @ vec)
    lam = np.concatenate(lams)
    order = np.argsort(lam, kind="stable")[:count]
    lam, red_vals = lam[order], np.hstack(modes).take(order, axis=1)

    # Normalize, then expand to the full grid through the reflection
    # representative map.
    norms = np.sqrt(np.einsum("i,ik->k", m, red_vals**2))
    red_vals /= norms
    full = red_vals[red_index[rep], :]

    full, lam = _fix_order_and_signs(full, lam)
    basis = EigenBasis(grid=grid, lambdas=lam, values=full)
    _cache_store(basis, cache_dir)
    return basis


def _blocks(grid: SphereGrid, red_index, count: int) -> list:
    """Sparse (reduced unknowns, block unknowns) matrices P, one per block
    that ARPACK solves; a mode y of P^T K P maps to the mode P y.

    On the triangulated sphere these are the four sign sectors (sx, sy) of
    the mirrors x -> -x and y -> -y: a sector's column holds, at each node
    of one orbit of the mirrors, sx^a sy^b for the mirror x^a y^b that maps
    the orbit's representative there.  A node that a mirror of sign -1
    fixes (x = 0 for sx = -1, y = 0 for sy = -1) vanishes in that sector
    and is eliminated like an equator node.  On the circle, or when a
    sector has at most ``count`` unknowns, the one block of the unknowns
    off the equator.
    """
    import scipy.sparse as sp

    nred = int(red_index.max()) + 1
    index = np.arange(nred)
    free = np.ones(nred, dtype=bool)
    free[red_index[grid.equator]] = False

    def block(alive, orbit, sign):
        reps, column = np.unique(orbit[alive], return_inverse=True)
        return sp.csr_matrix((sign[alive], (index[alive], column)),
                             shape=(nred, reps.size))

    single = [block(free, index, np.ones(nred))]
    if grid.n == 1:
        return single
    upper = grid.nodes[red_index >= 0]   # in reduced-index order
    mx, my = _mirror(upper, 0), _mirror(upper, 1)
    orbit = np.minimum.reduce([index, mx, my, mx[my]])
    sectors = []
    for sx, sy in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        alive = free & ~((sx < 0) & (mx == index)) & ~((sy < 0) & (my == index))
        sign = np.select([index == orbit, mx == orbit, my == orbit],
                         [1.0, sx, sy], sx * sy)
        sectors.append(block(alive, orbit, sign))
        if sectors[-1].shape[1] <= count:
            return single
    return sectors


def _mirror(points: np.ndarray, axis: int):
    """Index map of the reflection of coordinate ``axis`` on ``points``:
    ``points[perm]`` equals ``points`` with that coordinate negated.  The
    triangulated sphere is built exactly symmetric; a point set that is
    not raises ValueError."""
    flipped = points.copy()
    flipped[:, axis] = -flipped[:, axis]
    ours, theirs = np.lexsort(points.T[::-1]), np.lexsort(flipped.T[::-1])
    if not np.array_equal(points[ours], flipped[theirs]):
        raise ValueError(f"points are not symmetric under x{axis} -> -x{axis}")
    perm = np.empty(points.shape[0], dtype=np.intp)
    perm[theirs] = ours
    return perm


def _lowest_modes(K, m: np.ndarray, count: int):
    """The ``count`` lowest eigenpairs (ascending) of K y = lambda diag(m) y,
    by shift-invert ARPACK on the symmetric form D K D, D = diag(m)^-1/2."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    scale = 1.0 / np.sqrt(m)
    A = sp.diags(scale) @ K @ sp.diags(scale)
    A = 0.5 * (A + A.T)
    try:
        # A fixed start vector makes ARPACK deterministic, so the rotation
        # it returns inside a degenerate eigenspace repeats.
        lam, vec = spla.eigsh(A.tocsc(), k=count, sigma=-0.5, which="LM",
                              tol=EIG_TOL, v0=np.ones(m.size))
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    order = np.argsort(lam)
    return lam[order], scale[:, None] * vec[:, order]


def _fix_order_and_signs(values: np.ndarray, lam: np.ndarray):
    """Deterministic ordering and signs: ties broken lexicographically by node
    values, sign chosen so the largest-magnitude entry is positive."""
    count = lam.size
    for k in range(count):
        col = values[:, k]
        idx = int(np.argmax(np.abs(col)))
        if col[idx] < 0:
            values[:, k] = -col
    order = list(range(count))
    # Stable insertion sort on (lambda with tie tolerance, lexicographic values).
    def less(i, j):
        if lam[i] < lam[j] - TIE_TOL:
            return True
        if lam[i] > lam[j] + TIE_TOL:
            return False
        vi, vj = values[:, i], values[:, j]
        diff = vi - vj
        nz = np.nonzero(np.abs(diff) > 1e-12)[0]
        return bool(diff[nz[0]] < 0) if nz.size else False
    for i in range(1, count):
        j = i
        while j > 0 and less(order[j], order[j - 1]):
            order[j], order[j - 1] = order[j - 1], order[j]
            j -= 1
    return values[:, order], lam[order]


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

CACHE_ENV = "THIN_EPI_CACHE"
CACHE_VERSION = "v5"            # v4 keyed and stored the equator mask
CACHE_ORTHO_TOL = 1e-8          # stored bases are orthonormal to ~1e-14


def cache_root(cache_dir=None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "thin-epi"


def _cache_path(grid: SphereGrid, count: int, cache_dir) -> Path:
    key = hashlib.sha256(
        f"{CACHE_VERSION}|{grid.n}|{grid.kind}|{grid.resolution}|{count}".encode())
    return cache_root(cache_dir) / "eigenbases" / (key.hexdigest()[:24] + ".npz")


def _cache_load(grid, count, cache_dir):
    """The basis stored at the key, or None when the file is missing,
    unreadable, or holds other shapes or non-orthonormal modes; the caller
    then recomputes and overwrites it."""
    path = _cache_path(grid, count, cache_dir)
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            lambdas, values = data["lambdas"], data["values"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if lambdas.shape != (count,) or values.shape != (grid.size, count):
        return None
    basis = EigenBasis(grid=grid, lambdas=lambdas, values=values)
    if basis.orthonormality_defect() > CACHE_ORTHO_TOL:
        return None
    return basis


def _cache_store(basis: EigenBasis, cache_dir):
    path = _cache_path(basis.grid, basis.count, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, lambdas=basis.lambdas, values=basis.values)
    tmp.replace(path)
