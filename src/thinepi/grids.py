"""Sphere grids with exact mirror symmetry in the last coordinate.

Every grid carries node positions on the unit sphere S^n (n = 1 or 2),
quadrature weights for the surface measure, an index involution realizing the
reflection x_{n+1} -> -x_{n+1} exactly, and the list of equator nodes (last
coordinate exactly zero).  Three kinds are provided:

* ``circle``   -- uniform angles on S^1 including theta = 0 and pi;
* ``tri``      -- subdivided octahedron on S^2 (triangulation with an exact
                  equator ring, used by the cotangent Laplace-Beltrami operator);
* ``latlong``  -- Gauss-Legendre latitudes x uniform longitudes on S^2 (smooth
                  quadrature; the latitude count is kept odd so an exact
                  equator row exists).

Evenness in the last coordinate is everywhere enforced through the reflection
involution, never through floating-point comparisons of coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
SPHERE_AREA = {1: TWO_PI, 2: 4.0 * np.pi}


@dataclass
class SphereGrid:
    """Nodes, weights and symmetry structure of a discretized S^n."""

    n: int
    kind: str
    resolution: int
    nodes: np.ndarray          # (N, n+1) unit vectors
    weights: np.ndarray        # (N,) surface-measure quadrature weights
    reflect: np.ndarray        # (N,) index involution for x_{n+1} -> -x_{n+1}
    equator: np.ndarray        # sorted indices of nodes with last coordinate 0
    theta_folded: np.ndarray | None = None  # (N,) angles folded to [0, pi]
    triangles: np.ndarray | None = None   # (T, 3) vertex indices, tri only
    shape: tuple[int, int] | None = None  # (lat, lon), latlong only
    equator_weights: np.ndarray = field(default=None, repr=False)  # H^{n-1} weights

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        return float(self.weights @ (f * g))

    @functools.cached_property
    def mirror_halves(self) -> tuple[np.ndarray, np.ndarray]:
        """(representatives, spread): the lower index of each ``reflect``
        orbit, ascending, and for every node the position of its orbit's
        representative, so ``v[representatives][spread]`` equals ``v`` for
        even node values ``v``.  Built from ``reflect`` alone on first use,
        then kept with the grid as read-only arrays.
        """
        index = np.arange(self.size)
        representatives = np.flatnonzero(index <= self.reflect)
        position = np.empty(self.size, dtype=np.intp)
        position[representatives] = np.arange(representatives.size)
        spread = position[np.minimum(index, self.reflect)]
        for shared in (representatives, spread):
            shared.flags.writeable = False
        return representatives, spread

    @functools.cached_property
    def folded_tangents(self) -> np.ndarray:
        """Circle only: (N, 2) unit tangents in the direction of increasing
        folded angle, (-y, x) on the closed upper half and its mirror image
        below, so the gradient of an even function at a node is its
        folded-angle derivative times the node's row (upper-sided at the
        equator).  Built on first use, then kept read-only."""
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        tangents = np.column_stack([-np.abs(y), np.where(y < 0.0, -x, x)])
        tangents.flags.writeable = False
        return tangents

    @functools.cached_property
    def gradient_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid-only factors of the vertex gradients of a ``tri`` grid.

        For a triangle (a, b, c) with u = b - a, v = c - a and normal
        n = u x v, the gradient of the linear interpolant of f is
        P (f_b - f_a) + Q (f_c - f_a), with P = (v x n)/|n|^2 and
        Q = (n x u)/|n|^2.  ``weights[t, k]`` is the share of triangle t in
        the area-weighted average at its k-th vertex; at equator vertices
        only upper triangles count, so even functions get their upper-sided
        gradient there.  Built on first use, then kept with the grid as
        read-only arrays.
        """
        tris = self.triangles
        u, v = _corner_edges(self.nodes, tris, 0)
        normal = _cross(u, v)
        norm2 = np.add.reduce(normal * normal)
        p, q = np.empty((tris.shape[0], 3)), np.empty((tris.shape[0], 3))
        np.divide(_cross(v, normal), norm2, out=p.T)
        np.divide(_cross(normal, u), norm2, out=q.T)
        del u, v, normal

        on_equator = np.zeros(self.size, dtype=bool)
        on_equator[self.equator] = True
        upper_tri = self.nodes[tris, 2].sum(axis=1) > 0.0
        areas = 0.5 * np.sqrt(norm2)[:, None]
        weights = np.where(on_equator[tris] & ~upper_tri[:, None], 0.0, areas)
        wsum = np.bincount(tris.ravel(), weights=weights.ravel(),
                           minlength=self.size)
        weights /= wsum[tris]
        for shared in (p, q, weights):
            shared.flags.writeable = False
        return p, q, weights


def build_grid(n: int, resolution: int, kind: str | None = None) -> SphereGrid:
    """Build a sphere grid.

    ``resolution`` means: total node count for S^1 (must be even so that both
    theta = 0 and theta = pi are nodes); approximate equator node count for
    the S^2 triangulation; latitude count for the S^2 lat-long grid.
    """
    if n not in (1, 2):
        raise ValueError(f"only S^1 and S^2 are supported, got n={n}")
    if resolution < 16:
        raise ValueError(f"resolution must be at least 16, got {resolution}")
    if n == 1:
        if kind not in (None, "circle"):
            raise ValueError(f"unknown S^1 grid kind {kind!r}")
        if resolution % 2:
            raise ValueError("S^1 resolution must be even so theta = pi is a node")
        return _circle_grid(resolution)
    if kind in (None, "tri"):
        return _octasphere_grid(resolution)
    if kind == "latlong":
        return _latlong_grid(resolution)
    raise ValueError(f"unknown S^2 grid kind {kind!r}")


# ---------------------------------------------------------------------------
# S^1
# ---------------------------------------------------------------------------

def _circle_grid(resolution: int) -> SphereGrid:
    num = resolution
    half = num // 2
    reflect = (-np.arange(num)) % num
    # Fold through the reflection index map so folded angles of mirror-partner
    # nodes are bit-identical: even traces evaluated through them are exactly
    # even without any symmetrization step.
    theta_folded = np.minimum(np.arange(num), reflect) * (TWO_PI / num)
    upper = np.column_stack([np.cos(theta_folded[: half + 1]),
                             np.sin(theta_folded[: half + 1])])
    upper[0] = (1.0, 0.0)
    upper[half] = (-1.0, 0.0)
    nodes = np.vstack([upper, upper[half - 1:0:-1] * (1.0, -1.0)])
    weights = np.full(num, TWO_PI / num)
    equator = np.array([0, half])
    # The thin set boundary on S^1 consists of two points: counting measure.
    return SphereGrid(
        n=1, kind="circle", resolution=resolution, nodes=nodes, weights=weights,
        reflect=reflect, equator=equator, theta_folded=theta_folded,
        equator_weights=np.ones(2),
    )


# ---------------------------------------------------------------------------
# S^2, subdivided octahedron
# ---------------------------------------------------------------------------

def _octasphere_grid(resolution: int) -> SphereGrid:
    level = max(2, int(np.ceil(np.log2(max(resolution, 8) / 4))))
    nodes, triangles, reflect = _octasphere_mesh(level)

    equator = np.nonzero(nodes[:, 2] == 0.0)[0]
    order = np.argsort(np.arctan2(nodes[equator, 1], nodes[equator, 0]))
    equator = equator[order]

    # Lumped mass from planar triangle areas, normalized so the weight sum is
    # exactly the sphere area (the polyhedral area underestimates 4*pi by
    # O(h^2); the normalization keeps the quadrature contract exact).
    normal = _cross(*_corner_edges(nodes, triangles, 0))
    areas = 0.5 * np.sqrt(np.add.reduce(normal * normal))
    del normal
    weights = np.bincount(triangles.T.ravel(), weights=np.tile(areas / 3.0, 3),
                          minlength=nodes.shape[0])
    weights *= SPHERE_AREA[2] / weights.sum()

    # Equator ring arc-length weights for the H^1 line measure.
    ring = nodes[equator, :2]
    ang = np.arctan2(ring[:, 1], ring[:, 0])
    gaps = np.diff(np.concatenate([ang, [ang[0] + TWO_PI]]))
    eq_w = 0.5 * (gaps + np.roll(gaps, 1))

    return SphereGrid(
        n=2, kind="tri", resolution=resolution, nodes=nodes, weights=weights,
        reflect=reflect, equator=equator, triangles=triangles,
        equator_weights=eq_w,
    )


def _octasphere_mesh(level: int):
    """(nodes, triangles, reflect) of the octahedron split ``level`` times:
    the upper vertices in order of first use, then the lower ones."""
    e1, e2, e3 = np.eye(3)
    faces = np.array([(e1, e2, e3), (e2, -e1, e3), (-e1, -e2, e3), (-e2, e1, e3)])
    # Each corner's key x (2^(level+1) + 1) + y names its octahedron lattice
    # point at scale 2^level on the upper half (z = 2^level - |x| - |y|); it
    # is linear, so a midpoint's key (ka + kb) >> 1 is exact at every level.
    keys = ((faces[..., :1] * (2 ** (level + 1) + 1) + faces[..., 1:2])
            * 2 ** level).astype(np.int64)

    def split(faces, midpoints):
        a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
        ab, bc, ca = midpoints(np.stack([a + b, b + c, c + a]))
        return np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                        axis=1).reshape(-1, 3, faces.shape[2])

    # Split every face of a level at once.  The children of face i land at
    # 4i..4i+3, so after the last level the faces are in depth-first order.
    # The batched matmul takes each squared norm with the bits of a 1-D m @ m.
    for _ in range(level):
        faces = split(faces, lambda m: m / np.sqrt(m[..., None, :] @ m[..., None])[..., 0])
        keys = split(keys, lambda m: m >> 1)

    # Number the upper vertices by the first occurrence of their keys among
    # the triangle corners, which is that of their coordinate bytes; +0.0
    # turns -0.0 into +0.0 as a mirror image would.
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    upper = faces.reshape(-1, 3)[first[by_first]] + 0.0
    del faces
    upper_tris = np.argsort(by_first)[inverse].reshape(-1, 3)

    # Mirror the upper half exactly: negation is exact in floating point, so
    # the involution is exact.  Equator nodes are their own mirror images;
    # the others get new nodes, appended in order.
    off = np.flatnonzero(upper[:, 2] != 0.0)
    mirrored_of = np.arange(upper.shape[0])
    mirrored_of[off] = upper.shape[0] + np.arange(off.size)
    nodes = np.vstack([upper, upper[off] * np.array([1.0, 1.0, -1.0])])
    triangles = np.vstack([upper_tris, mirrored_of[upper_tris[:, [0, 2, 1]]]])
    reflect = np.concatenate([mirrored_of, off])
    return nodes, triangles, reflect


def _corner_edges(nodes: np.ndarray, triangles: np.ndarray, k: int):
    """(3, T) coordinate rows of u = p1 - p0 and v = p2 - p0, for p0 the
    corner k of each triangle and p1, p2 the next two in cyclic order.
    ``np.add.reduce(u * v)`` has the bits of ``np.sum(.., axis=1)`` on rows."""
    coords = np.ascontiguousarray(nodes.T)
    p0, u, v = (np.take(coords, triangles[:, (k + i) % 3], axis=1) for i in range(3))
    u -= p0
    v -= p0
    return u, v


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v on (3, T) rows, with the operations and bits of ``np.cross``."""
    out = np.empty_like(u)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[j], v[k], out=out[i])
        out[i] -= u[k] * v[j]
    return out


# ---------------------------------------------------------------------------
# S^2, Gauss-Legendre latitudes x uniform longitudes
# ---------------------------------------------------------------------------

def _latlong_grid(resolution: int) -> SphereGrid:
    nlat = resolution + 1 if resolution % 2 == 0 else resolution
    nlon = 2 * resolution
    z, wz = np.polynomial.legendre.leggauss(nlat)
    # Symmetrize so the node set is exactly invariant under z -> -z and the
    # middle node is exactly the equator.
    z = 0.5 * (z - z[::-1])
    wz = 0.5 * (wz + wz[::-1])
    z[nlat // 2] = 0.0

    phi = np.arange(nlon) * (TWO_PI / nlon)
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    nodes = np.column_stack([(rho[:, None] * np.cos(phi)).ravel(),
                             (rho[:, None] * np.sin(phi)).ravel(),
                             np.repeat(z, nlon)])
    weights = np.repeat(wz * (TWO_PI / nlon), nlon)

    idx = np.arange(nlat * nlon).reshape(nlat, nlon)
    reflect = idx[::-1, :].reshape(-1)
    equator = idx[nlat // 2].copy()

    return SphereGrid(
        n=2, kind="latlong", resolution=resolution, nodes=nodes, weights=weights,
        reflect=reflect, equator=equator, shape=(nlat, nlon),
        equator_weights=np.full(nlon, TWO_PI / nlon),
    )


# ---------------------------------------------------------------------------
# Radial quadrature and ladders
# ---------------------------------------------------------------------------

def radial_rule(npoints: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (0, 1).

    Each size is built once per process; every caller gets the same
    read-only arrays.
    """
    return _gauss_legendre_01(npoints)


@functools.cache
def _gauss_legendre_01(npoints: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npoints)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def radii_ladder(r_max: float, count: int) -> np.ndarray:
    """Geometric radii ladder r_max * 2^(-i/4), i = 0..count-1, ascending."""
    return np.sort(r_max * (2.0 ** -0.25) ** np.arange(count))
