"""Spherical trace functions: inner products and surface gradients.

A trace couples node values on a SphereGrid with optional closed-form
derivative data.  When derivatives are not supplied they are reconstructed
numerically:

* circle: fourth-order-consistent centered differences in the angle away from
  the equator, one-sided second-order stencils from the upper half at the two
  equator nodes (traces are even, so they may kink there);
* triangulated sphere: per-triangle P1 gradients averaged to vertices with
  area weights, restricted to upper triangles at equator vertices, then
  projected tangentially.

The squared surface gradient of an even trace is continuous across the
equator even when the trace kinks, so lumped quadrature of Dirichlet energies
remains second-order accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SphereGrid


@dataclass
class SphericalTrace:
    """Node values of an even function on S^n with optional derivative data."""

    grid: SphereGrid
    values: np.ndarray
    dtheta: np.ndarray | None = None   # n=1: derivative in the folded angle
    grad: np.ndarray | None = None     # (N, n+1) tangential, upper-sided at kinks

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid size {self.grid.size}")

    # -- inner products -----------------------------------------------------

    @property
    def norm_sq(self) -> float:
        return float(self.grid.inner(self.values, self.values))

    def inner(self, other: "SphericalTrace | np.ndarray") -> float:
        vals = other.values if isinstance(other, SphericalTrace) else other
        return float(self.grid.inner(self.values, vals))

    def is_even(self, tol: float = 0.0) -> bool:
        return self.grid.is_even(self.values, tol)

    def scaled(self, s: float) -> "SphericalTrace":
        return SphericalTrace(
            grid=self.grid, values=s * self.values,
            dtheta=None if self.dtheta is None else s * self.dtheta,
            grad=None if self.grad is None else s * self.grad)

    def __add__(self, other: "SphericalTrace") -> "SphericalTrace":
        if other.grid is not self.grid:
            raise ValueError("traces live on different grids")
        dth = None
        if self.dtheta is not None and other.dtheta is not None:
            dth = self.dtheta + other.dtheta
        gr = None
        if self.grad is not None and other.grad is not None:
            gr = self.grad + other.grad
        return SphericalTrace(self.grid, self.values + other.values, dth, gr)

    def __sub__(self, other: "SphericalTrace") -> "SphericalTrace":
        return self + other.scaled(-1.0)

    # -- derivatives --------------------------------------------------------

    def _surface_gradient(self) -> np.ndarray:
        """Folded-angle derivative (n=1) or tangential gradient rows,
        supplied or reconstructed from the node values."""
        if self.grid.n == 1:
            if self.dtheta is not None:
                return self.dtheta
            return circle_dtheta(self.grid, self.values)
        if self.grad is not None:
            return self.grad
        return vertex_gradients(self.grid, self.values)

    def gradient_dot(self, other: "SphericalTrace") -> np.ndarray:
        """Nodewise dot product of surface gradients (upper-sided at kinks);
        ``gradient_dot(self)`` is the squared surface gradient."""
        g1 = self._surface_gradient()
        g2 = g1 if other is self else other._surface_gradient()
        if self.grid.n == 1:
            return g1 * g2
        return np.sum(g1 * g2, axis=1)


# ---------------------------------------------------------------------------
# Circle derivative reconstruction
# ---------------------------------------------------------------------------

def circle_dtheta(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Derivative with respect to the folded angle at every node.

    Centered fourth-order stencils away from the equator; one-sided
    second-order stencils from the smooth side at the two equator nodes.
    The result is expressed in the folded-angle convention, so it is an even
    array for even inputs.
    """
    num = grid.size
    half = num // 2
    h = 2.0 * np.pi / num
    v = np.asarray(values, dtype=float)
    d_full = (
        8.0 * (np.roll(v, -1) - np.roll(v, 1))
        - (np.roll(v, -2) - np.roll(v, 2))
    ) / (12.0 * h)
    # convert d/dtheta to d/d(folded theta): lower half flips orientation
    sign = np.ones(num)
    sign[half + 1:] = -1.0
    d = d_full * sign
    # one-sided from the upper half at the equator nodes
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[half] = (3.0 * v[half] - 4.0 * v[half - 1] + v[half - 2]) / (2.0 * h)
    # the nodes adjacent to the equator see the kink in their 5-point stencil;
    # use second-order centered differences confined to one smooth side
    d[1] = (v[2] - v[0]) / (2.0 * h)
    d[half - 1] = (v[half] - v[half - 2]) / (2.0 * h)
    d[half + 1] = -(v[half + 2] - v[half]) / (2.0 * h)
    d[num - 1] = -(v[0] - v[num - 2]) / (2.0 * h)
    return d


# ---------------------------------------------------------------------------
# Triangulated-sphere gradient reconstruction
# ---------------------------------------------------------------------------

def vertex_gradients(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Area-weighted average of adjacent triangle gradients per vertex.

    At equator vertices only upper-half triangles contribute, giving the
    upper-sided gradient of an even function; the result is projected onto
    the tangent plane of the sphere at each vertex.  The geometry comes from
    ``grid.gradient_geometry``, so a call is one gather and three sums.
    """
    if grid.kind != "tri":
        raise ValueError("vertex gradients need a triangulated grid")
    p, q, weights = grid.gradient_geometry
    tris = grid.triangles
    f = values[tris]
    g = p * (f[:, 1] - f[:, 0])[:, None] + q * (f[:, 2] - f[:, 0])[:, None]
    out = np.empty((grid.size, 3))
    for j in range(3):
        out[:, j] = np.bincount(tris.ravel(), weights=(weights * g[:, j, None]).ravel(),
                                minlength=grid.size)
    out -= np.sum(out * grid.nodes, axis=1, keepdims=True) * grid.nodes
    return out


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def trace_from_profile(p, grid: SphereGrid) -> SphericalTrace:
    tr = SphericalTrace(grid, p.trace_on(grid), grad=p.trace_gradient_on(grid))
    if grid.n == 1:
        # convert the (upper-sided) planar gradient to a folded-angle
        # derivative; only strictly-lower nodes flip orientation
        tangent = np.column_stack([-grid.nodes[:, 1], grid.nodes[:, 0]])
        sign = np.ones(grid.size)
        sign[grid.size // 2 + 1:] = -1.0
        tr.dtheta = np.sum(tr.grad * tangent, axis=1) * sign
    return tr


def trace_from_halfspace(sol, grid: SphereGrid) -> SphericalTrace:
    return SphericalTrace(grid, sol.trace_on(grid),
                          dtheta=sol.trace_dtheta(grid.theta_folded))


def trace_from_basis(basis, coeffs) -> SphericalTrace:
    c = np.asarray(coeffs, dtype=float)
    if c.size < basis.count:
        c = np.append(c, np.zeros(basis.count - c.size))
    vals = basis.reconstruct(c)
    dth = None if basis.dtheta is None else basis.dtheta @ c
    gr = None
    if basis.grads is not None:
        gr = np.einsum("k,kij->ij", c, basis.grads)
    return SphericalTrace(basis.grid, vals, dtheta=dth, grad=gr)
