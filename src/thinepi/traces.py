"""Spherical trace functions: inner products and surface gradients.

A trace couples node values on a SphereGrid with optional closed-form
derivative data.  On every sphere that data has one format: tangential
gradient rows in ambient coordinates, shape (N, n+1), taken from the upper
side at the equator (traces are even, so they may kink there).  When it is
not supplied it is reconstructed from the node values:

* circle: fourth-order-consistent centered differences in the folded angle
  away from the equator, one-sided second-order stencils from the upper half
  at the two equator nodes, times the grid's ``folded_tangents``;
* triangulated sphere: per-triangle P1 gradients averaged to vertices with
  area weights, restricted to upper triangles at equator vertices, then
  projected tangentially.

The squared surface gradient of an even trace is continuous across the
equator even when the trace kinks, so lumped quadrature of Dirichlet energies
remains second-order accurate.

Many traces at once: ``TraceColumns`` holds k traces as columns with their
gradient rows and their mass and gradient Gram matrices, and
``TraceBatch`` holds traces as an offset plus rows of basis coefficients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import SphereGrid


@dataclass
class SphericalTrace:
    """Node values of an even function on S^n with optional closed-form
    gradient rows."""

    grid: SphereGrid
    values: np.ndarray
    grad: np.ndarray | None = None     # (N, n+1) tangential, upper-sided at kinks

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid size {self.grid.size}")

    def __add__(self, other: "SphericalTrace") -> "SphericalTrace":
        if other.grid is not self.grid:
            raise ValueError("traces live on different grids")
        gr = None
        if self.grad is not None and other.grad is not None:
            gr = self.grad + other.grad
        return SphericalTrace(self.grid, self.values + other.values, gr)

    # -- derivatives --------------------------------------------------------

    def _surface_gradient(self) -> np.ndarray:
        """Tangential gradient rows, supplied or reconstructed."""
        if self.grad is not None:
            return self.grad
        return _reconstructed_gradient(self.grid, self.values)

    def gradient_dot(self, other: "SphericalTrace") -> np.ndarray:
        """Nodewise dot product of surface gradients (upper-sided at kinks);
        ``gradient_dot(self)`` is the squared surface gradient."""
        g1 = self._surface_gradient()
        g2 = g1 if other is self else other._surface_gradient()
        return np.sum(g1 * g2, axis=1)


def _reconstructed_gradient(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Tangential gradient rows of even node values, from the values alone."""
    if grid.n == 1:
        return circle_dtheta(grid, values)
    return vertex_gradients(grid, values)


# ---------------------------------------------------------------------------
# Circle derivative reconstruction
# ---------------------------------------------------------------------------

def circle_dtheta(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Tangential gradient rows (N, 2) from the derivative with respect to
    the folded angle at every node.

    Centered fourth-order stencils away from the equator; one-sided
    second-order stencils from the smooth side at the two equator nodes.
    The folded-angle derivative is an even array for even inputs; each row
    is that derivative times the node's ``grid.folded_tangents`` row.
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
    return d[:, None] * grid.folded_tangents


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


@dataclass
class TraceColumns:
    """k traces on one grid as node-value columns (N, k) with their
    tangential gradient rows (k, N, n+1).  A block of traces is a (T, k)
    array of coefficient rows over the columns, and its quadrature pairings
    are quadratic forms in ``grams``."""

    grid: SphereGrid
    values: np.ndarray
    derivs: np.ndarray

    @classmethod
    def of_basis(cls, basis) -> "TraceColumns":
        """The modes of a basis, with its closed-form gradient rows or,
        lacking those, rows reconstructed mode by mode."""
        grid = basis.grid
        derivs = basis.grads
        if derivs is None:
            derivs = np.stack([_reconstructed_gradient(grid, v)
                               for v in basis.values.T])
        return cls(grid, basis.values, derivs)

    @classmethod
    def of_trace(cls, trace: SphericalTrace) -> "TraceColumns":
        return cls(trace.grid, trace.values[:, None],
                   trace._surface_gradient()[None])

    def join(self, other: "TraceColumns") -> "TraceColumns":
        """The columns of ``self`` followed by those of ``other``."""
        return TraceColumns(self.grid,
                            np.column_stack([self.values, other.values]),
                            np.concatenate([self.derivs, other.derivs]))

    @functools.cached_property
    def grams(self) -> tuple[np.ndarray, np.ndarray]:
        """(mass, gradient) Gram matrices by nodal quadrature:
        <t_i, t_j> and <grad t_i, grad t_j> (upper-sided at kinks)."""
        w = self.grid.weights
        mass = self.values.T @ (w[:, None] * self.values)
        d = self.derivs
        return mass, sum((d[:, :, j] * w) @ d[:, :, j].T
                         for j in range(d.shape[2]))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def trace_from_profile(p, grid: SphereGrid) -> SphericalTrace:
    """The trace of any field with ``trace_on`` and ``trace_gradient_on``
    (a blow-up profile or an explicit 2D solution), with its closed-form
    gradient rows."""
    return SphericalTrace(grid, p.trace_on(grid), grad=p.trace_gradient_on(grid))


def trace_from_basis(basis, coeffs) -> SphericalTrace:
    c = np.asarray(coeffs, dtype=float)
    if c.size < basis.count:
        c = np.append(c, np.zeros(basis.count - c.size))
    vals = basis.reconstruct(c)
    gr = None
    if basis.grads is not None:
        gr = np.einsum("k,kij->ij", c, basis.grads)
    return SphericalTrace(basis.grid, vals, grad=gr)


@dataclass
class TraceBatch:
    """Traces c_t = offset + sum_j coeffs[t, j] basis_j on one grid, such as
    a run's sampled trials, which are certified together."""

    offset: SphericalTrace
    basis: object                     # an EigenBasis
    coeffs: np.ndarray                # (T, basis.count)

    @classmethod
    def of_trace(cls, c: SphericalTrace, basis) -> "TraceBatch":
        return cls(c, basis, np.zeros((1, basis.count)))

    @classmethod
    def sample(cls, offset: SphericalTrace, basis, count: int, eps: float,
               propose) -> "TraceBatch":
        """Rejection sampling: each ``propose()`` draws one coefficient
        vector (or None, rejecting it outright), kept when the trace is
        within eps of the offset; at most 50 * count proposals in all, or
        ValueError naming eps.  Every basis vanishes on the equator, so the
        traces keep the offset's values on the thin set.

        The distance is the quadrature norm of the basis sum through the
        basis's mass Gram matrix.  Each pass draws as many proposals as
        traces are still missing, so ``propose`` is called exactly as often
        as one proposal at a time would call it."""
        gram = basis.mass_rows(basis.count) @ basis.values
        out = []
        budget = 50 * count
        while len(out) < count and budget:
            draws = min(count - len(out), budget)
            budget -= draws
            block = [c for c in (propose() for _ in range(draws))
                     if c is not None]
            if not block:
                continue
            block = np.array(block)
            with np.errstate(over="ignore"):    # an overflow is outside eps
                keep = np.sqrt(np.sum((block @ gram) * block, axis=1)) <= eps
            out.extend(block[keep])
        if len(out) < count:
            raise ValueError(
                f"rejection sampling kept {len(out)} of {count} traces within "
                f"eps={eps:g} from {50 * count} proposals")
        return cls(offset, basis, np.array(out))

    def __len__(self) -> int:
        return len(self.coeffs)

    def columns(self) -> TraceColumns:
        """[offset | basis] columns, over which the traces are the rows
        [1, coeffs[t]]."""
        return TraceColumns.of_trace(self.offset).join(
            TraceColumns.of_basis(self.basis))

    def rows(self) -> np.ndarray:
        """The traces' coefficient rows over ``columns``."""
        return np.column_stack([np.ones(len(self)), self.coeffs])
