"""Finite-difference solver for the thin obstacle problem on the unit ball.

The computational domain is the upper half-ball {|x| < 1, x_d >= 0} embedded
in a uniform Cartesian grid on [-1,1]^(d-1) x [0,1].  Even symmetry in the
last coordinate reduces the plane condition to a one-sided flux: the row of
nodes on {x_d = 0} uses the standard stencil with the upper neighbor counted
twice.  Dirichlet data is imposed at every grid node on or outside the unit
sphere, evaluated at the radial projection of the node (nearest-node
imposition; O(h) boundary error, second order in the interior).

The constrained system

    min(u - phi, -(L u - f)) = 0   on the thin plane,
    L u = f                        at interior nodes,
    u = g                          on and outside the sphere,

with L the reflected 5/7-point Laplacian, is an M-matrix complementarity
problem, solved by the primal-dual active set method (Hintermueller, Ito &
Kunisch 2002): each iteration holds the active thin nodes on the obstacle and
solves for the rest by conjugate gradients, warm-started, until the active
set repeats.  The inner solve works on the lattice array itself: its matrix
is the stencil, its inner products are numpy's pairwise sums, and a
geometric multigrid V-cycle preconditions it.  Solved fields are read by
multilinear interpolation on the same lattice.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .polynomials import Polynomial, even_harmonic_extension
from .profiles import BlowupProfile, HalfspaceSolution2D, halfspace_2d, \
    make_profile

NEG_INF = -1e30


# ---------------------------------------------------------------------------
# Field descriptors (obstacle / boundary / right-hand side)
# ---------------------------------------------------------------------------

class Mode2D:
    """r^power * sin(j * theta) / sqrt(pi) on R^2, theta folded to [0, pi].

    Even in the second coordinate and vanishing on the thin line; used to
    inject a single separated-variables component with prescribed radial
    power into boundary data.
    """

    def __init__(self, j: int, power: float, amplitude: float = 1.0):
        self.j = int(j)
        self.power = float(power)
        self.amplitude = float(amplitude)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        if scalar:
            pts = pts[None, :]
        r = np.hypot(pts[..., 0], pts[..., 1])
        th = np.arctan2(np.abs(pts[..., 1]), pts[..., 0])
        with np.errstate(invalid="ignore"):
            out = np.where(
                r > 0.0,
                self.amplitude * r ** self.power * np.sin(self.j * th)
                / math.sqrt(math.pi),
                0.0,
            )
        return out[0] if scalar else out

    def config(self) -> dict:
        return {"kind": "mode", "j": self.j, "power": self.power,
                "amplitude": self.amplitude}


class _SumField:
    def __init__(self, terms):
        self.terms = list(terms)

    def __call__(self, points):
        out = self.terms[0](points)
        for t in self.terms[1:]:
            out = out + t(points)
        return out


class _ScaledField:
    def __init__(self, factor, inner):
        self.factor = float(factor)
        self.inner = inner

    def __call__(self, points):
        return self.factor * self.inner(points)


class _ConstantField:
    def __init__(self, value):
        self.value = float(value)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return self.value
        return np.full(pts.shape[:-1], self.value)


def make_field(config, nvars: int):
    """Build an evaluator (points -> values) from a config dictionary.

    Recognized kinds: zero, constant {value}, polynomial {coeffs},
    profile {m, n}, halfspace {mu}, mode {j, power, amplitude},
    sum {terms}, scaled {factor, of}.
    """
    if config is None:
        return None
    if callable(config):
        return config
    if isinstance(config, (int, float)):
        return _ConstantField(config)
    kind = config.get("kind")
    if kind == "zero":
        return _ConstantField(0.0)
    if kind == "constant":
        return _ConstantField(config["value"])
    if kind == "polynomial":
        coeffs = {tuple(int(x) for x in e): float(c) for e, c in config["coeffs"]}
        return Polynomial(nvars, coeffs)
    if kind == "profile":
        return make_profile(config["m"], config.get("n", nvars - 1))
    if kind == "halfspace":
        return halfspace_2d(config["mu"])
    if kind == "mode":
        return Mode2D(config["j"], config["power"], config.get("amplitude", 1.0))
    if kind == "sum":
        return _SumField(make_field(t, nvars) for t in config["terms"])
    if kind == "scaled":
        return _ScaledField(config["factor"], make_field(config["of"], nvars))
    raise ValueError(f"unknown field kind {kind!r}")


def field_config(obj) -> dict | None:
    """Inverse of make_field for the descriptor types (callables that do not
    carry a descriptor serialize as opaque)."""
    if obj is None:
        return None
    if isinstance(obj, _ConstantField):
        return {"kind": "constant", "value": obj.value}
    if isinstance(obj, Polynomial):
        return {"kind": "polynomial",
                "coeffs": [[list(e), c] for e, c in sorted(obj.coeffs.items())]}
    if isinstance(obj, BlowupProfile):
        return {"kind": "profile", "m": obj.m, "n": obj.n}
    if isinstance(obj, HalfspaceSolution2D):
        return {"kind": "halfspace", "mu": obj.mu}
    if isinstance(obj, Mode2D):
        return obj.config()
    if isinstance(obj, _SumField):
        return {"kind": "sum", "terms": [field_config(t) for t in obj.terms]}
    if isinstance(obj, _ScaledField):
        return {"kind": "scaled", "factor": obj.factor,
                "of": field_config(obj.inner)}
    return {"kind": "opaque", "repr": repr(obj)}


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------

@dataclass
class ProblemSpec:
    """Thin obstacle problem: dimension d = n+1 in {2,3}, grid spacing h,
    obstacle on the thin plane, even Dirichlet data on the sphere, smoothness
    parameters (k, gamma) of the obstacle class, optional right-hand side."""

    dimension: int
    h: float
    obstacle: object = None            # callable on (n)-points, or None
    boundary: object = 0.0             # callable on (d)-points (sphere data)
    k: int = 2
    gamma: float = 0.5
    rhs: object = None                 # callable on (d)-points, or None
    tol: float = 1e-10
    max_sweeps: int = 200_000          # cap on outer active-set iterations

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        res = round(1.0 / self.h)
        if res < 16 or abs(res * self.h - 1.0) > 1e-9:
            raise ValueError(
                f"h must be 1/res with res >= 16 (h={self.h}); "
                "need at least 32 nodes per diameter")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if isinstance(self.obstacle, (dict, int, float)):
            self.obstacle = make_field(self.obstacle, self.n)
        if isinstance(self.boundary, (dict, int, float)):
            self.boundary = make_field(self.boundary, self.dimension)
        if isinstance(self.rhs, (dict, int, float)):
            self.rhs = make_field(self.rhs, self.dimension)

    @property
    def n(self) -> int:
        return self.dimension - 1

    @property
    def resolution(self) -> int:
        return round(1.0 / self.h)

    def to_config(self) -> dict:
        return {
            "dimension": self.dimension, "h": self.h,
            "obstacle": field_config(self.obstacle),
            "boundary": field_config(self.boundary),
            "k": self.k, "gamma": self.gamma,
            "rhs": field_config(self.rhs),
            "tol": self.tol, "max_sweeps": self.max_sweeps,
        }

    @staticmethod
    def from_config(data: dict) -> "ProblemSpec":
        """Spec from a config; unknown keys (an old ``omega``) are ignored."""
        required = [key for key in ("dimension", "h") if key not in data]
        if required:
            raise ValueError(f"config missing required keys: {required}")
        return ProblemSpec(
            dimension=int(data["dimension"]), h=float(data["h"]),
            obstacle=make_field(data.get("obstacle"), int(data["dimension"]) - 1),
            boundary=make_field(data.get("boundary", 0.0), int(data["dimension"])),
            k=int(data.get("k", 2)), gamma=float(data.get("gamma", 0.5)),
            rhs=make_field(data.get("rhs"), int(data["dimension"])),
            tol=float(data.get("tol", 1e-10)),
            max_sweeps=int(data.get("max_sweeps", 200_000)),
        )

    @staticmethod
    def from_file(path) -> "ProblemSpec":
        return ProblemSpec.from_config(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Solution container
# ---------------------------------------------------------------------------

@dataclass
class GridSolution:
    """Solved state on the closed upper half-ball.

    ``values`` has one axis per horizontal coordinate plus the vertical axis
    last; index j on the last axis is height j*h.  Full-ball queries reflect
    the vertical coordinate, so even symmetry is exact by construction.
    """

    spec: ProblemSpec
    values: np.ndarray
    kind: np.ndarray                  # 0 frozen, 1 interior, 2 thin plane
    phi_thin: np.ndarray              # obstacle on the thin-plane nodes
    contact: np.ndarray               # bool over thin-plane nodes
    laplace_residual: float           # max |Au - b|, off-contact free nodes
    complementarity: np.ndarray       # min(u - phi, (Au - b)/2d), thin nodes
    sweeps: int                       # outer active-set iterations
    converged: bool                   # KKT conditions hold
    runtime: float
    cg_iterations: int | None = None  # inner iterations; None if not recorded

    @property
    def h(self) -> float:
        return self.spec.h

    def axes(self) -> list[np.ndarray]:
        return _lattice_axes(self.spec)

    def thin_points(self) -> np.ndarray:
        """Coordinates of the thin-plane nodes, shape (prod, n), in the ravel
        order of ``values[..., 0]``."""
        return _mesh_points(self.axes()[:-1])

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation; even reflection in the last coordinate.
        A point outside the lattice, or with a NaN coordinate, raises
        ValueError."""
        pts = np.asarray(points, dtype=float)
        rows = pts.reshape(-1, pts.shape[-1])
        out = np.empty(rows.shape[0])
        for start in range(0, rows.shape[0], _READ_BLOCK):
            block = slice(start, start + _READ_BLOCK)
            out[block] = _multilinear(self.values, self.h, rows[block])
        out = out.reshape(pts.shape[:-1])
        return out[()] if pts.ndim == 1 else out

    def max_error_vs(self, exact) -> float:
        """Sup-norm against a callable over the free (non-frozen) nodes."""
        pts = _mesh_points(self.axes())
        free = self.kind.ravel() > 0
        vals = np.asarray(exact(pts[free]), dtype=float)
        return float(np.max(np.abs(self.values.ravel()[free] - vals)))

    def stats(self) -> dict:
        return {
            "method": "pdas-mgpcg",
            "sweeps": self.sweeps, "cg_iterations": self.cg_iterations,
            "converged": self.converged, "runtime_seconds": self.runtime,
            "laplace_residual": self.laplace_residual,
            "complementarity_max": float(np.max(np.abs(self.complementarity)))
            if self.complementarity.size else 0.0,
            "contact_nodes": int(np.count_nonzero(self.contact)),
        }

    # -- persistence --------------------------------------------------------

    def dump(self, base_path) -> tuple[Path, Path]:
        """Write <base>.bin (flat little-endian arrays) + <base>.json header."""
        base = Path(base_path)
        arrays = {
            "values": np.ascontiguousarray(self.values, dtype="<f8"),
            "kind": np.ascontiguousarray(self.kind, dtype="i1"),
            "phi_thin": np.ascontiguousarray(self.phi_thin, dtype="<f8"),
            "contact": np.ascontiguousarray(self.contact, dtype="i1"),
            "complementarity": np.ascontiguousarray(self.complementarity,
                                                    dtype="<f8"),
        }
        blob = b"".join(a.tobytes() for a in arrays.values())
        fields, offset = {}, 0
        for name, a in arrays.items():
            fields[name] = {"offset": offset, "dtype": str(a.dtype),
                            "shape": list(a.shape)}
            offset += a.nbytes
        bin_path = base.with_suffix(".bin")
        bin_path.write_bytes(blob)
        header = {
            "format": "thin-epi-solution-v1",
            "binary_file": bin_path.name,
            "binary_sha256": hashlib.sha256(blob).hexdigest(),
            "fields": fields,
            "spec": self.spec.to_config(),
            "stats": self.stats(),
        }
        json_path = base.with_suffix(".json")
        json_path.write_text(json.dumps(header, indent=2, sort_keys=True))
        return bin_path, json_path


def load_solution(base_path) -> GridSolution:
    base = Path(base_path)
    header = json.loads(base.with_suffix(".json").read_text())
    if header.get("format") != "thin-epi-solution-v1":
        raise ValueError(f"unrecognized solution format in {base}.json")
    blob = (base.parent / header["binary_file"]).read_bytes()
    if hashlib.sha256(blob).hexdigest() != header["binary_sha256"]:
        raise ValueError("solution binary does not match its recorded hash")
    arrays = {}
    for name, meta in header["fields"].items():
        dt = np.dtype(meta["dtype"])
        count = int(np.prod(meta["shape"])) if meta["shape"] else 1
        start = meta["offset"]
        arrays[name] = np.frombuffer(
            blob, dtype=dt, count=count, offset=start).reshape(meta["shape"]).copy()
    spec = ProblemSpec.from_config(header["spec"])
    stats = header["stats"]
    return GridSolution(
        spec=spec, values=arrays["values"], kind=arrays["kind"],
        phi_thin=arrays["phi_thin"], contact=arrays["contact"].astype(bool),
        laplace_residual=stats["laplace_residual"],
        complementarity=arrays["complementarity"],
        sweeps=stats["sweeps"], converged=stats["converged"],
        runtime=stats["runtime_seconds"],
        cg_iterations=stats.get("cg_iterations"),
    )


# ---------------------------------------------------------------------------
# Assembly and solve
# ---------------------------------------------------------------------------

def _lattice_axes(spec: ProblemSpec) -> list[np.ndarray]:
    """Node coordinates along each axis of the half-ball lattice: n
    horizontal axes over [-1, 1], then the vertical axis over [0, 1], whose
    index 0 is the thin plane."""
    res = spec.resolution
    horiz = np.arange(-res, res + 1) * spec.h
    return [horiz] * spec.n + [horiz[res:]]


# Points per block of a field read.  One block's temporaries, about 90 bytes
# a point, stay below the free size at which the allocator hands memory back
# to the system; reading 2^15 points at once handed it back and faulted it in
# again on every call (15.5k against 2.3k minor page faults in one round of
# the benchmark's field reads).
_READ_BLOCK = 2 ** 12


def _multilinear(values, h, points) -> np.ndarray:
    """Multilinear interpolation of the half-ball lattice ``values`` (step
    ``h``) at ``points``, one per row, folded to |x_d| in the last
    coordinate: the cell floor((x - x0) / h) on each axis, then the 2^d
    corner values of the cell by their offsets in the flat array."""
    res = values.shape[-1] - 1
    coords = points.T.copy()                          # a row per axis
    np.abs(coords[-1], out=coords[-1])
    first = np.array([-res * h] * (values.ndim - 1) + [0.0])[:, None]
    inside = (coords >= first) & (coords <= res * h)
    if not inside.all():                              # NaN is outside too
        raise ValueError("a requested point is out of bounds in dimension "
                         f"{int(np.argmin(inside.all(axis=1)))}")
    coords -= first
    coords /= h
    cell = np.floor(coords)
    np.minimum(cell, np.array(values.shape)[:, None] - 2, out=cell)
    upper = coords
    upper -= cell
    lower = 1.0 - upper
    strides = [math.prod(values.shape[i + 1:]) for i in range(values.ndim)]
    base = np.dot(strides, cell.astype(np.intp))
    flat = values.ravel()
    out = None
    for corner in itertools.product((0, 1), repeat=values.ndim):
        weight = (upper if corner[0] else lower)[0]
        for i in range(1, values.ndim):
            weight = weight * (upper if corner[i] else lower)[i]
        offset = sum(c * stride for c, stride in zip(corner, strides))
        term = flat[offset:][base]
        term *= weight
        out = term if out is None else np.add(out, term, out=out)
    return out


def _mesh_points(axes) -> np.ndarray:
    """Points of the tensor grid on ``axes``, one row per node in ravel
    order."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _assemble(spec: ProblemSpec):
    axes = _lattice_axes(spec)
    pts = _mesh_points(axes)
    d = spec.dimension
    shape = tuple(axis.size for axis in axes)
    rad = np.linalg.norm(pts, axis=1).reshape(shape)

    kind = np.ones(shape, dtype=np.int8)
    kind[rad >= 1.0 - 1e-12] = 0
    thin_free = (kind[..., 0] == 1)
    kind[..., 0][thin_free] = 2

    u = np.zeros(shape)
    frozen = kind == 0
    proj = pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-300)
    g = spec.boundary if spec.boundary is not None else _ConstantField(0.0)
    u[frozen] = np.asarray(g(proj.reshape(shape + (d,))[frozen]), dtype=float)

    thin_shape = shape[:-1]
    if spec.obstacle is None:
        phi = np.full(thin_shape, NEG_INF)
    else:
        phi = np.asarray(spec.obstacle(_mesh_points(axes[:-1])),
                         dtype=float).reshape(thin_shape)

    if spec.rhs is None:
        f = np.zeros(shape)
    else:
        f = np.asarray(spec.rhs(pts), dtype=float).reshape(shape)

    # feasible start: harmonic guess 0 lifted to the obstacle on the plane
    thin_sel = kind[..., 0] == 2
    u[..., 0][thin_sel] = np.maximum(u[..., 0][thin_sel], phi[thin_sel])
    return u, kind, phi, f


def _links(d, ax):
    """Index pairs (lower, upper end) of the lattice links along axis ``ax``
    of the last ``d`` axes."""
    tail = (slice(None),) * (d - 1 - ax)
    return ((Ellipsis, slice(None, -1)) + tail,
            (Ellipsis, slice(1, None)) + tail)


def _neighbor_sum(a):
    """Sum of the lattice neighbours of every node (missing ones count 0)."""
    total = np.zeros_like(a)
    for ax in range(a.ndim):
        lo, hi = _links(a.ndim, ax)
        total[lo] += a[hi]
        total[hi] += a[lo]
    return total


def _stencil(x, d, out=None):
    """The symmetric system operator on the last ``d`` axes of ``x``: 2d x
    minus the lattice neighbours (missing ones count 0), with the upper
    neighbour counted twice on the thin row and that row halved.  So it is
    the Laplacian of the lattice links, weight 1/2 inside the thin plane and
    1 elsewhere."""
    out = np.multiply(x, 2.0 * d, out=out)
    for ax in range(d):
        lo, hi = _links(d, ax)
        below, above = out[lo], out[hi]
        np.subtract(below, x[hi], out=below)
        np.subtract(above, x[lo], out=above)
    thin = out[..., 0]
    np.subtract(thin, x[..., 1], out=thin)
    thin *= 0.5
    return out


def _dot(a, b) -> float:
    """Inner product by numpy's pairwise sum, the same bits on any number of
    BLAS threads."""
    return float(np.add.reduce((a * b).ravel()))


# ---------------------------------------------------------------------------
# Multigrid V-cycle on the half-ball lattice
# ---------------------------------------------------------------------------

_COARSEST_UNKNOWNS = 64      # the V-cycle solves densely at or below this


def _coarse_nodes(shape):
    """Every other node along each axis, through the origin: the horizontal
    axes have 2R+1 nodes with the origin at R, the vertical axis starts at
    the thin plane, so odd R coarsen too."""
    return tuple(slice(n // 2 % 2, None, 2) for n in shape[:-1]) \
        + (slice(0, None, 2),)


def _along(ax, start, stop, step=None):
    return (slice(None),) * ax + (slice(start, stop, step),)


def _prolong(coarse, shape):
    """Linear interpolation from the coarse lattice onto the lattice of
    ``shape``, one axis at a time; fine nodes outside the coarse span (the
    frozen edges) get 0."""
    starts = _coarse_nodes(shape)
    for ax, n in enumerate(shape):
        m, start = coarse.shape[ax], starts[ax].start
        fine = np.zeros(coarse.shape[:ax] + (n,) + coarse.shape[ax + 1:])
        fine[_along(ax, start, start + 2 * m - 1, 2)] = coarse
        mid = fine[_along(ax, start + 1, start + 2 * m - 2, 2)]
        np.add(coarse[_along(ax, None, -1)], coarse[_along(ax, 1, None)],
               out=mid)
        mid *= 0.5
        coarse = fine
    return coarse


def _restrict(fine, shape):
    """The transpose of ``_prolong`` onto the coarse lattice of ``shape``."""
    starts = _coarse_nodes(fine.shape)
    for ax, m in enumerate(shape):
        start = starts[ax].start
        coarse = fine[_along(ax, start, start + 2 * m - 1, 2)].copy()
        half = 0.5 * fine[_along(ax, start + 1, start + 2 * m - 2, 2)]
        coarse[_along(ax, None, -1)] += half
        coarse[_along(ax, 1, None)] += half
        fine = coarse
    return fine


class _Level:
    """One lattice of the V-cycle.  Its unknowns are ``keep`` (1.0 on them,
    0.0 elsewhere), its operator is the stencil times ``scale``, and
    ``jacobi`` is the damped Jacobi factor omega / diagonal on the unknowns,
    omega = 2d / (2d + 1)."""

    def __init__(self, unknown, scale, d):
        self.d = d
        self.keep = unknown.astype(float)
        self.scaled = scale * self.keep
        self.jacobi = self.keep / ((2 * d + 1) * scale)
        self.jacobi[..., 0] *= 2.0          # the thin row's diagonal is d
        self.work = np.empty(unknown.shape)

    def apply(self, x, out):
        """The level's operator on ``x``, which is 0 off the unknowns."""
        return np.multiply(_stencil(x, self.d, out), self.scaled, out=out)

    def smooth(self, x, r):
        """One damped Jacobi step on A x = r, in place."""
        t = self.apply(x, self.work)
        np.subtract(r, t, out=t)
        t *= self.jacobi
        x += t


class _VCycle:
    """Symmetric V(1,1)-cycle preconditioner for the stencil on the lattice
    nodes ``unknown`` (Tatebe 1993).  Each coarser level takes every other
    node; its unknowns are the finer unknowns it keeps, so nodes held on the
    obstacle or frozen get no correction (truncation, as in Kornhuber 1994).
    Its operator is the stencil again, scaled by 2^(d-2) per level, the
    Galerkin scaling of the linear transfers, which restrict by the
    transpose of the prolongation.  At or below _COARSEST_UNKNOWNS unknowns
    the level is solved densely."""

    def __init__(self, unknown, d):
        self.levels, scale = [], 1.0
        while True:
            self.levels.append(_Level(unknown, scale, d))
            if np.count_nonzero(unknown) <= _COARSEST_UNKNOWNS:
                break
            unknown = unknown[_coarse_nodes(unknown.shape)]
            scale *= 2.0 ** (d - 2)
        self.index = np.flatnonzero(unknown)
        columns = np.zeros((self.index.size, unknown.size))
        columns[np.arange(self.index.size), self.index] = 1.0
        dense = _stencil(columns.reshape((-1,) + unknown.shape), d)
        self.inverse = np.linalg.inv(
            scale * dense.reshape(self.index.size, -1)[:, self.index])

    def __call__(self, r, depth=0):
        level = self.levels[depth]
        if depth == len(self.levels) - 1:
            x = np.zeros(r.shape)
            x.reshape(-1)[self.index] = np.add.reduce(
                self.inverse * r.reshape(-1)[self.index], axis=1)
            return x
        x = level.jacobi * r
        t = level.apply(x, level.work)
        np.subtract(r, t, out=t)
        coarse = self.levels[depth + 1].keep
        correction = self(_restrict(t, coarse.shape) * coarse, depth + 1)
        x += _prolong(correction, r.shape) * level.keep
        level.smooth(x, r)
        return x


def _pcg(u, r, vcycle, atol) -> int:
    """Conjugate gradients preconditioned by ``vcycle`` on its finest
    unknowns of the lattice array ``u``, in place, from the residual ``r`` =
    b - A u there (0 elsewhere); stops when the 2-norm of the residual falls
    below ``atol`` or after 10 iterations per unknown, and returns how many
    ran."""
    fine = vcycle.levels[0]
    maxiter = 10 * np.count_nonzero(fine.keep)
    q = np.empty(r.shape)
    for iteration in range(maxiter):
        if math.sqrt(_dot(r, r)) < atol:
            return iteration
        z = vcycle(r)
        rho = _dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        fine.apply(p, q)
        alpha = rho / _dot(p, q)
        u += alpha * p
        r -= alpha * q
        rho_prev = rho
    return maxiter


@dataclass(frozen=True)
class _Step:
    """One PDAS iteration: the lattice values, the nodes held on the
    obstacle, whether the rule gives that set again (the end), the earlier
    iteration whose set it gives instead (a cycle, also the end) and the
    conjugate-gradient iterations of the inner solve."""

    u: np.ndarray
    active: np.ndarray
    repeated: bool
    revisits: int | None
    cg_iterations: int


def _pdas(u, free, obstacle, forcing, tol):
    """Primal-dual active set iterates for the free nodes of the lattice
    array ``u`` (the others are fixed), u >= obstacle (NEG_INF where
    unconstrained), from ``u``; A u - b = stencil(u) + ``forcing`` on the
    free nodes.  Each inner solve ends 1e-3 below ``tol``, the KKT bound.
    The next active set is where lambda > u - obstacle (lambda = A u - b on
    the active set, 0 off it); the iterates end when it repeats, or when it
    is the set of an earlier iteration."""
    d = u.ndim
    active = free & (_stencil(u, d) + forcing > u - obstacle)
    seen = {}
    for number in itertools.count(1):
        u = np.where(active, obstacle, u)
        vcycle = _VCycle(free & ~active, d)
        residual = -(_stencil(u, d) + forcing) * vcycle.levels[0].keep
        iterations = _pcg(u, residual, vcycle, 1e-3 * tol)
        multiplier = np.where(active, _stencil(u, d) + forcing, 0.0)
        following = free & (multiplier > u - obstacle)
        repeated = np.array_equal(following, active)
        seen[np.packbits(active).tobytes()] = number
        revisits = None if repeated else seen.get(
            np.packbits(following).tobytes())
        yield _Step(u, active, repeated, revisits, iterations)
        if repeated or revisits is not None:
            return
        active = following


def solve_thin_obstacle(spec: ProblemSpec) -> GridSolution:
    """PDAS solve from the obstacle-lifted start, at most ``max_sweeps``
    iterations; ``converged`` certifies KKT: the active set repeated, |Au - b|
    <= tol off it, u >= phi, and a multiplier >= -tol on it."""
    t0 = time.perf_counter()
    u, kind, phi, f = _assemble(spec)
    free = kind > 0
    thin_sel = kind[..., 0] == 2
    obstacle = np.full(u.shape, NEG_INF)
    obstacle[..., 0] = phi
    forcing = spec.h ** 2 * f
    forcing[..., 0] *= 0.5

    cg_iterations = 0
    for sweeps, step in enumerate(itertools.islice(
            _pdas(u, free, obstacle, forcing, spec.tol), spec.max_sweeps),
            start=1):
        cg_iterations += step.cg_iterations
    u, repeated = step.u, step.repeated

    # residual of the 2d-point stencil on the lattice, apart from A; at
    # contact it is the multiplier
    nbrs = _neighbor_sum(u)
    nbrs[..., 0] += u[..., 1]
    resid = 2 * spec.dimension * u - nbrs + spec.h ** 2 * f
    slack = u[..., 0] - phi
    on_obstacle = step.active
    kkt = float(np.max(np.abs(resid[free & ~on_obstacle]), initial=0.0))
    converged = bool(repeated and kkt <= spec.tol
                     and np.min(slack[thin_sel], initial=0.0) >= 0.0
                     and np.min(resid[on_obstacle], initial=0.0) >= -spec.tol)
    if not converged:
        if repeated:
            stop = "active set repeated"
        elif step.revisits is None:
            stop = f"iteration cap {spec.max_sweeps}"
        else:
            stop = (f"active set of iteration {step.revisits} revisited, "
                    f"a cycle of {sweeps + 1 - step.revisits} iterations")
        warnings.warn(
            f"PDAS stopped at {sweeps} iterations ({stop}) with residual "
            f"{kkt:.3e} (tol {spec.tol:.3e})", stacklevel=2)

    contact = thin_sel & (slack <= 10.0 * spec.tol)
    off_contact = free.copy()
    off_contact[..., 0] &= ~contact
    return GridSolution(
        spec=spec, values=u, kind=kind, phi_thin=phi, contact=contact,
        laplace_residual=float(np.max(np.abs(resid[off_contact]),
                                      initial=0.0)),
        complementarity=np.minimum(slack, resid[..., 0] / (2 * spec.dimension))
        [thin_sel],
        sweeps=sweeps, converged=converged,
        runtime=time.perf_counter() - t0, cg_iterations=cg_iterations,
    )


# ---------------------------------------------------------------------------
# Contact set
# ---------------------------------------------------------------------------

def contact_set(sol: GridSolution):
    """(contact mask over thin-plane nodes, free-boundary node index list).

    The mask is the solution's ``contact``: nodes with u - phi <= 10 tol,
    tol the solver tolerance; the boundary list contains contact nodes with
    at least one non-contact neighbor in the thin-plane grid topology (the
    discrete free boundary).
    """
    thin_sel = sol.kind[..., 0] == 2
    mask = sol.contact
    near_open = _neighbor_sum((thin_sel & ~mask).astype(float)) > 0
    boundary = [tuple(int(i) for i in idx)
                for idx in np.argwhere(mask & near_open)]
    return mask, boundary


# ---------------------------------------------------------------------------
# Reduction to zero obstacle
# ---------------------------------------------------------------------------

def _shift_coeffs(coeffs: dict, nvars: int, x0) -> dict:
    """Coefficients of t -> p(x0 + t) for p given by its coefficients."""
    out: dict[tuple[int, ...], float] = {}
    for e, c in coeffs.items():
        partial = {(0,) * nvars: c}
        for v, kv in enumerate(e):
            new: dict[tuple[int, ...], float] = {}
            for j in range(kv + 1):
                b = math.comb(kv, j) * x0[v] ** (kv - j)
                for ee, cc in partial.items():
                    e2 = list(ee)
                    e2[v] += j
                    e2 = tuple(e2)
                    new[e2] = new.get(e2, 0.0) + cc * b
            partial = new
        for ee, cc in partial.items():
            out[ee] = out.get(ee, 0.0) + cc
    return out


def taylor_polynomial(p: Polynomial, x0, k: int) -> Polynomial:
    """Degree-k Taylor polynomial of p at x0, expressed in the original
    coordinates."""
    x0 = np.asarray(x0, dtype=float)
    # expand p(x0 + t) and keep total degree <= k in t
    shifted = _shift_coeffs(p.coeffs, p.nvars, x0)
    trunc = {e: c for e, c in shifted.items() if sum(e) <= k}
    # translate back: q(x) = trunc(x - x0)
    return Polynomial(p.nvars, _shift_coeffs(trunc, p.nvars, -x0))


@dataclass
class ReducedProblem:
    """Zero-obstacle normal form around a thin-plane point."""

    x0: np.ndarray
    v_values: np.ndarray               # same layout as GridSolution.values
    h_poly: Polynomial                 # right-hand side, horizontal variables
    q_k: Polynomial                    # Taylor polynomial of the obstacle
    q_tilde: Polynomial                # its even harmonic extension
    c_empirical: float                 # sup |h| / |x-x0|^(k+gamma-2)
    spec: ProblemSpec

    def v_solution(self, base: GridSolution) -> GridSolution:
        """Wrap v in a GridSolution sharing the parent's grid metadata and
        contact set: on the thin plane v = u - phi, the parent's slack."""
        return GridSolution(
            spec=self.spec, values=self.v_values, kind=base.kind,
            phi_thin=np.zeros_like(base.phi_thin), contact=base.contact,
            laplace_residual=base.laplace_residual,
            complementarity=base.complementarity,
            sweeps=base.sweeps, converged=base.converged, runtime=base.runtime,
            cg_iterations=base.cg_iterations,
        )

    def h_field(self):
        """h as a field on ball points (depends on horizontal coordinates)."""
        poly = self.h_poly

        def h_eval(points):
            pts = np.asarray(points, dtype=float)
            return poly(pts[..., : poly.nvars])

        return h_eval


def reduce_to_zero_obstacle(sol: GridSolution, spec: ProblemSpec | None = None,
                            x0=None) -> ReducedProblem:
    """Normal form v = u - phi(x') + q_k(x') - qtilde_k(x) with right-hand
    side h = -Lap_horizontal(phi - q_k); v has zero obstacle and v = u - phi
    on the thin plane."""
    if spec is None:
        spec = sol.spec
    n = spec.n
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float)
    phi = spec.obstacle
    if phi is None:
        phi = Polynomial.zero(n)
    if not isinstance(phi, Polynomial):
        raise ValueError(
            "reduction requires Taylor data: obstacle must be a Polynomial")

    q_k = taylor_polynomial(phi, x0, spec.k)
    q_tilde = even_harmonic_extension(q_k)
    lap = q_tilde.laplacian()
    if not lap.is_zero(tol=1e-10 * max(
            (abs(c) for c in q_tilde.coeffs.values()), default=1.0)):
        raise AssertionError("even harmonic extension failed to be harmonic")

    pts = _mesh_points(_lattice_axes(spec))
    shape = sol.values.shape
    correction = (phi(pts[:, :n]) - q_k(pts[:, :n]) + q_tilde(pts)).reshape(shape)
    v = sol.values - correction
    # on the thin plane the correction reduces to phi - q_k + q_k = phi,
    # so v = u - phi >= 0 there up to solver tolerance
    h_poly = (phi - q_k).laplacian().scale(-1.0)

    thin = sol.thin_points()
    dist = np.linalg.norm(thin - x0, axis=1)
    hvals = np.abs(h_poly(thin))
    power = spec.k + spec.gamma - 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dist > 0, hvals / np.maximum(dist, 1e-300) ** power, 0.0)
    c_emp = float(np.max(ratio)) if ratio.size else 0.0

    return ReducedProblem(x0=x0, v_values=v, h_poly=h_poly, q_k=q_k,
                          q_tilde=q_tilde, c_empirical=c_emp, spec=spec)


def zero_obstacle_field(sol: GridSolution, spec: ProblemSpec | None = None,
                        x0=None) -> GridSolution:
    """The field the frequency diagnostics read about the thin point x0:
    the zero-obstacle normal form when the obstacle is a nonzero
    Polynomial, otherwise ``sol`` itself."""
    obstacle = (spec or sol.spec).obstacle
    if isinstance(obstacle, Polynomial) and not obstacle.is_zero():
        return reduce_to_zero_obstacle(sol, spec, x0).v_solution(sol)
    return sol
