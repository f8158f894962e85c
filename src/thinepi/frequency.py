"""Scale analysis of solutions: surface moments, truncated frequency,
mu-homogeneous rescalings v(x0 + r.)/r^mu and their scale energy, energy
monotonicity along scales, blow-up fitting, and contact stratification.

All routines act on *fields*: callables mapping arrays of ambient points to
values.  A solved grid state is adapted through its interpolating evaluator;
exact constructions (catalog profiles, separated-variables modes, sums) are
used directly.  Quadrature over centered spheres uses the same sphere grids
as the spectral machinery.  Every sphere read goes through ``_on_spheres``:
one evaluation per block of radii and, for an exactly even field about a
center on the thin plane, one node of each mirror pair of the sphere grid.
Radius ladders are read through ``_read_ladder``, whole rungs at a time and
at most ``_READ_POINTS`` points per evaluation.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from dataclasses import replace as dc_replace

from .grids import SphereGrid, build_grid, radial_rule, radii_ladder
from .polynomials import Polynomial, monomials_of_degree
from .profiles import BlowupProfile, HalfspaceSolution2D, \
    _profile_from_slope, operator_T, verify_admissible, zero_set
from .solver import GridSolution, zero_obstacle_field
from .traces import SphericalTrace, TraceColumns
from .weiss import weiss_rows

_GRID_CACHE: dict = {}

# Points per field evaluation of a ladder read.  About the size of the
# largest single sphere read (the 48-sphere radial rule of linfty_l2_check),
# so blocked ladder reads add little to the peak memory, where reading a
# whole ladder in one evaluation adds much more.
_READ_POINTS = 1 << 15


def default_sphere(n: int, resolution: int | None = None) -> SphereGrid:
    """Shared quadrature sphere for moment integrals."""
    if resolution is None:
        resolution = 2048 if n == 1 else 32
    key = (n, resolution)
    if key not in _GRID_CACHE:
        kind = "circle" if n == 1 else "latlong"
        _GRID_CACHE[key] = build_grid(n, resolution, kind=kind)
    return _GRID_CACHE[key]


def _diagnostic_sphere(n: int) -> SphereGrid:
    """Sphere of the scale diagnostics (rescalings, energies, fits): 1024
    circle nodes for n = 1, the moment sphere otherwise."""
    return default_sphere(n, 1024 if n == 1 else None)


@dataclass
class FieldAdapter:
    """Uniform access to a field: evaluator, dimension, reachable radius,
    (for grid-backed fields) the mesh width, and whether the field is exactly
    even in the last coordinate: it folds |x_d| before anything else, so a
    point and its mirror image give the same bits."""

    evaluate: object
    dimension: int
    r_max: float
    h: float | None
    even: bool

    @staticmethod
    def adapt(v, dimension: int | None = None) -> "FieldAdapter":
        if isinstance(v, FieldAdapter):
            return v
        if isinstance(v, GridSolution):
            return FieldAdapter(evaluate=v.evaluate, dimension=v.spec.dimension,
                                r_max=1.0, h=v.spec.h, even=True)
        if isinstance(v, BlowupProfile):
            return FieldAdapter(evaluate=v, dimension=v.n + 1,
                                r_max=math.inf, h=None, even=True)
        if isinstance(v, HalfspaceSolution2D):
            return FieldAdapter(evaluate=v, dimension=2,
                                r_max=math.inf, h=None, even=True)
        if callable(v):
            if dimension is None:
                raise ValueError(
                    "plain callables need an explicit dimension or a "
                    "full-coordinate center")
            return FieldAdapter(evaluate=v, dimension=dimension,
                                r_max=math.inf, h=None, even=False)
        raise TypeError(f"cannot adapt {type(v).__name__} as a field")


def _adapt(v, x0=None, dimension: int | None = None) -> FieldAdapter:
    """Adapt a field, inferring the ambient dimension from the center when
    needed.  Plain callables must be given the full ambient center."""
    if dimension is None and x0 is not None:
        dimension = int(np.atleast_1d(np.asarray(x0)).size)
    return FieldAdapter.adapt(v, dimension=dimension)


def _center(x0, d: int) -> np.ndarray:
    if x0 is None:
        return np.zeros(d)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size == d - 1:                      # thin-plane coordinates
        x0 = np.append(x0, 0.0)
    if x0.size != d:
        raise ValueError(f"center has {x0.size} coordinates, expected {d}")
    return x0


def _check_reach(adapter: FieldAdapter, x0: np.ndarray, radius: float):
    if not math.isfinite(adapter.r_max):
        return
    if float(np.linalg.norm(x0)) + radius > adapter.r_max - 2.0 * (adapter.h or 0.0):
        raise ValueError(
            f"radius {radius:.4g} around |x0|={np.linalg.norm(x0):.4g} leaves "
            f"the computational domain (limit {adapter.r_max})")
    if adapter.h is not None and radius < 3.0 * adapter.h:
        raise ValueError(
            f"radius {radius:.4g} too small for the grid (needs >= 3h = "
            f"{3 * adapter.h:.4g})")


def _sphere_nodes(adapter: FieldAdapter, center: np.ndarray,
                  sphere: SphereGrid | np.ndarray):
    """(nodes, spread): the unit vectors a sphere read evaluates and, when
    it evaluates one node of each mirror pair, the index map that fills in
    every node from them (None otherwise).

    An even field about a center on the thin plane takes the same bits at a
    grid node and at its ``reflect`` partner, so on a whole grid only one
    node of each mirror pair is evaluated.
    """
    if not isinstance(sphere, SphereGrid):
        return sphere, None
    if adapter.even and center[-1] == 0.0:
        representatives, spread = sphere.mirror_halves
        return sphere.nodes[representatives], spread
    return sphere.nodes, None


def _on_spheres(adapter: FieldAdapter, center: np.ndarray, radii,
                sphere: SphereGrid | np.ndarray) -> np.ndarray:
    """Field values at center + r * u, one row per radius r, for the unit
    vectors u of ``sphere``: the nodes of a whole grid, or an array of
    directions.  All radii are read in one evaluation, at the nodes that
    ``_sphere_nodes`` picks.
    """
    radii = np.asarray(radii, dtype=float)
    nodes, spread = _sphere_nodes(adapter, center, sphere)
    points = center + radii[:, None, None] * nodes
    values = np.asarray(adapter.evaluate(points.reshape(-1, center.size)),
                        dtype=float).reshape(radii.size, nodes.shape[0])
    return values if spread is None else values[:, spread]


def _read_ladder(adapter: FieldAdapter, center: np.ndarray, rungs,
                 sphere: SphereGrid | np.ndarray):
    """Yield the ``_on_spheres`` rows of each rung of a radius ladder, given
    as an array with one row of radii per rung.  Whole rungs are read
    together, as many per evaluation as fit in ``_READ_POINTS`` evaluated
    points (at least one rung)."""
    rungs = np.asarray(rungs, dtype=float)
    nodes, _ = _sphere_nodes(adapter, center, sphere)
    step = max(1, _READ_POINTS // (rungs.shape[1] * nodes.shape[0]))
    for start in range(0, rungs.shape[0], step):
        block = rungs[start:start + step]
        yield from _on_spheres(adapter, center, block.ravel(),
                               sphere).reshape(block.shape + (-1,))


def _sphere_slopes(adapter: FieldAdapter, x0: np.ndarray, radii,
                   grid: SphereGrid):
    """Yield, for each radius r of a ladder, r, the values on the sphere of
    radius r about x0 and their radial derivative: a central difference
    over the spheres r - dr and r + dr, with dr = h/2 on a grid field and
    1e-4 r otherwise.  The reach of every rung is checked before the first
    read."""
    radii = np.asarray(radii, dtype=float)
    dr = (np.full(radii.shape, adapter.h / 2.0) if adapter.h is not None
          else 1e-4 * radii)
    for r, d in zip(radii, dr):
        _check_reach(adapter, x0, float(r + d))
    rungs = np.stack([radii, radii + dr, radii - dr], axis=1)
    for r, d, (vals, vp, vm) in zip(radii, dr,
                                    _read_ladder(adapter, x0, rungs, grid)):
        yield float(r), vals, (vp - vm) / (2.0 * d)


def _shell_sup_distance(values: np.ndarray, r: float, mu: float, shells,
                        p_trace: np.ndarray) -> float:
    """Sup over the shells s and the grid nodes of |v_r - s^mu p|, where
    v_r(x) = v(x0 + r x) / r^mu, from the field values on the spheres of
    radius r * s about x0, and p has trace p_trace on the unit sphere."""
    vr = values / r ** mu
    return max((float(np.max(np.abs(v - s ** mu * p_trace)))
                for s, v in zip(shells, vr)), default=0.0)


# ---------------------------------------------------------------------------
# Surface moments and truncated frequency
# ---------------------------------------------------------------------------

def _surface_moments(adapter: FieldAdapter, x0: np.ndarray, radii,
                     grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """(H, I) per ladder radius r: the squared-trace integral and the
    trace/normal-derivative pairing on the sphere of radius r about x0, by
    sphere quadrature with a central radial difference."""
    n = adapter.dimension - 1
    H = np.empty(len(radii))
    I = np.empty(len(radii))
    for i, (r, vals, dv) in enumerate(_sphere_slopes(adapter, x0, radii,
                                                     grid)):
        scale = r ** n
        H[i] = scale * float(grid.weights @ (vals * vals))
        I[i] = scale * float(grid.weights @ (vals * dv))
    return H, I


def surface_moments(v, x0, r: float) -> tuple[float, float]:
    """(H, I) on the sphere of radius r about x0, on the moment sphere: the
    squared-trace integral and the trace/normal-derivative pairing."""
    adapter = _adapt(v, x0)
    d = adapter.dimension
    x0 = _center(x0, d)
    H, I = _surface_moments(adapter, x0, (r,), default_sphere(d - 1))
    return float(H[0]), float(I[0])


@dataclass
class FrequencyParams:
    """Truncation parameters: theta defaults to gamma/2, the truncation
    prefactor c_phi to 10."""

    theta: float | None = None
    c_phi: float = 10.0
    k: int = 2
    gamma: float = 0.5

    def resolved_theta(self) -> float:
        th = self.gamma / 2.0 if self.theta is None else self.theta
        if not 0.0 < th < self.gamma:
            raise ValueError(
                f"theta must lie in (0, gamma)=(0,{self.gamma}), got {th}")
        return th


@dataclass
class FrequencyProfile:
    """Radius-indexed frequency diagnostics around one center."""

    x0: np.ndarray
    n: int
    radii: np.ndarray                 # strictly decreasing
    H: np.ndarray
    I: np.ndarray
    Phi: np.ndarray
    truncation_active: np.ndarray
    theta: float
    c_phi: float
    k: int
    gamma: float
    violations: list = field(default_factory=list)   # (radius, drop) pairs

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        if np.any(np.diff(self.radii) >= 0):
            raise ValueError("radii ladder must be strictly decreasing")
        if np.any(np.asarray(self.H) < 0):
            raise ValueError("surface moment H must be nonnegative")
        if not np.all(np.isfinite(self.Phi)):
            raise ValueError("frequency entries must be finite")

    def normalized(self) -> np.ndarray:
        """Phi with the truncation prefactor divided out."""
        return self.Phi / (1.0 + self.c_phi * self.radii ** self.theta)

    def mu_estimate(self) -> float:
        """Median of (normalized Phi - n)/2 over the five smallest reliable
        radii."""
        reliable = ~self.truncation_active
        norm = self.normalized()[reliable]
        if norm.size == 0:
            raise ValueError("no reliable radii: truncation active everywhere")
        take = norm[-min(5, norm.size):]
        return float((np.median(take) - self.n) / 2.0)

    def max_violation(self) -> float:
        return max((drop for _, drop in self.violations), default=0.0)

    def rows(self) -> list[dict]:
        return [{"radius": float(r), "H": float(h), "I": float(i),
                 "Phi": float(p), "normalized": float(np_),
                 "truncated": bool(t)}
                for r, h, i, p, np_, t in zip(
                    self.radii, self.H, self.I, self.Phi, self.normalized(),
                    self.truncation_active)]


def truncated_frequency(v, x0, params: FrequencyParams | None = None,
                        radii=None, r_max: float | None = None,
                        count: int = 24,
                        grid: SphereGrid | None = None) -> FrequencyProfile:
    """Truncated frequency on a geometric radii ladder.

    Phi(r) = (r + c_phi r^(1+theta)) d/dr log max{H(r), r^(n+2(k+gamma-theta))},
    the log-derivative taken by centered differences in log r.  Radii where
    the power branch of the max is active are flagged.
    """
    params = params or FrequencyParams()
    theta = params.resolved_theta()
    adapter = _adapt(v, x0)
    d = adapter.dimension
    x0 = _center(x0, d)
    n = d - 1
    grid = grid or default_sphere(n)

    if radii is None:
        if r_max is None:
            reach = adapter.r_max if math.isfinite(adapter.r_max) else 1.0
            r_max = min(0.6, 0.85 * (reach - float(np.linalg.norm(x0))))
        radii = radii_ladder(r_max, count)[::-1]       # coarse to fine
    radii = np.asarray(radii, dtype=float)
    if adapter.h is not None:
        cap = adapter.r_max - float(np.linalg.norm(x0)) - 3.0 * adapter.h
        radii = radii[(radii >= 3.0 * adapter.h) & (radii <= cap)]
    if radii.size < 2:
        raise ValueError("need at least two usable ladder radii")

    H, I = _surface_moments(adapter, x0, radii, grid)

    power = n + 2.0 * (params.k + params.gamma - theta)
    floor = radii ** power
    M = np.maximum(H, floor)
    active = floor > H
    logM, logr = np.log(M), np.log(radii)
    dlog = np.empty(radii.size)
    dlog[1:-1] = (logM[:-2] - logM[2:]) / (logr[:-2] - logr[2:])
    dlog[0] = (logM[0] - logM[1]) / (logr[0] - logr[1])
    dlog[-1] = (logM[-2] - logM[-1]) / (logr[-2] - logr[-1])
    Phi = (1.0 + params.c_phi * radii ** theta) * dlog

    violations = []
    for i in range(radii.size - 1):
        drop = Phi[i + 1] - Phi[i]       # positive when Phi rises as r falls
        if drop > 0.0:
            violations.append((float(radii[i + 1]), float(drop)))

    return FrequencyProfile(x0=x0, n=n, radii=radii, H=H, I=I, Phi=Phi,
                            truncation_active=active, theta=theta,
                            c_phi=params.c_phi, k=params.k,
                            gamma=params.gamma, violations=violations)


# ---------------------------------------------------------------------------
# Homogeneous rescalings and their scale energy
# ---------------------------------------------------------------------------

@functools.cache
def _default_radii(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre radial rule on (0,1) plus a zero-weight node at r=1,
    built once per count and shared by every caller as read-only arrays."""
    r, w = radial_rule(count)
    radii, weights = np.append(r, 1.0), np.append(w, 0.0)
    for shared in (radii, weights):
        shared.flags.writeable = False
    return radii, weights


def _sampled_energy(values: np.ndarray, grid: SphereGrid, mu: float,
                    h) -> float:
    """W_mu of a function sampled on the ball, row k of ``values`` (R+1, N)
    at the k-th radius of ``_default_radii(R)`` (the last row is the
    boundary trace), plus int_B v h when a forcing field h is given.

    The polar product rule: radial derivatives are second-order
    differences, the angular part is the surface-gradient pairing at each
    radius, and the radial integrands r^n * profile(r) are integrated with
    the weights of ``_default_radii``.
    """
    radii, weights = _default_radii(values.shape[0] - 1)
    dva = np.gradient(values, radii, axis=0)
    ang_w = grid.weights
    cross = np.empty(radii.size)
    for k in range(radii.size):
        ta = SphericalTrace(grid, values[k])
        cross[k] = float(ang_w @ ta.gradient_dot(ta))
    radial_profile = (dva * dva) @ ang_w + cross / radii ** 2
    dirichlet = float(weights @ (radial_profile * radii ** grid.n))
    energy = dirichlet - mu * float(grid.inner(values[-1], values[-1]))
    if h is None:
        return energy
    hv = np.empty_like(values)
    for k, r in enumerate(radii):
        hv[k] = h(r * grid.nodes)
    radial_profile = (values * hv) @ ang_w
    return energy + float(weights @ (radial_profile * radii ** grid.n))


def _homogeneous_rescaling(adapter: FieldAdapter, x0: np.ndarray, r: float,
                           mu: float, grid: SphereGrid,
                           count: int) -> np.ndarray:
    """The mu-homogeneous rescaling v(x0 + r.)/r^mu sampled on the ball at
    ``_default_radii(count)``, all spheres in one read: one row per radius,
    the last row, of radius r, is the rescaled trace."""
    _check_reach(adapter, x0, r)
    radii, _ = _default_radii(count)
    return _on_spheres(adapter, x0, r * radii, grid) / r ** mu


def _scale_energy(adapter: FieldAdapter, x0: np.ndarray, r: float, mu: float,
                  grid: SphereGrid, count: int,
                  h) -> tuple[float, np.ndarray]:
    """(G, values): the homogeneous rescaling at scale r and its energy
    W_mu, plus the volume term of the rescaled forcing field when h is
    given."""
    values = _homogeneous_rescaling(adapter, x0, r, mu, grid, count)
    if h is not None:
        h = _rescaled_forcing(h, x0, r, mu)
    return _sampled_energy(values, grid, mu, h), values


# ---------------------------------------------------------------------------
# Energy monotonicity along scales
# ---------------------------------------------------------------------------

@dataclass
class MonotonicityRow:
    r_hi: float
    r_lo: float
    dG: float                         # discrete derivative of the energy
    bound_gradient: float             # radial-deviation lower bound
    bound_competitor: float           # homogeneous-competitor lower bound
    margin_gradient: float
    margin_competitor: float


@dataclass
class WeissMonotonicityReport:
    mu: float
    c_w: float
    rows: list
    energies: np.ndarray              # G(r) per ladder radius
    min_margin_gradient: float
    min_margin_competitor: float
    violations: list                  # rows with negative margin

    def passed(self, slack: float = 1e-3) -> bool:
        return (self.min_margin_gradient >= -slack
                and self.min_margin_competitor >= -slack)


def weiss_monotonicity_check(v, mu: float, radii, c_w: float = 0.0,
                             x0=None, h=None, k: int = 2, gamma: float = 0.5,
                             dimension: int | None = None
                             ) -> WeissMonotonicityReport:
    """Discrete differences of G(r) = W_mu(v_r) [+ volume term when a forcing
    field h is given] + c_w r^(k+gamma-mu) on the ladder, compared with the
    two lower bounds: twice the radial-deviation integral over r, and the
    homogeneous-competitor gap (n+2mu-1)(W_mu(z_r)-G0(r))/r plus the
    radial-deviation integral over r.  Energies use a 48-point radial rule."""
    adapter = _adapt(v, x0, dimension)
    d = adapter.dimension
    x0 = _center(x0, d)
    n = d - 1
    grid = _diagnostic_sphere(n)
    radii = np.asarray(radii, dtype=float)
    if radii.size < 4:
        raise ValueError("monotonicity ladder needs at least 4 radii")
    if np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be strictly decreasing")

    def energy_at(r: float) -> tuple[float, float]:
        w, values = _scale_energy(adapter, x0, r, mu, grid, 48, h)
        z = weiss_rows(TraceColumns.of_trace(SphericalTrace(grid, values[-1])),
                       mu, [(mu, np.ones((1, 1)))])
        return w, float(z[0]) - w

    def deviation_at(r: float) -> float:
        """Integral over the unit sphere of (radial derivative of the
        rescaling minus mu times the rescaling)^2."""
        _, a, dv = next(_sphere_slopes(adapter, x0, (r,), grid))
        dev = (r * dv - mu * a) / r ** mu
        return float(grid.weights @ (dev * dev))

    G = np.empty(radii.size)
    for i, r in enumerate(radii):
        w, _ = energy_at(float(r))
        G[i] = w + c_w * r ** (k + gamma - mu)

    rows, violations = [], []
    for i in range(radii.size - 1):
        r_hi, r_lo = radii[i], radii[i + 1]
        dG = (G[i] - G[i + 1]) / (r_hi - r_lo)
        r_mid = math.sqrt(r_hi * r_lo)
        w_mid, gap_mid = energy_at(r_mid)
        dev_mid = deviation_at(r_mid)
        b1 = 2.0 * dev_mid / r_mid
        b2 = ((n + 2.0 * mu - 1.0) * gap_mid + dev_mid) / r_mid
        row = MonotonicityRow(
            r_hi=float(r_hi), r_lo=float(r_lo), dG=float(dG),
            bound_gradient=float(b1), bound_competitor=float(b2),
            margin_gradient=float(dG - b1), margin_competitor=float(dG - b2))
        rows.append(row)
        if row.margin_gradient < 0 or row.margin_competitor < 0:
            violations.append(row)

    return WeissMonotonicityReport(
        mu=mu, c_w=c_w, rows=rows, energies=G,
        min_margin_gradient=min(r.margin_gradient for r in rows),
        min_margin_competitor=min(r.margin_competitor for r in rows),
        violations=violations)


def _rescaled_forcing(h, x0, r: float, mu: float):
    """Forcing field of the mu-homogeneous rescaling: x -> r^(2-mu) h(x0+rx)."""
    factor = r ** (2.0 - mu)

    def h_r(points):
        pts = np.asarray(points, dtype=float)
        return factor * np.asarray(h(x0[None, :] + r * pts), dtype=float)

    return h_r


@dataclass
class OscillationReport:
    r: float
    r_prime: float
    left: float                       # L1 sphere distance of the rescalings
    energy: float                     # G(r) at the larger radius
    right_base: float                 # sqrt(log(r/r')) * sqrt(max(G, 0))
    c_empirical: float
    negative_energy: bool


def oscillation_bound_check(v, mu: float, r: float, r_prime: float,
                            x0=None, c_w: float = 0.0, k: int = 2,
                            gamma: float = 0.5, h=None,
                            dimension: int | None = None) -> OscillationReport:
    """L1 sphere distance between two homogeneous rescalings against the
    square-root-log bound with the scale energy at the larger radius."""
    if not 0.0 < r_prime <= r:
        raise ValueError("need 0 < r' <= r")
    adapter = _adapt(v, x0, dimension)
    d = adapter.dimension
    x0 = _center(x0, d)
    grid = _diagnostic_sphere(d - 1)
    G, values = _scale_energy(adapter, x0, r, mu, grid, 64, h)
    _check_reach(adapter, x0, r_prime)
    t_rp = _on_spheres(adapter, x0, (r_prime,), grid)[0] / r_prime ** mu
    left = float(grid.weights @ np.abs(values[-1] - t_rp))
    G += c_w * r ** (k + gamma - mu)
    negative = G < 0.0
    right_base = math.sqrt(math.log(r / r_prime)) * math.sqrt(max(G, 0.0))
    if right_base > 0.0:
        c_emp = left / right_base
    else:
        # rounding-level distances, relative to the L1 norm of the r-trace
        norm = float(grid.weights @ np.abs(values[-1]))
        c_emp = 0.0 if left <= 1e-14 * norm else math.inf
    return OscillationReport(r=r, r_prime=r_prime, left=left, energy=float(G),
                             right_base=right_base, c_empirical=c_emp,
                             negative_energy=bool(negative))


# ---------------------------------------------------------------------------
# Blow-up fitting
# ---------------------------------------------------------------------------

@dataclass
class BlowupFit:
    """Best catalog profile at the finest radius with per-radius distances
    and the fitted decay exponent of the sup-norm distance."""

    m: int
    mu: float
    profile: BlowupProfile
    coefficients: np.ndarray
    radii: np.ndarray
    dist_l2: np.ndarray
    dist_linf: np.ndarray
    exponent: float | None
    band: tuple | None                # two-standard-error interval
    intercept: float | None
    degenerate: bool
    admissible: bool

    def rows(self) -> list[dict]:
        return [{"radius": float(r), "dist_l2": float(a), "dist_linf": float(b)}
                for r, a, b in zip(self.radii, self.dist_l2, self.dist_linf)]


def blowup_fit(v, x0, m: int, radii,
               frequency_label: float | None = None) -> BlowupFit:
    """Least-squares catalog fit to the homogeneous rescalings at the finest
    ladder radius, then a log-log fit against r of the sup-norm distances
    over 16 evenly spaced shells of the unit ball.  Distances within 1e-13
    of the fitted profile's sup on the sphere are left out as roundoff; with
    fewer than 4 left the fit is degenerate."""
    mu = 2.0 * m + 1.0
    if frequency_label is not None and abs(frequency_label - mu) > 0.1:
        raise ValueError(
            f"frequency label {frequency_label} inconsistent with "
            f"homogeneity {mu}")
    radii = np.asarray(radii, dtype=float)
    if radii.size < 4:
        raise ValueError("exponent fit needs at least 4 radii")
    if np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be strictly decreasing")

    adapter = _adapt(v, x0)
    d = adapter.dimension
    x0 = _center(x0, d)
    n = d - 1
    grid = _diagnostic_sphere(n)

    # linear catalog basis: slope monomials of degree 2m
    monos = monomials_of_degree(n, 2 * m)
    basis_profiles = [
        _profile_from_slope(m, n, Polynomial.monomial(n, e)) for e in monos]
    A = np.stack([bp.trace_on(grid) for bp in basis_profiles], axis=1)

    # catalog fit to the homogeneous rescaling at the finest radius
    for r in radii:
        _check_reach(adapter, x0, float(r))
    t_fit = (_on_spheres(adapter, x0, radii[-1:], grid)[0]
             / float(radii[-1]) ** mu)
    W = grid.weights
    Gm = A.T @ (W[:, None] * A)
    rhs = A.T @ (W * t_fit)
    coeffs = np.linalg.solve(Gm, rhs)
    p0_hat = Polynomial(n, {e: c for e, c in zip(monos, coeffs)})
    if p0_hat.is_zero():
        profile = dc_replace(basis_profiles[-1], normalization=0.0)
        admissible = False
    else:
        profile = _profile_from_slope(m, n, p0_hat)
        admissible = verify_admissible(profile).passed
    p_trace = A @ coeffs

    # per rung, 16 evenly spaced shells; the last, s = 1, is the rung's trace
    shells = np.linspace(1.0 / 16, 1.0, 16)
    dist_l2, dist_linf = np.empty(radii.size), np.empty(radii.size)
    for i, (r, values) in enumerate(zip(radii, _read_ladder(
            adapter, x0, radii[:, None] * shells, grid))):
        diff = values[-1] / float(r) ** mu - p_trace
        # scaled by its sup before squaring, so tiny fields do not underflow
        sup = float(np.max(np.abs(diff)))
        dist_l2[i] = sup * math.sqrt(max(float(W @ (diff / sup) ** 2), 0.0)) \
            if sup > 0.0 else 0.0
        dist_linf[i] = _shell_sup_distance(values, r, mu, shells, p_trace)

    # a distance within 1e-13 of the profile's sup on the sphere is roundoff
    # of the rescaling, at any scale of the field: the fit leaves it out
    floor = max(1e-13 * float(np.max(np.abs(p_trace))), np.finfo(float).tiny)
    sel = dist_linf > floor
    if np.count_nonzero(sel) < 4:
        return BlowupFit(m=m, mu=mu, profile=profile, coefficients=coeffs,
                         radii=radii, dist_l2=dist_l2, dist_linf=dist_linf,
                         exponent=None, band=None, intercept=None,
                         degenerate=True, admissible=admissible)
    x = np.log(radii[sel])
    y = np.log(dist_linf[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dofs = max(x.size - 2, 1)
    se = math.sqrt(float(resid @ resid) / dofs / float(np.sum((x - x.mean()) ** 2)))
    return BlowupFit(m=m, mu=mu, profile=profile, coefficients=coeffs,
                     radii=radii, dist_l2=dist_l2, dist_linf=dist_linf,
                     exponent=float(slope), band=(float(slope - 2 * se),
                                                  float(slope + 2 * se)),
                     intercept=float(intercept), degenerate=False,
                     admissible=admissible)


# ---------------------------------------------------------------------------
# Scale-propagation diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ZdeltaReport:
    """Vanishing of rescalings on the thin contact directions, with the
    quadratic-barrier comparison run on the grid."""

    delta: float
    eta3: float
    hypothesis_linf: float
    skipped: bool
    r_primes: np.ndarray | None = None
    sup_raw: np.ndarray | None = None
    sup_rescaled: np.ndarray | None = None
    barrier_rows: list = field(default_factory=list)
    contact_tol: float = 1e-8

    @property
    def max_sup_rescaled(self) -> float:
        if self.sup_rescaled is None or self.sup_rescaled.size == 0:
            return 0.0
        return float(np.max(self.sup_rescaled))

    @property
    def passed(self) -> bool:
        return (not self.skipped) and self.max_sup_rescaled <= self.contact_tol


def vanishing_on_Zdelta_check(v, r: float, p: BlowupProfile, delta: float,
                              x0=None, eta3: float = 0.1) -> ZdeltaReport:
    """Check that the rescalings vanish on the high-slope equator directions
    at five radii in (r/3, r), gated on closeness to the profile.

    At most eight thin directions are tested, evenly picked from Z_delta;
    the check passes when every rescaled sup is at most the report's
    ``contact_tol``.

    The barrier diagnostic recenters at each tested thin direction and
    compares the rescaled field against -(n+1) x_d^2 + |x'|^2: the comparison
    function is superharmonic and positive on the thin plane away from zeros
    of the field, so its domination certifies the center value is zero.  The
    barrier ball has radius r1 = min(0.2, c/(n+1)), with c the slope factor
    of ``p`` at the direction: the profile is about -c|x_d| there, and the
    barrier dominates it on the ball only while r1 <= c/(n+1).
    """
    mu = p.homogeneity
    n = p.n
    adapter = _adapt(v, x0, n + 1)
    x0 = _center(x0, n + 1)
    grid = _diagnostic_sphere(n)

    # closeness hypothesis on the annulus
    shells = np.linspace(0.25, 1.5, 26)
    if math.isfinite(adapter.r_max):
        top = (adapter.r_max - 3 * (adapter.h or 0) - float(np.linalg.norm(x0))) / r
        if top < 1.2:           # the barrier neighborhoods need scale 1.2 r
            raise ValueError("scale r too large to sample the annulus")
        shells = shells[shells <= top]
    linf = _shell_sup_distance(_on_spheres(adapter, x0, r * shells, grid),
                               r, mu, shells, p.trace_on(grid))
    if linf > eta3:
        return ZdeltaReport(delta=delta, eta3=eta3, hypothesis_linf=linf,
                            skipped=True)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        z_nodes = zero_set(p, delta, grid)
    dirs = grid.nodes[z_nodes]
    if len(dirs) > 8:
        dirs = dirs[::len(dirs) // 8][:8]

    r_primes = np.geomspace(r / 3.0 * 1.02, r * 0.98, 5)
    sup_raw = np.empty(5)
    sup_rescaled = np.empty(5)
    barrier_rows = []
    ball_s = np.linspace(0.15, 1.0, 7)
    ladder = _on_spheres(adapter, x0, r_primes, dirs)
    for j, (rp, vals) in enumerate(zip(r_primes, ladder)):
        sup_raw[j] = float(np.max(np.abs(vals))) if vals.size else 0.0
        sup_rescaled[j] = sup_raw[j] / rp ** mu

        # barrier comparison at the worst direction
        if dirs.size:
            worst = dirs[int(np.argmax(np.abs(vals)))]
            center = x0 + r * ((rp / r) * worst)
            r1 = min(0.2, float(operator_T(p)(worst[None, :n])[0]) / (n + 1))
            spheres = _on_spheres(adapter, center, r * (r1 * ball_s),
                                  grid) / r ** mu
            margins = []
            for s, w in zip(ball_s, spheres):
                offs = (r1 * s) * grid.nodes
                barrier = (np.sum(offs[:, :n] ** 2, axis=1)
                           - (n + 1) * offs[:, n] ** 2)
                margins.append(float(np.max(w - barrier)))
            center_val = float(np.asarray(adapter.evaluate(
                center[None, :]))[0]) / r ** mu
            barrier_rows.append({
                "r_prime": float(rp), "boundary_margin": margins[-1],
                "interior_margin": max(margins),
                "center_value": center_val})

    return ZdeltaReport(delta=delta, eta3=eta3, hypothesis_linf=linf,
                        skipped=False, r_primes=r_primes, sup_raw=sup_raw,
                        sup_rescaled=sup_rescaled, barrier_rows=barrier_rows)


@dataclass
class LinftyL2Report:
    r: float
    sigma: float
    linf: float                       # sup distance on the outer annulus
    l2: float                         # L2 distance on the larger annulus
    c_empirical: float


def linfty_l2_check(v, p: BlowupProfile, r: float,
                    x0=None) -> LinftyL2Report:
    """Empirical constant in the sup-vs-L2 interpolation bound with exponent
    sigma = 1/(n+3): sup over 26 shells of the annulus (1/4, 3/2) of
    |v_r - p| against the L2 distance over the annulus (1/8, 2), by a
    48-point radial rule, raised to sigma."""
    mu = p.homogeneity
    n = p.n
    adapter = _adapt(v, x0, n + 1)
    x0 = _center(x0, n + 1)
    grid = _diagnostic_sphere(n)
    if math.isfinite(adapter.r_max):
        need = 2.0 * r + float(np.linalg.norm(x0))
        if need > adapter.r_max - 3 * (adapter.h or 0):
            raise ValueError(
                f"scale r={r} too large: the outer annulus needs radius {need}")
    p_trace = p.trace_on(grid)

    shells = np.linspace(0.25, 1.5, 26)
    linf = _shell_sup_distance(_on_spheres(adapter, x0, r * shells, grid),
                               r, mu, shells, p_trace)

    # Gauss-Legendre radial rule transplanted to (1/8, 2)
    r01, w01 = radial_rule(48)
    lo, hi = 1.0 / 8.0, 2.0
    s_nodes = lo + (hi - lo) * r01
    s_weights = (hi - lo) * w01
    vr = _on_spheres(adapter, x0, r * s_nodes, grid) / r ** mu
    total = 0.0
    for s, w, v in zip(s_nodes, s_weights, vr):
        diff = v - s ** mu * p_trace
        total += w * s ** n * float(grid.weights @ (diff * diff))
    l2 = math.sqrt(max(total, 0.0))

    sigma = 1.0 / (n + 3.0)
    if l2 <= 0.0:
        c_emp = 0.0 if linf <= 1e-14 else math.inf
    else:
        c_emp = linf / l2 ** sigma
    return LinftyL2Report(r=r, sigma=sigma, linf=linf, l2=l2,
                          c_empirical=c_emp)


# ---------------------------------------------------------------------------
# Contact-set stratification
# ---------------------------------------------------------------------------

# Homogeneities that stratify_contact assigns to contact nodes.
STRATUM_FREQUENCIES = (1.0, 1.5, 2.0, 2.5, 3.0)


@dataclass
class StratumFit:
    frequency: float
    points: np.ndarray
    direction: np.ndarray | None      # n=2 line fit
    centroid: np.ndarray | None
    residual_rms: float | None


@dataclass
class StratifyReport:
    rows: list                        # per-node dicts
    strata: dict                      # frequency -> list of thin coordinates
    unresolved: list
    unlabeled: list
    line_fits: list                   # StratumFit entries (n=2 only)

    def labels(self) -> dict:
        return {k: len(vv) for k, vv in self.strata.items()}


def stratify_contact(u: GridSolution, max_points: int = 48) -> StratifyReport:
    """Frequency labels for contact nodes from per-center ladder plateaus.

    At most ``max_points`` contact nodes, evenly picked, are labeled.  Each
    gets a 20-rung ladder up to 0.8 of its distance to the sphere (at most
    0.6); nodes too close to the domain boundary to keep six rungs between
    the grid scale and the sphere are reported as unresolved.  A node whose
    frequency plateau lies within 0.1 of one of STRATUM_FREQUENCIES gets
    that label.  For a two-dimensional thin set, each labeled stratum gets a
    least-squares line fit with its perpendicular residual.
    """
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    spec = u.spec
    n = spec.n
    params = FrequencyParams(k=spec.k, gamma=spec.gamma)
    grid = _diagnostic_sphere(n)

    coords = u.thin_points()
    mask_flat = np.asarray(u.contact).ravel()
    contact_idx = np.nonzero(mask_flat)[0]
    if contact_idx.size > max_points:
        step = int(np.ceil(contact_idx.size / max_points))
        contact_idx = contact_idx[::step]

    rows, unresolved, unlabeled = [], [], []
    strata: dict = {f: [] for f in STRATUM_FREQUENCIES}
    for flat in contact_idx:
        xthin = coords[flat]
        x0 = np.append(xthin, 0.0)
        dist = float(np.linalg.norm(x0))
        r_hi = min(0.6, 0.8 * (1.0 - dist))
        radii = (radii_ladder(r_hi, 20)[::-1] if r_hi > 0
                 else np.array([]))
        radii = radii[(radii >= 3.0 * spec.h)
                      & (radii <= 1.0 - dist - 3.0 * spec.h)]
        if radii.size < 6:
            unresolved.append(xthin)
            rows.append({"x0": xthin, "label": "unresolved",
                         "mu_estimate": None})
            continue
        target = zero_obstacle_field(u, spec, xthin)
        try:
            prof = truncated_frequency(target, x0, params=params,
                                       radii=radii, grid=grid)
            mu_est = prof.mu_estimate()
        except ValueError:
            unresolved.append(xthin)
            rows.append({"x0": xthin, "label": "unresolved",
                         "mu_estimate": None})
            continue
        dists = [abs(mu_est - f) for f in STRATUM_FREQUENCIES]
        best = int(np.argmin(dists))
        if dists[best] <= 0.1:
            label = STRATUM_FREQUENCIES[best]
            strata[label].append(xthin)
        else:
            label = None
            unlabeled.append((xthin, mu_est))
        rows.append({"x0": xthin, "label": label, "mu_estimate": mu_est})

    line_fits = []
    if n == 2:
        for freq, pts in strata.items():
            if len(pts) < 3:
                continue
            P = np.asarray(pts, dtype=float)
            centroid = P.mean(axis=0)
            Q = P - centroid
            _, _, vt = np.linalg.svd(Q, full_matrices=False)
            direction = vt[0]
            perp = Q - np.outer(Q @ direction, direction)
            rms = float(np.sqrt(np.mean(np.sum(perp ** 2, axis=1))))
            line_fits.append(StratumFit(frequency=freq, points=P,
                                        direction=direction,
                                        centroid=centroid, residual_rms=rms))

    return StratifyReport(rows=rows, strata=strata, unresolved=unresolved,
                          unlabeled=unlabeled, line_fits=line_fits)
