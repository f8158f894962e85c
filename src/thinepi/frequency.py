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
at most ``_READ_POINTS`` points per evaluation.  The truncated frequency
reads one sphere per rung: H, and so Phi and the truncation flags, need
only the sphere of radius r.  The pairing I of the trace with its radial
derivative reads the spheres r - dr and r + dr on first access, which only
``FrequencyProfile.rows`` (the ``frequency`` CSV) makes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .grids import SphereGrid, build_grid, radial_rule, radii_ladder
from .polynomials import Polynomial, monomials_of_degree
from .profiles import BlowupProfile, HalfspaceSolution2D, \
    _profile_from_slope, verify_admissible, zero_set
from .solver import GridSolution, zero_obstacle_field
from .traces import SphericalTrace, TraceColumns
from .weiss import weiss_rows

_GRID_CACHE: dict = {}

# Rungs of the default truncated-frequency ladder, and contact nodes that
# stratify_contact labels at most; the CLI's parameter table reads both.
LADDER_RUNGS = 24
STRATIFY_POINTS = 48

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

    def _cap(self, x0: np.ndarray) -> float:
        """The largest radius around ``x0`` that a diagnostic reads:
        r_max - |x0| - 3h (inf for a field with no domain edge), so that
        reads at r + h/2 keep the 2h margin of ``_check_reach``."""
        return self.r_max - float(np.linalg.norm(x0)) - 3.0 * (self.h or 0.0)

    def _usable(self, radii: np.ndarray, x0: np.ndarray) -> np.ndarray:
        """The ``radii`` a grid-backed field resolves around ``x0``: at
        least 3h, and at most ``_cap(x0)``; all of them otherwise."""
        if self.h is None:
            return radii
        return radii[(radii >= 3.0 * self.h) & (radii <= self._cap(x0))]


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


def _check_reach(adapter: FieldAdapter, x0: np.ndarray, radii):
    """Raise ValueError for the first of ``radii`` (a radius or an array)
    whose sphere about x0 leaves the field's domain, or, on a grid field,
    is under 3h."""
    if not math.isfinite(adapter.r_max):
        return
    radii = np.atleast_1d(radii)
    norm = float(np.linalg.norm(x0))
    far = norm + radii > adapter.r_max - 2.0 * (adapter.h or 0.0)
    bad = far if adapter.h is None else far | (radii < 3.0 * adapter.h)
    if not bad.any():
        return
    first = int(np.argmax(bad))
    radius = float(radii[first])
    if far[first]:
        raise ValueError(
            f"radius {radius:.4g} around |x0|={norm:.4g} leaves "
            f"the computational domain (limit {adapter.r_max})")
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


def _radial_steps(adapter: FieldAdapter, x0: np.ndarray, radii) -> np.ndarray:
    """The step dr of the central radial difference at each radius r of a
    ladder, h/2 on a grid field and 1e-4 r otherwise, after checking that
    the sphere of radius r + dr about x0 is in reach for every rung."""
    radii = np.asarray(radii, dtype=float)
    dr = (np.full(radii.shape, adapter.h / 2.0) if adapter.h is not None
          else 1e-4 * radii)
    _check_reach(adapter, x0, radii + dr)
    return dr


def _shell_sup_distance(values: np.ndarray, r: float, mu: float, shells,
                        p_trace: np.ndarray) -> float:
    """Sup over the shells s and the grid nodes of |v_r - s^mu p|, where
    v_r(x) = v(x0 + r x) / r^mu, from the field values on the spheres of
    radius r * s about x0, and p has trace p_trace on the unit sphere."""
    diff = values / r ** mu
    diff -= np.array([s ** mu for s in shells])[:, None] * p_trace
    return float(np.max(np.abs(diff, out=diff)))


# ---------------------------------------------------------------------------
# Surface moments and truncated frequency
# ---------------------------------------------------------------------------

def _surface_moments(adapter: FieldAdapter, x0: np.ndarray, radii,
                     grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """(H, traces) per ladder radius r: the squared-trace integral on the
    sphere of radius r about x0, by sphere quadrature, and the field's
    values on that sphere, one row per radius.  One sphere is read per
    rung.  The reach of r + dr, which the pairing I reads, is checked for
    every rung before the first read, so the traces can always be paired."""
    radii = np.asarray(radii, dtype=float)
    _radial_steps(adapter, x0, radii)
    n = adapter.dimension - 1
    traces = np.stack([vals for (vals,) in _read_ladder(
        adapter, x0, radii[:, None], grid)])
    H = np.array([float(r) ** n * float(grid.weights @ (vals * vals))
                  for r, vals in zip(radii, traces)])
    return H, traces


def _pairing(adapter: FieldAdapter, x0: np.ndarray, radii,
             traces: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """I per ladder radius r: the pairing of the trace on the sphere of
    radius r about x0 (row of ``traces``) with its radial derivative, a
    central difference over the spheres r - dr and r + dr of
    ``_radial_steps``, read in one ladder pass."""
    radii = np.asarray(radii, dtype=float)
    dr = _radial_steps(adapter, x0, radii)
    n = adapter.dimension - 1
    rungs = np.stack([radii + dr, radii - dr], axis=1)
    return np.array([
        float(r) ** n * float(grid.weights @ (vals * ((vp - vm) / (2.0 * d))))
        for r, d, vals, (vp, vm) in zip(radii, dr, traces, _read_ladder(
            adapter, x0, rungs, grid))])


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
    """Radius-indexed frequency diagnostics around one center.

    H, Phi and the truncation flags come from one sphere per rung, whose
    values are kept in ``traces``.  The pairing I reads the spheres r - dr
    and r + dr of the field ``adapter`` on first access, once; only
    ``rows`` asks for it."""

    x0: np.ndarray
    n: int
    radii: np.ndarray                 # strictly decreasing
    H: np.ndarray
    Phi: np.ndarray
    truncation_active: np.ndarray
    theta: float
    c_phi: float
    k: int
    gamma: float
    adapter: FieldAdapter             # the field read, for I
    grid: SphereGrid
    traces: np.ndarray                # field values on each rung's sphere
    violations: list = field(default_factory=list)   # (radius, drop) pairs

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        if np.any(np.diff(self.radii) >= 0):
            raise ValueError("radii ladder must be strictly decreasing")
        if np.any(np.asarray(self.H) < 0):
            raise ValueError("surface moment H must be nonnegative")
        if not np.all(np.isfinite(self.Phi)):
            raise ValueError("frequency entries must be finite")

    @functools.cached_property
    def I(self) -> np.ndarray:
        """Trace/normal-derivative pairing per ladder radius."""
        return _pairing(self.adapter, self.x0, self.radii, self.traces,
                        self.grid)

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
                        count: int = LADDER_RUNGS,
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
    radii = adapter._usable(np.asarray(radii, dtype=float), x0)
    if radii.size < 2:
        raise ValueError("need at least two usable ladder radii")

    H, traces = _surface_moments(adapter, x0, radii, grid)

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

    return FrequencyProfile(x0=x0, n=n, radii=radii, H=H, Phi=Phi,
                            truncation_active=active, theta=theta,
                            c_phi=params.c_phi, k=params.k,
                            gamma=params.gamma, adapter=adapter, grid=grid,
                            traces=traces, violations=violations)


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


def _sampled_energy(values: np.ndarray, grid: SphereGrid, mu: float) -> float:
    """W_mu of a function sampled on the ball, row k of ``values`` (R+1, N)
    at the k-th radius of ``_default_radii(R)`` (the last row is the
    boundary trace).

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
    return dirichlet - mu * float(grid.inner(values[-1], values[-1]))


_BALL_NODES = 48


def _homogeneous_rescaling(adapter: FieldAdapter, x0: np.ndarray, r: float,
                           mu: float, grid: SphereGrid) -> np.ndarray:
    """The mu-homogeneous rescaling v(x0 + r.)/r^mu sampled on the ball at
    ``_default_radii(_BALL_NODES)``, all spheres in one read: one row per
    radius, the last row, of radius r, is the rescaled trace."""
    _check_reach(adapter, x0, r)
    radii, _ = _default_radii(_BALL_NODES)
    return _on_spheres(adapter, x0, r * radii, grid) / r ** mu


def _scale_energy(adapter: FieldAdapter, x0: np.ndarray, r: float, mu: float,
                  grid: SphereGrid) -> tuple[float, np.ndarray]:
    """(W, values): the homogeneous rescaling at scale r, sampled at the
    ``_BALL_NODES``-point radial rule, and its energy W_mu."""
    values = _homogeneous_rescaling(adapter, x0, r, mu, grid)
    return _sampled_energy(values, grid, mu), values


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
    radii: np.ndarray                 # the ladder, strictly decreasing
    energies: np.ndarray              # W(r) per ladder radius
    steps: list                       # MonotonicityRow per ladder step
    min_margin_gradient: float
    min_margin_competitor: float

    def passed(self, slack: float = 1e-3) -> bool:
        return (self.min_margin_gradient >= -slack
                and self.min_margin_competitor >= -slack)

    def rows(self) -> list[dict]:
        """One row per ladder step: the step's fields and the energy W at
        its two radii."""
        return [{**asdict(step), "W_hi": float(w_hi), "W_lo": float(w_lo)}
                for step, w_hi, w_lo in zip(self.steps, self.energies[:-1],
                                            self.energies[1:])]


def weiss_monotonicity_check(v, mu: float, radii,
                             x0=None) -> WeissMonotonicityReport:
    """Discrete differences of the scale energy W(r) = W_mu(v_r) on the
    ladder, compared with the two lower bounds: twice the radial-deviation
    integral over r, and the homogeneous-competitor gap
    (n+2mu-1)(W_mu(z_r)-W(r))/r plus the radial-deviation integral over r.
    Energies use a 48-point radial rule."""
    adapter = _adapt(v, x0)
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
        w, values = _scale_energy(adapter, x0, r, mu, grid)
        z = weiss_rows(TraceColumns.of_trace(SphericalTrace(grid, values[-1])),
                       mu, [(mu, np.ones((1, 1)))])
        return w, float(z[0]) - w

    def deviation_at(r: float) -> float:
        """Integral over the unit sphere of (radial derivative of the
        rescaling minus mu times the rescaling)^2."""
        (dr,) = _radial_steps(adapter, x0, (r,))
        a, vp, vm = _on_spheres(adapter, x0, (r, r + dr, r - dr), grid)
        dev = (r * ((vp - vm) / (2.0 * dr)) - mu * a) / r ** mu
        return float(grid.weights @ (dev * dev))

    G = np.array([energy_at(float(r))[0] for r in radii])

    steps = []
    for i in range(radii.size - 1):
        r_hi, r_lo = radii[i], radii[i + 1]
        dG = (G[i] - G[i + 1]) / (r_hi - r_lo)
        r_mid = math.sqrt(r_hi * r_lo)
        _, gap_mid = energy_at(r_mid)
        dev_mid = deviation_at(r_mid)
        b1 = 2.0 * dev_mid / r_mid
        b2 = ((n + 2.0 * mu - 1.0) * gap_mid + dev_mid) / r_mid
        steps.append(MonotonicityRow(
            r_hi=float(r_hi), r_lo=float(r_lo), dG=float(dG),
            bound_gradient=float(b1), bound_competitor=float(b2),
            margin_gradient=float(dG - b1), margin_competitor=float(dG - b2)))

    return WeissMonotonicityReport(
        mu=mu, radii=radii, energies=G, steps=steps,
        min_margin_gradient=min(s.margin_gradient for s in steps),
        min_margin_competitor=min(s.margin_competitor for s in steps))


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


def blowup_fit(v, x0, m: int, radii) -> BlowupFit:
    """Least-squares catalog fit to the homogeneous rescalings at the finest
    ladder radius, then a log-log fit against r of the sup-norm distances
    over 16 evenly spaced shells of the unit ball.  Distances within 1e-13
    of the fitted profile's sup on the sphere are left out as roundoff; with
    fewer than 4 left the fit is degenerate."""
    mu = 2.0 * m + 1.0
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
    _check_reach(adapter, x0, radii)
    t_fit = (_on_spheres(adapter, x0, radii[-1:], grid)[0]
             / float(radii[-1]) ** mu)
    W = grid.weights
    Gm = A.T @ (W[:, None] * A)
    rhs = A.T @ (W * t_fit)
    coeffs = np.linalg.solve(Gm, rhs)
    p0_hat = Polynomial(n, {e: c for e, c in zip(monos, coeffs)})
    if p0_hat.is_zero():
        last = basis_profiles[-1]
        profile = BlowupProfile(m=m, n=n, p0=last.p0, p1=last.p1,
                                normalization=0.0)
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
    """Closeness of the rescalings to the profile on the annulus and, when
    close enough, their rescaled sups on the thin contact directions."""

    delta: float
    eta3: float
    hypothesis_linf: float
    skipped: bool
    r_primes: np.ndarray | None = None
    sup_rescaled: np.ndarray | None = None
    contact_tol = 1e-8                # a class constant, not a field

    @property
    def max_sup_rescaled(self) -> float:
        return 0.0 if self.sup_rescaled is None else float(np.max(self.sup_rescaled))


def vanishing_on_Zdelta_check(v, r: float, p: BlowupProfile, delta: float,
                              x0=None, eta3: float = 0.1) -> ZdeltaReport:
    """Check that the rescalings vanish on the high-slope equator directions
    at five radii in (r/3, r), gated on closeness to the profile: the sup of
    |v_r - p| over 26 shells of the annulus (1/4, 3/2), which an r too large
    to read it refuses with ValueError.

    At most eight thin directions are tested, evenly picked from Z_delta;
    the check passes when every rescaled sup is at most the report's
    ``contact_tol``.  The field is read on the 26 annulus spheres and at the
    tested directions of the five radii, and nowhere else.
    """
    mu = p.homogeneity
    n = p.n
    adapter = _adapt(v, x0, n + 1)
    x0 = _center(x0, n + 1)
    grid = _diagnostic_sphere(n)

    # closeness hypothesis on the annulus
    if 1.5 * r > adapter._cap(x0):
        raise ValueError(f"scale r={r} too large: the annulus needs "
                         f"radius {1.5 * r + float(np.linalg.norm(x0))}")
    shells = np.linspace(0.25, 1.5, 26)
    linf = _shell_sup_distance(_on_spheres(adapter, x0, r * shells, grid),
                               r, mu, shells, p.trace_on(grid))
    if linf > eta3:
        return ZdeltaReport(delta=delta, eta3=eta3, hypothesis_linf=linf,
                            skipped=True)

    dirs = grid.nodes[zero_set(p, delta, grid)]
    if len(dirs) > 8:
        dirs = dirs[::len(dirs) // 8][:8]

    r_primes = np.geomspace(r / 3.0 * 1.02, r * 0.98, 5)
    sup_rescaled = np.array([
        (float(np.max(np.abs(vals))) if vals.size else 0.0) / rp ** mu
        for rp, vals in zip(r_primes, _on_spheres(adapter, x0, r_primes, dirs))])

    return ZdeltaReport(delta=delta, eta3=eta3, hypothesis_linf=linf,
                        skipped=False, r_primes=r_primes,
                        sup_rescaled=sup_rescaled)


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
    if 2.0 * r > adapter._cap(x0):
        raise ValueError(f"scale r={r} too large: the outer annulus needs "
                         f"radius {2.0 * r + float(np.linalg.norm(x0))}")
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


def stratify_contact(u: GridSolution,
                     max_points: int = STRATIFY_POINTS) -> StratifyReport:
    """Frequency labels for contact nodes from per-center ladder plateaus.

    At most ``max_points`` contact nodes, evenly picked, are labeled.  Each
    gets a 20-rung ladder up to 0.8 of its distance to the sphere (at most
    0.6); nodes too close to the domain boundary to keep six rungs between
    the grid scale and the sphere, and nodes whose truncation is active at
    every rung, are reported as unresolved.  A node whose frequency plateau
    lies within 0.1 of one of STRATUM_FREQUENCIES gets that label.  For a two-dimensional thin set, each labeled stratum gets a
    least-squares line fit with its perpendicular residual.
    """
    if max_points < 1:
        raise ValueError(f"max_points must be at least 1, got {max_points}")
    spec = u.spec
    n = spec.n
    params = FrequencyParams(k=spec.k, gamma=spec.gamma)
    grid = _diagnostic_sphere(n)
    adapter = FieldAdapter.adapt(u)

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
        r_hi = min(0.6, 0.8 * (adapter.r_max - dist))
        radii = (radii_ladder(r_hi, 20)[::-1] if r_hi > 0
                 else np.array([]))
        radii = adapter._usable(radii, x0)
        prof = None
        if radii.size >= 6:
            prof = truncated_frequency(zero_obstacle_field(u, xthin), x0,
                                       params=params, radii=radii, grid=grid)
        if prof is None or prof.truncation_active.all():
            unresolved.append(xthin)
            rows.append({"x0": xthin, "label": "unresolved",
                         "mu_estimate": None})
            continue
        mu_est = prof.mu_estimate()
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
