"""Weiss-type boundary-adjusted energies on the unit ball.

The energy of a function v on B_1 at parameter mu is

    W_mu(v) = int_B |grad v|^2 dx  -  mu * int_{dB} v^2 dH^n.

Two independent evaluation routes are provided:

* a quadrature route working from sampled values (polar product rule,
  closed-form radial integrals whenever v is a finite sum of homogeneous
  pieces), and
* a spectral route working from eigenbasis coefficients via exact

      W_mu(r^mu psi) = sum_j (lambda_j - mu(n+mu-1)) c_j^2 / (n+2mu-1).

Raising the radial power from mu to alpha has the closed form

      W_mu(r^alpha psi) = sum_j c_j^2 [ (alpha^2+lambda_j)/(n+2alpha-1) - mu ]

whose defect against (1-kappa) W_mu(r^mu psi), with
kappa = (alpha-mu)/(n+alpha+mu-1), is reported alongside the value.

The bilinear form R_mu(v,w) = int_B grad v . grad w - mu int_{dB} v w pairs
with a surface functional beta_mu via

      (n+alpha+mu-1) R_mu(r^mu phi, r^alpha psi) = beta_mu(phi, psi),

where beta_mu is computed from phi's coefficients in the unconstrained
even eigenbasis plus an equator flux term; see beta_pairing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import SphereGrid, radial_rule
from .spectral import EigenBasis, half_sphere_basis, lambda_of, multiplicity
from .traces import SphericalTrace


def kappa(alpha: float, mu: float, n: int) -> float:
    """Contraction factor (alpha-mu)/(n+alpha+mu-1) of the raising identity."""
    return (alpha - mu) / (n + alpha + mu - 1.0)


# ---------------------------------------------------------------------------
# Functions on the ball
# ---------------------------------------------------------------------------

@dataclass
class BallFunction:
    """Function on the unit ball sampled on polar product nodes.

    Either ``parts`` is given -- a finite list of (degree, trace) pairs with
    v = sum_i r^degree_i * trace_i(angle) -- in which case radial integrals
    are evaluated in closed form, or explicit ``values`` of shape
    (len(radii), grid.size) are stored.  ``radii`` must be ascending and end
    at 1.0 so the boundary term is available.
    """

    grid: SphereGrid
    radii: np.ndarray
    values: np.ndarray | None = None
    parts: list[tuple[float, SphericalTrace]] | None = None
    radial_weights: np.ndarray | None = None

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        if self.radii.ndim != 1 or np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly ascending")
        if abs(self.radii[-1] - 1.0) > 1e-12:
            raise ValueError("radii must end at 1.0 for the boundary term")
        if self.values is None and self.parts is None:
            raise ValueError("either values or parts must be given")
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=float)
            if self.values.shape != (self.radii.size, self.grid.size):
                raise ValueError("values shape does not match radii x grid")

    @property
    def homogeneity(self) -> float | None:
        if self.parts is not None and len(self.parts) == 1:
            return self.parts[0][0]
        return None

    def sample_values(self) -> np.ndarray:
        if self.values is not None:
            return self.values
        out = np.zeros((self.radii.size, self.grid.size))
        for deg, tr in self.parts:
            out += np.power(self.radii, deg)[:, None] * tr.values[None, :]
        return out

    def boundary_trace(self) -> np.ndarray:
        if self.parts is not None:
            return np.sum([tr.values for _, tr in self.parts], axis=0)
        return self.values[-1]

    def boundary_sq_integral(self) -> float:
        b = self.boundary_trace()
        return float(self.grid.inner(b, b))


@functools.cache
def default_radii(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre radial rule on (0,1) plus a zero-weight node at r=1,
    built once per count and shared by every caller as read-only arrays."""
    r, w = radial_rule(count)
    radii, weights = np.append(r, 1.0), np.append(w, 0.0)
    for shared in (radii, weights):
        shared.flags.writeable = False
    return radii, weights


def homogeneous_extension(c: SphericalTrace, degree: float) -> BallFunction:
    """Extend a trace to the ball as r^degree * c(angle), with the 64-point
    radial rule."""
    radii, weights = default_radii(64)
    return BallFunction(grid=c.grid, radii=radii, parts=[(float(degree), c)],
                        radial_weights=weights)


def ball_sum(parts: list[tuple[float, SphericalTrace]]) -> BallFunction:
    """Finite sum of homogeneous pieces sharing one grid, with the 64-point
    radial rule."""
    if not parts:
        raise ValueError("need at least one part")
    grid = parts[0][1].grid
    radii, weights = default_radii(64)
    return BallFunction(grid=grid, radii=radii,
                        parts=[(float(d), t) for d, t in parts],
                        radial_weights=weights)


# ---------------------------------------------------------------------------
# Quadrature route
# ---------------------------------------------------------------------------

def _gradient_pair_on_sphere(a: SphericalTrace, b: SphericalTrace,
                             use_derivative_data: bool) -> float:
    if not use_derivative_data:
        stripped = SphericalTrace(a.grid, a.values)
        b = stripped if b is a else SphericalTrace(b.grid, b.values)
        a = stripped
    return float(a.grid.weights @ a.gradient_dot(b))


def _radial_moment(n: int, power: float) -> float:
    """int_0^1 r^(n+power-2) dr, requiring integrability."""
    expo = n + power - 2.0
    if expo <= -1.0:
        raise ValueError(f"non-integrable radial power {power} in dimension n={n}")
    return 1.0 / (expo + 1.0)

def _pair_dirichlet(n: int, a: float, ta: SphericalTrace,
                    b: float, tb: SphericalTrace,
                    use_derivative_data: bool) -> float:
    """int_B grad(r^a ta) . grad(r^b tb) in closed radial form."""
    mass = ta.inner(tb)
    grad = _gradient_pair_on_sphere(ta, tb, use_derivative_data)
    num = a * b * mass + grad
    if num == 0.0:
        return 0.0
    return num * _radial_moment(n, a + b)


def _sampled_dirichlet(v: BallFunction, w: BallFunction):
    """int_B grad v . grad w by the polar product rule on sampled values.

    Radial derivatives are second-order differences; the angular part uses
    the surface-gradient pairing at each radius.  Returns the integral (the
    attached radial rule, else the trapezoidal rule) and the radial
    integrand r^n * profile(r) it integrates.
    """
    radii = v.radii
    va = v.sample_values()
    wa = va if w is v else w.sample_values()
    dva = np.gradient(va, radii, axis=0)
    dwa = dva if w is v else np.gradient(wa, radii, axis=0)
    ang_w = v.grid.weights
    cross = np.empty(radii.size)
    for k in range(radii.size):
        ta = SphericalTrace(v.grid, va[k])
        tb = ta if w is v else SphericalTrace(w.grid, wa[k])
        cross[k] = float(ang_w @ ta.gradient_dot(tb))
    radial_profile = (dva * dwa) @ ang_w + cross / radii ** 2
    integrand = radial_profile * radii ** v.grid.n
    if v.radial_weights is not None:
        return float(v.radial_weights @ integrand), integrand
    return float(np.trapezoid(integrand, radii)), integrand


def weiss_quadrature(v: BallFunction, mu: float,
                     error_threshold: float | None = None,
                     use_derivative_data: bool = True,
                     with_error: bool = False):
    """Quadrature evaluation of W_mu(v); no spectral data is consulted.

    For piecewise-homogeneous inputs the radial integrals are closed-form
    and only the angular quadrature is numerical.  For sampled inputs a
    polar product rule with second-order radial differencing is used and a
    quadrature error estimate is formed by comparing the attached radial
    rule against Simpson integration of the radial energy profile; if
    ``error_threshold`` is given and the estimate exceeds it, a ValueError
    is raised.
    """
    n = v.grid.n
    if v.parts is not None:
        dir_total = 0.0
        for i, (a, ta) in enumerate(v.parts):
            for j, (b, tb) in enumerate(v.parts):
                if j < i:
                    continue
                factor = 1.0 if i == j else 2.0
                dir_total += factor * _pair_dirichlet(
                    n, a, ta, b, tb, use_derivative_data)
        value = dir_total - mu * v.boundary_sq_integral()
        return (value, 0.0) if with_error else value

    # Imported here: only the sampled route needs it, and scipy.integrate
    # is a large share of the CLI's import time and memory.
    from scipy.integrate import simpson

    dirichlet, integrand = _sampled_dirichlet(v, v)
    alt = float(simpson(integrand, x=v.radii))
    err = abs(dirichlet - alt)
    if error_threshold is not None and err > error_threshold:
        raise ValueError(
            f"radial quadrature error estimate {err:.3e} exceeds {error_threshold:.3e}")
    value = dirichlet - mu * v.boundary_sq_integral()
    return (value, err) if with_error else value


def bilinear_R(v: BallFunction, w: BallFunction, mu: float) -> float:
    """R_mu(v,w) = int_B grad v . grad w - mu int_{dB} v w."""
    if v.grid is not w.grid:
        raise ValueError("ball functions live on different grids")
    n = v.grid.n
    boundary = float(v.grid.inner(v.boundary_trace(), w.boundary_trace()))
    if v.parts is not None and w.parts is not None:
        dir_total = 0.0
        for a, ta in v.parts:
            for b, tb in w.parts:
                dir_total += _pair_dirichlet(n, a, ta, b, tb, True)
        return dir_total - mu * boundary
    if not np.array_equal(v.radii, w.radii):
        raise ValueError("sampled ball functions need matching radii")
    dirichlet, _ = _sampled_dirichlet(v, w)
    return dirichlet - mu * boundary


def volume_integral(v: BallFunction, h) -> float:
    """int_B v * h for h either callable on points or an (R,N) array."""
    vals = v.sample_values()
    if callable(h):
        hv = np.empty_like(vals)
        for k, r in enumerate(v.radii):
            hv[k] = h(r * v.grid.nodes)
    else:
        hv = np.asarray(h, dtype=float)
        if hv.shape != vals.shape:
            raise ValueError("h array must match the sampling shape")
    if v.radial_weights is not None:
        rw = v.radial_weights
    else:
        rw = np.gradient(v.radii)
    radial_profile = (vals * hv) @ v.grid.weights
    return float(rw @ (radial_profile * v.radii ** v.grid.n))


def weiss_tilde(v: BallFunction, h, mu: float) -> float:
    """Obstacle-adjusted energy W_mu(v) + int_B v h for a forcing term h."""
    return weiss_quadrature(v, mu) + volume_integral(v, h)


# ---------------------------------------------------------------------------
# Spectral route
# ---------------------------------------------------------------------------

def weiss_spectral(coeffs, basis: EigenBasis, mu: float) -> float:
    """W_mu of the mu-homogeneous extension of sum_j c_j phi_j."""
    c = np.asarray(coeffs, dtype=float)
    n = basis.grid.n
    lam = basis.lambdas[:c.size]
    return float(np.sum((lam - lambda_of(mu, n)) * c * c) / (n + 2.0 * mu - 1.0))


@dataclass
class RaisedWeissReport:
    """W_mu of a radially raised extension and its contraction defect."""

    value: float              # W_mu(r^alpha psi)
    base_value: float         # W_mu(r^mu psi)
    kappa: float              # (alpha-mu)/(n+alpha+mu-1)
    residual: float           # value - (1-kappa)*base_value
    alpha: float
    mu: float


def weiss_raised(coeffs, basis: EigenBasis, mu: float, alpha: float) -> RaisedWeissReport:
    """Closed-form W_mu(r^alpha psi) together with the raising-identity defect

        residual = kappa/(n+2alpha-1) * sum_j (lambda(alpha) - lambda_j) c_j^2.
    """
    c = np.asarray(coeffs, dtype=float)
    n = basis.grid.n
    lam = basis.lambdas[:c.size]
    value = float(np.sum(c * c * ((alpha ** 2 + lam) / (n + 2.0 * alpha - 1.0) - mu)))
    base = weiss_spectral(c, basis, mu)
    kap = kappa(alpha, mu, n)
    residual = float(kap / (n + 2.0 * alpha - 1.0)
                     * np.sum((lambda_of(alpha, n) - lam) * c * c))
    return RaisedWeissReport(value=value, base_value=base, kappa=kap,
                             residual=residual, alpha=alpha, mu=mu)


# ---------------------------------------------------------------------------
# Surface pairing for the bilinear form
# ---------------------------------------------------------------------------

@dataclass
class BetaReport:
    beta: float
    predicted_R: float        # beta / (n+alpha+mu-1)
    spectral_term: float
    equator_term: float


def beta_pairing(phi_coeffs, psi: SphericalTrace, mu: float, alpha: float,
                 basis: EigenBasis | None = None) -> BetaReport:
    """Surface functional pairing a basis combination phi with a trace psi:

        beta_mu(phi, psi) = sum_j (lambda_j - lambda(mu)) c_j <phi_j, psi>
                            - 2 * sum_{equator} w_eq (d_up phi) psi,

    where d_up is the one-sided derivative into the upper hemisphere at the
    equator.  Dividing by (n+alpha+mu-1) predicts R_mu(r^mu phi, r^alpha psi).
    """
    grid = psi.grid
    n = grid.n
    if basis is None:
        basis = half_sphere_basis(n, _degree_for(len(np.atleast_1d(phi_coeffs)), n),
                                  grid=grid)
    c = np.asarray(phi_coeffs, dtype=float)
    if c.size > basis.count:
        raise ValueError("more coefficients than basis modes")
    lam = basis.lambdas[:c.size]
    inner = basis.mass_rows(c.size) @ psi.values
    spectral_term = float(np.sum((lam - lambda_of(mu, n)) * c * inner))
    dn = basis.equator_dn[:c.size].T @ c          # d_up phi at equator nodes
    psi_eq = psi.values[grid.equator]
    equator_term = float(-2.0 * np.sum(grid.equator_weights * dn * psi_eq))
    beta = spectral_term + equator_term
    return BetaReport(beta=beta,
                      predicted_R=beta / (n + alpha + mu - 1.0),
                      spectral_term=spectral_term,
                      equator_term=equator_term)


def _degree_for(count: int, n: int) -> int:
    """Lowest degree whose half-sphere modes number at least ``count``."""
    total, deg = 0, 0
    while total < count:
        deg += 1
        total += multiplicity(n, deg)
        if deg > 400:
            raise ValueError("coefficient vector too long")
    return deg

