"""Competitor constructions certifying energy decay around blow-up profiles.

Given an even trace c on the sphere close to a normalized profile p of odd
homogeneity mu = 2m+1, the trace splits as c = P + phi where P collects the
low spherical modes (those with eigenvalue up to the profile's) matched
through a moment system in a constrained eigenbasis, and phi is the
remainder vanishing on the contact region Z_delta of the profile.

Two competitors for the mu-homogeneous extension z = r^mu c are built:

* positive case: zeta = r^mu P + r^(2m+3/2) phi.  Raising the radial power
  of the remainder contracts the energy by the universal factor
  kappa = (1/2)/(n+4m+3/2):  W(zeta) <= (1-kappa) W(z).
* negative case (W(z) < 0): the trace splits off its component along the
  top constrained mode, h, and the remainder is extended with a lowered
  power alpha in (2m, 2m+1) chosen so that (mu-alpha)/(n+alpha+mu-1)
  equals |W(z)|, giving the strengthened decay
  W(zeta) <= (1 + |W(z)|) W(z).

The module also houses the off-homogeneity energy identities used to test
candidate frequencies, and the small-|t| sign-contradiction arithmetic that
rules out homogeneities near 2m+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import SphereGrid
from .profiles import BlowupProfile, admissible_frequencies, zero_set
from .spectral import (EigenBasis, eigenbasis, half_sphere_basis, lambda_of,
                       mode_count_ell)
from .traces import SphericalTrace, trace_from_basis, trace_from_profile
from .weiss import (BallFunction, _degree_for, ball_sum, beta_pairing,
                    bilinear_R, homogeneous_extension, kappa, weiss_quadrature,
                    weiss_raised, weiss_spectral)


@dataclass(frozen=True)
class EpiConfig:
    eps: float = 0.1                  # trace distance budget around the profile
    eta: float = 0.05                 # |W(z)| budget for the negative case
    delta_ladder: tuple = (0.4, 0.2, 0.1, 0.05)
    cond_threshold: float = 1e6       # moment-matrix condition limit
    bisect_tol: float = 1e-12         # alpha bisection interval tolerance
    extra_modes: int = 10             # tail modes kept beyond the low block
    slack_floor: float = -1e-8        # numerical tolerance on the decay slack


DEFAULT_CONFIG = EpiConfig()


# ---------------------------------------------------------------------------
# Bases adapted to a profile
# ---------------------------------------------------------------------------

def adapted_half_basis(p: BlowupProfile, grid: SphereGrid) -> EigenBasis:
    """Unconstrained-hemisphere basis of the low block, rotated inside the
    top eigenvalue block so its last mode coincides with the profile trace.

    With this convention the decomposition of c = trace(p) itself has
    coefficient vector e_ell.
    """
    m, n = p.m, p.n
    base = half_sphere_basis(n, 2 * m + 1, grid=grid)
    ell = mode_count_ell(n, m)
    if base.count != ell:
        raise RuntimeError("low-block mode count mismatch")
    top = np.flatnonzero(base.degrees == 2 * m + 1)
    ptr = trace_from_profile(p, grid)
    block = base.values[:, top]
    gamma = (block.T * grid.weights) @ ptr.values
    resid = ptr.values - block @ gamma
    if np.sqrt(grid.inner(resid, resid)) > 1e-8:
        raise ValueError("profile trace is not inside the top eigenvalue block")
    gamma /= np.linalg.norm(gamma)
    k = top.size
    v = gamma - np.eye(k)[:, -1]
    if np.linalg.norm(v) < 1e-14:
        rot = np.eye(k)
    else:
        rot = np.eye(k) - 2.0 * np.outer(v, v) / (v @ v)
    values = base.values.copy()
    values[:, top] = block @ rot
    values[:, top[-1]] = ptr.values    # exact nodal profile trace
    dtheta = None
    if base.dtheta is not None:
        dtheta = base.dtheta.copy()
        dtheta[:, top] = base.dtheta[:, top] @ rot
        if ptr.dtheta is not None:
            dtheta[:, top[-1]] = ptr.dtheta
    grads = None
    if base.grads is not None:
        grads = base.grads.copy()
        grads[top] = np.einsum("ab,bij->aij", rot.T, base.grads[top])
        if ptr.grad is not None:
            grads[top[-1]] = ptr.grad
    equator_dn = base.equator_dn.copy() if base.equator_dn is not None else None
    if equator_dn is not None:
        equator_dn[top] = rot.T @ base.equator_dn[top]
    return EigenBasis(grid=grid, mask=base.mask, lambdas=base.lambdas.copy(),
                      values=values, source="analytic-adapted",
                      degrees=base.degrees.copy(), dtheta=dtheta, grads=grads,
                      equator_dn=equator_dn)


def _delta_basis(p: BlowupProfile, grid: SphereGrid, delta: float,
                 count: int, cache_dir=None) -> EigenBasis:
    """Constrained basis vanishing on Z_delta with at least ``count`` modes.

    When the contact region covers the whole equator the constrained basis
    coincides with the hemisphere analytic basis, which is used directly on
    grids that support it.
    """
    n = grid.n
    mask = zero_set(p, delta, grid)
    if mask.size == grid.equator.size and (n == 1 or grid.kind == "latlong"):
        return half_sphere_basis(n, _degree_for(count, n), grid=grid)
    return eigenbasis(grid, mask, count, cache_dir=cache_dir)


def choose_delta(p: BlowupProfile, grid: SphereGrid, m: int,
                 config: EpiConfig = DEFAULT_CONFIG,
                 cache_dir=None) -> tuple[float, EigenBasis]:
    """Largest ladder delta whose constrained basis, with ``extra_modes``
    modes beyond the low block, keeps every mode above the low block at
    eigenvalue >= lambda(2m+2) - 1."""
    n = grid.n
    ell = mode_count_ell(n, m)
    count = ell + config.extra_modes
    floor = lambda_of(2 * m + 2, n) - 1.0
    last_fail = None
    for delta in config.delta_ladder:
        basis = _delta_basis(p, grid, delta, count, cache_dir)
        tail = basis.lambdas[ell:]
        if tail.size and np.min(tail) >= floor - 1e-9:
            return float(delta), basis
        last_fail = (delta, float(np.min(tail)) if tail.size else None)
    raise ValueError(
        f"no ladder delta satisfies the tail eigenvalue floor {floor}; "
        f"last tried delta={last_fail[0]} with min tail eigenvalue {last_fail[1]}")


# ---------------------------------------------------------------------------
# Trace decomposition
# ---------------------------------------------------------------------------

@dataclass
class Decomposition:
    """Split c = P + phi with P in the low block and phi vanishing on Z_delta."""

    nu: np.ndarray                    # low-block coefficients of P
    p_part: SphericalTrace            # P
    phi: SphericalTrace               # remainder, re-expanded in the basis
    phi_coeffs: np.ndarray
    delta: float
    cond: float                       # moment matrix condition number
    moment_residuals: np.ndarray      # <phi, low constrained modes>
    reconstruction_error: float       # L2 gap between c and P + phi
    flags: dict                       # admissibility checks, all passed
    mu: float
    m: int
    basis_delta: EigenBasis
    half_basis: EigenBasis
    profile: BlowupProfile


def _check_admissible_trace(c: SphericalTrace, p: BlowupProfile,
                            mask: np.ndarray, eps: float) -> dict:
    """Admissibility flags of a trace; raises ValueError naming any that fail."""
    grid = c.grid
    flags = {
        "even": bool(grid.is_even(c.values, 1e-10)),
        "nonneg_thin_set": bool(np.min(c.values[grid.equator]) >= -1e-10),
        "vanishes_on_mask": bool(
            mask.size == 0 or np.max(np.abs(c.values[mask])) <= 1e-10),
    }
    diff = c.values - p.shared_trace_on(grid)
    flags["within_eps"] = bool(np.sqrt(grid.inner(diff, diff)) <= eps * (1 + 1e-8))
    bad = [k for k, ok in flags.items() if not ok]
    if bad:
        raise ValueError(f"trace fails admissibility checks: {bad}")
    return flags


def decompose_trace(c: SphericalTrace, p: BlowupProfile, delta: float,
                    basis_delta: EigenBasis, half_basis: EigenBasis,
                    config: EpiConfig = DEFAULT_CONFIG) -> Decomposition:
    """Moment-matched low-block extraction of an admissible trace.

    The low-block coefficients solve M nu = b with
    M_ij = <half_j, constrained_i> and b_i = <c, constrained_i> over the
    first ell constrained modes, so that the remainder phi = c - P has
    vanishing moments against all of them.
    """
    grid = c.grid
    n = grid.n
    m = p.m
    mu = float(2 * m + 1)
    ell = mode_count_ell(n, m)
    flags = _check_admissible_trace(c, p, basis_delta.mask, config.eps)

    mass = basis_delta.mass_rows(ell)
    moment = mass @ half_basis.values[:, :ell]
    cond = float(np.linalg.cond(moment))
    if cond > config.cond_threshold:
        raise ValueError(f"moment matrix condition {cond:.3e} exceeds "
                         f"{config.cond_threshold:.1e}")
    b = mass @ c.values
    nu = np.linalg.solve(moment, b)
    p_part = trace_from_basis(half_basis, nu)
    resid_vals = c.values - p_part.values
    phi_coeffs = basis_delta.project(resid_vals)
    phi = trace_from_basis(basis_delta, phi_coeffs)
    recon = resid_vals - phi.values
    recon_err = float(np.sqrt(grid.inner(recon, recon)))
    if recon_err > 1e-8:
        raise ValueError(
            f"remainder is not representable in the constrained basis "
            f"(residual {recon_err:.3e}); enlarge the basis or refine the trace")
    moments = mass @ resid_vals
    return Decomposition(nu=nu, p_part=p_part, phi=phi, phi_coeffs=phi_coeffs,
                         delta=float(delta), cond=cond,
                         moment_residuals=moments,
                         reconstruction_error=recon_err, flags=flags, mu=mu, m=m,
                         basis_delta=basis_delta, half_basis=half_basis,
                         profile=p)


# ---------------------------------------------------------------------------
# Positive-case competitor
# ---------------------------------------------------------------------------

def build_competitor_positive(dec: Decomposition, m: int) -> BallFunction:
    """zeta = r^(2m+1) P + r^(2m+3/2) phi."""
    alpha = 2 * m + 1.5
    return ball_sum([(dec.mu, dec.p_part), (alpha, dec.phi)])


@dataclass
class EpiReport:
    mu: float
    alpha: float
    kappa: float
    w_z: float                        # spectral-route W(z)
    w_zeta: float                     # spectral-route W(zeta)
    w_z_quad: float
    w_zeta_quad: float
    bound: float                      # (1-kappa) W(z)   [or (1+|W|)W(z)]
    slack: float                      # bound - W(zeta), >= 0 up to tolerance
    slack_quad: float
    profile_energy: float             # W of the low-block extension, <= 0
    slack_predicted: float            # closed-form slack (exact when the
                                      # cross pairings vanish)
    flags: dict
    route_discrepancy: float = 0.0

    @property
    def passed(self) -> bool:
        return self.slack >= DEFAULT_CONFIG.slack_floor and all(self.flags.values())


def _energy_both_routes(dec: Decomposition, radial_power: float, mu: float):
    """Spectral and quadrature W_mu of r^mu P + r^radial_power phi."""
    n = dec.p_part.grid.n
    half, delta_b = dec.half_basis, dec.basis_delta
    w_p = weiss_spectral(dec.nu, half, mu)
    if radial_power == mu:
        w_phi = weiss_spectral(dec.phi_coeffs, delta_b, mu)
    else:
        w_phi = weiss_raised(dec.phi_coeffs, delta_b, mu, radial_power).value
    cross = beta_pairing(dec.nu, dec.phi, mu, radial_power, basis=half).predicted_R
    spectral = w_p + w_phi + 2.0 * cross
    v = ball_sum([(mu, dec.p_part), (radial_power, dec.phi)])
    quad = weiss_quadrature(v, mu)
    return spectral, quad, w_p


def verify_epi(c: SphericalTrace, p: BlowupProfile, delta: float, m: int,
               basis_delta: EigenBasis | None = None,
               half_basis: EigenBasis | None = None) -> EpiReport:
    """Decompose the trace, build the raised competitor, and report the
    contraction W(zeta) <= (1-kappa) W(z) through both energy routes."""
    grid = c.grid
    n = grid.n
    mu = float(2 * m + 1)
    alpha = 2 * m + 1.5
    kap = kappa(alpha, mu, n)
    if basis_delta is None:
        basis_delta = _delta_basis(
            p, grid, delta, mode_count_ell(n, m) + DEFAULT_CONFIG.extra_modes)
    if half_basis is None:
        half_basis = adapted_half_basis(p, grid)
    dec = decompose_trace(c, p, delta, basis_delta, half_basis)
    w_z, w_z_quad, w_p = _energy_both_routes(dec, mu, mu)
    w_zeta, w_zeta_quad, _ = _energy_both_routes(dec, alpha, mu)
    bound = (1.0 - kap) * w_z
    lam_alpha = lambda_of(alpha, n)
    lam = basis_delta.lambdas[:dec.phi_coeffs.size]
    tail = float(np.sum((lam - lam_alpha) * dec.phi_coeffs ** 2))
    slack_pred = kap * (-w_p) + kap / (n + 2 * alpha - 1.0) * tail
    return EpiReport(
        mu=mu, alpha=alpha, kappa=kap,
        w_z=w_z, w_zeta=w_zeta, w_z_quad=w_z_quad, w_zeta_quad=w_zeta_quad,
        bound=bound, slack=bound - w_zeta,
        slack_quad=(1.0 - kap) * w_z_quad - w_zeta_quad,
        profile_energy=w_p, slack_predicted=slack_pred, flags=dec.flags,
        route_discrepancy=max(abs(w_z - w_z_quad), abs(w_zeta - w_zeta_quad)))


# ---------------------------------------------------------------------------
# Negative-case competitor
# ---------------------------------------------------------------------------

@dataclass
class NegativeEpiReport:
    mu: float
    alpha: float
    kappa: float                      # equals |W(z)| by the choice of alpha
    w_z: float
    w_zeta: float
    w_z_quad: float
    w_zeta_quad: float
    bound: float                      # (1+|W(z)|) W(z)
    slack: float
    c_ell: float                      # coefficient along the top mode
    alpha_in_range: bool
    sign_ok: bool                     # R_mu(r^mu h, z) >= 0
    flags: dict

    @property
    def passed(self) -> bool:
        return (self.slack >= DEFAULT_CONFIG.slack_floor and self.alpha_in_range
                and self.sign_ok and all(self.flags.values()))


def solve_alpha(target: float, m: int, mu: float, n: int,
                tol: float = 1e-12) -> float:
    """Bisection for alpha in (2m, mu) with (mu-alpha)/(n+alpha+mu-1) = target."""
    if not 0.0 < target < (mu - 2 * m) / (n + 2 * m + mu - 1.0):
        raise ValueError(f"target {target} outside the reachable bracket")
    lo, hi = float(2 * m), float(mu)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (mu - mid) / (n + mid + mu - 1.0) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_competitor_negative(c: SphericalTrace, p: BlowupProfile, delta: float,
                              m: int, basis_delta: EigenBasis | None = None):
    """Competitor for traces with W(z) < 0: split off the top-mode component
    h, lower the remainder's radial power to alpha in (2m, 2m+1) solving
    (mu-alpha)/(n+alpha+mu-1) = |W(z)|, and certify
    W(zeta) <= (1+|W(z)|) W(z).  The flag ``energy_in_window`` records
    whether |W(z)| lies below the negative-case budget ``EpiConfig.eta``.

    Returns (zeta, alpha, report).
    """
    grid = c.grid
    n = grid.n
    mu = float(2 * m + 1)
    ell = mode_count_ell(n, m)
    if basis_delta is None:
        basis_delta = _delta_basis(p, grid, delta,
                                   ell + DEFAULT_CONFIG.extra_modes)
    flags = _check_admissible_trace(c, p, basis_delta.mask, DEFAULT_CONFIG.eps)

    coeffs = basis_delta.project(c.values)
    recon = c.values - basis_delta.reconstruct(coeffs)
    recon_err = float(np.sqrt(grid.inner(recon, recon)))
    if recon_err > 1e-8:
        raise ValueError(f"trace not representable in the constrained basis "
                         f"(residual {recon_err:.3e})")
    c_ell = float(coeffs[ell - 1])
    h_coeffs = np.zeros_like(coeffs)
    h_coeffs[ell - 1] = c_ell
    phi_coeffs = coeffs.copy()
    phi_coeffs[ell - 1] = 0.0
    h = trace_from_basis(basis_delta, h_coeffs)
    phi = trace_from_basis(basis_delta, phi_coeffs)

    lam = basis_delta.lambdas[:coeffs.size]
    w_z = weiss_spectral(coeffs, basis_delta, mu)
    if not w_z < 0.0:
        raise ValueError(f"W(z) = {w_z:.3e} is not negative")
    absw = -w_z
    flags["energy_in_window"] = bool(absw < DEFAULT_CONFIG.eta)

    alpha = solve_alpha(absw, m, mu, n, tol=DEFAULT_CONFIG.bisect_tol)
    alpha_in_range = bool(2 * m < alpha < mu)

    w_h = float(c_ell ** 2 * (lam[ell - 1] - lambda_of(mu, n)) / (n + 2 * mu - 1.0))
    w_phi_alpha = weiss_raised(phi_coeffs, basis_delta, mu, alpha).value
    if basis_delta.equator_dn is not None:
        cross_alpha = beta_pairing(h_coeffs, phi, mu, alpha,
                                   basis=basis_delta).predicted_R
    else:
        cross_alpha = bilinear_R(homogeneous_extension(h, mu),
                                 homogeneous_extension(phi, alpha), mu)
    w_zeta = w_h + w_phi_alpha + 2.0 * cross_alpha

    zeta = ball_sum([(mu, h), (alpha, phi)])
    w_zeta_quad = weiss_quadrature(zeta, mu)
    z_ball = homogeneous_extension(c, mu)
    w_z_quad = weiss_quadrature(z_ball, mu)
    sign_ok = bool(bilinear_R(homogeneous_extension(h, mu), z_ball, mu) >= -1e-9)

    bound = (1.0 + absw) * w_z
    report = NegativeEpiReport(
        mu=mu, alpha=alpha, kappa=absw,
        w_z=w_z, w_zeta=w_zeta, w_z_quad=w_z_quad, w_zeta_quad=w_zeta_quad,
        bound=bound, slack=bound - w_zeta, c_ell=c_ell,
        alpha_in_range=alpha_in_range, sign_ok=sign_ok, flags=flags)
    return zeta, alpha, report


# ---------------------------------------------------------------------------
# Off-homogeneity identities
# ---------------------------------------------------------------------------

@dataclass
class OffDegreeReport:
    mu: float
    t: float
    w_offdegree: float                # W_mu(r^(mu+t) c), quadrature route
    trace_norm_sq: float
    identity1_defect: float           # w_offdegree - t |c|^2
    w_at_mu: float                    # W_mu(r^mu c)
    identity2_defect: float           # w_at_mu - (1 + t/(n+2mu-1)) w_offdegree


def weiss_of_offdegree(c: SphericalTrace, mu: float, t: float,
                       use_derivative_data: bool = True) -> OffDegreeReport:
    """Both identities for traces of (mu+t)-homogeneous solutions:

        W_mu(r^(mu+t) c) = t |c|^2,
        W_mu(r^mu c)     = (1 + t/(n+2mu-1)) W_mu(r^(mu+t) c).
    """
    n = c.grid.n
    w_off = weiss_quadrature(homogeneous_extension(c, mu + t), mu,
                             use_derivative_data=use_derivative_data)
    w_mu = weiss_quadrature(homogeneous_extension(c, mu), mu,
                            use_derivative_data=use_derivative_data)
    norm_sq = c.norm_sq
    return OffDegreeReport(
        mu=mu, t=t, w_offdegree=w_off, trace_norm_sq=norm_sq,
        identity1_defect=w_off - t * norm_sq,
        w_at_mu=w_mu,
        identity2_defect=w_mu - (1.0 + t / (n + 2.0 * mu - 1.0)) * w_off)


# ---------------------------------------------------------------------------
# Frequency-gap arithmetic
# ---------------------------------------------------------------------------

@dataclass
class GapRow:
    t: float
    expression: float                 # (1-(1+C t)t)(1+C t)
    deviation: float                  # expression - 1
    leading_term: float               # (C-1) t
    required: str                     # ">= 1" for t>0, "<= 1" for t<0
    contradiction: bool


@dataclass
class GapDemoReport:
    m: int
    n: int
    mu: float
    c_m: float
    rows: list
    window: tuple                     # (mu-0.1, mu) u (mu, mu+0.4) bounds
    admissible_in_window: list        # 2D admissible frequencies inside it
    all_contradict: bool = field(init=False)

    def __post_init__(self):
        self.all_contradict = all(r.contradiction for r in self.rows)


def gap_demo(m: int, n: int, t_grid=None) -> GapDemoReport:
    """Sign contradiction excluding homogeneities 2m+1+t for small t != 0.

    A solution homogeneous of degree mu+t would force the displayed product
    to reach 1 from the side matching the sign of t; its expansion
    (C-1)t + O(t^2) with C = 1/(n+4m+1) < 1 has the opposite sign, so every
    small nonzero t is contradicted.  For n=1 the report also lists the
    known admissible 2D frequencies falling inside the surrounding window,
    which is empty around mu = 2m+1 by the structure of that family.
    Needs m >= 0 and n >= 1.
    """
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    if t_grid is None:
        t_grid = np.concatenate([np.linspace(-0.1, -0.005, 20),
                                 np.linspace(0.005, 0.1, 20)])
    c_m = 1.0 / (n + 2 * (2 * m + 1) - 1.0)
    mu = float(2 * m + 1)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        if t == 0.0:
            continue
        expr = (1.0 - (1.0 + c_m * t) * t) * (1.0 + c_m * t)
        dev = expr - 1.0
        if t > 0:
            required = ">= 1"
            contradiction = dev < 0.0
        else:
            required = "<= 1"
            contradiction = dev > 0.0
        rows.append(GapRow(t=float(t), expression=expr, deviation=dev,
                           leading_term=(c_m - 1.0) * t, required=required,
                           contradiction=contradiction))
    window = (mu - 0.1, mu, mu + 0.4)
    members = []
    if n == 1:
        for a in admissible_frequencies(mu + 1.0):
            if window[0] < a < mu or mu < a < window[2]:
                members.append(a)
    return GapDemoReport(m=m, n=n, mu=mu, c_m=c_m, rows=rows,
                         window=window, admissible_in_window=members)


# ---------------------------------------------------------------------------
# Random admissible trace generators
# ---------------------------------------------------------------------------

def sample_positive_traces(p: BlowupProfile, basis_delta: EigenBasis, m: int,
                           count: int, rng: np.random.Generator,
                           eps: float = DEFAULT_CONFIG.eps) -> list[SphericalTrace]:
    """Admissible traces near the profile: profile plus a random tail in the
    constrained modes above the low block, scaled inside the eps ball."""
    grid = basis_delta.grid
    ell = mode_count_ell(grid.n, m)
    ptr = trace_from_profile(p, grid)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 50 * count:
            raise RuntimeError("rejection sampling failed to produce traces")
        a = rng.standard_normal(basis_delta.count - ell)
        a /= (1.0 + basis_delta.lambdas[ell:])   # calm the high modes
        a *= eps * rng.uniform(0.2, 0.95) / np.linalg.norm(a)
        coeffs = np.concatenate([np.zeros(ell), a])
        c = ptr + trace_from_basis(basis_delta, coeffs)
        if np.min(c.values[grid.equator]) < -1e-12:
            continue
        diff = c.values - ptr.values
        if np.sqrt(grid.inner(diff, diff)) > eps:
            continue
        out.append(c)
    return out


def sample_negative_traces(p: BlowupProfile, basis_delta: EigenBasis, m: int,
                           count: int, rng: np.random.Generator,
                           eps: float = DEFAULT_CONFIG.eps) -> list[SphericalTrace]:
    """Admissible traces whose mu-homogeneous extension has negative energy:
    profile plus low constrained modes (eigenvalue below the profile's),
    exactly scaled to land the energy in the window (-0.045, -0.001), cut
    to what the eps ball reaches."""
    grid = basis_delta.grid
    n = grid.n
    m_mu = float(2 * m + 1)
    ell = mode_count_ell(n, m)
    if ell < 2:
        raise ValueError("no constrained modes below the profile level; "
                         "negative-energy traces need m >= 1")
    lam = basis_delta.lambdas
    low = np.arange(ell - 1)
    per_unit = (lam[low] - lambda_of(m_mu, n)) / (n + 2 * m_mu - 1.0)
    if np.max(per_unit) >= 0:
        raise ValueError("low modes do not lower the energy")
    ptr = trace_from_profile(p, grid)
    reach = -np.min(per_unit) * (0.98 * eps) ** 2
    lo = max(-0.045, -0.9 * reach)
    hi = -0.001
    if not lo < hi:
        raise ValueError("energy window unreachable within the eps ball")
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 50 * count:
            raise RuntimeError("rejection sampling failed to produce traces")
        a = np.abs(rng.standard_normal(low.size)) + 0.05
        target = rng.uniform(lo, hi)
        w0 = float(np.sum(per_unit * a * a))
        a *= np.sqrt(target / w0)
        if np.linalg.norm(a) > 0.99 * eps:
            continue
        coeffs = np.zeros(basis_delta.count)
        coeffs[low] = a
        c = ptr + trace_from_basis(basis_delta, coeffs)
        if np.min(c.values[grid.equator]) < -1e-12:
            continue
        out.append(c)
    return out
