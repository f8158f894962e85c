"""Competitor constructions certifying energy decay around blow-up profiles.

Given an even trace c on the sphere close to a normalized profile p of odd
homogeneity mu = 2m+1, the trace splits as c = P + phi where P collects the
low spherical modes (those with eigenvalue up to the profile's) matched
through a moment system in a constrained eigenbasis, and phi is the
remainder vanishing on the contact region Z_delta of the profile.  The
certificates take profiles whose Z_delta, at delta = DELTA, is the whole
equator, as every default profile's is; the constrained basis is then the
analytic half-sphere basis.

Two competitors for the mu-homogeneous extension z = r^mu c are built:

* positive case: zeta = r^mu P + r^(2m+3/2) phi.  Raising the radial power
  of the remainder contracts the energy by the universal factor
  kappa = (1/2)/(n+4m+3/2):  W(zeta) <= (1-kappa) W(z).
* negative case (W(z) < 0): the trace splits off its component along the
  top constrained mode, h, and the remainder is extended with a lowered
  power alpha in (2m, 2m+1) chosen so that (mu-alpha)/(n+alpha+mu-1)
  equals |W(z)|, giving the strengthened decay
  W(zeta) <= (1 + |W(z)|) W(z).

A run's trials are certified as one batch (``TraceBatch``); ``verify_epi``
certifies one trace through the same code.

The module also houses the small-|t| sign-contradiction arithmetic that
rules out homogeneities near 2m+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import SphereGrid
from .profiles import BlowupProfile, admissible_frequencies, zero_set
from .spectral import (EigenBasis, half_sphere_basis, lambda_of,
                       mode_count_ell, multiplicity)
from .traces import (SphericalTrace, TraceBatch, TraceColumns,
                     trace_from_profile)
from .weiss import (beta_rows, bilinear_rows, kappa, weiss_raised, weiss_rows,
                    weiss_spectral)


EPS = 0.1                             # trace distance budget around the profile
ETA = 0.05                            # |W(z)| budget for the negative case
DELTA = 0.4                           # contact-region threshold
COND_THRESHOLD = 1e6                  # moment-matrix condition limit
BISECT_TOL = 1e-12                    # alpha bisection interval tolerance
EXTRA_MODES = 10                      # tail modes kept beyond the low block
SLACK_FLOOR = -1e-8                   # numerical tolerance on the decay slack
ROUTE_TOL = 1e-10                     # largest |spectral - quadrature| energy


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
    grads = base.grads.copy()
    grads[top] = np.einsum("ab,bij->aij", rot.T, base.grads[top])
    grads[top[-1]] = ptr.grad
    equator_dn = base.equator_dn.copy()
    equator_dn[top] = rot.T @ base.equator_dn[top]
    return EigenBasis(grid=grid, lambdas=base.lambdas.copy(), values=values,
                      degrees=base.degrees.copy(), grads=grads,
                      equator_dn=equator_dn)


def _degree_for(count: int, n: int) -> int:
    """Lowest degree whose half-sphere modes number at least ``count``."""
    total, deg = 0, 0
    while total < count:
        deg += 1
        total += multiplicity(n, deg)
    return deg


def choose_delta(p: BlowupProfile, grid: SphereGrid,
                 m: int) -> tuple[float, EigenBasis]:
    """DELTA and the constrained basis vanishing on Z_delta, which must be
    the whole equator: the half-sphere basis with at least EXTRA_MODES
    modes beyond the low block of homogeneity 2m+1, whose first mode above
    that block has eigenvalue lambda(2m+2)."""
    held = zero_set(p, DELTA, grid).size
    if held != grid.equator.size:
        raise ValueError(
            f"Z_delta at delta={DELTA} holds {held} of the {grid.equator.size} "
            f"equator nodes; the certificates need the whole equator")
    count = mode_count_ell(grid.n, m) + EXTRA_MODES
    return DELTA, half_sphere_basis(grid.n, _degree_for(count, grid.n), grid=grid)


# ---------------------------------------------------------------------------
# Trace decomposition
# ---------------------------------------------------------------------------

def _raise_at(bad: np.ndarray, message) -> None:
    """Raise ValueError naming the first failing trial, if any."""
    if bad.any():
        t = int(np.argmax(bad))
        raise ValueError(f"trial {t}: {message(t)}")


def _admissibility(batch: TraceBatch, p: BlowupProfile, eps: float):
    """The batch's (T, N) block of node values and its admissibility flags,
    one per trace; raises ValueError naming the first trial that fails any."""
    grid = batch.basis.grid
    values = batch.values()
    dev = np.take(values, grid.reflect, axis=1)
    np.subtract(dev, values, out=dev)
    flags = {
        "even": np.max(np.abs(dev, out=dev), axis=1) <= 1e-10,
        "nonneg_thin_set": np.min(values[:, grid.equator], axis=1) >= -1e-10,
        "vanishes_on_equator":
            np.max(np.abs(values[:, grid.equator]), axis=1) <= 1e-10,
    }
    np.subtract(values, p.trace_on(grid), out=dev)
    flags["within_eps"] = (np.sqrt(np.square(dev, out=dev) @ grid.weights)
                           <= eps * (1 + 1e-8))
    failed = ~np.all(list(flags.values()), axis=0)
    _raise_at(failed, lambda t: "trace fails admissibility checks: "
              f"{[k for k, ok in flags.items() if not ok[t]]}")
    return values, flags


def _per_trial(report, flags: dict, **fields) -> list:
    """One report per trial; array fields are read at the trial, each
    converted to Python scalars once."""
    count = len(flags["even"])
    flags = {k: v.tolist() for k, v in flags.items()}
    fields = {k: v.tolist() if isinstance(v, np.ndarray) else [v] * count
              for k, v in fields.items()}
    return [report(flags={k: v[t] for k, v in flags.items()},
                   **{k: v[t] for k, v in fields.items()})
            for t in range(count)]


def _expand(block: np.ndarray, basis: EigenBasis):
    """``basis.expand(block)``, raising ValueError naming the first trial
    the basis cannot represent."""
    coeffs, recon = basis.expand(block)
    _raise_at(recon > 1e-8, lambda t: (
        f"not representable in the constrained basis (residual "
        f"{recon[t]:.3e}); enlarge the basis or refine the trace"))
    return coeffs, recon


def _decompose(batch: TraceBatch, p: BlowupProfile, half_basis: EigenBasis,
               eps: float, cond_threshold: float):
    """Moment-matched low-block extraction of every trace of a batch:
    nu solves M nu = b, M_ij = <half_j, constrained_i>, b_i = <c,
    constrained_i> over the first ell constrained modes, so phi = c - P has
    no moments against them; phi is re-expanded in the constrained basis.
    Returns nu (T, ell), phi's coefficients (T, count), the condition of M,
    the flags and the reconstruction errors."""
    basis = batch.basis
    ell = mode_count_ell(basis.grid.n, p.m)
    values, flags = _admissibility(batch, p, eps)
    mass = basis.mass_rows(ell)
    moment = mass @ half_basis.values[:, :ell]
    cond = float(np.linalg.cond(moment))
    if cond > cond_threshold:
        raise ValueError(f"moment matrix condition {cond:.3e} exceeds "
                         f"{cond_threshold:.1e}")
    nu = np.linalg.solve(moment, mass @ values.T).T
    values -= nu @ half_basis.values[:, :ell].T
    phi, recon = _expand(values, basis)
    return nu, phi, cond, flags, recon


# ---------------------------------------------------------------------------
# Positive-case competitor
# ---------------------------------------------------------------------------

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
    slack_predicted: float            # closed-form slack (exact when the
                                      # cross pairings vanish)
    flags: dict
    route_discrepancy: float

    @property
    def passed(self) -> bool:
        return (self.slack >= SLACK_FLOOR and self.route_discrepancy <= ROUTE_TOL
                and all(self.flags.values()))


def certify_positive(batch: TraceBatch, p: BlowupProfile, m: int,
                     half_basis: EigenBasis, eps: float) -> list[EpiReport]:
    """One report per trace within ``eps`` of the profile: decompose it,
    build zeta = r^mu P + r^(2m+3/2) phi, and check W(zeta) <= (1-kappa) W(z)
    by both routes: eigenvalue sums with the beta pairing of P with phi, and
    the closed radial form over nodal-quadrature Gram matrices of the
    [half | constrained] columns, which reads no eigenvalue.  A report
    passes only if the two routes' energies agree within ROUTE_TOL."""
    basis = batch.basis
    n = basis.grid.n
    mu = float(2 * m + 1)
    alpha = 2 * m + 1.5
    kap = kappa(alpha, mu, n)
    nu, phi, _, flags, _ = _decompose(batch, p, half_basis, eps,
                                      COND_THRESHOLD)
    w_p = weiss_spectral(nu, half_basis, mu)
    beta = beta_rows(nu, half_basis, phi, basis.values, mu)
    w_z = w_p + weiss_spectral(phi, basis, mu) + 2.0 * beta / (n + 2 * mu - 1.0)
    raised = weiss_raised(phi, basis, mu, alpha)
    w_zeta = w_p + raised.value + 2.0 * beta / (n + alpha + mu - 1.0)
    columns = TraceColumns.of_basis(half_basis).join(TraceColumns.of_basis(basis))
    p_rows = np.column_stack([nu, np.zeros_like(phi)])
    phi_rows = np.column_stack([np.zeros_like(nu), phi])
    w_z_quad = weiss_rows(columns, mu, [(mu, p_rows), (mu, phi_rows)])
    w_zeta_quad = weiss_rows(columns, mu, [(mu, p_rows), (alpha, phi_rows)])
    slack_pred = kap * (-w_p) - raised.residual
    bound = (1.0 - kap) * w_z
    slack_quad = (1.0 - kap) * w_z_quad - w_zeta_quad
    discrepancy = np.maximum(abs(w_z - w_z_quad), abs(w_zeta - w_zeta_quad))
    return _per_trial(
        EpiReport, flags, mu=mu, alpha=alpha, kappa=kap, w_z=w_z,
        w_zeta=w_zeta, w_z_quad=w_z_quad, w_zeta_quad=w_zeta_quad, bound=bound,
        slack=bound - w_zeta, slack_quad=slack_quad,
        slack_predicted=slack_pred, route_discrepancy=discrepancy)


def verify_epi(c: SphericalTrace, p: BlowupProfile, delta: float, m: int,
               basis_delta: EigenBasis, half_basis: EigenBasis) -> EpiReport:
    """``certify_positive`` for one trace, within the default eps, in the
    basis ``choose_delta`` returned with ``delta``."""
    return certify_positive(TraceBatch.of_trace(c, basis_delta), p, m,
                            half_basis, EPS)[0]


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
        return (self.slack >= SLACK_FLOOR and self.alpha_in_range and self.sign_ok
                and abs(self.w_z - self.w_z_quad) <= ROUTE_TOL
                and abs(self.w_zeta - self.w_zeta_quad) <= ROUTE_TOL
                and all(self.flags.values()))


def solve_alpha(target, m: int, mu: float, n: int):
    """Bisection for alpha in (2m, mu) with (mu-alpha)/(n+alpha+mu-1) = target,
    to an interval of BISECT_TOL; elementwise over an array of targets."""
    t = np.asarray(target, dtype=float)
    if not np.all((0.0 < t) & (t < (mu - 2 * m) / (n + 2 * m + mu - 1.0))):
        raise ValueError(f"target {target} outside the reachable bracket")
    lo, hi = np.full(t.shape, float(2 * m)), np.full(t.shape, float(mu))
    while np.any(open_ := hi - lo > BISECT_TOL):
        mid = 0.5 * (lo + hi)
        below = (mu - mid) / (n + mid + mu - 1.0) > t
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
    return 0.5 * (lo + hi)


def certify_negative(batch: TraceBatch, p: BlowupProfile, m: int,
                     eps: float) -> list[NegativeEpiReport]:
    """One report per trace within ``eps`` of the profile with W(z) < 0:
    split off the top-mode component h, lower the remainder's radial power
    to alpha in (2m, 2m+1) solving (mu-alpha)/(n+alpha+mu-1) = |W(z)|, and
    check W(zeta) <= (1+|W(z)|) W(z).  Flag ``energy_in_window``: |W(z)| <
    ETA.  Quadrature energies are Gram quadratic forms over the batch's
    [offset | basis] columns; a report passes only if they agree with the
    spectral ones within ROUTE_TOL."""
    basis = batch.basis
    n = basis.grid.n
    mu = float(2 * m + 1)
    ell = mode_count_ell(n, m)
    values, flags = _admissibility(batch, p, eps)
    coeffs, _ = _expand(values, basis)
    w_z = weiss_spectral(coeffs, basis, mu)
    _raise_at(~(w_z < 0.0), lambda t: f"W(z) = {w_z[t]:.3e} is not negative")
    absw = -w_z
    flags["energy_in_window"] = absw < ETA
    alpha = solve_alpha(absw, m, mu, n)

    top = np.arange(basis.count) == ell - 1
    h, phi = coeffs * top, coeffs * ~top
    columns = batch.columns()
    h_rows, phi_rows = (np.column_stack([np.zeros(len(batch)), x])
                        for x in (h, phi))
    cross = beta_rows(h, basis, phi, basis.values, mu) / (n + alpha + mu - 1.0)
    w_zeta = (weiss_spectral(h, basis, mu)
              + weiss_raised(phi, basis, mu, alpha).value + 2.0 * cross)
    w_zeta_quad = weiss_rows(columns, mu, [(mu, h_rows), (alpha, phi_rows)])
    w_z_quad = weiss_rows(columns, mu, [(mu, batch.rows())])
    sign = bilinear_rows(columns, mu, (mu, h_rows), (mu, batch.rows()))
    bound = (1.0 + absw) * w_z
    return _per_trial(
        NegativeEpiReport, flags, mu=mu, alpha=alpha, kappa=absw, w_z=w_z,
        w_zeta=w_zeta, w_z_quad=w_z_quad, w_zeta_quad=w_zeta_quad, bound=bound,
        slack=bound - w_zeta, c_ell=coeffs[:, ell - 1],
        alpha_in_range=(2 * m < alpha) & (alpha < mu), sign_ok=sign >= -1e-9)


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


def gap_demo(m: int, n: int) -> GapDemoReport:
    """Sign contradiction excluding homogeneities 2m+1+t for small t != 0.

    A solution homogeneous of degree mu+t would force the displayed product
    to reach 1 from the side matching the sign of t; its expansion
    (C-1)t + O(t^2) with C = 1/(n+4m+1) < 1 has the opposite sign, so every
    small nonzero t is contradicted; the rows sample 0.005 <= |t| <= 0.1.
    For n=1 the report also lists the known admissible 2D frequencies
    falling inside the surrounding window, which is empty around mu = 2m+1
    by the structure of that family.
    Needs m >= 0 and n >= 1.
    """
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
    ts = np.concatenate([np.linspace(-0.1, -0.005, 20),
                         np.linspace(0.005, 0.1, 20)])
    c_m = 1.0 / (n + 2 * (2 * m + 1) - 1.0)
    mu = float(2 * m + 1)
    rows = []
    for t in ts:
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
                           eps: float = EPS) -> TraceBatch:
    """Admissible traces near the profile: profile plus a random tail in the
    constrained modes above the low block, scaled inside the eps ball."""
    ell = mode_count_ell(basis_delta.grid.n, m)

    def propose():
        a = rng.standard_normal(basis_delta.count - ell)
        a /= (1.0 + basis_delta.lambdas[ell:])   # calm the high modes
        a *= eps * rng.uniform(0.2, 0.95) / np.linalg.norm(a)
        return np.concatenate([np.zeros(ell), a])

    return TraceBatch.sample(trace_from_profile(p, basis_delta.grid),
                             basis_delta, count, eps, propose)


def sample_negative_traces(p: BlowupProfile, basis_delta: EigenBasis, m: int,
                           count: int, rng: np.random.Generator,
                           eps: float = EPS) -> TraceBatch:
    """Admissible traces whose mu-homogeneous extension has negative energy:
    profile plus low constrained modes (eigenvalue below the profile's),
    exactly scaled to land the energy in the window (-0.045, -0.001), cut
    to what the eps ball reaches."""
    n = basis_delta.grid.n
    m_mu = float(2 * m + 1)
    ell = mode_count_ell(n, m)
    if ell < 2:
        raise ValueError("no constrained modes below the profile level; "
                         "negative-energy traces need m >= 1")
    low = np.arange(ell - 1)
    per_unit = (basis_delta.lambdas[low] - lambda_of(m_mu, n)) / (n + 2 * m_mu - 1.0)
    if np.max(per_unit) >= 0:
        raise ValueError("low modes do not lower the energy")
    reach = -np.min(per_unit) * (0.98 * eps) ** 2
    lo, hi = max(-0.045, -0.9 * reach), -0.001
    if not lo < hi:
        raise ValueError("energy window unreachable within the eps ball")

    def propose():
        a = np.abs(rng.standard_normal(low.size)) + 0.05
        target = rng.uniform(lo, hi)
        w0 = float(np.sum(per_unit * a * a))
        a *= np.sqrt(target / w0)
        if np.linalg.norm(a) > 0.99 * eps:
            return None
        coeffs = np.zeros(basis_delta.count)
        coeffs[low] = a
        return coeffs

    return TraceBatch.sample(trace_from_profile(p, basis_delta.grid),
                             basis_delta, count, eps, propose)
