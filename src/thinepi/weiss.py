"""Weiss-type boundary-adjusted energies on the unit ball.

The energy of a function v on B_1 at parameter mu is

    W_mu(v) = int_B |grad v|^2 dx  -  mu * int_{dB} v^2 dH^n.

Two evaluation routes are provided:

* eigenvalue sums over eigenbasis coefficients, via the exact

      W_mu(r^mu psi) = sum_j (lambda_j - mu(n+mu-1)) c_j^2 / (n+2mu-1);

* the Gram-row closed form for finite sums of homogeneous pieces: the
  radial integrals are closed-form, and the angular pairings are quadratic
  forms in the mass and surface-gradient Gram matrices of ``TraceColumns``
  (``weiss_rows`` and ``bilinear_rows``, one value per coefficient row).
  A single trace c gives W_mu(r^a c) as ``weiss_rows`` over
  ``TraceColumns.of_trace(c)`` with the one row [[1.0]].

Raising the radial power from mu to alpha has the closed form

      W_mu(r^alpha psi) = sum_j c_j^2 [ (alpha^2+lambda_j)/(n+2alpha-1) - mu ]

whose defect against (1-kappa) W_mu(r^mu psi), with
kappa = (alpha-mu)/(n+alpha+mu-1), is reported alongside the value.

The bilinear form R_mu(v,w) = int_B grad v . grad w - mu int_{dB} v w pairs
with a surface functional beta_mu via

      (n+alpha+mu-1) R_mu(r^mu phi, r^alpha psi) = beta_mu(phi, psi),

where beta_mu is computed from phi's coefficients in a basis with
closed-form equator derivatives plus an equator flux term.  For a block of
traces given as coefficient rows, ``beta_rows`` gives the pairing for each
row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import EigenBasis, lambda_of
from .traces import TraceColumns


def kappa(alpha: float, mu: float, n: int) -> float:
    """Contraction factor (alpha-mu)/(n+alpha+mu-1) of the raising identity."""
    return (alpha - mu) / (n + alpha + mu - 1.0)


# ---------------------------------------------------------------------------
# Gram-row route
# ---------------------------------------------------------------------------

def _radial_moment(n: int, power):
    """int_0^1 r^(n+power-2) dr, requiring integrability."""
    expo = n + power - 2.0
    if np.any(expo <= -1.0):
        raise ValueError(f"non-integrable radial power {power} in dimension n={n}")
    return 1.0 / (expo + 1.0)


def _pair_energy(n: int, a, b, mass, grad):
    """int_B grad(r^a s) . grad(r^b t) in closed radial form, from the
    angular pairings mass = <s, t> and grad = <grad s, grad t>; elementwise
    over arrays of pairings and powers.  A zero numerator gives an exact
    zero whatever the power."""
    num = a * b * mass + grad
    if not np.any(num):
        return np.zeros_like(num)
    return num * _radial_moment(n, a + b)


def _row_pairing(columns: TraceColumns, x: np.ndarray, y: np.ndarray):
    """(<s_t, u_t>, <grad s_t, grad u_t>) for the traces s_t = x[t] and
    u_t = y[t] over ``columns``: quadratic forms in its Gram matrices."""
    mass, grad = columns.grams
    return (np.sum(x * (y @ mass.T), axis=-1),
            np.sum(x * (y @ grad.T), axis=-1))


def weiss_rows(columns: TraceColumns, mu: float, pieces) -> np.ndarray:
    """W_mu(sum_i r^a_i t_i) for each trace of a block: ``pieces`` lists
    (a_i, rows_i), where row t of rows_i holds the coefficients of the
    block's t-th t_i over ``columns`` and a_i is a power or one power per
    row.  The closed radial form, with its angular pairings as Gram
    quadratic forms; no spectral data is consulted."""
    n = columns.grid.n
    total = boundary = 0.0
    for i, (a, x) in enumerate(pieces):
        for j in range(i, len(pieces)):
            b, y = pieces[j]
            mass, grad = _row_pairing(columns, x, y)
            factor = 1.0 if i == j else 2.0
            total = total + factor * _pair_energy(n, a, b, mass, grad)
            boundary = boundary + factor * mass
    return total - mu * boundary


def bilinear_rows(columns: TraceColumns, mu: float, left, right) -> np.ndarray:
    """R_mu(r^a s_t, r^b u_t) = int_B grad(r^a s_t) . grad(r^b u_t)
    - mu int_{dB} s_t u_t for each row t, with left = (a, rows of s) and
    right = (b, rows of u) over ``columns``; a and b are powers or one
    power per row."""
    (a, x), (b, y) = left, right
    mass, grad = _row_pairing(columns, x, y)
    return _pair_energy(columns.grid.n, a, b, mass, grad) - mu * mass


# ---------------------------------------------------------------------------
# Spectral route
# ---------------------------------------------------------------------------

def weiss_spectral(coeffs, basis: EigenBasis, mu: float):
    """W_mu of the mu-homogeneous extension of sum_j c_j phi_j; a (T, k)
    block of coefficient rows gives one value per row."""
    c = np.asarray(coeffs, dtype=float)
    n = basis.grid.n
    lam = basis.lambdas[:c.shape[-1]]
    return (np.sum((lam - lambda_of(mu, n)) * c * c, axis=-1)
            / (n + 2.0 * mu - 1.0))


@dataclass
class RaisedWeissReport:
    """W_mu of a radially raised extension and its contraction defect."""

    value: float              # W_mu(r^alpha psi)
    base_value: float         # W_mu(r^mu psi)
    kappa: float              # (alpha-mu)/(n+alpha+mu-1)
    residual: float           # value - (1-kappa)*base_value
    alpha: float
    mu: float


def weiss_raised(coeffs, basis: EigenBasis, mu: float, alpha) -> RaisedWeissReport:
    """Closed-form W_mu(r^alpha psi) together with the raising-identity defect

        residual = kappa/(n+2alpha-1) * sum_j (lambda(alpha) - lambda_j) c_j^2.

    A (T, k) block of coefficient rows, with alpha a power or one power per
    row, gives arrays of one value per row.
    """
    c = np.asarray(coeffs, dtype=float)
    n = basis.grid.n
    lam = basis.lambdas[:c.shape[-1]]
    a = np.asarray(alpha, dtype=float)[..., None]
    value = np.sum(c * c * ((a ** 2 + lam) / (n + 2.0 * a - 1.0) - mu), axis=-1)
    base = weiss_spectral(c, basis, mu)
    kap = kappa(alpha, mu, n)
    residual = (kap / (n + 2.0 * alpha - 1.0)
                * np.sum((lambda_of(a, n) - lam) * c * c, axis=-1))
    return RaisedWeissReport(value=value, base_value=base, kappa=kap,
                             residual=residual, alpha=alpha, mu=mu)


# ---------------------------------------------------------------------------
# Surface pairing for the bilinear form
# ---------------------------------------------------------------------------

def beta_rows(x: np.ndarray, basis: EigenBasis, y: np.ndarray,
              columns: np.ndarray, mu: float) -> np.ndarray:
    """The surface functional pairing phi_t with psi_t for each row t of a
    block, one value per row:

        beta_mu(phi, psi) = sum_j (lambda_j - lambda(mu)) c_j <phi_j, psi>
                            - 2 * sum_{equator} w_eq (d_up phi) psi,

    where phi_t = sum_j x[t, j] basis_j, psi_t = columns @ y[t] for
    node-value columns (N, K), and d_up is the one-sided derivative into the
    upper hemisphere at the equator (``basis.equator_dn``).  Dividing by
    (n+alpha+mu-1) gives R_mu(r^mu phi, r^alpha psi)."""
    grid = basis.grid
    k = x.shape[1]
    lam = basis.lambdas[:k]
    inner = y @ (basis.mass_rows(k) @ columns).T        # <basis_j, psi_t>
    dn = x @ basis.equator_dn[:k]                       # d_up phi_t at the equator
    psi_eq = y @ columns[grid.equator].T
    spectral_term = np.sum((lam - lambda_of(mu, grid.n)) * x * inner, axis=1)
    equator_term = -2.0 * np.sum(grid.equator_weights * dn * psi_eq, axis=1)
    return spectral_term + equator_term
