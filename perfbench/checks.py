"""Output checks that the benchmark makes apart from the program.

Every check compares with a closed form or with a property the method must
have; none compares with a stored copy of earlier output.  A check returns
``None`` when it passes and a one-line reason when it fails.
"""

from __future__ import annotations

import csv
import math

import numpy as np


# ---------------------------------------------------------------------------
# Thin obstacle solutions, checked from the nodal values alone
# ---------------------------------------------------------------------------

def _lattice(values: np.ndarray, h: float):
    """Node coordinates (one array per axis) and the free-node mask: the
    nodes strictly inside the unit ball."""
    res = values.shape[-1] - 1
    horiz = np.arange(-res, res + 1) * h
    vert = np.arange(0, res + 1) * h
    mesh = np.meshgrid(*([horiz] * (values.ndim - 1) + [vert]), indexing="ij")
    free = sum(axis ** 2 for axis in mesh) < (1.0 - 1e-12) ** 2
    return mesh, free


def solution_residuals(values: np.ndarray, h: float, obstacle) -> dict:
    """Residuals of the discrete thin obstacle system, rebuilt from ``values``.

    Off the thin plane the system is the 5- or 7-point Laplacian; on the thin
    row the upper neighbour is doubled (even reflection).  ``obstacle`` maps
    thin-plane coordinates of shape (N, d-1) to obstacle values.  All
    residuals are unscaled: sum of neighbours minus 2d times the centre.
    """
    u = np.asarray(values, dtype=float)
    d = u.ndim
    mesh, free = _lattice(u, h)

    nbrs = np.zeros_like(u)
    for ax in range(d - 1):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[ax], hi[ax] = slice(0, -1), slice(1, None)
        nbrs[tuple(lo)] += u[tuple(hi)]
        nbrs[tuple(hi)] += u[tuple(lo)]
    nbrs[..., :-1] += u[..., 1:]                 # upper neighbour
    nbrs[..., 1:] += u[..., :-1]                 # lower neighbour
    nbrs[..., 0] += u[..., 1]                    # thin row: upper doubled
    resid = nbrs - 2 * d * u

    thin_free = free[..., 0]
    thin_pts = np.stack([axis[..., 0].ravel() for axis in mesh[:-1]], axis=1)
    phi = np.asarray(obstacle(thin_pts), dtype=float).reshape(thin_free.shape)
    gap = u[..., 0] - phi
    flux = -resid[..., 0]                        # >= 0 where u touches phi
    contact = thin_free & (gap <= 1e-9)
    interior = free.copy()
    interior[..., 0] = thin_free & ~contact
    return {
        "residual": float(np.max(np.abs(resid[interior]))),
        "min_gap": float(np.min(gap[thin_free])),
        "complementarity": float(np.max(np.abs(
            np.minimum(gap, flux)[thin_free]))),
    }


def check_solution(sol, tol: float, obstacle, exact=None,
                   error_gate: float | None = None) -> str | None:
    """Residual, feasibility, complementarity and (when known) sup error.

    A projected sweep stops once no node moves by more than ``tol``; each
    move is omega/(2d) times the node's residual, and after the last sweep
    each neighbour has moved by at most ``tol``.  So the unscaled residual is
    below 2d * tol * (1/omega + 1) < 4d * tol; the gate is 4d * tol.
    """
    gate = 4 * sol.values.ndim * tol
    r = solution_residuals(sol.values, sol.spec.h, obstacle)
    problems = []
    if not r["residual"] <= gate:
        problems.append(f"residual {r['residual']:.3e} > {gate:.1e}")
    if not r["min_gap"] >= -1e-12:
        problems.append(f"u below the obstacle by {-r['min_gap']:.3e}")
    if not r["complementarity"] <= gate:
        problems.append(f"complementarity {r['complementarity']:.3e} > "
                        f"{gate:.1e}")
    if exact is not None:
        mesh, free = _lattice(sol.values, sol.spec.h)
        pts = np.stack([axis[free] for axis in mesh], axis=1)
        err = float(np.max(np.abs(sol.values[free]
                                  - np.asarray(exact(pts), dtype=float))))
        if not err <= error_gate:
            problems.append(f"sup error {err:.3e} > {error_gate:.3e}")
    return "; ".join(problems) or None


def zero_obstacle(points):
    return np.zeros(points.shape[0])


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def read_rows(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_manifest(manifest) -> str | None:
    failed = [c.name for c in manifest.checks if not c.passed]
    return f"pipeline gates failed: {failed}" if failed else None


def check_epi_rows(rows, m: int, n: int, negative: bool) -> str | None:
    """Positive side: kappa = 0.5/(n + 4m + 3/2) in every row.  Negative
    side: kappa = |W(z)| and alpha solves (mu - alpha)/(n + alpha + mu - 1)
    = kappa, with mu = 2m + 1."""
    mu = 2 * m + 1
    for row in rows:
        kappa = float(row["kappa"])
        if not negative:
            expected = 0.5 / (n + 4 * m + 1.5)
            if not math.isclose(kappa, expected, rel_tol=1e-12):
                return f"kappa {kappa!r} != 0.5/(n+4m+3/2) = {expected!r}"
        else:
            alpha = float(row["alpha"])
            if not math.isclose(kappa, -float(row["w_z"]), rel_tol=1e-12):
                return f"kappa {kappa!r} != |W(z)| = {-float(row['w_z'])!r}"
            solved = (mu - alpha) / (n + alpha + mu - 1.0)
            if not math.isclose(solved, kappa, rel_tol=1e-6):
                return f"alpha {alpha!r} does not solve the kappa equation"
    return None


def check_route_agreement(rows, bound: float = 1e-8) -> str | None:
    worst = max(max(float(row["rel_diff_mu"]), float(row["rel_diff_raised"]))
                for row in rows)
    if not worst <= bound:
        return f"spectral and quadrature routes differ by {worst:.3e}"
    return None


def check_worked_case(report, eps: float) -> str | None:
    """m = 0, n = 1, second-mode perturbation of size eps: W(z) = 3/2 eps^2,
    W(zeta) = 13/12 eps^2 and slack 7/60 eps^2, each to a relative 1e-6."""
    expected = {"w_z": 1.5 * eps ** 2, "w_zeta": 13.0 / 12.0 * eps ** 2,
                "slack": 7.0 / 60.0 * eps ** 2}
    for name, value in expected.items():
        got = getattr(report, name)
        if not math.isclose(got, value, rel_tol=1e-6):
            return f"worked case {name} = {got!r}, expected {value!r}"
    return None
