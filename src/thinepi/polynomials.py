"""Sparse multivariate polynomials with exact sphere-moment integration.

A polynomial is a map from exponent tuples to float coefficients.  The class
supports the small amount of calculus needed elsewhere: products, partial
derivatives, Laplacians in a leading block of variables, evaluation on arrays
of points, and exact integration of monomials over the unit sphere via the
Gamma-function moment formula

    integral over S^{d-1} of prod x_i^{a_i}
        = 2 * prod Gamma((a_i+1)/2) / Gamma(sum (a_i+1)/2)   (all a_i even),

and zero whenever some exponent is odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in ``nvars`` variables, stored as {exponents: coefficient}."""

    nvars: int
    coeffs: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {e: float(c) for e, c in self.coeffs.items() if c != 0.0}
        for e in cleaned:
            if len(e) != self.nvars:
                raise ValueError(f"exponent tuple {e} does not match nvars={self.nvars}")
        object.__setattr__(self, "coeffs", cleaned)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def monomial(nvars: int, exponents: tuple[int, ...], coeff: float = 1.0) -> "Polynomial":
        return Polynomial(nvars, {tuple(exponents): coeff})

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, value: float) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: value})

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial(self.nvars, out)

    def scale(self, s: float) -> "Polynomial":
        return Polynomial(self.nvars, {e: s * c for e, c in self.coeffs.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out: dict[tuple[int, ...], float] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return Polynomial(self.nvars, out)

    def diff(self, var: int) -> "Polynomial":
        out: dict[tuple[int, ...], float] = {}
        for e, c in self.coeffs.items():
            if e[var] > 0:
                e2 = list(e)
                e2[var] -= 1
                out_e = tuple(e2)
                out[out_e] = out.get(out_e, 0.0) + c * e[var]
        return Polynomial(self.nvars, out)

    def laplacian(self, upto: int | None = None) -> "Polynomial":
        """Sum of second partials in variables 0..upto-1 (all if None)."""
        upto = self.nvars if upto is None else upto
        out = Polynomial.zero(self.nvars)
        for v in range(upto):
            out = out + self.diff(v).diff(v)
        return out

    def lift(self, nvars: int) -> "Polynomial":
        """Reinterpret in a larger variable set (new trailing variables)."""
        if nvars < self.nvars:
            raise ValueError("cannot drop variables")
        pad = (0,) * (nvars - self.nvars)
        return Polynomial(nvars, {e + pad: c for e, c in self.coeffs.items()})

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())

    # -- evaluation ---------------------------------------------------------

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., nvars)."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for e, c in self.coeffs.items():
            term = np.full(pts.shape[:-1], c)
            for v, k in enumerate(e):
                if k:
                    term = term * pts[..., v] ** k
            out += term
        return out

    def gradient(self) -> list["Polynomial"]:
        return [self.diff(v) for v in range(self.nvars)]

    def reflected_sphere_gradient(self, nodes: np.ndarray) -> np.ndarray:
        """Tangential gradient rows, at unit vectors ``nodes`` (N, nvars),
        of the even reflection x -> P(x', |x_last|) restricted to the
        sphere; at the equator the upper side's."""
        folded = nodes.copy()
        folded[:, -1] = np.abs(folded[:, -1])
        sign = np.where(nodes[:, -1] < 0.0, -1.0, 1.0)
        g = np.stack([dp(folded) for dp in self.gradient()], axis=1)
        g[:, -1] *= sign
        g -= np.sum(g * nodes, axis=1, keepdims=True) * nodes
        return g

    # -- exact sphere moments ----------------------------------------------

    def sphere_integral(self) -> float:
        """Exact integral over the unit sphere in R^nvars."""
        total = 0.0
        for e, c in self.coeffs.items():
            total += c * monomial_sphere_integral(e)
        return total

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        terms = []
        for e in sorted(self.coeffs, key=lambda t: (sum(t), t)):
            mono = "*".join(f"x{v}^{k}" if k > 1 else f"x{v}"
                            for v, k in enumerate(e) if k) or "1"
            terms.append(f"{self.coeffs[e]:+g}*{mono}")
        return "Polynomial(" + " ".join(terms) + ")"


def _harmonic_extension(q: Polynomial, parity: int) -> Polynomial:
    """sum_k (-1)^k Lap^k q(x) * t^(2k+parity)/(2k+parity)! in one more
    variable t: harmonic, with the parity ``parity`` in t."""
    out, term, power = Polynomial.zero(q.nvars + 1), q.lift(q.nvars + 1), parity
    while not term.is_zero():
        out = out + term * Polynomial.monomial(
            q.nvars + 1, (0,) * q.nvars + (power,), 1.0 / math.factorial(power))
        term = term.laplacian(upto=q.nvars).scale(-1.0)
        power += 2
    return out


def odd_harmonic_extension(q: Polynomial) -> Polynomial:
    """Unique harmonic polynomial in one more variable, odd in it, with slope
    q: dP/dt(x, 0) = q(x)."""
    return _harmonic_extension(q, 1)


def even_harmonic_extension(q: Polynomial) -> Polynomial:
    """Harmonic polynomial in one more variable, even in it, restricting to
    q: P(x, 0) = q(x)."""
    return _harmonic_extension(q, 0)


def monomial_sphere_integral(exponents: tuple[int, ...]) -> float:
    """Exact integral of prod x_i^{a_i} over S^{d-1}, d = len(exponents)."""
    if any(a % 2 for a in exponents):
        return 0.0
    num = 2.0
    for a in exponents:
        num *= math.gamma((a + 1) / 2.0)
    return num / math.gamma(sum(a + 1 for a in exponents) / 2.0)


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree ``degree``, lexicographic order."""
    out = []
    for combo in iter_product(range(degree + 1), repeat=nvars):
        if sum(combo) == degree:
            out.append(combo)
    return sorted(out, reverse=True)
