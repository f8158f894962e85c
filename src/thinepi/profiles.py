"""Catalog of odd-homogeneity blow-up profiles and explicit 2D solutions.

A profile of homogeneity 2m+1 has the factored form

    p(x) = -|x_{n+1}| * (p0(x') + x_{n+1}^2 * p1(x', x_{n+1})),

with p0 homogeneous of degree 2m and nonnegative on the thin hyperplane.
Admissibility (harmonicity off the hyperplane together with the
superharmonic jump across it) forces the part of p above the hyperplane to be
the unique odd harmonic extension of the slope -p0, so p1 is determined by p0.
Profiles are normalized to unit L^2 norm of their sphere trace.

The module also provides the classical 2D homogeneous solutions used as exact
oracles: for each admissible homogeneity mu (half-integers 2m-1/2, even
integers 2m, odd integers 2m+1) an evaluator with known trace, contact set,
and exactly known trace norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import SphereGrid
from .polynomials import Polynomial, odd_harmonic_extension

# Random points and thin-plane directions sampled by verify_admissible.
ADMISSIBILITY_SAMPLES = 1000


def admissible_frequencies(max_mu: float) -> list[float]:
    """Known homogeneities of nonzero global 2D solutions up to max_mu:
    {2m - 1/2 : m >= 1} union {2m : m >= 1} union {2m+1 : m >= 0}."""
    out = set()
    m = 1
    while 2 * m - 0.5 <= max_mu or 2 * m <= max_mu:
        if 2 * m - 0.5 <= max_mu:
            out.add(2 * m - 0.5)
        if 2 * m <= max_mu:
            out.add(float(2 * m))
        m += 1
    m = 0
    while 2 * m + 1 <= max_mu:
        out.add(float(2 * m + 1))
        m += 1
    return sorted(out)


def in_frequency_list(mu: float) -> bool:
    members = admissible_frequencies(mu + 1.0)
    return any(abs(mu - a) <= 1e-12 for a in members)


# ---------------------------------------------------------------------------
# Blow-up profiles
# ---------------------------------------------------------------------------

@dataclass
class BlowupProfile:
    """Odd-homogeneity profile -|t|(p0 + t^2 p1), t the last coordinate."""

    m: int
    n: int
    p0: Polynomial                 # n variables, degree 2m, >= 0 on the plane
    p1: Polynomial                 # n+1 variables, degree 2m-2 (zero if m=0)
    normalization: float = 1.0

    @property
    def homogeneity(self) -> float:
        return float(2 * self.m + 1)

    def upper_polynomial(self) -> Polynomial:
        """The polynomial equal to p on {t >= 0} (n+1 variables)."""
        d = self.n + 1
        t1 = Polynomial.monomial(d, (0,) * self.n + (1,))
        t3 = Polynomial.monomial(d, (0,) * self.n + (3,))
        body = self.p0.lift(d) * t1 + self.p1 * t3
        return body.scale(-self.normalization)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        folded = np.array(points, dtype=float)
        folded[..., -1] = np.abs(folded[..., -1])
        return self.upper_polynomial()(folded)

    def trace_on(self, grid: SphereGrid) -> np.ndarray:
        if grid.n != self.n:
            raise ValueError(f"grid dimension {grid.n} != profile dimension {self.n}")
        return self(grid.nodes)

    def trace_gradient_on(self, grid: SphereGrid) -> np.ndarray:
        """Tangential gradient of the sphere trace, upper one-sided at the
        equator; shape (N, n+1)."""
        return self.upper_polynomial().reflected_sphere_gradient(grid.nodes)

    def trace_norm_exact(self) -> float:
        """Exact L^2(S^n) norm of the trace via sphere moments."""
        P = self.upper_polynomial()
        return float(np.sqrt((P * P).sphere_integral()))


def default_slope(m: int, n: int) -> Polynomial:
    """Default slope factor p0: 1 for m=0; (2m+1)x1^(2m) for n=1 (the
    imaginary-part family); |x'|^(2m) for n=2."""
    if m == 0:
        return Polynomial.constant(n, 1.0)
    if n == 1:
        return Polynomial.monomial(1, (2 * m,), float(2 * m + 1))
    radial = Polynomial.monomial(2, (2, 0)) + Polynomial.monomial(2, (0, 2))
    out = Polynomial.constant(2, 1.0)
    for _ in range(m):
        out = out * radial
    return out


def make_profile(m: int, n: int, coefficients=None, normalize: bool = True) -> BlowupProfile:
    """Build and validate a profile from slope data.

    ``coefficients`` is the slope factor p0, a Polynomial in n variables
    homogeneous of degree 2m, or None for the default family
    (``default_slope``); p1 is the one forced by harmonicity.  An m whose
    harmonic extension overflows a float, or whose values carry a relative
    roundoff above the admissibility tolerance, raises ValueError.
    """
    if m < 0 or n not in (1, 2):
        raise ValueError(f"need m >= 0 and n in {{1,2}}, got m={m}, n={n}")
    # The extension divides by (2m+1)!, and 170! is the last finite float.
    if 2 * m + 1 > 170:
        raise ValueError(f"m={m} is too large: the harmonic extension "
                         f"divides by (2m+1)!, which overflows a float")
    p0 = default_slope(m, n) if coefficients is None else coefficients
    if p0.is_zero():
        raise ValueError("slope factor p0 must be nonzero")
    degrees = {sum(e) for e in p0.coeffs}
    if degrees != {2 * m}:
        raise ValueError(f"p0 must be homogeneous of degree {2*m}, found degrees {sorted(degrees)}")

    profile = _profile_from_slope(m, n, p0)
    report = verify_admissible(profile)
    if not report.passed:
        raise ValueError(f"profile is not admissible: {report.failures()}")
    # eps times the magnitudes of p's terms, summed, bounds its values' roundoff
    pts = _admissibility_samples(n)[0]
    terms = Polynomial(n + 1, {e: abs(c) for e, c in profile.upper_polynomial().coeffs.items()})
    roundoff = np.finfo(float).eps * np.max(terms(np.abs(pts))) / np.max(np.abs(profile(pts)))
    if roundoff > report.tolerance:
        raise ValueError(f"m={m} is too large: relative roundoff {roundoff:.3e} of its values")

    if normalize:
        profile.normalization = 1.0 / profile.trace_norm_exact()
    return profile


def _profile_from_slope(m: int, n: int, p0: Polynomial) -> BlowupProfile:
    ext = odd_harmonic_extension(p0.scale(-1.0))  # harmonic, odd, slope -p0
    # ext = -(p0 * t + p1 * t^3); recover p1 by stripping the linear-in-t part.
    d = n + 1
    p1_coeffs: dict[tuple[int, ...], float] = {}
    for e, c in ext.coeffs.items():
        if e[-1] == 1:
            continue  # the -p0 * t part
        e1 = e[:-1] + (e[-1] - 3,)
        if e1[-1] < 0:
            raise AssertionError("odd extension produced an even power of t")
        p1_coeffs[e1] = -c
    return BlowupProfile(m=m, n=n, p0=p0, p1=Polynomial(d, p1_coeffs))


def operator_T(p: BlowupProfile) -> Polynomial:
    """Slope factor on the thin hyperplane, including normalization."""
    return p.p0.scale(p.normalization)


def zero_set(p: BlowupProfile, delta: float, grid: SphereGrid) -> np.ndarray:
    """Equator nodes where the normalized slope factor is >= delta."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    t_eval = operator_T(p)(grid.nodes[grid.equator][:, : p.n])
    return np.sort(grid.equator[t_eval >= delta])


# ---------------------------------------------------------------------------
# Admissibility report
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    harmonic_residual: float       # max |Lap p| off the plane over its terms' scale
    jump_sign_min: float           # min of p0 over sampled thin-plane directions
    euler_residual: float          # max |grad p . x - (2m+1) p| over its terms' scale
    passed: bool = field(init=False)
    tolerance = 1e-8               # a class constant, not a field

    def __post_init__(self):
        self.passed = (
            self.harmonic_residual <= self.tolerance
            and self.jump_sign_min >= -self.tolerance
            and self.euler_residual <= self.tolerance
        )

    def failures(self) -> list[str]:
        out = []
        if self.harmonic_residual > self.tolerance:
            out.append(f"not harmonic off the plane (residual {self.harmonic_residual:.3e})")
        if self.jump_sign_min < -self.tolerance:
            out.append(f"slope factor changes sign (min {self.jump_sign_min:.3e})")
        if self.euler_residual > self.tolerance:
            out.append(f"not homogeneous (Euler residual {self.euler_residual:.3e})")
        return out


def _admissibility_samples(n: int) -> tuple[np.ndarray, np.ndarray]:
    """ADMISSIBILITY_SAMPLES seeded points of the unit ball in n+1 variables,
    at radius at least 0.1, and as many thin-plane directions."""
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((ADMISSIBILITY_SAMPLES, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.1, 1.0, size=(ADMISSIBILITY_SAMPLES, 1))
    dirs = rng.standard_normal((ADMISSIBILITY_SAMPLES, n))
    return pts, dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def verify_admissible(p: BlowupProfile) -> AdmissibilityReport:
    """Residual checks for the profile class membership at
    ADMISSIBILITY_SAMPLES seeded random points, against the report's
    tolerance; never raises.  The harmonic and Euler residuals are measured
    against the scale of the terms that cancel in them.  Evenness in the
    last coordinate and vanishing on the plane hold by construction:
    ``BlowupProfile.__call__`` folds |t|, and every term of the upper
    polynomial carries t."""
    P = p.upper_polynomial()
    lap = P.laplacian()
    pts, thin_dirs = _admissibility_samples(p.n)

    # Lap P sums terms that cancel; the Laplacian of P with absolute
    # coefficients, at |x|, sums their magnitudes, the scale of its roundoff.
    terms = Polynomial(P.nvars, {e: abs(c) for e, c in P.coeffs.items()})
    harm = (float(np.max(np.abs(lap(pts))) / np.max(terms.laplacian()(np.abs(pts))))
            if lap.coeffs else 0.0)
    jump_min = float(np.min(operator_T(p)(thin_dirs)))

    # p(x', t) = P(x', |t|), so p's Euler identity at x is P's at the folded x;
    # grad P . x and mu P each sum terms of magnitude mu times those of P
    vals = p(pts)
    gp = P.gradient()
    folded = pts.copy()
    folded[:, -1] = np.abs(folded[:, -1])
    g = np.stack([gp[v](folded) for v in range(p.n + 1)], axis=1)
    euler = (float(np.max(np.abs(np.sum(g * folded, axis=1) - p.homogeneity * vals)))
             / (2.0 * p.homogeneity * float(np.max(terms(np.abs(pts))))))

    return AdmissibilityReport(harmonic_residual=harm, jump_sign_min=jump_min,
                               euler_residual=euler)


# ---------------------------------------------------------------------------
# Explicit 2D homogeneous solutions
# ---------------------------------------------------------------------------

@dataclass
class HalfspaceSolution2D:
    """Classical mu-homogeneous solution on R^2, even in x2.

    Families by homogeneity: half-integers 2m-1/2 have trace cos(mu*theta)
    with contact on the half-line theta=pi; even integers 2m are the plain
    harmonic polynomials Re((x1+i x2)^mu) touching only at the origin; odd
    integers 2m+1 have trace -sin(mu*theta) and contact on the whole line.
    The folded angle theta is measured in [0, pi] on the upper half circle.
    """

    mu: float
    family: str                    # "halfinteger" | "even" | "odd"

    def trace(self, theta_folded: np.ndarray) -> np.ndarray:
        th = np.asarray(theta_folded, dtype=float)
        if self.family == "odd":
            return -np.sin(self.mu * th)
        return np.cos(self.mu * th)

    def trace_on(self, grid: SphereGrid) -> np.ndarray:
        return self.trace(_circle_angles(grid))

    def trace_gradient_on(self, grid: SphereGrid) -> np.ndarray:
        """Tangential gradient of the circle trace, upper one-sided at the
        equator: the folded-angle derivative times ``grid.folded_tangents``;
        shape (N, 2)."""
        th = _circle_angles(grid)
        if self.family == "odd":
            slope = -self.mu * np.cos(self.mu * th)
        else:
            slope = -self.mu * np.sin(self.mu * th)
        return slope[:, None] * grid.folded_tangents

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        r = np.hypot(pts[..., 0], pts[..., 1])
        th = np.arctan2(np.abs(pts[..., 1]), pts[..., 0])
        with np.errstate(invalid="ignore"):
            return np.where(r > 0.0, r**self.mu * self.trace(th), 0.0)


def _circle_angles(grid: SphereGrid) -> np.ndarray:
    if grid.n != 1:
        raise ValueError("2D solutions trace onto S^1 grids only")
    return grid.theta_folded


def halfspace_2d(mu: float) -> HalfspaceSolution2D:
    """Evaluator for the explicit mu-homogeneous solution; mu must belong to
    the admissible list."""
    if not in_frequency_list(mu):
        raise ValueError(
            f"mu={mu} is not an admissible 2D homogeneity "
            "(half-integers 2m-1/2, even integers >= 2, odd integers >= 1)")
    rounded = round(mu)
    if abs(mu - rounded) > 1e-12:
        family = "halfinteger"
    elif rounded % 2 == 0:
        family = "even"
    else:
        family = "odd"
    return HalfspaceSolution2D(mu=float(mu), family=family)
