"""Scale-analysis tests: moments, truncated frequency, rescalings,
monotonicity bounds, blow-up fits, and contact stratification."""

import dataclasses
import math

import numpy as np
import pytest

from thinepi import frequency
from thinepi.cli import case_spec
from thinepi.frequency import (
    BlowupFit,
    FrequencyParams,
    FrequencyProfile,
    blowup_fit,
    default_sphere,
    linfty_l2_check,
    stratify_contact,
    truncated_frequency,
    vanishing_on_Zdelta_check,
    weiss_monotonicity_check,
)
from thinepi.grids import SphereGrid, radii_ladder
from thinepi.polynomials import Polynomial, monomials_of_degree
from thinepi.profiles import (_profile_from_slope, halfspace_2d,
                              make_profile, zero_set)
from thinepi.solver import ProblemSpec, solve_thin_obstacle

PARAMS = FrequencyParams(theta=0.25, k=2, gamma=0.5)


@pytest.fixture(scope="module")
def p01():
    return make_profile(0, 1)


@pytest.fixture(scope="module")
def p02():
    return make_profile(0, 2)


@pytest.fixture(scope="module")
def h32():
    return halfspace_2d(1.5)


@pytest.fixture(scope="module")
def sol_profile32():
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle={"kind": "zero"},
                       boundary={"kind": "profile", "m": 0, "n": 1},
                       k=2, gamma=0.5)
    return solve_thin_obstacle(spec)


@pytest.fixture(scope="module")
def sol_half64():
    spec = ProblemSpec(dimension=2, h=1 / 64, obstacle={"kind": "zero"},
                       boundary={"kind": "halfspace", "mu": 1.5},
                       k=2, gamma=0.5)
    return solve_thin_obstacle(spec)


def near_profile_solution(seed: int):
    """The CLI's near-profile case at h = 1/32: the catalog profile plus a
    seeded random even bump vanishing at the equator."""
    return solve_thin_obstacle(case_spec("near-profile", 32, seed))


@pytest.fixture(scope="module")
def sol_near_p():
    return near_profile_solution(101)


# ---------------------------------------------------------------------------
# sphere sampler
# ---------------------------------------------------------------------------

def _spheres_reference(evaluate, center, radii, nodes):
    """The per-sphere sampler: one evaluation at every node of each sphere."""
    out = np.empty((len(radii), nodes.shape[0]))
    for i, r in enumerate(radii):
        out[i] = evaluate(center[None, :] + r * nodes)
    return out


@pytest.fixture
def checked_spheres(monkeypatch):
    """Run every ``_on_spheres`` call also through the per-sphere reference,
    require bit-identical rows, and record (center, whether a whole grid
    was read) per call."""
    seen = []
    batched = frequency._on_spheres

    def checked(adapter, center, radii, sphere):
        got = batched(adapter, center, radii, sphere)
        grid = isinstance(sphere, SphereGrid)
        nodes = sphere.nodes if grid else sphere
        want = _spheres_reference(adapter.evaluate, center, radii, nodes)
        assert np.array_equal(got, want)
        seen.append((center.copy(), grid))
        return got

    monkeypatch.setattr(frequency, "_on_spheres", checked)
    return seen


@pytest.fixture(scope="module")
def sol_profile3d16():
    spec = ProblemSpec(dimension=3, h=1 / 16, obstacle={"kind": "zero"},
                       boundary={"kind": "profile", "m": 0, "n": 2},
                       k=2, gamma=0.5)
    return solve_thin_obstacle(spec)


def test_sphere_sampler_matches_per_sphere_reference_2d(
        checked_spheres, sol_near_p, p01):
    truncated_frequency(sol_near_p, np.zeros(2), params=PARAMS)
    truncated_frequency(sol_near_p, np.array([0.1, 0.05]), params=PARAMS,
                        count=4)                              # off the plane
    rep = vanishing_on_Zdelta_check(sol_near_p, 0.3, p01, 0.4)
    assert not rep.skipped
    linfty_l2_check(sol_near_p, p01, 0.3)
    # the stratification ladders are centered on the thin plane, away from
    # the origin
    stratify_contact(sol_near_p, max_points=3)
    centers = np.array([c for c, _ in checked_spheres])
    assert np.any((centers[:, -1] == 0.0) & (centers[:, 0] != 0.0))
    assert np.any(centers[:, -1] != 0.0)
    assert not all(grid for _, grid in checked_spheres)   # Z_delta subset


def test_sphere_sampler_matches_per_sphere_reference_3d(
        checked_spheres, sol_profile3d16):
    grid = default_sphere(2)
    assert grid.kind == "latlong"
    for x0 in ([0.0, 0.0, 0.0], [0.1, -0.05, 0.0], [0.0, 0.1, 0.1]):
        truncated_frequency(sol_profile3d16, np.array(x0), count=4,
                            r_max=0.45)
    # each 4-rung ladder fits in one block: one read per ladder
    assert len(checked_spheres) == 3


def test_sphere_sampler_halves_exact_even_fields(checked_spheres, p01, h32):
    origin = np.zeros(2)
    for v in (p01, h32):
        assert frequency.FieldAdapter.adapt(v).even
        truncated_frequency(v, origin, params=PARAMS)
        blowup_fit(v, origin, 0, radii_ladder(0.6, 6)[::-1])
    assert checked_spheres and all(c[-1] == 0.0 for c, _ in checked_spheres)


def test_sphere_sampler_reads_plain_callables_at_every_node(p01, h32):
    origin = np.zeros(2)
    sizes = []

    def constructed(points):
        sizes.append(len(points))
        return p01(points) + 0.3 * h32(points)

    assert not frequency.FieldAdapter.adapt(constructed, dimension=2).even
    truncated_frequency(constructed, origin, params=PARAMS)
    # every node of the sphere of radius r of each of the 24 rungs
    assert sum(sizes) == 24 * default_sphere(1).size


def test_sphere_sampler_halves_grid_fields_on_the_plane(sol_near_p):
    grid = default_sphere(1, 1024)
    reps, _ = grid.mirror_halves
    sizes = []

    def counted(points):
        sizes.append(len(points))
        return sol_near_p.evaluate(points)

    adapter = frequency.FieldAdapter(evaluate=counted, dimension=2,
                                     r_max=1.0, h=sol_near_p.h, even=True)
    radii = (0.2, 0.3, 0.4)
    for center, points in ((np.array([0.1, 0.0]), reps.size),
                           (np.array([0.1, 0.1]), grid.size)):
        sizes.clear()
        got = frequency._on_spheres(adapter, center, radii, grid)
        assert sizes == [len(radii) * points]
        assert np.array_equal(got, _spheres_reference(
            sol_near_p.evaluate, center, radii, grid.nodes))


def test_sphere_sampler_keeps_odd_callables_odd():
    grid = default_sphere(1, 1024)
    odd = frequency.FieldAdapter.adapt(lambda x: x[..., -1], dimension=2)
    radii = (0.5, 1.0)
    got = frequency._on_spheres(odd, np.zeros(2), radii, grid)
    assert np.array_equal(got, _spheres_reference(odd.evaluate, np.zeros(2),
                                                  radii, grid.nodes))
    assert np.array_equal(got[:, grid.reflect], -got)
    assert np.max(got) > 0.0


def _counted(adapter, sizes):
    """The adapter with its evaluations' point counts appended to sizes."""
    def evaluate(points):
        sizes.append(len(points))
        return adapter.evaluate(points)
    return dataclasses.replace(adapter, evaluate=evaluate)


def _reference_moments(evaluate, x0, radii, grid, h):
    """(H, I) rung by rung: one evaluation per sphere, at every node."""
    H, I = np.empty(len(radii)), np.empty(len(radii))
    for i, r in enumerate(radii):
        r = float(r)
        dr = h / 2.0 if h is not None else 1e-4 * r
        vals, vp, vm = _spheres_reference(evaluate, x0, (r, r + dr, r - dr),
                                          grid.nodes)
        dv = (vp - vm) / (2.0 * dr)
        H[i] = r * float(grid.weights @ (vals * vals))      # r^n, n = 1
        I[i] = r * float(grid.weights @ (vals * dv))
    return H, I


def _reference_frequency(H, radii, params):
    theta = params.resolved_theta()
    floor = radii ** (1 + 2.0 * (params.k + params.gamma - theta))
    logM, logr = np.log(np.maximum(H, floor)), np.log(radii)
    dlog = np.empty(radii.size)
    dlog[1:-1] = (logM[:-2] - logM[2:]) / (logr[:-2] - logr[2:])
    dlog[0] = (logM[0] - logM[1]) / (logr[0] - logr[1])
    dlog[-1] = (logM[-2] - logM[-1]) / (logr[-2] - logr[-1])
    return (1.0 + params.c_phi * radii ** theta) * dlog


def _reference_blowup(evaluate, x0, radii, grid, mu):
    """(coefficients, dist_l2, dist_linf) of a 2D m = 0 fit, rung by rung."""
    monos = monomials_of_degree(1, 0)
    A = np.stack([_profile_from_slope(0, 1, Polynomial.monomial(1, e))
                  .trace_on(grid) for e in monos], axis=1)
    traces = [_spheres_reference(evaluate, x0, (float(r),), grid.nodes)[0]
              / float(r) ** mu for r in radii]
    W = grid.weights
    coeffs = np.linalg.solve(A.T @ (W[:, None] * A), A.T @ (W * traces[-1]))
    p_trace = A @ coeffs
    sups = [float(np.max(np.abs(t - p_trace))) for t in traces]
    dist_l2 = np.array([sup * math.sqrt(max(float(W @ ((t - p_trace) / sup)
                                                  ** 2), 0.0))
                        for t, sup in zip(traces, sups)])
    shells = np.linspace(1.0 / 16, 1.0, 16)
    dist_linf = []
    for r in radii:
        vr = _spheres_reference(evaluate, x0, r * shells, grid.nodes) / r ** mu
        dist_linf.append(max(float(np.max(np.abs(v - s ** mu * p_trace)))
                             for s, v in zip(shells, vr)))
    return coeffs, dist_l2, np.array(dist_linf)


def test_ladder_reads_match_per_rung_reference(sol_near_p, h32):
    origin = np.zeros(2)
    radii = np.geomspace(0.6, 0.1, 24)         # all above 3h = 0.094
    blocked = False
    for v in (sol_near_p, h32):
        sizes = []
        plain = frequency.FieldAdapter.adapt(v)
        adapter = _counted(plain, sizes)
        prof = truncated_frequency(adapter, origin, params=PARAMS,
                                   radii=radii)
        assert prof.radii.size == 24
        H, I = _reference_moments(plain.evaluate, origin, radii,
                                  default_sphere(1), plain.h)
        assert np.array_equal(prof.H, H)
        assert np.array_equal(prof.I, I)
        assert np.array_equal(prof.Phi, _reference_frequency(H, radii, PARAMS))
        blocked = blocked or len(sizes) > 1

        fit = blowup_fit(adapter, origin, 0, radii)
        coeffs, dist_l2, dist_linf = _reference_blowup(
            plain.evaluate, origin, radii, frequency._diagnostic_sphere(1),
            fit.mu)
        assert np.array_equal(fit.coefficients, coeffs)
        assert np.array_equal(fit.dist_l2, dist_l2)
        assert np.array_equal(fit.dist_linf, dist_linf)
        assert max(sizes) <= frequency._READ_POINTS
    assert blocked


def test_ladder_reach_checked_before_any_read(sol_half64):
    sizes = []
    grid_field = _counted(frequency.FieldAdapter.adapt(sol_half64), sizes)
    with pytest.raises(ValueError, match="domain"):
        frequency._surface_moments(grid_field, np.array([0.8, 0.0]), (0.5,),
                                   default_sphere(1))
    # a finite reach without a mesh width: no rung is dropped beforehand
    unmeshed = dataclasses.replace(grid_field, h=None)
    radii = radii_ladder(0.6, 24)[::-1]          # top rung 0.6 from 0.5
    with pytest.raises(ValueError, match="domain"):
        truncated_frequency(unmeshed, np.array([0.5, 0.0]), params=PARAMS,
                            radii=radii)
    # the top rung r = 0.5 fits, its sphere r + dr of the pairing I does not
    radii = radii_ladder(0.5, 24)[::-1]
    assert unmeshed.r_max - 0.5 == radii[0]
    with pytest.raises(ValueError, match="domain"):
        truncated_frequency(unmeshed, np.array([0.5, 0.0]), params=PARAMS,
                            radii=radii)
    assert sizes == []


def _reach_of_rung(adapter, x0, radius):
    """The reach check of one radius, as a loop over the rungs ran it: the
    reference for the check of a whole ladder in one comparison."""
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


def _raised(check, *args):
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


def test_ladder_reach_names_the_first_failing_rung(sol_half64):
    # The whole ladder in one comparison raises the message the loop over
    # its rungs raised first, for the same rung, or nothing when it did not.
    meshed = frequency.FieldAdapter.adapt(sol_half64)
    rng = np.random.default_rng(17)
    seen = set()
    for adapter in (meshed, dataclasses.replace(meshed, h=None)):
        for _ in range(300):
            x0 = np.array([rng.uniform(-0.3, 0.3), 0.0])
            radii = rng.uniform(0.0, 1.0, size=rng.integers(1, 30))
            expected = _raised(
                lambda: [_reach_of_rung(adapter, x0, float(r)) for r in radii])
            assert _raised(frequency._check_reach, adapter, x0,
                           radii) == expected
            seen.add(expected and expected.split(" ")[2])
    assert seen == {None, "around", "too"}


def test_frequency_reads_one_sphere_per_rung_and_I_once(sol_near_p):
    sizes = []
    adapter = _counted(frequency.FieldAdapter.adapt(sol_near_p), sizes)
    prof = truncated_frequency(adapter, np.zeros(2), params=PARAMS)
    half = default_sphere(1).mirror_halves[0].size
    assert sum(sizes) == prof.radii.size * half > 0
    sizes.clear()
    I = prof.I                                   # the r - dr, r + dr spheres
    assert sum(sizes) == 2 * prof.radii.size * half
    sizes.clear()
    assert prof.I is I and prof.rows()[0]["I"] == I[0]
    assert sizes == []


def test_stratify_reads_one_sphere_per_rung(monkeypatch, sol_half64):
    sizes, profiles = [], []
    frequency_of = frequency.truncated_frequency

    def recorded(*args, **kwargs):
        profiles.append(frequency_of(*args, **kwargs))
        return profiles[-1]

    monkeypatch.setattr(frequency, "truncated_frequency", recorded)
    monkeypatch.setattr(frequency, "zero_obstacle_field",
                        lambda u, x: _counted(frequency.FieldAdapter.adapt(u),
                                              sizes))
    report = stratify_contact(sol_half64)
    read = [row for row in report.rows if row["mu_estimate"] is not None]
    assert any(row["label"] == 1.5 for row in read)
    assert len(profiles) == len(read)
    half = frequency._diagnostic_sphere(1).mirror_halves[0].size
    assert sum(sizes) == sum(p.radii.size for p in profiles) * half


# ---------------------------------------------------------------------------
# surface moments
# ---------------------------------------------------------------------------

def _moments(v, x0, radii):
    """(H, I) per radius about the full-coordinate center x0, on the
    moment sphere."""
    adapter, grid = frequency.FieldAdapter.adapt(v), default_sphere(1)
    H, traces = frequency._surface_moments(adapter, x0, radii, grid)
    return H, frequency._pairing(adapter, x0, radii, traces, grid)


def test_surface_moments_homogeneous_exact(p01):
    radii = np.array([0.45, 0.2])
    H, I = _moments(p01, np.zeros(2), radii)
    assert H == pytest.approx(radii ** 3, rel=1e-12)
    assert radii * I / H == pytest.approx(1.0, abs=1e-9)


def test_surface_moments_solution_matches_field(sol_half64, h32):
    radii = np.array([0.4, 0.15])
    Hs, Is = _moments(sol_half64, np.zeros(2), radii)
    Ha, Ia = _moments(h32, np.zeros(2), radii)
    assert Hs == pytest.approx(Ha, rel=3e-2)
    assert Is == pytest.approx(Ia, rel=3e-2)


def test_surface_moments_radius_guards(sol_half64):
    with pytest.raises(ValueError, match="too small"):
        _moments(sol_half64, np.zeros(2), (0.02,))
    with pytest.raises(ValueError, match="domain"):
        _moments(sol_half64, np.array([0.8, 0.0]), (0.5,))


# ---------------------------------------------------------------------------
# truncated frequency
# ---------------------------------------------------------------------------

def test_frequency_homogeneous_identity(p01):
    prof = truncated_frequency(p01, None, PARAMS)
    assert np.abs(prof.normalized() - 3.0).max() <= 1e-6
    assert prof.mu_estimate() == pytest.approx(1.0, abs=1e-8)
    assert prof.violations == []
    assert not prof.truncation_active.any()


def test_frequency_homogeneous_half_integer(h32):
    prof = truncated_frequency(h32, None, PARAMS)
    assert np.abs(prof.normalized() - 4.0).max() <= 1e-6
    assert prof.mu_estimate() == pytest.approx(1.5, abs=1e-8)


def test_frequency_truncation_branch_for_zero_field():
    zero = lambda pts: np.zeros(np.asarray(pts).shape[0])
    prof = truncated_frequency(zero, np.zeros(2), PARAMS)
    assert prof.truncation_active.all()
    expected = 1 + 2 * (2 + 0.5 - 0.25)
    assert np.abs(prof.normalized() - expected).max() <= 1e-10
    with pytest.raises(ValueError, match="reliable"):
        prof.mu_estimate()


def test_frequency_profile_invariants():
    grid = default_sphere(1)
    constant = frequency.FieldAdapter.adapt(
        lambda pts: np.ones(np.asarray(pts).shape[0]), dimension=2)
    good = dict(x0=np.zeros(2), n=1, radii=[0.4, 0.2], H=[1.0, 0.5],
                Phi=[3.0, 3.0], truncation_active=np.zeros(2, dtype=bool),
                theta=0.25, c_phi=10.0, k=2, gamma=0.5, adapter=constant,
                grid=grid, traces=np.ones((2, grid.size)))
    assert np.array_equal(FrequencyProfile(**good).I, np.zeros(2))
    with pytest.raises(ValueError, match="decreasing"):
        FrequencyProfile(**{**good, "radii": [0.2, 0.4]})
    with pytest.raises(ValueError, match="nonnegative"):
        FrequencyProfile(**{**good, "H": [1.0, -0.5]})
    with pytest.raises(ValueError, match="theta"):
        FrequencyParams(theta=0.7, gamma=0.5).resolved_theta()


def test_frequency_violation_log_on_radial_ripple(p01):
    ripple = lambda pts: p01(pts) * (1.0 + 0.01 * np.sin(
        40 * np.linalg.norm(np.asarray(pts), axis=-1)))
    prof = truncated_frequency(ripple, np.zeros(2), PARAMS)
    assert prof.violations
    for radius, drop in prof.violations:
        assert drop > 0
        assert radius in prof.radii
    assert prof.max_violation() > 0


def test_frequency_solved_case_plateau(sol_half64):
    prof = truncated_frequency(sol_half64, np.zeros(2), PARAMS)
    assert prof.mu_estimate() == pytest.approx(1.5, abs=5e-3)
    assert prof.max_violation() <= 1e-2


def test_frequency_needs_usable_radii(sol_half64):
    with pytest.raises(ValueError, match="usable ladder"):
        truncated_frequency(sol_half64, np.zeros(2), PARAMS,
                            radii=np.array([0.03, 0.02]))


def test_frequency_rows_for_reporting(p01):
    rows = truncated_frequency(p01, None, PARAMS).rows()
    assert {"radius", "H", "I", "Phi", "normalized", "truncated"} \
        <= set(rows[0])
    assert rows[0]["radius"] > rows[-1]["radius"]


# ---------------------------------------------------------------------------
# homogeneous rescalings
# ---------------------------------------------------------------------------

def _rescaling(v, r, dimension=None):
    """The mu = 1 homogeneous rescaling of v about the origin."""
    adapter = frequency.FieldAdapter.adapt(v, dimension)
    d = adapter.dimension
    return frequency._homogeneous_rescaling(
        adapter, np.zeros(d), r, 1.0, default_sphere(d - 1))


def test_rescale_guards(sol_profile32):
    with pytest.raises(ValueError, match="leaves the computational domain"):
        _rescaling(sol_profile32, 0.99)
    with pytest.raises(ValueError, match="too small for the grid"):
        _rescaling(sol_profile32, 0.05)


def test_rescale_ball_has_zero_scale_energy(p01):
    ball = _rescaling(p01, 0.6)
    grid = default_sphere(1)
    assert np.abs(ball[-1] - p01.trace_on(grid)).max() <= 1e-14
    energy, same = frequency._scale_energy(
        frequency.FieldAdapter.adapt(p01), np.zeros(2), 0.6, 1.0, grid)
    assert np.array_equal(same, ball)
    assert abs(energy) <= 1e-9


def test_rescale_ball_reads_each_sphere_once(p01):
    calls = []

    def counted(points):
        calls.append(len(points))
        return p01(points)

    # 48 radial spheres and the trace sphere (radius 1), read in one call
    nodes = default_sphere(1).size
    _rescaling(counted, 0.5, dimension=2)
    assert calls == [49 * nodes]


# ---------------------------------------------------------------------------
# energy monotonicity along scales
# ---------------------------------------------------------------------------

def test_monotonicity_homogeneous_solution_is_flat(p01):
    radii = radii_ladder(0.5, 8)[::-1]
    rep = weiss_monotonicity_check(p01, 1.0, radii)
    assert abs(rep.min_margin_gradient) <= 1e-10
    assert abs(rep.min_margin_competitor) <= 1e-10
    assert np.abs(rep.energies).max() <= 1e-9
    assert rep.passed()


def test_monotonicity_sharp_single_mode(h32):
    # one mode of homogeneity 3/2 analyzed at 1: both bounds are equalities
    radii = radii_ladder(0.5, 8)[::-1]
    rep = weiss_monotonicity_check(h32, 1.0, radii)
    for row in rep.steps:
        assert row.dG == pytest.approx(math.pi / 2, abs=5e-3)
        assert abs(row.margin_gradient) <= 5e-3
        assert abs(row.margin_competitor) <= 5e-3


def test_monotonicity_mixed_field(p01, h32):
    v = lambda pts: p01(pts) + 0.3 * h32(pts)
    radii = radii_ladder(0.5, 8)[::-1]
    rep = weiss_monotonicity_check(v, 1.0, radii, np.zeros(2))
    assert rep.min_margin_gradient >= -5e-3
    assert rep.min_margin_competitor >= -5e-3
    assert rep.passed(slack=5e-3)


def test_monotonicity_solved_case(sol_half64):
    radii = radii_ladder(0.45, 8)[::-1]
    rep = weiss_monotonicity_check(sol_half64, 1.5, radii)
    assert rep.passed(slack=0.1)


def test_monotonicity_guards(p01):
    with pytest.raises(ValueError, match="at least 4"):
        weiss_monotonicity_check(p01, 1.0, [0.5, 0.4, 0.3])
    with pytest.raises(ValueError, match="decreasing"):
        weiss_monotonicity_check(p01, 1.0, [0.2, 0.3, 0.4, 0.5])


# ---------------------------------------------------------------------------
# blow-up fitting
# ---------------------------------------------------------------------------

def test_blowup_exact_profile_is_degenerate(p01, p02):
    radii = radii_ladder(0.5, 10)[::-1]
    for p in (p01, p02):
        fit = blowup_fit(p, None, 0, radii)
        assert fit.degenerate
        assert fit.exponent is None and fit.band is None
        assert fit.admissible
        assert fit.coefficients[0] == pytest.approx(p.normalization, rel=1e-10)
        assert fit.dist_linf.max() <= 1e-12


def test_blowup_half_mode_exponent(p01, h32):
    v = lambda pts: p01(pts) + 0.3 * h32(pts)
    radii = radii_ladder(0.6, 16)[::-1]
    fit = blowup_fit(v, np.zeros(2), 0, radii)
    assert not fit.degenerate
    assert abs(fit.exponent - 0.5) <= 0.05
    assert fit.band[0] < fit.exponent < fit.band[1]
    assert np.all(np.diff(fit.dist_linf) < 0)   # decreasing with the radii
    assert fit.admissible


def test_blowup_exponent_is_scale_free(p01):
    # The decay exponent of s * v does not depend on s: the roundoff cut is
    # relative to the fitted profile, so tiny scales are not degenerate.
    h2 = halfspace_2d(2.0)
    radii = radii_ladder(0.6, 16)[::-1]
    exponents = {s: blowup_fit(lambda pts: s * (p01(pts) + 0.3 * h2(pts)),
                               np.zeros(2), 0, radii).exponent
                 for s in (1e-300, 1e-20, 1.0, 1e20)}
    assert exponents[1.0] == pytest.approx(0.99336, abs=1e-5)
    for s, exponent in exponents.items():
        assert exponent == pytest.approx(exponents[1.0], rel=1e-10), s


def test_blowup_l2_distance_is_scale_free(p01):
    # dist_l2 of s * v is s times that of v: it does not underflow for tiny
    # fields or overflow for large ones.
    h2 = halfspace_2d(2.0)
    radii = radii_ladder(0.6, 16)[::-1]
    dists = {s: blowup_fit(lambda pts: s * (p01(pts) + 0.3 * h2(pts)),
                           np.zeros(2), 0, radii).dist_l2 / s
             for s in (1e-300, 1e-160, 1e-20, 1.0, 1e20)}
    assert np.all(dists[1.0] > 0.0)
    for s, dist in dists.items():
        assert dist == pytest.approx(dists[1.0], rel=1e-10), s


def test_blowup_solved_near_profile_positive_exponent(sol_near_p):
    radii = radii_ladder(0.45, 10)[::-1]
    fit = blowup_fit(sol_near_p, np.zeros(2), 0, radii)
    assert not fit.degenerate
    assert fit.exponent > 0.3


def test_blowup_guards(p01):
    with pytest.raises(ValueError, match="4 radii"):
        blowup_fit(p01, None, 0, [0.5, 0.4, 0.3])
    with pytest.raises(ValueError, match="decreasing"):
        blowup_fit(p01, None, 0, [0.1, 0.2, 0.3, 0.4])


def test_blowup_rows_for_reporting(p01):
    fit = blowup_fit(p01, None, 0, radii_ladder(0.5, 6)[::-1])
    rows = fit.rows()
    assert {"radius", "dist_l2", "dist_linf"} <= set(rows[0])
    assert len(rows) == 6


# ---------------------------------------------------------------------------
# vanishing on the high-slope directions
# ---------------------------------------------------------------------------

def test_zdelta_exact_profile_passes(p01, p02):
    for p in (p01, p02):
        rep = vanishing_on_Zdelta_check(p, 0.3, p, 0.4)
        assert not rep.skipped
        assert rep.hypothesis_linf <= 1e-12
        assert rep.max_sup_rescaled == 0.0
        assert rep.r_primes.size == rep.sup_rescaled.size == 5


@pytest.mark.parametrize("n", [1, 2])
def test_zdelta_reads_the_annulus_and_the_zero_set_ladder_only(n):
    p = make_profile(0, n)
    grid = frequency._diagnostic_sphere(n)
    zero = zero_set(p, 0.4, grid)
    sizes = []

    def counted(points):
        sizes.append(len(points))
        return p(points)

    # a plain callable is read at every node of each sphere
    rep = vanishing_on_Zdelta_check(counted, 0.3, p, 0.4)
    assert not rep.skipped
    # 26 annulus spheres, then at most 8 Z_delta directions on 5 rungs
    assert sum(sizes) == 26 * grid.size + 5 * min(zero.size, 8)


def test_zdelta_far_field_skips(p01):
    far = lambda pts: p01(np.asarray(pts)) + 1.0
    rep = vanishing_on_Zdelta_check(far, 0.3, p01, 0.4)
    assert rep.skipped
    assert rep.hypothesis_linf > 0.1


def test_zdelta_solved_near_profile(sol_near_p, p01):
    rep = vanishing_on_Zdelta_check(sol_near_p, 0.3, p01, 0.4)
    assert not rep.skipped
    assert rep.max_sup_rescaled <= 1e-12


def test_zdelta_radius_guard(sol_half64, p01):
    with pytest.raises(ValueError, match="too large"):
        vanishing_on_Zdelta_check(sol_half64, 0.8, p01, 0.4)


def test_zdelta_refuses_an_annulus_it_cannot_read_whole(sol_half64, p01):
    # The hypothesis is a sup over the annulus (1/4, 3/2): an r whose 1.5 r
    # passes the read limit 1 - 3h is refused, not read over fewer shells.
    r = (1.0 - 3.0 / 64) / 1.3
    with pytest.raises(ValueError, match=f"needs radius {1.5 * r}"):
        vanishing_on_Zdelta_check(sol_half64, r, p01, 0.4)


# ---------------------------------------------------------------------------
# sup-vs-L2 interpolation constant
# ---------------------------------------------------------------------------

def test_linfty_l2_exact_zero(p01, p02):
    for p, sigma in ((p01, 0.25), (p02, 0.2)):
        rep = linfty_l2_check(p, p, 0.3)
        assert rep.sigma == pytest.approx(sigma)
        assert rep.linf <= 1e-12
        assert rep.c_empirical <= 1e-9


def test_linfty_l2_stable_across_instances(p01):
    cs = []
    for i in range(6):
        sol = near_profile_solution(200 + i)
        rep = linfty_l2_check(sol, p01, 0.28 + 0.01 * (i % 5))
        assert math.isfinite(rep.c_empirical) and rep.c_empirical > 0
        cs.append(rep.c_empirical)
    assert max(cs) / min(cs) < 2.0


def test_linfty_l2_radius_guard(sol_half64, p01):
    with pytest.raises(ValueError, match="too large"):
        linfty_l2_check(sol_half64, p01, 0.6)


# ---------------------------------------------------------------------------
# contact stratification
# ---------------------------------------------------------------------------

def test_stratify_profile_case_all_frequency_one(sol_profile32):
    rep = stratify_contact(sol_profile32, max_points=24)
    labels = rep.labels()
    assert labels[1.0] > 0
    assert all(labels[f] == 0 for f in (1.5, 2.0, 2.5, 3.0))
    assert rep.unresolved          # boundary-adjacent nodes
    assert not rep.unlabeled
    for row in rep.rows:
        assert row["label"] in (1.0, "unresolved")


def test_stratify_half_solution_origin_and_interior(sol_half64):
    rep = stratify_contact(sol_half64, max_points=24)
    origin = [r for r in rep.rows if abs(r["x0"][0]) < 1e-12]
    assert len(origin) == 1 and origin[0]["label"] == 1.5
    interior = [r for r in rep.rows if -0.6 < r["x0"][0] < -0.2]
    assert interior
    assert all(r["label"] == 1.0 for r in interior)


def test_stratify_leaves_unresolved_only_where_truncation_is_everywhere(
        monkeypatch):
    sol = solve_thin_obstacle(case_spec("halfspace", 32))

    def out_of_bounds(adapter, x0, radii, grid):
        raise ValueError("a point outside the lattice was read")

    # an error of the ladder itself propagates
    monkeypatch.setattr(frequency, "_surface_moments", out_of_bounds)
    with pytest.raises(ValueError, match="outside the lattice"):
        stratify_contact(sol)

    def below_floor(adapter, x0, radii, grid):
        return np.zeros(len(radii)), np.zeros((len(radii), grid.size))

    # H under the power floor at every rung: no reliable radius is left
    monkeypatch.setattr(frequency, "_surface_moments", below_floor)
    report = stratify_contact(sol)
    assert report.rows
    assert all(row["label"] == "unresolved" for row in report.rows)
    assert len(report.unresolved) == len(report.rows)


@pytest.mark.parametrize("max_points", [0, -3])
def test_stratify_rejects_max_points_below_one(sol_profile32, max_points):
    with pytest.raises(ValueError, match="max_points must be at least 1"):
        stratify_contact(sol_profile32, max_points=max_points)


def test_stratify_no_contact_is_empty():
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle={"kind": "zero"},
                       boundary={"kind": "constant", "value": 1.0},
                       k=2, gamma=0.5)
    sol = solve_thin_obstacle(spec)
    rep = stratify_contact(sol)
    assert rep.rows == []
    assert all(len(v) == 0 for v in rep.strata.values())


def test_stratify_3d_with_line_fits():
    spec = ProblemSpec(dimension=3, h=1 / 16, obstacle={"kind": "zero"},
                       boundary={"kind": "profile", "m": 0, "n": 2},
                       k=2, gamma=0.5)
    sol = solve_thin_obstacle(spec)
    rep = stratify_contact(sol, max_points=40)
    assert rep.labels()[1.0] >= 3
    assert rep.line_fits
    fit = rep.line_fits[0]
    assert fit.frequency == 1.0
    assert fit.direction.shape == (2,)
    assert math.isfinite(fit.residual_rms)
