"""Constrained solver: oracle solutions, complementarity, reduction to the
zero-obstacle normal form, persistence."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinepi import solver
from thinepi.cli import case_spec
from thinepi.grids import build_grid
from thinepi.polynomials import Polynomial, even_harmonic_extension
from thinepi.profiles import halfspace_2d, make_profile
from thinepi.solver import (NEG_INF, Mode2D, ProblemSpec, _assemble, _pdas,
                            load_solution, make_field, solve_thin_obstacle,
                            taylor_polynomial, zero_obstacle_field)

ZERO = {"kind": "zero"}
HALFSPACE = {"kind": "halfspace", "mu": 1.5}
PROFILE_2D = {"kind": "profile", "m": 0, "n": 1}
PROFILE_3D = {"kind": "profile", "m": 0, "n": 2}
QUARTIC = {"kind": "polynomial", "coeffs": [[[4], 1.0]]}


def constant(value):
    return {"kind": "constant", "value": value}


def lexicographic_psor_sweep(u, kind, phi, omega):
    """Reference 2D projected SOR sweep of the unforced system, one node at
    a time in lexicographic order, in place; returns the largest update.
    Thin-row nodes (j = 0) count their upper neighbour twice and are
    projected onto the obstacle."""
    max_upd = 0.0
    nx, ny = u.shape
    for i in range(nx):
        for j in range(ny):
            if kind[i, j] == 0:
                continue
            old = u[i, j]
            if j == 0:
                target = (u[i - 1, 0] + u[i + 1, 0] + 2.0 * u[i, 1]) * 0.25
                new = max(old + omega * (target - old), phi[i])
            else:
                target = (u[i - 1, j] + u[i + 1, j] + u[i, j - 1]
                          + u[i, j + 1]) * 0.25
                new = old + omega * (target - old)
            max_upd = max(max_upd, abs(new - old))
            u[i, j] = new
    return max_upd


@pytest.fixture(scope="module")
def halfspace_solution():
    spec = ProblemSpec(dimension=2, h=1 / 64, obstacle=ZERO, boundary=HALFSPACE)
    return halfspace_2d(1.5), spec, solve_thin_obstacle(spec)


@pytest.fixture(scope="module")
def profile_3d_solution():
    return solve_thin_obstacle(case_spec("profile-3d", 16))


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------

def test_spec_validation_errors():
    fields = {"obstacle": ZERO, "boundary": HALFSPACE}
    with pytest.raises(ValueError, match="dimension"):
        ProblemSpec(dimension=4, h=1 / 32, **fields)
    with pytest.raises(ValueError, match="res"):
        ProblemSpec(dimension=2, h=1 / 8, **fields)
    with pytest.raises(ValueError, match="k must"):
        ProblemSpec(dimension=2, h=1 / 32, k=1, **fields)
    with pytest.raises(ValueError, match="gamma"):
        ProblemSpec(dimension=2, h=1 / 32, gamma=1.5, **fields)
    config = dict(fields, dimension=2, h=1 / 32)
    with pytest.raises(ValueError, match="'tol'"):
        ProblemSpec.from_config(dict(config, tol=1e-6))
    with pytest.raises(ValueError, match="'rhs'"):
        ProblemSpec.from_config(dict(config, rhs=1.0))
    with pytest.raises(ValueError, match="missing required keys: .'obstacle'"):
        ProblemSpec.from_config({"dimension": 2, "h": 1 / 32,
                                 "boundary": HALFSPACE})
    with pytest.raises(ValueError, match="obstacle: .* got None"):
        ProblemSpec.from_config(dict(config, obstacle=None))
    # a header written with a null right-hand side loads
    assert ProblemSpec.from_config(dict(config, rhs=None)).to_config() \
        == ProblemSpec.from_config(config).to_config()


def test_spec_config_roundtrip():
    spec = ProblemSpec(
        dimension=2, h=1 / 32,
        obstacle={"kind": "polynomial", "coeffs": [[[4], 1.0]]},
        boundary={"kind": "sum", "terms": [
            {"kind": "profile", "m": 0, "n": 1},
            {"kind": "scaled", "factor": 0.1,
             "of": {"kind": "mode", "j": 2, "power": 1.5}}]},
        k=3, gamma=0.25)
    assert spec.to_config()["obstacle"] == {"kind": "polynomial",
                                            "coeffs": [[[4], 1.0]]}
    again = ProblemSpec.from_config(spec.to_config())
    assert again.to_config() == spec.to_config()
    pts = np.array([[0.3, 0.2], [0.1, -0.5]])
    assert np.allclose(again.g(pts), spec.g(pts))
    with pytest.raises(ValueError, match="missing required keys"):
        ProblemSpec.from_config({"dimension": 2})


def test_make_field_kinds():
    const = make_field(constant(2.5), 1)
    assert const == Polynomial.constant(1, 2.5)
    assert const(np.zeros((3, 1))) == pytest.approx([2.5] * 3)
    assert make_field(ZERO, 2) == Polynomial.zero(2)
    assert make_field(ZERO, 2)(np.ones((2, 2))) == pytest.approx([0, 0])
    hs = make_field(HALFSPACE, 2)
    assert hs(np.array([1.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="unknown field kind"):
        make_field({"kind": "nope"}, 1)
    mode = Mode2D(j=2, power=1.5, amplitude=0.5)
    back = make_field({"kind": "mode", "j": 2, "power": 1.5,
                       "amplitude": 0.5}, 2)
    pt = np.array([0.6, 0.35])
    assert back(pt) == mode(pt)
    assert mode(pt) == pytest.approx(mode(pt * np.array([1.0, -1.0])))  # even
    assert mode(np.array([0.5, 0.0])) == 0.0                     # thin line


def test_make_field_integer_keys():
    # An integral float reads as its integer; a fraction, or a bool for
    # any numeric key, is refused by name.
    pt = np.array([[0.6, 0.35]])
    mode = make_field({"kind": "mode", "j": 2.0, "power": 1.5}, 2)
    assert mode(pt) == Mode2D(j=2, power=1.5)(pt)
    assert make_field({"kind": "profile", "m": 1.0}, 2)(pt) == \
        make_profile(1, 1)(pt)
    for config, key in (({"kind": "mode", "j": 2.5, "power": 2}, "'j'"),
                        ({"kind": "profile", "m": 0.5}, "'m'"),
                        ({"kind": "profile", "m": 0, "n": 1.5}, "'n'")):
        with pytest.raises(ValueError, match=f"key {key} must be an integer"):
            make_field(config, 2)
    for config, key in (({"kind": "profile", "m": True}, "'m'"),
                        ({"kind": "halfspace", "mu": True}, "'mu'"),
                        ({"kind": "constant", "value": False}, "'value'")):
        with pytest.raises(ValueError, match=f"key {key} must be a number"):
            make_field(config, 2)
    with pytest.raises(ValueError, match="m=1000000000 is too large"):
        make_field({"kind": "profile", "m": 1e9}, 2)


# ---------------------------------------------------------------------------
# Oracle solves
# ---------------------------------------------------------------------------

def test_constant_boundary_gives_constant_solution():
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle=ZERO,
                       boundary=constant(1.0))
    sol = solve_thin_obstacle(spec)
    assert sol.converged
    assert np.max(np.abs(sol.values[sol.kind > 0] - 1.0)) < 1e-7
    assert sol.contact.sum() == 0


def test_profile_boundary_contact_everywhere():
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle=ZERO,
                       boundary=PROFILE_2D)
    sol = solve_thin_obstacle(spec)
    assert sol.max_error_vs(make_profile(0, 1)) < 2e-2
    thin = sol.kind[..., 0] == 2
    assert sol.contact.sum() == thin.sum()
    assert np.max(np.abs(sol.complementarity)) <= 1e-9


def test_halfspace_solution_error_and_free_boundary(halfspace_solution):
    hs, spec, sol = halfspace_solution
    res = spec.resolution
    assert sol.converged
    assert sol.max_error_vs(hs) <= 5e-2
    assert np.max(np.abs(sol.complementarity)) <= 1e-9
    assert sol.laplace_residual <= 1e-9
    # exact contact is the half-line {x <= 0}
    xs = np.arange(-res, res + 1) / res
    thin = sol.kind[..., 0] == 2
    expected = thin & (xs <= 0)
    assert np.array_equal(sol.contact, expected)


def test_contact_set_matches_loop_reference(halfspace_solution):
    # 3D: an off-centre paraboloid obstacle under negative sphere data, so
    # the contact set is a patch with a free boundary all around it.
    obstacle = {"kind": "polynomial", "coeffs": [
        [[0, 0], 0.2], [[1, 0], 0.3], [[2, 0], -1.0], [[0, 2], -2.0]]}
    spec = ProblemSpec(dimension=3, h=1 / 16, obstacle=obstacle,
                       boundary=constant(-0.2))
    for sol in (halfspace_solution[2], solve_thin_obstacle(spec)):
        # contact: thin nodes where u - phi <= 10 tol, tol the solver's
        thin = sol.kind[..., 0] == 2
        expected = thin & (sol.values[..., 0] - sol.phi_thin
                           <= 10.0 * sol.spec.tol)
        assert np.array_equal(sol.contact, expected)
        assert 0 < sol.contact.sum() < thin.sum()


def test_halfspace_error_decreases_with_resolution(halfspace_solution):
    hs, spec, fine = halfspace_solution
    coarse = solve_thin_obstacle(
        ProblemSpec(dimension=2, h=1 / 32, obstacle=ZERO, boundary=HALFSPACE))
    assert fine.max_error_vs(hs) < coarse.max_error_vs(hs)


def test_solution_feasible_and_even(halfspace_solution):
    _, _, sol = halfspace_solution
    thin = sol.kind[..., 0] == 2
    assert np.all(sol.values[..., 0][thin] >= sol.phi_thin[thin] - 1e-12)
    pts = np.array([[0.3, 0.4], [0.3, -0.4], [-0.2, 0.11], [-0.2, -0.11]])
    v = sol.evaluate(pts)
    assert v[0] == v[1] and v[2] == v[3]
    # interpolation reproduces node values exactly
    node = np.array([10 * sol.h - 1.0, 3 * sol.h])
    assert sol.evaluate(node) == pytest.approx(sol.values[10, 3], abs=1e-14)


def test_three_dimensional_profile_solve():
    spec = ProblemSpec(dimension=3, h=1 / 16, obstacle=ZERO,
                       boundary=PROFILE_3D)
    sol = solve_thin_obstacle(spec)
    assert sol.converged
    assert sol.max_error_vs(make_profile(0, 2)) < 3e-2
    thin = sol.kind[..., 0] == 2
    assert sol.contact.sum() == thin.sum()
    assert np.max(np.abs(sol.complementarity)) <= 1e-9


# ---------------------------------------------------------------------------
# Iteration properties
# ---------------------------------------------------------------------------

def test_pdas_iterates_monotone():
    # For an M-matrix the active set iterates increase, and from the second
    # on they are feasible and their active sets shrink (Kaerkkaeinen,
    # Kunisch & Tarvainen, JOTA 2003).
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle=ZERO,
                       boundary=HALFSPACE)
    u, kind, phi = _assemble(spec)
    free = kind > 0
    lattice_obstacle = np.where(kind == 2, phi[:, None], NEG_INF)
    steps = list(_pdas(u, free, lattice_obstacle, spec.tol))
    obstacle = lattice_obstacle[free]
    xs = [step.u[free] for step in steps]
    actives = [step.active[free] for step in steps]
    repeated = [step.repeated for step in steps]
    assert len(steps) >= 3 and repeated[-1] and not any(repeated[:-1])
    assert all(np.min(later - earlier) >= -1e-12
               for earlier, later in zip(xs, xs[1:]))
    assert all(np.min(x - obstacle) >= -1e-12 for x in xs[1:])
    assert all(not np.any(later & ~earlier)
               for earlier, later in zip(actives[1:], actives[2:]))
    assert actives[1].sum() > actives[-1].sum()


def test_comparison_principle():
    rng = np.random.default_rng(11)
    for _ in range(3):
        shift = float(rng.uniform(0.05, 0.4))
        raised = {"kind": "sum", "terms": [HALFSPACE, constant(shift)]}
        a = solve_thin_obstacle(ProblemSpec(dimension=2, h=1 / 32,
                                            obstacle=ZERO, boundary=HALFSPACE))
        b = solve_thin_obstacle(ProblemSpec(dimension=2, h=1 / 32,
                                            obstacle=ZERO, boundary=raised))
        free = a.kind > 0
        assert float(np.min((b.values - a.values)[free])) >= -1e-9


def test_three_dimensional_profile_error_decreases_with_resolution():
    errors = [solve_thin_obstacle(ProblemSpec(
        dimension=3, h=1 / res, obstacle=ZERO, boundary=PROFILE_3D))
        .max_error_vs(make_profile(0, 2)) for res in (16, 32)]
    assert errors[1] < errors[0]


# ---------------------------------------------------------------------------
# Order properties on small grids
# ---------------------------------------------------------------------------

amplitudes = st.floats(min_value=-1.0, max_value=1.0)
gains = st.floats(min_value=0.0, max_value=0.5)


def boundary_mix(amps):
    """Even sphere data: the catalog profile and two modes, in ``amps``."""
    return {"kind": "sum", "terms": [
        {"kind": "scaled", "factor": amps[0],
         "of": {"kind": "profile", "m": 0, "n": 1}},
        {"kind": "mode", "j": 2, "power": 2.0, "amplitude": amps[1]},
        {"kind": "mode", "j": 3, "power": 3.0, "amplitude": amps[2]}]}


def quadratic(c0, c1, c2, nvars=1):
    return {"kind": "polynomial", "coeffs": [
        [[0] * nvars, c0], [[1] + [0] * (nvars - 1), c1],
        [[2] + [0] * (nvars - 1), c2]]}


def solved_values(obstacle, boundary):
    sol = solve_thin_obstacle(ProblemSpec(dimension=2, h=1 / 16,
                                          obstacle=obstacle,
                                          boundary=boundary))
    assert sol.converged
    return sol.values[sol.kind > 0]


@given(st.lists(amplitudes, min_size=3, max_size=3), gains, gains,
       st.floats(min_value=-0.3, max_value=0.3))
@settings(max_examples=20, deadline=None)
def test_comparison_principle_in_boundary_data(amps, shift, tilt, level):
    # g <= g + shift + tilt x1^2 on the sphere, so the solutions are ordered
    obstacle = quadratic(level, 0.0, -1.0)
    low = boundary_mix(amps)
    high = {"kind": "sum", "terms": [low, quadratic(shift, 0.0, tilt, 2)]}
    gap = solved_values(obstacle, high) - solved_values(obstacle, low)
    assert np.min(gap) >= -1e-12


@given(st.lists(amplitudes, min_size=3, max_size=3),
       st.lists(amplitudes, min_size=3, max_size=3), gains, gains)
@settings(max_examples=20, deadline=None)
def test_solution_monotone_in_obstacle(amps, coeffs, shift, tilt):
    # phi <= phi + shift + tilt x^2 on the thin line, so u is ordered too
    boundary = boundary_mix(amps)
    low = quadratic(*coeffs)
    high = quadratic(coeffs[0] + shift, coeffs[1], coeffs[2] + tilt)
    gap = solved_values(high, boundary) - solved_values(low, boundary)
    assert np.min(gap) >= -1e-12


def test_subnormal_data_certified_without_running_to_the_cap():
    # The shrunk example of the obstacle property above: every datum near
    # the smallest double.  Its residual is below the inner stop from the
    # start, so the first active set repeats.
    amps = [0.0, 3.66e-307, 3.66e-307]
    sol = solve_thin_obstacle(ProblemSpec(
        dimension=2, h=1 / 16, obstacle=quadratic(*amps),
        boundary=boundary_mix(amps)))
    assert sol.converged and sol.sweeps == 1


def test_revisited_active_set_stops_with_a_warning(monkeypatch):
    # An inner solve that lands on 0, as a CG whose right-hand side norm
    # underflows does, makes the active sets alternate; the loop stops at
    # the first revisit, far below the cap.
    def zero_solve(u, r, vcycle, atol):
        u *= 1.0 - vcycle.levels[0].keep
        return 0

    monkeypatch.setattr(solver, "_pcg", zero_solve)
    spec = ProblemSpec(dimension=2, h=1 / 16,
                       obstacle=quadratic(0.1, 0.0, -1.0),
                       boundary=constant(1.0))
    with pytest.warns(UserWarning, match="iteration 1 revisited, a cycle of 2"):
        sol = solve_thin_obstacle(spec)
    assert not sol.converged and sol.sweeps == 2


def system_residual(sol):
    """max |Au - b| over the free nodes off the contact set, rebuilt from the
    solved values: A is the unscaled 2d-point Laplacian with the upper
    neighbor doubled on the thin row, b = 0."""
    u = sol.values
    d = u.ndim
    _, kind, _ = _assemble(sol.spec)
    nbrs = np.zeros_like(u)
    for ax in range(d):
        lo, hi = [slice(None)] * d, [slice(None)] * d
        lo[ax], hi[ax] = slice(None, -1), slice(1, None)
        nbrs[tuple(lo)] += u[tuple(hi)]
        nbrs[tuple(hi)] += u[tuple(lo)]
    nbrs[..., 0] += u[..., 1]
    resid = 2 * d * u - nbrs
    free = kind > 0
    free[..., 0] &= ~sol.contact
    return float(np.max(np.abs(resid[free])))


@pytest.mark.parametrize("spec", [
    ProblemSpec(dimension=2, h=1 / 32, obstacle=QUARTIC,
                boundary=HALFSPACE),
    ProblemSpec(dimension=3, h=1 / 16, obstacle=ZERO, boundary=PROFILE_3D),
], ids=["2d-quartic", "3d-profile"])
def test_laplace_residual_is_system_residual(spec):
    sol = solve_thin_obstacle(spec)
    assert sol.laplace_residual == pytest.approx(system_residual(sol),
                                                 rel=1e-3)
    assert sol.laplace_residual <= 1e-12


def test_pdas_matches_lexicographic_reference():
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle=ZERO, boundary=HALFSPACE)
    u, kind, phi = _assemble(spec)
    for _ in range(30_000):
        if lexicographic_psor_sweep(u, kind, phi, 1.8) <= spec.tol:
            break
    else:
        pytest.fail("reference sweep did not converge")
    sol = solve_thin_obstacle(spec)
    assert np.max(np.abs(u - sol.values)) < 1e-8


def test_converging_solve_is_silent():
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle=ZERO,
                       boundary=HALFSPACE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_thin_obstacle(spec)
    assert sol.converged
    assert [str(w.message) for w in caught] == []


def test_nonconvergence_warns(monkeypatch):
    # Iterates whose active set is new at every step run to the cap, free
    # thin nodes + 2, the bound of PDAS on an M-matrix system.
    def fresh_sets(u, free, obstacle, tol):
        while True:
            yield solver._Step(u, np.zeros(u.shape, dtype=bool), False, None, 1)

    monkeypatch.setattr(solver, "_pdas", fresh_sets)
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle=ZERO,
                       boundary=HALFSPACE)
    with pytest.warns(UserWarning, match="iteration cap 65"):
        sol = solve_thin_obstacle(spec)
    assert np.count_nonzero(sol.kind[..., 0] == 2) == 63
    assert not sol.converged and sol.sweeps == sol.cg_iterations == 65


# ---------------------------------------------------------------------------
# Field reads
# ---------------------------------------------------------------------------

def interpolator_reference(sol, points):
    """scipy's multilinear read of the same lattice, folded the same way."""
    from scipy.interpolate import RegularGridInterpolator

    folded = np.array(points, dtype=float)
    folded[:, -1] = np.abs(folded[:, -1])
    return RegularGridInterpolator(tuple(sol.axes()), sol.values,
                                   method="linear", bounds_error=True)(folded)


@pytest.mark.parametrize("which", ["2d", "3d"])
def test_evaluate_matches_regular_grid_interpolator(
        which, halfspace_solution, profile_3d_solution):
    sol = halfspace_solution[2] if which == "2d" else profile_3d_solution
    d = sol.spec.dimension
    rng = np.random.default_rng(29)
    nodes = solver._mesh_points(sol.axes())
    sphere = build_grid(d - 1, 24).nodes
    mirror = np.where(np.arange(d) == d - 1, -1.0, 1.0)
    box = rng.uniform(-1.0, 1.0, size=(4000, d))
    below = box.copy()
    below[:, -1] = -np.abs(below[:, -1])
    for points in (box, nodes, nodes * mirror, sphere, 0.5 * sphere, below):
        got = sol.evaluate(points)
        assert got.shape == (len(points),)
        assert np.max(np.abs(got - interpolator_reference(sol, points))) \
            <= 1e-15
    assert np.max(np.abs(sol.evaluate(nodes) - sol.values.ravel())) <= 1e-15


@pytest.mark.parametrize("point", [[1.0 + 1e-12, 0.0], [0.3, -1.5],
                                   [-2.0, 0.1]])
def test_evaluate_rejects_points_off_the_lattice(halfspace_solution, point):
    sol = halfspace_solution[2]
    with pytest.raises(ValueError, match="out of bounds"):
        sol.evaluate(np.array([[0.1, 0.2], point]))


@pytest.mark.parametrize("point", [[np.nan, 0.2], [0.2, np.nan],
                                   [np.nan, np.nan]])
def test_evaluate_rejects_nan_points(halfspace_solution, point):
    # A NaN coordinate has no cell: it raises rather than reading one.
    sol = halfspace_solution[2]
    with pytest.raises(ValueError, match="out of bounds"):
        sol.evaluate(np.array([[0.1, 0.2], point]))
    with pytest.raises(ValueError, match="out of bounds"):
        sol.evaluate(np.array(point))


# ---------------------------------------------------------------------------
# Reduction to zero obstacle
# ---------------------------------------------------------------------------

def test_taylor_polynomial_values():
    p = Polynomial.monomial(1, (4,))
    q = taylor_polynomial(p, [0.5], 2)
    xs = np.linspace(0.3, 0.7, 9)[:, None]
    series = 0.5 ** 4 + 4 * 0.5 ** 3 * (xs[:, 0] - 0.5) \
        + 6 * 0.5 ** 2 * (xs[:, 0] - 0.5) ** 2
    assert q(xs) == pytest.approx(series, abs=1e-12)
    # full-degree truncation returns the polynomial itself
    assert taylor_polynomial(p, [0.5], 4).coeffs == pytest.approx({(4,): 1.0})


def test_reduction_worked_example():
    # phi = x^4 has a zero Taylor polynomial of degree 2 at the origin, so
    # v = u - phi everywhere; on the thin plane that is the solver's slack
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle=QUARTIC,
                       boundary=PROFILE_2D, k=2, gamma=0.5)
    sol = solve_thin_obstacle(spec)
    v = zero_obstacle_field(sol)
    thin = sol.kind[..., 0] == 2
    v_thin = v.values[..., 0][thin]
    u_thin = sol.values[..., 0][thin]
    phi_thin = sol.phi_thin[thin]
    assert v_thin == pytest.approx(u_thin - phi_thin, abs=1e-10)
    assert np.min(v_thin) >= -1e-10
    assert np.all(v.phi_thin == 0.0)


def test_reduction_taylor_exact_gives_zero_rhs():
    # k = 4: q_k = phi, so the right-hand side -Lap'(phi - q_k) vanishes
    # and v = u minus the even harmonic extension of phi
    spec = ProblemSpec(dimension=2, h=1 / 32, obstacle=QUARTIC,
                       boundary=PROFILE_2D, k=4, gamma=0.5)
    sol = solve_thin_obstacle(spec)
    v = zero_obstacle_field(sol)
    phi = Polynomial.monomial(1, (4,))
    assert np.max(np.abs(v.values[..., 0] - (sol.values[..., 0]
                                             - phi(sol.thin_points())
                                             .reshape(sol.phi_thin.shape)))) < 1e-12
    extension = even_harmonic_extension(phi)(solver._mesh_points(sol.axes()))
    assert np.max(np.abs(sol.values - v.values
                         - extension.reshape(sol.values.shape))) < 1e-12


def test_reduced_solution_shares_the_contact_set():
    # on the thin plane v = u - phi exactly, so the reduced field's contact
    # set is the solver's
    sol = solve_thin_obstacle(case_spec("quartic", 32))
    v = zero_obstacle_field(sol)
    thin = sol.kind[..., 0] == 2
    assert np.array_equal(v.values[..., 0][thin],
                          (sol.values[..., 0] - sol.phi_thin)[thin])
    assert sol.contact.any()
    assert np.array_equal(v.contact, sol.contact)


def test_even_harmonic_extension_example():
    q = Polynomial.monomial(1, (2,))
    ext = even_harmonic_extension(q)
    assert ext.coeffs == pytest.approx({(2, 0): 1.0, (0, 2): -1.0})
    assert ext.laplacian().is_zero()


def test_reduction_requires_polynomial_obstacle():
    # The reduction reads the obstacle's Taylor data, so the obstacle takes
    # the polynomial kinds only; any other kind is refused by name.
    with pytest.raises(ValueError,
                       match="obstacle: kind 'halfspace' is not a polynomial"):
        ProblemSpec(dimension=2, h=1 / 32, obstacle=HALFSPACE,
                    boundary=HALFSPACE)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_dump_load_roundtrip(tmp_path, halfspace_solution):
    _, _, sol = halfspace_solution
    base = tmp_path / "case"
    bin_path, json_path = sol.dump(base)
    assert bin_path.exists() and json_path.exists()
    back = load_solution(base)
    assert np.array_equal(back.values, sol.values)
    assert np.array_equal(back.contact, sol.contact)
    assert np.array_equal(back.phi_thin, sol.phi_thin)
    assert back.spec.dimension == 2 and back.spec.h == sol.spec.h
    assert back.sweeps == sol.sweeps
    assert back.cg_iterations == sol.cg_iterations > 0
    assert back.kkt == sol.kkt <= sol.spec.tol
    assert back.spec.to_config() == sol.spec.to_config()
    assert back.stats()["method"] == "pdas-mgpcg"


def test_load_reads_projected_sor_header(tmp_path, halfspace_solution):
    # Two older headers: the one that wrote its obstacle as a constant and
    # a null ``rhs``, and the projected SOR solver's, which also had
    # ``omega`` and ``max_sweeps`` in the spec, ``final_update`` but no
    # ``method`` and no ``cg_iterations`` in the stats.  Neither has ``kkt``.
    # The extra spec keys are ignored.
    _, _, sol = halfspace_solution
    base = tmp_path / "case"
    _, json_path = sol.dump(base)
    header = json.loads(json_path.read_text())
    header["spec"].update(obstacle={"kind": "constant", "value": 0.0},
                          rhs=None)
    del header["stats"]["kkt"]
    json_path.write_text(json.dumps(header, indent=2, sort_keys=True))
    back = load_solution(base)
    assert np.array_equal(back.values, sol.values)
    assert np.array_equal(back.phi_thin, sol.phi_thin)
    assert back.spec.phi(sol.thin_points()) == pytest.approx(
        sol.phi_thin.ravel(), abs=0)
    assert back.kkt is None and back.cg_iterations == sol.cg_iterations

    header["spec"].update(omega=1.8, max_sweeps=5000)
    header["stats"]["final_update"] = 3.2e-11
    del header["stats"]["method"], header["stats"]["cg_iterations"]
    json_path.write_text(json.dumps(header, indent=2, sort_keys=True))
    back = load_solution(base)
    assert not {"omega", "max_sweeps", "rhs"} & back.spec.to_config().keys()
    assert np.array_equal(back.values, sol.values)
    assert back.sweeps == sol.sweeps and back.converged
    assert back.cg_iterations is None and back.kkt is None


def test_load_detects_corruption(tmp_path, halfspace_solution):
    _, _, sol = halfspace_solution
    base = tmp_path / "case"
    bin_path, _ = sol.dump(base)
    blob = bytearray(bin_path.read_bytes())
    blob[100] ^= 0xFF
    bin_path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="hash"):
        load_solution(base)
