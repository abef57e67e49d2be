import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from fixtures import (cell_velocity, checked_solve, integrate_cells, u3_at_mach_fraction,
                      uniform_macro_flow, uniform_velocity)
from perfoplate import fem
from perfoplate.cell_mesh import generate_unit_cell_mesh
from perfoplate.cell_problems import CellOperator, MachBoundError
from perfoplate.duct_mesh import GROUP_IN, GROUP_OUT, interface_nodes
from perfoplate.fem import SolverError
from perfoplate.flow import (FlowError, FlowField, MacroFlowField, _recover_velocity,
                             face_flux_jump, solve_cell_potential_flow,
                             solve_macro_potential_flow, unit_cell_flow)
from perfoplate.geometry import CellGeometry


def unit_potential(mesh):
    """The potential of the u3 = 1 cell flow, solved as `unit_cell_flow`
    solves it (the flow keeps only the velocity)."""
    solver, _ = fem.stiffness_solver(mesh)
    pot, _ = solver.solve(-face_flux_jump(mesh), "cell potential flow")
    return pot


def boundary_flux(flow, group):
    """Consistent outward flux of a solved cell flow through a facet group.

    Computed from the stiffness residual of its potential (the discrete
    weak flux), folded across periodic identifications; the potential is
    checked to be the one the flow's velocity was recovered from.
    """
    mesh = flow.mesh
    unit = unit_potential(mesh)
    np.testing.assert_array_equal(
        cell_velocity(flow), flow.u3 * _recover_velocity(mesh, unit))
    T = fem.periodic_reduction(mesh)
    rr = T.T @ (fem.stiffness_matrix(mesh) @ (flow.u3 * unit))
    red = np.unique(T.indices[mesh.group_nodes(group)])
    return -float(rr[red].sum())


def test_zero_speed_gives_zero_field(straight_cell_mesh, props):
    f = solve_cell_potential_flow(straight_cell_mesh, 0.0, props)
    assert f.max_speed() == 0.0 and f.u3 == 0.0
    assert cell_velocity(f).shape == (straight_cell_mesh.num_nodes, 3)
    assert np.all(cell_velocity(f) == 0.0)


def test_flow_fields_keep_no_potential():
    # the cell flow's fields: test_cell_flow_is_its_mesh_and_its_speed
    assert [f.name for f in fields(MacroFlowField)] == \
        ["mesh", "velocity", "interface_u3", "properties"]


def test_empty_cell_uniform_field(empty_cell_mesh, props):
    f = solve_cell_potential_flow(empty_cell_mesh, 2.0, props)
    np.testing.assert_allclose(cell_velocity(f), [[0.0, 0.0, 2.0]] * f.mesh.num_nodes,
                               atol=1e-12)


def test_uniform_flow_fixture(straight_cell_mesh):
    velocity = uniform_velocity(straight_cell_mesh, (0.0, 0.0, 3.0))
    vol = straight_cell_mesh.cell_volumes().sum()
    assert integrate_cells(straight_cell_mesh, velocity[:, 2]) == \
        pytest.approx(3.0 * vol, rel=1e-12)
    with pytest.raises(ValueError):
        uniform_velocity(straight_cell_mesh, (1.0, 2.0))


def test_mach_flag(straight_cell_mesh, props):
    ok, bad = (solve_cell_potential_flow(
        straight_cell_mesh, u3_at_mach_fraction(straight_cell_mesh, props, fraction), props)
        for fraction in (0.99, 1.01))
    CellOperator(ok)
    with pytest.raises(MachBoundError):
        CellOperator(bad)


def test_flux_balance_consistent(straight_cell_mesh, props):
    u3 = 1.5
    f = solve_cell_potential_flow(straight_cell_mesh, u3, props)
    xi = straight_cell_mesh.group_measure("I+")
    fp = boundary_flux(f, "I+")
    fm = boundary_flux(f, "I-")
    assert abs(fp - u3 * xi) <= 1e-10 * abs(u3 * xi)
    assert abs(fp + fm) <= 1e-10 * abs(u3 * xi)


def test_wall_impermeable(straight_cell_mesh, props):
    u3 = 2.0
    f = solve_cell_potential_flow(straight_cell_mesh, u3, props)
    assert abs(boundary_flux(f, "solid")) <= 1e-8 * abs(u3)


def test_nodal_surface_flux_approximates_data(straight_cell_mesh, props):
    # surface integrals of the recovered field match the Neumann data only
    # up to discretization error; conservation is exact in the weak sense
    f = solve_cell_potential_flow(straight_cell_mesh, 1.0, props)
    xi = straight_cell_mesh.group_measure("I+")
    up = fem.integrate(straight_cell_mesh, cell_velocity(f)[:, 2], "I+")
    dn = fem.integrate(straight_cell_mesh, cell_velocity(f)[:, 2], "I-")
    assert abs(up - xi) / xi < 0.05
    assert abs(dn - xi) / xi < 0.05


def test_linearity(straight_cell_mesh, props):
    f1 = solve_cell_potential_flow(straight_cell_mesh, 1.0, props)
    f3 = solve_cell_potential_flow(straight_cell_mesh, 3.0, props)
    np.testing.assert_allclose(cell_velocity(f3), 3.0 * cell_velocity(f1), atol=1e-9)


@pytest.mark.parametrize("u3", [-2.0, 0.5, 3.0])
def test_scaled_unit_flow_matches_direct_solve(slant_cell_mesh, props, u3):
    m = slant_cell_mesh
    f = solve_cell_potential_flow(m, u3, props)
    rhs = -u3 * (fem.boundary_load_vector(m, "I+") - fem.boundary_load_vector(m, "I-"))
    pot = checked_solve(fem.ZeroMeanSolver(m, fem.stiffness_matrix(m)), rhs)
    vel = _recover_velocity(m, pot)
    assert np.linalg.norm(u3 * unit_potential(m) - pot) <= 1e-12 * np.linalg.norm(pot)
    assert np.linalg.norm(cell_velocity(f) - vel) <= 1e-12 * np.linalg.norm(vel)
    assert f.u3 == u3 and f.properties is props


@pytest.fixture
def fresh_cell_mesh():
    """A cell mesh no other test has touched, so its per-mesh cache is empty."""
    return generate_unit_cell_mesh(CellGeometry(), 0.15)


def test_second_speed_reuses_unit_flow(fresh_cell_mesh, props, splu_calls):
    m = fresh_cell_mesh
    first = solve_cell_potential_flow(m, 1.5, props)
    assert len(splu_calls) == 1
    second = solve_cell_potential_flow(m, -2.5, props)
    assert len(splu_calls) == 1
    unit = unit_cell_flow(m)
    vel, speed = unit.velocity, unit.max_speed
    np.testing.assert_array_equal(cell_velocity(first), 1.5 * vel)
    np.testing.assert_array_equal(cell_velocity(second), -2.5 * vel)
    # the kept velocity is recovered from the kept solver's potential
    np.testing.assert_array_equal(vel, _recover_velocity(m, unit_potential(m)))
    # and kept with its largest nodal speed, which each speed's flow scales
    assert speed == np.linalg.norm(vel, axis=1).max()
    assert second.max_speed() == 2.5 * speed
    assert len(splu_calls) == 1
    K = fem.stiffness_matrix(m)
    for a in (vel, K.data, K.indices, K.indptr):
        assert not a.flags.writeable


def test_zero_speed_builds_no_unit_flow(fresh_cell_mesh, props, splu_calls):
    m = fresh_cell_mesh
    before = set(m._cache)
    solve_cell_potential_flow(m, 0.0, props)
    assert set(m._cache) == before and not splu_calls


def test_cell_flow_is_its_mesh_and_its_speed(fresh_cell_mesh, props):
    # the flow keeps no velocity: its max speed is |u3| times that of the
    # unit flow, and at rest it is 0.0 with no unit flow solved
    m = fresh_cell_mesh
    assert [f.name for f in fields(FlowField)] == ["mesh", "properties", "u3"]
    rest = solve_cell_potential_flow(m, 0.0, props)
    assert rest.max_speed() == 0.0
    assert not any(key[0].startswith("perfoplate.flow.unit_") for key in m._cache)
    assert m not in fem._kept
    unit = np.linalg.norm(unit_cell_flow(m).velocity, axis=1).max()
    for u3 in (2.5, -2.5):
        speed = solve_cell_potential_flow(m, u3, props).max_speed()
        assert speed.hex() == (abs(u3) * unit).hex()


# the options of every grounded factorization: SuperLU's symmetric mode
SYMMETRIC = ("MMD_AT_PLUS_A", {"relax": 1, "diag_pivot_thresh": 0.0,
                               "options": {"SymmetricMode": True}})


def test_only_the_kept_stiffness_factor_is_unrelaxed(fresh_cell_mesh, duct_mesh, props,
                                                     splu_calls):
    # the kept cell solver and the macro flow factor a grounded matrix in
    # symmetric mode; the rest operator, whose outputs are pinned byte for
    # byte, a bordered one with SuperLU's defaults
    m = fresh_cell_mesh
    n = fem.periodic_reduction(m).shape[1]
    solve_cell_potential_flow(m, 1.0, props)
    assert splu_calls == [((n - 1, n - 1), *SYMMETRIC)]
    CellOperator(solve_cell_potential_flow(m, 0.0, props)).solve()
    assert splu_calls[1:] == [((n + 1, n + 1), "COLAMD", {})]
    solve_macro_potential_flow(duct_mesh, 15.0, props)
    d = fem.periodic_reduction(duct_mesh).shape[1]
    assert splu_calls[2:] == [((d - 1, d - 1), *SYMMETRIC)]


@pytest.mark.parametrize("phi", [0.0, 30.0, 60.0])
def test_unrelaxed_stiffness_factor_keeps_fill_and_accuracy(phi, monkeypatch):
    # the default relaxation of the same grounded matrix gives the same
    # fill, and its unit flow residual reads 1.6e-13 to 3.8e-13 on these cells
    m = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=phi), 0.15)
    kept, _ = fem.stiffness_solver(m)
    real = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, relax=None, **options: real(A, **options))
    relaxed = fem.ZeroMeanSolver(m, fem.stiffness_matrix(m))
    assert (kept._lu.L.nnz + kept._lu.U.nnz
            == relaxed._lu.L.nnz + relaxed._lu.U.nnz)
    residual = unit_cell_flow(m).residual
    assert residual <= 1e-12
    assert residual <= 1.5 * relaxed.solve(-face_flux_jump(m), "relaxed flow")[1]


@pytest.mark.parametrize("phi", [0.0, 30.0, 60.0])
def test_grounded_solve_matches_bordered_solve(phi, duct_mesh, props):
    # the grounded factor gives the bordered form's zero-mean solutions: on
    # the kept cell solver's preconditioner and on the macro flow
    m = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=phi), 0.1)
    kept, _ = fem.stiffness_solver(m)
    bordered = fem.ZeroMeanSolver(m, fem.stiffness_matrix(m), bordered=True)
    r = np.random.default_rng(5).standard_normal((kept.reduced.shape[0], 4))
    r -= r.mean(axis=0)
    z, expected = kept.precondition(r), bordered.precondition(r)
    assert np.linalg.norm(z - expected) <= 1e-12 * np.linalg.norm(expected)
    mean = fem.periodic_reduction(m).T @ fem.lumped_volume_vector(m)
    assert np.all(np.abs(mean @ z) <= 1e-14 * np.linalg.norm(mean) * np.linalg.norm(z, axis=0))
    u_in = 15.0
    rhs = u_in * (fem.boundary_load_vector(duct_mesh, GROUP_IN)
                  - fem.boundary_load_vector(duct_mesh, GROUP_OUT))
    stiffness = fem.stiffness_matrix(duct_mesh)
    pot = checked_solve(fem.ZeroMeanSolver(duct_mesh, stiffness), rhs)
    expected = checked_solve(fem.ZeroMeanSolver(duct_mesh, stiffness, bordered=True), rhs)
    assert np.linalg.norm(pot - expected) <= 1e-12 * np.linalg.norm(expected)
    vel = _recover_velocity(duct_mesh, expected)
    flow = solve_macro_potential_flow(duct_mesh, u_in, props)
    assert np.linalg.norm(flow.velocity - vel) <= 1e-12 * np.linalg.norm(vel)


def test_residual_contract_holds_on_cached_flow(straight_cell_mesh, props):
    solve_cell_potential_flow(straight_cell_mesh, 1.0, props)  # fills the cache
    with pytest.raises(SolverError, match=r"^cell potential flow: relative residual "
                                          r"\S+ exceeds 1\.0e-30$"):
        solve_cell_potential_flow(straight_cell_mesh, 2.0, props, residual_tol=1e-30)


def test_throat_speed_mass_conservation(props):
    """Peak speed in the hole throat matches the area-ratio estimate."""
    geom = CellGeometry()
    mesh = generate_unit_cell_mesh(geom, 0.045)
    u3 = 1.0
    f = solve_cell_potential_flow(mesh, u3, props)
    expected = u3 * geom.b1 * geom.b2 / (math.pi * geom.hole_diameter ** 2 / 4.0)
    r = np.hypot(mesh.nodes[:, 0] - 0.5, mesh.nodes[:, 1] - 0.5)
    throat = (np.abs(mesh.nodes[:, 2]) < 0.03) & (r < geom.hole_diameter / 2.0)
    peak = np.linalg.norm(cell_velocity(f)[throat], axis=1).max()
    assert abs(peak - expected) / expected < 0.10


# -- waveguide mean flow -----------------------------------------------------

def test_macro_flow_zero(duct_mesh, props):
    mf = solve_macro_potential_flow(duct_mesh, 0.0, props)
    assert mf.max_speed() == 0.0
    assert np.all(mf.interface_u3 == 0.0)


@pytest.mark.parametrize("u_in", [math.nan, math.inf])
def test_macro_flow_rejects_non_finite_inflow(duct_mesh, props, u_in):
    # it would fail later as a residual failure of the macro flow, with a NaN residual
    with pytest.raises(FlowError, match=f"u_in must be finite, got {u_in!r}"):
        solve_macro_potential_flow(duct_mesh, u_in, props)


def test_macro_flow_conservation(duct_mesh, props):
    u_in = 10.0
    mf = solve_macro_potential_flow(duct_mesh, u_in, props)
    inlet_flux = u_in * duct_mesh.group_measure("Gamma_in")
    _, plus, x = interface_nodes(duct_mesh)
    through = np.trapezoid(mf.interface_u3, x) \
        if hasattr(np, "trapezoid") else np.trapz(mf.interface_u3, x)
    # consistent profile integrates to the through-plate flux
    lump = fem.boundary_load_vector(duct_mesh, "Gamma0+")
    exact_integral = float((lump[plus] * mf.interface_u3).sum())
    assert abs(exact_integral - inlet_flux) <= 1e-8 * inlet_flux
    assert abs(through - inlet_flux) <= 2e-2 * inlet_flux  # trapezoid on nodes


def test_macro_flow_linearity(duct_mesh, props):
    m1 = solve_macro_potential_flow(duct_mesh, 5.0, props)
    m2 = solve_macro_potential_flow(duct_mesh, 10.0, props)
    np.testing.assert_allclose(m2.velocity, 2.0 * m1.velocity, atol=1e-8)
    np.testing.assert_allclose(m2.interface_u3, 2.0 * m1.interface_u3, atol=1e-8)


def test_uniform_macro_flow(duct_mesh, props):
    mf = uniform_macro_flow(duct_mesh, 5.0, props)
    assert mf.max_speed() == pytest.approx(5.0)
    assert np.all(mf.interface_u3 == 0.0)
