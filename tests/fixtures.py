"""A uniform velocity for the FEM tests; the nodal velocity of a cell flow
and the speeds u3 at which it reaches a fraction of c/sqrt(tau), or the
bound itself, both read off its mesh's unit flow record
(``flow.unit_cell_flow``); the uniform duct
flow and analytic coefficients the tests build problems from; the cell
operator as a matrix and integrals over the cells; a zero-mean solve with
its residual asserted; a count of the sweeps of the advection factors and
of the P1 tables and zero-mean solvers built; the grid order that
``coefficients.rest_speed_last`` replaces; and perfbench's measure of the
distance between two coefficient rows.  Every cell flow is built by
``flow.solve_cell_potential_flow``, as in the program."""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from perfoplate import fem
from perfoplate.coefficients import HomogenizedCoefficients
from perfoplate.duct_mesh import IFACE_PAIRING
from perfoplate.flow import MacroFlowField, unit_cell_flow
from perfoplate.waveguide import MacroProblem


def uniform_velocity(mesh, w_vec):
    """Constant nodal velocity field."""
    w_vec = np.asarray(w_vec, dtype=float)
    if w_vec.shape != (mesh.dim,):
        raise ValueError(f"velocity vector must have {mesh.dim} components")
    return np.tile(w_vec, (mesh.num_nodes, 1))


def cell_velocity(flow):
    """The nodal velocity of a cell flow (``flow.FlowField``, which keeps
    none): u3 times its mesh's unit flow."""
    return flow.u3 * unit_cell_flow(flow.mesh).velocity


def u3_at_mach_fraction(mesh, properties, fraction):
    """u3 whose cell flow has max |w| = fraction * c/sqrt(tau), to rounding."""
    return fraction * properties.mach_speed_limit / unit_cell_flow(mesh).max_speed


def u3_at_mach_bound(mesh, properties):
    """The least u3 whose cell flow has max |w| >= c/sqrt(tau), by ulp steps
    from the estimate; max |w| does not fall as u3 grows, so one ulp less
    stays below the bound."""
    unit = unit_cell_flow(mesh).max_speed
    limit = properties.mach_speed_limit

    def speed(u3):  # as FlowField.max_speed of the flow u3 * w1
        return abs(u3) * unit
    u3 = u3_at_mach_fraction(mesh, properties, 1.0)
    while speed(u3) >= limit:
        u3 = np.nextafter(u3, 0.0)
    while speed(u3) < limit:
        u3 = np.nextafter(u3, np.inf)
    return u3


def uniform_macro_flow(mesh, axial_speed, properties):
    """Constant axial mean flow in a duct; zero transverse profile."""
    vel = np.zeros((mesh.num_nodes, 2))
    vel[:, 0] = axial_speed
    n = len(mesh.periodic_pairs[IFACE_PAIRING])
    return MacroFlowField(mesh, vel, np.zeros(n), properties)


def integrate_cells(mesh, field):
    """Integral of a nodal field over the cells (exact for P1 fields)."""
    vals = np.asarray(field)[mesh.cells]
    return (mesh.cell_volumes() * vals.mean(axis=1)).sum()


def operator_matrix(op):
    """A `CellOperator` as a CSR matrix: its product with the identity."""
    return op.apply(sp.identity(op.mesh.num_nodes, format="csr")).tocsr()


def checked_solve(solver, rhs, tol=1e-10):
    """The solution of a ``fem.ZeroMeanSolver``, its relative residual
    asserted within tol."""
    u, residual = solver.solve(rhs, "checked solve")
    assert residual <= tol, residual
    return u


def counted_factor_sweeps(monkeypatch):
    """The meshes of the sweeps of ``fem._advection_factors`` started from now on."""
    sweeps, real = [], fem._advection_factors

    def counting(mesh, velocity):
        sweeps.append(mesh)
        return real(mesh, velocity)
    monkeypatch.setattr(fem, "_advection_factors", counting)
    return sweeps


def counted_cell_builds(monkeypatch):
    """(what, mesh) for each P1 gradient table ("table"), grounded zero-mean
    solver ("kept": the kept stiffness solver's, on a cell mesh) and bordered
    one ("bordered") built from now on, in the order they are built."""
    builds, edges, solver = [], fem.edge_matrices, fem.ZeroMeanSolver

    def table(mesh):
        builds.append(("table", mesh))
        return edges(mesh)

    def factored(mesh, matrix, bordered=False):
        builds.append(("bordered" if bordered else "kept", mesh))
        return solver(mesh, matrix, bordered)
    monkeypatch.setattr(fem, "edge_matrices", table)
    monkeypatch.setattr(fem, "ZeroMeanSolver", factored)
    return builds


def builds_per_mesh(builds):
    """The kinds of the ``counted_cell_builds`` of each mesh, in build order."""
    meshes = {id(mesh): mesh for _, mesh in builds}
    return [[what for what, m in builds if m is mesh] for mesh in meshes.values()]


def grid_order(solve, speeds):
    """``coefficients.rest_speed_last`` with the calls made in grid order."""
    return [solve(u3) for u3 in speeds]


def uniform_problem(mesh, properties, coeffs, **kwargs):
    """A MacroProblem with the same coefficients on every interface element."""
    n_elements = len(mesh.periodic_pairs[IFACE_PAIRING]) - 1
    return MacroProblem(mesh, properties, [coeffs] * n_elements, **kwargs)


def empty_cell_coefficients(kappa=1.0) -> HomogenizedCoefficients:
    """Analytic no-plate, no-flow coefficients (fully transparent layer)."""
    z = np.zeros(2)
    return HomogenizedCoefficients(
        A=kappa * np.eye(2), B=z.copy(), Bp=z.copy(), F=kappa, Mw=0.0,
        Tw=0.0, Twp=0.0, Wbar=z.copy(), Wbarp=z.copy(), Qw=z.copy(),
        zeta_star=1.0, kappa=kappa)


def coef_deviation():
    """perfbench's family-floored relative deviation of two coefficient rows."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.coef_deviation
