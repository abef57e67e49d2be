"""Analytic flows and coefficients the tests build problems from, the cell
operator as a matrix and integrals over the cells, and perfbench's measure
of the distance between two coefficient rows."""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from perfoplate.coefficients import HomogenizedCoefficients
from perfoplate.duct_mesh import IFACE_PAIRING
from perfoplate.flow import FlowError, FlowField, MacroFlowField
from perfoplate.waveguide import MacroProblem


def uniform_flow(mesh, w_vec, properties):
    """Constant nodal velocity field."""
    w_vec = np.asarray(w_vec, dtype=float)
    if w_vec.shape != (mesh.dim,):
        raise FlowError(f"velocity vector must have {mesh.dim} components")
    vel = np.tile(w_vec, (mesh.num_nodes, 1))
    return FlowField(mesh, vel, properties)


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
