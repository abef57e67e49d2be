"""Analytic flows and coefficients the tests build problems from."""

import numpy as np

from perfoplate.coefficients import HomogenizedCoefficients
from perfoplate.duct_mesh import interface_nodes
from perfoplate.fem import FluidProperties
from perfoplate.flow import FlowError, FlowField, MacroFlowField


def uniform_flow(mesh, w_vec, properties=None):
    """Constant nodal velocity field."""
    props = properties or FluidProperties()
    w_vec = np.asarray(w_vec, dtype=float)
    if w_vec.shape != (mesh.dim,):
        raise FlowError(f"velocity vector must have {mesh.dim} components")
    vel = np.tile(w_vec, (mesh.num_nodes, 1))
    pot = -mesh.nodes @ w_vec
    return FlowField(mesh, vel, pot, props)


def uniform_macro_flow(mesh, axial_speed, properties=None):
    """Constant axial mean flow in a duct; zero transverse profile."""
    props = properties or FluidProperties()
    x = interface_nodes(mesh)[2]
    vel = np.zeros((mesh.num_nodes, 2))
    vel[:, 0] = axial_speed
    pot = -axial_speed * mesh.nodes[:, 0]
    return MacroFlowField(mesh, vel, pot, x, np.zeros(len(x)), props)


def empty_cell_coefficients(kappa=1.0) -> HomogenizedCoefficients:
    """Analytic no-plate, no-flow coefficients (fully transparent layer)."""
    z = np.zeros(2)
    return HomogenizedCoefficients(
        A=kappa * np.eye(2), B=z.copy(), Bp=z.copy(), F=kappa, Mw=0.0,
        Tw=0.0, Twp=0.0, Wbar=z.copy(), Wbarp=z.copy(), Qw=z.copy(),
        zeta_star=1.0, kappa=kappa)
