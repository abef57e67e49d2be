"""Steady incompressible potential flow on the unit cell and the waveguide.

Both solvers share the same structure: a Laplace problem for the potential
with Neumann through-flow data, a zero-mean constraint, and nodal velocity
recovery by volume-weighted cell-gradient averaging.  Flux bookkeeping uses
variationally consistent (residual-based) boundary fluxes, which satisfy
discrete conservation to solver precision; pointwise surface integrals of
the recovered nodal field only conserve up to discretization error.
The cell flow is linear in the through-flow speed u3, so it is solved once
per cell mesh at u3 = 1 and scaled.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import fem
from .duct_mesh import GROUP_IN, GROUP_OUT, GROUP_IFACE_PLUS, interface_nodes
from .fem import FluidProperties
from .mesh import per_mesh, release


class FlowError(RuntimeError):
    pass


@dataclass
class FlowField:
    """A cell flow: u3 times the u3 = 1 flow of its mesh (``unit_cell_flow``),
    which the cell operator reads from the mesh's advection forms; it keeps
    no velocity of its own."""

    mesh: object
    properties: FluidProperties
    u3: float

    def max_speed(self) -> float:
        """|u3| times the unit flow's largest nodal speed; 0.0 at rest."""
        if self.u3 == 0.0:
            return 0.0
        return abs(self.u3) * unit_cell_flow(self.mesh).max_speed


def _recover_velocity(mesh, potential):
    """Nodal w = -grad(potential), averaged across periodic identifications."""
    g = fem.cell_gradients(mesh, potential)
    vols = mesh.cell_volumes()
    idx, n = mesh.cells.reshape(-1), mesh.dim + 1
    num = np.stack([np.bincount(idx, np.repeat(-gd * vols, n), mesh.num_nodes)
                    for gd in g.T], axis=1)
    den = np.bincount(idx, np.repeat(vols, n), mesh.num_nodes)
    T = fem.periodic_reduction(mesh)
    return (T @ (T.T @ num)) / (T @ (T.T @ den))[:, None]


@per_mesh
def face_flux_jump(mesh):
    """Vector of int_I+ phi_i - int_I- phi_i on a cell mesh, read-only: minus
    the through-flow load of the u3 = 1 cell flow and of the xi corrector."""
    return fem.boundary_load_vector(mesh, "I+") - fem.boundary_load_vector(mesh, "I-")


# The u3 = 1 cell flow of a mesh and the advection forms built from it
# (``unit_cell_flow``).
UnitFlow = namedtuple("UnitFlow", "velocity residual max_speed matrix vector reduced in_plane")


@per_mesh
def unit_cell_flow(mesh):
    """The u3 = 1 cell flow of a mesh and its advection forms, read-only, as
    a ``UnitFlow``; the problem is linear in u3, so every speed scales them.

    The potential solves a pure-Neumann Laplace problem with w.n = +1 on
    I+ and -1 on I- (net upward through-flow) and impermeable plate walls,
    by the mesh's kept stiffness solver (``fem.stiffness_solver``), which the
    cell correctors then use as their preconditioner.  Kept are the velocity
    recovered from it, the solve's relative residual and the largest nodal
    speed; matrix, vector: W1 and a1 (``fem.advection_forms``), so the flow
    u3 * w1 has W = u3^2 * W1 and a = u3 * a1; reduced: T^T W1 T, the
    advection product of the flow correctors' Lanczos runs and residual
    checks; in_plane: W1 y for the in-plane coordinates, the speed-dependent
    part of the tangential loads.  W1 and a1 are the last of the P1 gradient
    table (``fem.p1_geometry``) to be built from it, so the table is then
    released; a later read rebuilds it bit for bit.
    """
    solver, _ = fem.stiffness_solver(mesh)
    # each caller checks the residual against its own tolerance
    pot, residual = solver.solve(-face_flux_jump(mesh), "cell potential flow")
    velocity = _recover_velocity(mesh, pot)
    W1, a1 = fem.advection_forms(mesh, velocity)
    release(mesh, "perfoplate.fem.p1_geometry")
    T = fem.periodic_reduction(mesh)
    return UnitFlow(velocity, residual, float(np.linalg.norm(velocity, axis=1).max()),
                    W1, a1, (T.T @ W1 @ T).tocsr(), W1 @ mesh.nodes[:, :2])


def solve_cell_potential_flow(mesh, u3, properties, residual_tol=1e-10):
    """Xi-periodic cell flow driven by transverse speed u3 through I+/I-:
    the mesh's ``unit_cell_flow`` scaled by u3, its residual checked."""
    if not np.isfinite(u3):
        raise FlowError("u3 must be finite")
    if u3 == 0.0:
        return FlowField(mesh, properties, 0.0)
    fem.check_residual(unit_cell_flow(mesh).residual, residual_tol, "cell potential flow")
    return FlowField(mesh, properties, u3)


# -- waveguide ---------------------------------------------------------------

@dataclass
class MacroFlowField:
    """Mean flow in the waveguide plus the transverse profile on the
    interface, at the interface nodes in order along the line
    (``duct_mesh.interface_nodes``)."""

    mesh: object
    velocity: np.ndarray
    interface_u3: np.ndarray
    properties: FluidProperties

    def max_speed(self) -> float:
        return float(np.linalg.norm(self.velocity, axis=1).max(initial=0.0))

    def element_u3(self):
        """Per-interface-element transverse speed (endpoint averages)."""
        return 0.5 * (self.interface_u3[:-1] + self.interface_u3[1:])


def _interface_profile(mesh, potential):
    """Consistent transverse velocity on the interface from the upper side."""
    minus, plus, _ = interface_nodes(mesh)
    cen = mesh.nodes[mesh.cells].mean(axis=1)
    s = mesh.nodes[minus[0], 1]
    upper = np.nonzero(cen[:, 1] > s)[0]
    grads, vols = fem.p1_geometry(mesh)
    g = fem.cell_gradients(mesh, potential)[upper]
    contrib = np.einsum('m,mid,md->mi', vols[upper], grads[upper], g)
    r = np.bincount(mesh.cells[upper].reshape(-1), contrib.reshape(-1), mesh.num_nodes)
    lump = fem.boundary_load_vector(mesh, GROUP_IFACE_PLUS)
    return r[plus] / lump[plus]


def solve_macro_potential_flow(mesh, u_in, properties, residual_tol=1e-10):
    """Potential flow through the waveguide with a transparent interface.

    Neumann data: inflow speed u_in on Gamma_in, outflow u_in on Gamma_out,
    impermeable walls.  The doubled interface nodes are identified, so the
    plate offers no resistance; its effect enters only through the acoustic
    coefficients evaluated at the resulting interface profile.
    """
    if not np.isfinite(u_in):
        raise FlowError(f"u_in must be finite, got {u_in!r}")
    area_in = mesh.group_measure(GROUP_IN)
    area_out = mesh.group_measure(GROUP_OUT)
    defect = abs(area_in - area_out) * abs(u_in)
    if defect > 1e-10 * max(abs(u_in) * area_in, 1e-300):
        raise FlowError(
            f"incompatible inlet/outlet flux: |Gamma_in|={area_in:.6g} "
            f"vs |Gamma_out|={area_out:.6g}")
    rhs = u_in * (fem.boundary_load_vector(mesh, GROUP_IN)
                  - fem.boundary_load_vector(mesh, GROUP_OUT))
    pot, residual = fem.ZeroMeanSolver(mesh, fem.stiffness_matrix(mesh)).solve(
        rhs, "macro potential flow")
    fem.check_residual(residual, residual_tol, "macro potential flow")
    vel = _recover_velocity(mesh, pot)
    u3 = _interface_profile(mesh, pot)
    return MacroFlowField(mesh, vel, u3, properties)
