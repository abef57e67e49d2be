"""Corrector problems on the unit-cell fluid domain.

The flow-modified operator pairs gradients minus a scaled advective
derivative; all three corrector problems share its factorization.  All
forms are cell-averaged (normalized by the in-plane cell area), and all
correctors are real, zero-mean and periodic in the in-plane directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import fem
from .fem import FluidProperties
from .flow import FlowField, unit_cell_flow
from .mesh import per_mesh


class MachBoundError(RuntimeError):
    """Advection too fast for the flow-modified operator to stay coercive."""


@per_mesh
def unit_advection_matrix(mesh):
    """W of the mesh's u3 = 1 cell flow, read-only; the flow u3 * w1 has W = u3^2 * W1."""
    _, velocity, _ = unit_cell_flow(mesh)
    advection, _ = fem.advection_matrices(mesh, velocity)
    return fem.read_only(advection)


class CellOperator:
    """Assembled flow-modified cell operator with a shared factorization.

    The matrix is real symmetric and positive semidefinite with the
    constants as nullspace whenever the advection satisfies the speed
    bound; the bound is enforced on the nodal velocity field, which
    dominates the quadrature values by convexity.
    """

    def __init__(self, mesh, flow: FlowField, properties: FluidProperties | None = None,
                 residual_tol: float = 1e-10):
        if flow.mesh is not mesh:
            raise fem.AssemblyError("the flow must live on the operator's mesh")
        props = properties or flow.properties
        speed = flow.max_speed()
        if speed >= props.mach_speed_limit:
            raise MachBoundError(
                f"max |w| = {speed:.6g} m/s reaches the coercivity bound "
                f"c/sqrt(tau) = {props.mach_speed_limit:.6g} m/s")
        self.mesh = mesh
        self.flow = flow
        self.properties = props
        self.xi = fem.xi_measure(mesh)
        stiffness = fem.stiffness_matrix(mesh)
        if speed == 0.0:
            advection = sp.csr_matrix(stiffness.shape)
        elif flow.unit_scale is not None:
            advection = flow.unit_scale ** 2 * unit_advection_matrix(mesh)
        else:
            advection, _ = fem.advection_matrices(mesh, flow.velocity)
        self.matrix = (stiffness - (props.tau / props.c ** 2) * advection) / self.xi
        self._solver = fem.ZeroMeanSolver(mesh, self.matrix, residual_tol,
                                          scale=self.xi)

    def solve(self, rhs_full):
        """Zero-mean periodic solution of (operator) u = rhs."""
        return self._solver.solve(rhs_full)


def assemble_Aw(mesh, flow, properties=None, residual_tol=1e-10) -> CellOperator:
    """Build the flow-modified cell operator (with the coercivity guard)."""
    return CellOperator(mesh, flow, properties, residual_tol)


def tangential_load(op: CellOperator, beta: int):
    """Right side of the in-plane corrector problem (beta = 1 or 2)."""
    if beta not in (1, 2):
        raise ValueError("beta must be 1 or 2")
    y = op.mesh.nodes[:, beta - 1]
    return -(op.matrix @ y)


def transverse_load(op: CellOperator):
    """Right side of the through-flux corrector: minus the face-average jump."""
    lp = fem.boundary_load_vector(op.mesh, "I+")
    lm = fem.boundary_load_vector(op.mesh, "I-")
    return -(lp - lm) / op.xi


def advective_load(op: CellOperator):
    """Right side of the flow-pressure corrector."""
    props = op.properties
    grads, vols = fem.p1_geometry(op.mesh)
    wmean = op.flow.velocity[op.mesh.cells].mean(axis=1)
    contrib = np.einsum('m,md,mid->mi', vols, wmean, grads)
    out = np.zeros(op.mesh.num_nodes)
    np.add.at(out, op.mesh.cells.reshape(-1), contrib.reshape(-1))
    return (props.theta / props.c ** 2) * out / op.xi


def solve_pi_beta(op: CellOperator, beta: int):
    return op.solve(tangential_load(op, beta))


def solve_xi(op: CellOperator):
    return op.solve(transverse_load(op))


def solve_pi_P(op: CellOperator):
    if op.flow.max_speed() == 0.0:
        return np.zeros(op.mesh.num_nodes)
    return op.solve(advective_load(op))


@dataclass
class CellSolutionSet:
    """The corrector fields of one cell instance (full nodal, zero-mean)."""

    pi1: np.ndarray
    pi2: np.ndarray
    xi: np.ndarray
    pi_P: np.ndarray
    flow: FlowField
    properties: FluidProperties
    operator: CellOperator = field(repr=False)


def solve_cell_problems(mesh, flow, properties=None, residual_tol=1e-10) -> CellSolutionSet:
    """Solve all correctors of one cell with a single factorization."""
    op = assemble_Aw(mesh, flow, properties, residual_tol)
    return CellSolutionSet(
        pi1=solve_pi_beta(op, 1),
        pi2=solve_pi_beta(op, 2),
        xi=solve_xi(op),
        pi_P=solve_pi_P(op),
        flow=flow,
        properties=op.properties,
        operator=op,
    )


def export_solution_fields(mesh, sols: CellSolutionSet):
    """Mesh copy with the corrector fields attached for file export."""
    return mesh.with_fields(pi1=sols.pi1, pi2=sols.pi2, xi=sols.xi, pi_P=sols.pi_P)
