"""Corrector problems on the unit-cell fluid domain.

The flow-modified operator pairs gradients minus a scaled advective
derivative; all three corrector problems share it.  At rest it is the
stiffness matrix, factored once per operator.  With flow it is never
factored: the correctors are solved by preconditioned conjugate gradients,
with the mesh's kept stiffness factorization as the preconditioner.  All
forms are cell-averaged (normalized by the in-plane cell area), and all
correctors are real, zero-mean and periodic in the in-plane directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import SolverError
from .flow import FlowField, unit_cell_flow
from .mesh import per_mesh

# Relative residual at which the corrector iteration stops; asking for
# 1e-15 stagnates in rounding.
PCG_TOL = 1e-13


class MachBoundError(RuntimeError):
    """Advection too fast for the flow-modified operator to stay coercive."""


@per_mesh
def unit_advection_matrix(mesh):
    """W of the mesh's u3 = 1 cell flow, read-only; the flow u3 * w1 has W = u3^2 * W1."""
    _, velocity, _ = unit_cell_flow(mesh)
    return fem.read_only(fem.advection_matrix(mesh, velocity))


class CellOperator:
    """Assembled flow-modified cell operator and its corrector solves.

    The matrix is real symmetric and positive semidefinite with the
    constants as nullspace whenever the advection satisfies the speed
    bound; the bound is enforced on the nodal velocity field, which
    dominates the quadrature values by convexity.  By the same bound the
    operator is spectrally equivalent to the stiffness matrix: with
    rho = tau max|w|^2 / c^2 < 1, (1 - rho) K <= K - (tau/c^2) W <= K, so
    conjugate gradients preconditioned by K converge at a condition number
    of at most 1 / (1 - rho).
    """

    def __init__(self, flow: FlowField, residual_tol: float = 1e-10):
        props = flow.properties
        speed = flow.max_speed()
        if speed >= props.mach_speed_limit:
            raise MachBoundError(
                f"max |w| = {speed:.6g} m/s reaches the coercivity bound "
                f"c/sqrt(tau) = {props.mach_speed_limit:.6g} m/s")
        self.mesh = mesh = flow.mesh
        self.flow = flow
        self.residual_tol = residual_tol
        self.xi = fem.xi_measure(mesh)
        stiffness = fem.stiffness_matrix(mesh)
        if speed == 0.0:
            self.matrix = stiffness / self.xi
            fem.drop_other_stiffness_solver(mesh)
            self._direct = fem.ZeroMeanSolver(mesh, self.matrix, residual_tol,
                                              scale=self.xi)
            return
        if flow.unit_scale is not None:
            advection = flow.unit_scale ** 2 * unit_advection_matrix(mesh)
        else:
            advection = fem.advection_matrix(mesh, flow.velocity)
        self.matrix = (stiffness - (props.tau / props.c ** 2) * advection) / self.xi
        self._direct = None
        self._reduction = T = fem.periodic_reduction(mesh)
        self._reduced = (T.T @ self.matrix @ T).tocsr()
        self._zero_floor = fem.zero_floor(self._reduced)
        rho = props.tau * speed ** 2 / props.c ** 2
        # twice the CG bound for the energy-norm error at condition number
        # 1/(1 - rho), plus room for the Euclidean residual
        self._max_iter = 100 + math.ceil(
            2.0 * math.sqrt(1.0 / (1.0 - rho)) * math.log(2.0 / PCG_TOL))

    def solve(self, rhs_full):
        """Zero-mean periodic solution of (operator) u = rhs."""
        if self._direct is not None:
            return self._direct.solve(rhs_full)
        T = self._reduction
        rhs, norm = fem.reduced_rhs(T, rhs_full, self._zero_floor)
        if norm == 0.0:
            return np.zeros(self.mesh.num_nodes)
        # the operator's range is orthogonal to the constants: the part of
        # the right side along them (at most 1e-10 relative, as checked) is
        # dropped, as the direct solve's multiplier absorbs it
        rhs = rhs - rhs.mean()
        x = self._pcg(rhs, norm)
        fem.check_residual(np.linalg.norm(self._reduced @ x - rhs) / norm,
                           self.residual_tol)
        return T @ x

    def _pcg(self, rhs, norm):
        """Projected conjugate gradients on the reduced operator: residuals
        stay orthogonal to the constants, and the preconditioner (the
        zero-mean solver of K / xi) keeps every iterate at zero mean."""
        stiffness = fem.stiffness_solver(self.mesh)
        x = np.zeros_like(rhs)
        r = rhs.copy()
        z = self.xi * stiffness.precondition(r)
        p = z
        rz = r @ z
        for it in range(1, self._max_iter + 1):
            ap = self._reduced @ p
            pap = p @ ap
            if not (rz > 0.0 and pap > 0.0):
                self._fail("breaks down", it, np.linalg.norm(r) / norm)
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            r -= r.mean()  # rounding in ap adds a constant part, which stalls r
            residual = np.linalg.norm(r) / norm
            if residual <= PCG_TOL:
                return x
            z = self.xi * stiffness.precondition(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        self._fail("does not converge", self._max_iter, residual)

    def _fail(self, what, iterations, residual):
        raise SolverError(
            f"preconditioned CG {what} at max |w| = {self.flow.max_speed():.6g} m/s: "
            f"{iterations} iterations, relative residual {residual:.3e}")


def assemble_Aw(flow, residual_tol=1e-10) -> CellOperator:
    """Build the flow-modified cell operator (with the coercivity guard)."""
    return CellOperator(flow, residual_tol)


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
    props = op.flow.properties
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
    """The corrector fields of one cell instance (full nodal, zero-mean);
    the mesh, the flow and the fluid are those of the operator."""

    pi1: np.ndarray
    pi2: np.ndarray
    xi: np.ndarray
    pi_P: np.ndarray
    operator: CellOperator = field(repr=False)


def solve_cell_problems(flow, residual_tol=1e-10) -> CellSolutionSet:
    """Solve all correctors of one cell with one operator on the flow's mesh."""
    op = assemble_Aw(flow, residual_tol)
    return CellSolutionSet(
        pi1=solve_pi_beta(op, 1),
        pi2=solve_pi_beta(op, 2),
        xi=solve_xi(op),
        pi_P=solve_pi_P(op),
        operator=op,
    )
