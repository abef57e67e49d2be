"""Corrector problems on the unit-cell fluid domain.

The flow-modified operator pairs gradients minus a scaled advective
derivative; all three corrector problems share it.  At rest it is the
stiffness matrix, factored once per operator.  With flow it is never
factored.  The cell flow is u3 times the mesh's u3 = 1 flow, so on the
periodic classes the operator reads K - s W1, with K the stiffness matrix,
W1 the advection matrix of the unit flow and s = tau u3^2 / c^2, and a
corrector solves (I - s M) x = K^+ r with M = K^+ W1, which is
self-adjoint in the K inner product.  A Lanczos run of M in that inner
product, from the start K^+ r, serves every s through one tridiagonal solve
of the run's size; K^+ is the mesh's kept stiffness factorization.  Each
corrector load splits into parts that depend on the mesh alone, so the runs
are kept with its stiffness solver and each further speed only extends
them.  All forms are cell-averaged (normalized by the in-plane cell area),
and all correctors are real, zero-mean and periodic in the in-plane
directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import SolverError
from .flow import FlowField, face_flux_jump, unit_cell_flow
from .mesh import per_mesh

# Relative residual estimate at which a Lanczos run serves a speed; asking
# for 1e-15 stagnates in rounding.
LANCZOS_TOL = 1e-13


class MachBoundError(RuntimeError):
    """Advection too fast for the flow-modified operator to stay coercive."""


@per_mesh
def unit_advection(mesh):
    """(W1, a1): the advection matrix and advective vector of the mesh's
    u3 = 1 cell flow (``fem.advection_forms``), read-only; the flow u3 * w1
    has W = u3^2 * W1 and a = u3 * a1."""
    return fem.advection_forms(mesh, unit_cell_flow(mesh)[0])


class LanczosRun:
    """Lanczos run of M = K^+ W in the K inner product on the periodic
    classes, from a start q1 = K^+ r / ||K^+ r||_K.

    The basis (the first len(alpha) + 1 rows of ``basis``) is
    reorthogonalized in full, twice per step.  Step j adds q_(j+1), the
    entries alpha_j, beta_j of the tridiagonal T = V^T K M V and
    ||K q_(j+1)||.  The run holds no K V and no
    reference to the stiffness solver; rows are stored in a buffer that
    doubles when full.
    """

    def __init__(self, q1, start_norm):
        self.start_norm = start_norm  # ||K^+ r||_K
        self.basis = np.empty((16, len(q1)))
        self.basis[0] = q1
        self.alpha, self.beta, self.k_norm = [], [], []

    @classmethod
    def start(cls, r, precondition):
        """The run from K^+ r, or None on breakdown (a K-norm that is not
        > 0 and finite)."""
        r = r - r.mean()
        z = precondition(r)
        norm2 = r @ z  # ||z||_K^2
        if not 0.0 < norm2 < math.inf:
            return None
        return cls(z / math.sqrt(norm2), math.sqrt(norm2))

    def extend(self, precondition, stiffness, advect):
        """One Lanczos step, with the preconditioner K^+, the reduced K and
        the product with the reduced W; False, leaving the run as it was, on
        breakdown (a K-norm that is not > 0 and finite)."""
        size = len(self.alpha) + 1
        basis = self.basis[:size]
        v = advect(basis[-1])
        v -= v.mean()  # rounding adds a constant part, outside the range of K
        w = precondition(v)
        if not 0.0 < v @ w < math.inf:  # ||M q_j||_K^2
            return False
        # K w = v: the first pass takes its K products from v, the second
        # from an explicit product
        h = basis @ v
        w -= h @ basis
        h2 = basis @ (stiffness @ w)
        w -= h2 @ basis
        kw = stiffness @ w
        beta2 = w @ kw
        if not 0.0 < beta2 < math.inf:
            return False
        beta = math.sqrt(beta2)
        if size == len(self.basis):
            # only the rows written are resident
            grown = np.empty((2 * size, len(w)))
            grown[:size] = self.basis
            self.basis = grown
        self.basis[size] = w / beta
        self.alpha.append(h[-1] + h2[-1])
        self.beta.append(beta)
        self.k_norm.append(np.linalg.norm(kw) / beta)
        return True


class CellOperator:
    """Flow-modified cell operator and its corrector solves.

    The operator is real symmetric and positive semidefinite with the
    constants as nullspace whenever the advection satisfies the speed
    bound; the bound is enforced on the nodal velocity field, which
    dominates the quadrature values by convexity.  By the same bound the
    operator is spectrally equivalent to the stiffness matrix: with
    rho = tau max|w|^2 / c^2 < 1, (1 - rho) K <= K - (tau/c^2) W <= K, so
    the Lanczos solves, which are conjugate gradients preconditioned by K,
    converge at a condition number of at most 1 / (1 - rho).

    ``solve`` takes a corrector's name and builds its load (``load``).  At
    rest it solves by the factored K / |Xi|; with flow it takes each fixed
    part of the load from a Lanczos run kept with the mesh's stiffness
    solver (``fem.stiffness_solver``), and T and T^T from that solver.  A
    run is extended until its residual estimate reaches LANCZOS_TOL, shared
    among the parts, for the speed at hand.  Either way the relative
    residual is checked against ``residual_tol`` (``fem.check_residual``),
    and a failure names the corrector and u3.
    """

    def __init__(self, flow: FlowField, residual_tol: float = 1e-10):
        props = flow.properties
        speed = flow.max_speed()
        if not speed < props.mach_speed_limit:  # also catches NaN
            raise MachBoundError(
                f"max |w| = {speed:.6g} m/s reaches the coercivity bound "
                f"c/sqrt(tau) = {props.mach_speed_limit:.6g} m/s")
        self.mesh = mesh = flow.mesh
        self.flow = flow
        self.residual_tol = residual_tol
        self.xi = fem.xi_measure(mesh)
        if flow.u3 == 0.0:
            # freed before this mesh's first matrix is built, as that is
            # where another mesh's kept solver and runs would set the peak
            fem.drop_other_stiffness_solver(mesh)
            self._matrix = fem.stiffness_matrix(mesh) / self.xi
            self._direct = fem.ZeroMeanSolver(mesh, self._matrix, scale=self.xi)
            return
        self._direct = None
        # the operator is (K - s W1) / |Xi|, applied as such and never built
        self._stiffness = fem.stiffness_matrix(mesh)
        self._shift = props.tau * flow.u3 ** 2 / props.c ** 2
        self._advection = unit_advection(mesh)[0]
        rho = props.tau * speed ** 2 / props.c ** 2
        # twice the CG bound for the energy-norm error at condition number
        # 1/(1 - rho), plus room for the Euclidean residual
        self._max_iter = 100 + math.ceil(
            2.0 * math.sqrt(1.0 / (1.0 - rho)) * math.log(2.0 / LANCZOS_TOL))

    def solve(self, name):
        """Zero-mean periodic corrector of the load ``name`` (see ``load``);
        with flow the load's parts are solved from the runs kept for the
        mesh."""
        rhs_full = self.load(name)
        solve_name = f"corrector {name!r} at u3={self.flow.u3:.6g}"
        if self._direct is not None:
            u, residual = self._direct.solve(rhs_full)
            fem.check_residual(residual, self.residual_tol, solve_name)
            return u
        solver, runs = fem.stiffness_solver(self.mesh)
        T, Tt = solver.reduction, solver.restriction
        rhs, norm = fem.reduced_rhs(Tt, rhs_full, solver.zero_floor / self.xi)
        if norm == 0.0:
            return np.zeros(self.mesh.num_nodes)
        # the operator's range is orthogonal to the constants: the part of
        # the right side along them (at most 1e-10 relative, as checked) is
        # dropped, as the direct solve's multiplier absorbs it
        rhs = rhs - rhs.mean()
        parts = self._load_parts(name, Tt)

        def advect(q):
            return Tt @ (self._advection @ (T @ q))
        step = (solver.precondition, solver.reduced, advect)
        x = np.zeros_like(rhs)
        for key, part, coefficient in parts:
            run = runs.get(key)
            if run is None:
                run = LanczosRun.start(part(), solver.precondition)
                if run is None:
                    self._fail("breaks down", 1, 1.0)
                runs[key] = run
            scale = abs(coefficient) * run.start_norm / (self.xi * norm)
            y = self._lanczos(run, scale, LANCZOS_TOL / len(parts), step)
            x += (coefficient * run.start_norm) * (y @ run.basis[:len(y)])
        fem.check_residual(np.linalg.norm(Tt @ self.apply(T @ x) - rhs) / norm,
                           self.residual_tol, solve_name)
        return T @ x

    def apply(self, v):
        """The operator times nodal vectors v: at rest by the matrix K / |Xi|,
        with flow by the kept K and W1."""
        if self._direct is not None:
            return self._matrix @ v
        return (self._stiffness @ v - self._shift * (self._advection @ v)) / self.xi

    def load(self, name):
        """Right side of the corrector ``name``: ("pi", beta) the in-plane
        corrector (beta = 1 or 2), "xi" the through-flux corrector (minus
        the face-average jump), "pi_P" the flow-pressure corrector."""
        props = self.flow.properties
        if name == "xi":
            return -face_flux_jump(self.mesh) / self.xi
        if name == "pi_P":
            return (props.theta / props.c ** 2) * advective_vector(self.flow) / self.xi
        if name not in (("pi", 1), ("pi", 2)):
            raise ValueError(f"unknown corrector load {name!r}: expected "
                             "('pi', 1), ('pi', 2), 'xi' or 'pi_P'")
        return -self.apply(self.mesh.nodes[:, name[1] - 1])

    def _load_parts(self, name, Tt):
        """(run key, start, coefficient) of each fixed part of a corrector
        load, with T^T the periodic restriction: |Xi| times the reduced load
        is the sum of coefficient * start, and each start depends on the mesh
        alone."""
        mesh, u3 = self.mesh, self.flow.u3
        props = self.flow.properties
        if name == "xi":
            return [("xi", lambda: -(Tt @ face_flux_jump(mesh)), 1.0)]
        if name == "pi_P":
            return [("pi_P", lambda: Tt @ unit_advection(mesh)[1],
                     u3 * props.theta / props.c ** 2)]
        _, beta = name
        y = mesh.nodes[:, beta - 1]
        return [(("K", beta), lambda: -(Tt @ (fem.stiffness_matrix(mesh) @ y)), 1.0),
                (("W", beta), lambda: Tt @ (unit_advection(mesh)[0] @ y), self._shift)]

    def _lanczos(self, run, scale, tol, step):
        """Coefficients y of x = V_m y, the Galerkin solution of
        (I - s M) x = q1, for the smallest run length m whose residual
        estimate, scale * |s beta_m y_m| * ||K q_(m+1)||, is within tol; the
        run is extended on demand (``LanczosRun.extend(*step)``), up to the
        step cap.

        (I - s T_m) = L D L^T is factored along the run, which gives y_m
        at every m without solving for the rest of y.
        """
        s = self._shift
        zs, pivots, ratios = [], [], []  # z of L z = e1; d_j; s beta_j / d_j
        estimate = 1.0
        # step m + 2 of the run (its first is the start) gives alpha_m, beta_m
        for m in range(self._max_iter - 1):
            if m == len(run.alpha) and not run.extend(*step):
                self._fail("breaks down", m + 2, estimate)
            if m:
                zs.append(zs[-1] * ratios[-1])
                pivots.append(1.0 - s * run.alpha[m] - s * run.beta[m - 1] * ratios[-1])
            else:
                zs.append(1.0)
                pivots.append(1.0 - s * run.alpha[0])
            ratios.append(s * run.beta[m] / pivots[-1])
            estimate = scale * abs(ratios[-1] * zs[-1]) * run.k_norm[m]
            if estimate <= tol:
                y = np.empty(m + 1)
                y[m] = zs[m] / pivots[m]
                for j in range(m - 1, -1, -1):
                    y[j] = zs[j] / pivots[j] + ratios[j] * y[j + 1]
                return y
        self._fail("does not converge", self._max_iter, estimate)

    def _fail(self, what, steps, estimate):
        raise SolverError(
            f"Lanczos run {what} at max |w| = {self.flow.max_speed():.6g} m/s: "
            f"step {steps}, residual estimate {estimate:.3e}")


def assemble_Aw(flow, residual_tol=1e-10) -> CellOperator:
    """Build the flow-modified cell operator (with the coercivity guard)."""
    return CellOperator(flow, residual_tol)


def advective_vector(flow):
    """a_i = int w . grad phi_i of a cell flow: zero at rest (the mesh's a1
    is not built), else u3 times the mesh's kept a1 (``unit_advection``)."""
    if flow.u3 == 0.0:
        return np.zeros(flow.mesh.num_nodes)
    return flow.u3 * unit_advection(flow.mesh)[1]


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
    # at rest the pi_P load is zero, and so is the corrector
    return CellSolutionSet(pi1=op.solve(("pi", 1)), pi2=op.solve(("pi", 2)),
                           xi=op.solve("xi"), pi_P=op.solve("pi_P"), operator=op)
