"""Corrector problems on the unit-cell fluid domain.

The flow-modified operator pairs gradients minus a scaled advective
derivative; all three corrector problems share it.  At rest it is the
stiffness matrix, factored once per operator.  With flow it is never
factored.  The cell flow is u3 times the mesh's u3 = 1 flow, so on the
periodic classes the operator reads K - s W1, with K the stiffness matrix,
W1 the advection matrix of the unit flow (kept in its record,
``flow.unit_cell_flow``) and s = tau u3^2 / c^2, and a
corrector solves (I - s M) x = K^+ r with M = K^+ W1, which is
self-adjoint in the K inner product.  A Lanczos run of M in that inner
product, from the start K^+ r, serves every s through one tridiagonal solve
of the run's size; K^+ is the mesh's kept stiffness factorization.  Each
corrector is a part that depends on the mesh alone plus a coefficient times
one run from a start that depends on the mesh alone: the tangential
corrector pi_beta is its rest part g = K^+(-T^T K y_beta) plus s times the
run from T^T W1 (y_beta + T g).  So the runs, one per corrector, are kept
with the mesh's stiffness solver from its first flow point, and each further
speed only extends them.  The four correctors of a point are solved together,
in rounds: each round asks every pending corrector's run for its solution
and extends the runs still pending by one step, applying the factorization
once, to the block of all their columns.  At rest the correctors are solved on a
factorization of K built for the call and freed with it, the one cell
factorization alive while it factors.  They do not depend on the in-plane
cell area |Xi|, which enters only the cell averages (``coefficients``); all
of them are real, zero-mean and periodic in the in-plane directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import SolverError
from .flow import FlowField, face_flux_jump, unit_cell_flow
from .mesh import per_mesh, release

# Relative residual estimate at which a Lanczos run serves a speed; asking
# for 1e-15 stagnates in rounding.
LANCZOS_TOL = 1e-13

# the tangential correctors: their loads have a rest part
_TANGENTIAL = (("pi", 1), ("pi", 2))
# the correctors of a cell point, in the order ``CellOperator.solve`` returns them
CORRECTORS = _TANGENTIAL + ("xi", "pi_P")

# The per-mesh results a rest operator frees before its bordered
# factorization: the P1 table, whose last reader at rest is K, and the unit
# flow with its W1 forms (``flow.unit_cell_flow``), which only flow points
# read.  A mesh solves its rest speed last (``coefficients.rest_speed_last``),
# after its flow points built these; freeing the W1 forms as well lowered the
# default sweep's peak RSS from 100.4 to 93.1 MB, far more than the 1.4 MB
# they hold (one BLAS thread).
_REST_RELEASED = ("perfoplate.fem.p1_geometry", "perfoplate.flow.unit_cell_flow")


class MachBoundError(RuntimeError):
    """Advection too fast for the flow-modified operator to stay coercive."""


@per_mesh
def in_plane_stiffness(mesh):
    """K y for the in-plane coordinates y = (y_1, y_2) of the mesh, one
    column each, read-only: the rest part of the tangential loads."""
    return fem.stiffness_matrix(mesh) @ mesh.nodes[:, :2]


class LanczosRun:
    """Lanczos run of M = K^+ W in the K inner product on the periodic
    classes, from a start q1 = K^+ r / ||K^+ r||_K, and the fixed offset
    (a vector on the periodic classes, or 0.0) that its corrector adds.

    The basis (the first len(alpha) + 1 rows of ``basis``) is
    reorthogonalized in full, twice per step.  Step j adds q_(j+1), the
    entries alpha_j, beta_j of the tridiagonal T = V^T K M V and
    ||K q_(j+1)||, from one product with K.  The run holds no K V and no
    reference to the stiffness solver; rows are stored in a buffer that
    doubles when full.  Runs are started and extended in batches, one
    block product per operator for all of them; one run is a batch of one.
    """

    def __init__(self, q1, start_norm):
        self.start_norm = start_norm  # ||K^+ r||_K
        self.offset = 0.0
        self.basis = np.empty((16, len(q1)))
        self.basis[0] = q1
        self.alpha, self.beta, self.k_norm = [], [], []

    @classmethod
    def start(cls, loads, precondition):
        """The runs from K^+ r for the columns r of ``loads``, by one block
        apply of the preconditioner; None for a run that breaks down (a
        K-norm that is not > 0 and finite)."""
        r = loads - loads.mean(axis=0)
        z = precondition(r)
        norm2 = np.einsum("ij,ij->j", r, z)  # ||z||_K^2
        return [cls(z[:, j] / math.sqrt(n2), math.sqrt(n2)) if 0.0 < n2 < math.inf
                else None for j, n2 in enumerate(norm2)]

    @staticmethod
    def extend(runs, precondition, stiffness, advect):
        """One Lanczos step of each of the runs, with the preconditioner
        K^+, the reduced K and the product with the reduced W, each applied
        once to the block of the runs' columns; returns the runs that break
        down (a K-norm that is not > 0 and finite), each left as it was."""
        bases = [run.basis[:len(run.alpha) + 1] for run in runs]
        v = advect(np.stack([basis[-1] for basis in bases], axis=1))
        v -= v.mean(axis=0)  # rounding adds a constant part, outside the range of K
        w = precondition(v)
        norm2 = np.einsum("ij,ij->j", v, w)  # ||M q_j||_K^2

        def orthogonalize(kw):
            """Subtract from each column of w its K-projection on its run's
            basis, given K w; returns the projections' coefficients."""
            h = [basis @ kw[:, j] for j, basis in enumerate(bases)]
            for j, basis in enumerate(bases):
                w[:, j] -= h[j] @ basis
            return h
        # K w = v: the first pass takes its K products from v, the second
        # from an explicit product, which also gives beta and ||K q||: it
        # misses the product after that pass by K V h2, and h2 is at rounding
        h = orthogonalize(v)
        kw = stiffness @ w
        h2 = orthogonalize(kw)
        beta2 = np.einsum("ij,ij->j", w, kw)
        broken = []
        for j, run in enumerate(runs):
            if not (0.0 < norm2[j] < math.inf and 0.0 < beta2[j] < math.inf):
                broken.append(run)
                continue
            beta = math.sqrt(beta2[j])
            size = len(bases[j])
            if size == len(run.basis):
                # only the rows written are resident
                grown = np.empty((2 * size, len(w)))
                grown[:size] = run.basis
                run.basis = grown
            run.basis[size] = w[:, j] / beta
            run.alpha.append(h[j][-1] + h2[j][-1])
            run.beta.append(beta)
            run.k_norm.append(np.linalg.norm(kw[:, j]) / beta)
        return broken

    def galerkin(self, s, scale, steps):
        """(y, estimate): y of the Galerkin solution x = V_m y of (I - s M) x = q1
        for the smallest run length m <= ``steps`` whose residual estimate,
        scale * |s beta_m y_m| * ||K q_(m+1)||, is within LANCZOS_TOL, else
        (None, the last estimate; 1.0 before any).  (I - s T_m) = L D L^T is
        factored along the run, which gives y_m at every m without the rest of y."""
        zs, pivots, ratios = [], [], []  # z of L z = e1; d_j; s beta_j / d_j
        estimate = 1.0
        for m in range(min(steps, len(self.alpha))):
            if m:
                zs.append(zs[-1] * ratios[-1])
                pivots.append(1.0 - s * self.alpha[m] - s * self.beta[m - 1] * ratios[-1])
            else:
                zs.append(1.0)
                pivots.append(1.0 - s * self.alpha[0])
            ratios.append(s * self.beta[m] / pivots[-1])
            estimate = scale * abs(ratios[-1] * zs[-1]) * self.k_norm[m]
            if estimate <= LANCZOS_TOL:
                y = np.empty(m + 1)
                y[m] = zs[m] / pivots[m]
                for j in range(m - 1, -1, -1):
                    y[j] = zs[j] / pivots[j] + ratios[j] * y[j + 1]
                return y, estimate
        return None, estimate


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

    ``solve`` builds the loads of the point's four correctors (``load``),
    reduces each to the periodic classes and solves it: at rest by K,
    factored in that call and freed when it returns (the operator first
    frees the kept stiffness solver, the mesh's P1 table and its unit flow
    record), with flow from its run's offset and its Lanczos run, both kept
    with the mesh's stiffness solver (``fem.stiffness_solver``) under the
    corrector's name.  A run is extended until its residual estimate
    reaches LANCZOS_TOL for the speed at hand, in rounds with the runs of
    the other correctors.  Either way each relative residual is checked
    against ``residual_tol`` (``fem.check_residual``), and a failure names
    the corrector and u3, and a Lanczos failure also its run.
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
        if flow.u3 == 0.0:
            # freed before K is built, so that the bordered factorization of
            # ``solve`` is the one cell factorization alive (at a flow point
            # ``fem.stiffness_solver`` frees another mesh's before it factors)
            fem.drop_stiffness_solver()
        # the operator is K - s W1, applied as such and never built
        self._stiffness = fem.stiffness_matrix(mesh)
        self._shift = props.tau * flow.u3 ** 2 / props.c ** 2
        if flow.u3 == 0.0:
            # the bordered factorization then sits beside no array only a
            # flow point reads; a flow point after this one builds them
            # again bit for bit
            for name in _REST_RELEASED:
                release(mesh, name)
            return
        self._advection = unit_cell_flow(mesh).matrix
        rho = props.tau * speed ** 2 / props.c ** 2
        # twice the CG bound for the energy-norm error at condition number
        # 1/(1 - rho), plus room for the Euclidean residual
        self._max_iter = 100 + math.ceil(
            2.0 * math.sqrt(1.0 / (1.0 - rho)) * math.log(2.0 / LANCZOS_TOL))

    def solve(self):
        """The point's zero-mean periodic correctors [pi_1, pi_2, xi, pi_P]
        (``CORRECTORS``; their loads: ``load``); a zero load gives the zero
        field.  At rest each is one apply of a factorization of K
        made for the call; with flow each comes from its run (started at the
        mesh's first flow point where its load is not zero,
        ``_start_runs``), in rounds: each asks the pending runs for their
        solutions (``LanczosRun.galerkin``) and extends the rest in one
        ``LanczosRun.extend``.  The residuals are checked in one block product."""
        loads = [self.load(name) for name in CORRECTORS]
        labels = [f"corrector {name!r} at u3={self.flow.u3:.6g}" for name in CORRECTORS]
        if self.flow.u3 == 0.0:
            # bordered and factored with SuperLU's defaults, as tl_rest_dense
            # pins the rest outputs byte for byte; ROADMAP item 2 replaces it
            # by the kept grounded solver once those rows are regenerated
            solver, runs = fem.ZeroMeanSolver(self.mesh, self._stiffness, bordered=True), None
        else:
            solver, runs = fem.stiffness_solver(self.mesh)
        rhs, norms = zip(*(solver.reduce(load, label) for load, label in zip(loads, labels)))
        # a zero load has the zero corrector
        solved = [c for c, norm in enumerate(norms) if norm > 0.0]
        x = np.zeros((solver.reduced.shape[0], len(CORRECTORS)))
        advected = 0.0
        if runs is None:
            # one apply per column: a block apply agrees with it only to rounding
            for c in solved:
                x[:, c] = solver.precondition(rhs[c])
        else:
            # a zero load starts no run, so a later speed can find one missing
            # (pi_P's, after a first speed so small that u3 a1 underflows to zero)
            missing = [CORRECTORS[c] for c in solved if CORRECTORS[c] not in runs]
            if missing:
                self._start_runs(missing, solver, runs)
            run_of = {c: runs[CORRECTORS[c]] for c in solved}
            advection = unit_cell_flow(self.mesh).reduced
            # the run's step m + 2 (its first is the start) gives alpha_m, beta_m
            cap, pending, broken, estimates = self._max_iter - 1, list(run_of), [], {}
            while pending:
                waiting = []
                for c in pending:
                    name, run = CORRECTORS[c], run_of[c]
                    if run in broken:
                        self._fail(name, "breaks down", len(run.alpha) + 2, estimates[c])
                    # x = offset + weight * V y for the run's basis V
                    weight = self._coefficient(name) * run.start_norm
                    y, estimates[c] = run.galerkin(self._shift, abs(weight) / norms[c], cap)
                    if y is not None:
                        x[:, c] = run.offset + weight * (y @ run.basis[:len(y)])
                    elif len(run.alpha) >= cap:
                        self._fail(name, "does not converge", self._max_iter, estimates[c])
                    else:
                        waiting.append(c)
                pending = waiting
                if pending:
                    broken = LanczosRun.extend([run_of[c] for c in pending],
                                               solver.precondition, solver.reduced,
                                               advection.__matmul__)
            advected = self._shift * (advection @ x)
        # the operator's range is orthogonal to the constants: the part of a
        # right side along them (at most 1e-10 relative, as checked) is
        # dropped, as the direct solve's multiplier absorbs it
        residuals = np.linalg.norm(solver.reduced @ x - advected
                                   - np.stack([r - r.mean() for r in rhs], axis=1), axis=0)
        for c in solved:
            fem.check_residual(residuals[c] / norms[c], self.residual_tol, labels[c])
        return list(np.ascontiguousarray((solver.reduction @ x).T))

    def _start_runs(self, names, solver, runs):
        """Start the runs of the correctors ``names`` and keep them in
        ``runs``, by one block apply of the preconditioner to their starts.
        The reduced load of a corrector is its coefficient (``_coefficient``)
        times its start, except for the tangential ones: their rest parts
        g = K^+(-T^T K y), solved first in one block, are kept as their runs'
        offsets, and their runs start from T^T W1 (y + T g).  With M = K^+ W1,
        (I - s M)^-1 (g + s K^+ T^T W1 y) = g + s (I - s M)^-1 K^+ T^T W1 (y + T g)."""
        mesh, T, Tt = self.mesh, solver.reduction, solver.restriction
        offsets = {}
        forms = unit_cell_flow(mesh)
        starts = {"xi": -(Tt @ face_flux_jump(mesh)), "pi_P": Tt @ forms.vector}
        tangential = [name for name in names if name in _TANGENTIAL]
        if tangential:
            columns = [beta - 1 for _, beta in tangential]
            y = mesh.nodes[:, columns]
            r = -(Tt @ in_plane_stiffness(mesh)[:, columns])
            g = solver.precondition(r - r.mean(axis=0))
            flow = Tt @ (forms.matrix @ (y + T @ g))
            for j, name in enumerate(tangential):
                offsets[name], starts[name] = g[:, j], flow[:, j]
        started = LanczosRun.start(np.stack([starts[name] for name in names], axis=1),
                                   solver.precondition)
        for name, run in zip(names, started):
            if run is None:
                self._fail(name, "breaks down", 1, 1.0)
            run.offset = offsets.get(name, 0.0)
            runs[name] = run

    def apply(self, v):
        """The operator K - s W1 times nodal vectors v, by the mesh's kept K
        and W1 (K alone at rest)."""
        if self.flow.u3 == 0.0:
            return self._stiffness @ v
        return self._stiffness @ v - self._shift * (self._advection @ v)

    def load(self, name):
        """Right side of the corrector ``name``: ("pi", beta) the in-plane
        corrector (beta = 1 or 2; minus the operator times y_beta, from the
        mesh's kept K y and W1 y), "xi" the through-flux corrector (minus
        the face-average jump), "pi_P" the flow-pressure corrector."""
        props = self.flow.properties
        if name == "xi":
            return -face_flux_jump(self.mesh)
        if name == "pi_P":
            return (props.theta / props.c ** 2) * advective_vector(self.flow)
        if name not in _TANGENTIAL:
            raise ValueError(f"unknown corrector load {name!r}: expected "
                             "('pi', 1), ('pi', 2), 'xi' or 'pi_P'")
        stiffness = in_plane_stiffness(self.mesh)[:, name[1] - 1]
        if self.flow.u3 == 0.0:
            return -stiffness
        return -(stiffness - self._shift * unit_cell_flow(self.mesh).in_plane[:, name[1] - 1])

    def _coefficient(self, name):
        """The coefficient of the corrector ``name``'s run (``_start_runs``)."""
        if name == "xi":
            return 1.0
        if name == "pi_P":
            props = self.flow.properties
            return self.flow.u3 * props.theta / props.c ** 2
        return self._shift

    def _fail(self, name, what, steps, estimate):
        raise SolverError(
            f"corrector {name!r} at u3={self.flow.u3:.6g}: Lanczos run {name!r} {what} "
            f"at max |w| = {self.flow.max_speed():.6g} m/s: "
            f"step {steps}, residual estimate {estimate:.3e}")


def assemble_Aw(flow, residual_tol=1e-10) -> CellOperator:
    """Build the flow-modified cell operator (with the coercivity guard)."""
    return CellOperator(flow, residual_tol)


def advective_vector(flow):
    """a_i = int w . grad phi_i of a cell flow: zero at rest (the mesh's a1
    is not built), else u3 times the mesh's kept a1 (``unit_cell_flow``)."""
    if flow.u3 == 0.0:
        return np.zeros(flow.mesh.num_nodes)
    return flow.u3 * unit_cell_flow(flow.mesh).vector


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
    pi1, pi2, xi, pi_P = op.solve()
    return CellSolutionSet(pi1=pi1, pi2=pi2, xi=xi, pi_P=pi_P, operator=op)
