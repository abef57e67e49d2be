"""Homogenized interface coefficients and their internal identities.

All quantities are cell averages: integrals divided by the in-plane cell
area |Xi|, on which the correctors do not depend.  A and B are volume forms
of the cell operator; B', F and T' are surface forms, corrector jumps
between the faces I+ and I-; Tw, Mw and W are read from the advective
vector a_i = int w . grad phi_i of the flow (``cell_problems.advective_vector``:
u3 times the a1 that each mesh sums with W1 in one sweep).  So B = B' and
T' = -(theta/c^2) Tw compare independent forms of one quantity.

Convention: the two advective coupling vectors are stored *without* the
theta prefactor (the interface assembly multiplies by theta explicitly);
the raw collected vector including the prefactor is kept as ``Qw``, and
``Wbarp`` is defined as ``Qw / theta``, so ``Qw = theta * Wbarp`` holds by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fem
from .cell_mesh import generate_unit_cell_mesh
from .cell_problems import (CellSolutionSet, MachBoundError, advective_vector,
                            solve_cell_problems)
from .fem import SolverError
from .flow import FlowError, solve_cell_potential_flow
from .geometry import CellGeometry

# relative defect at which an interface identity counts as violated
SYMMETRY_TOL = 1e-8

CSV_HEADER = ("phi_deg,U3,A11,A12,A22,B1,B2,Bp1,Bp2,F,Mw,Tw,Twp,W1,W2,"
              "zeta_star,defect_M3")


@dataclass
class HomogenizedCoefficients:
    A: np.ndarray
    B: np.ndarray
    Bp: np.ndarray
    F: float
    Mw: float
    Tw: float
    Twp: float
    Wbar: np.ndarray
    Wbarp: np.ndarray
    Qw: np.ndarray
    zeta_star: float
    kappa: float

    @property
    def mass_factor(self) -> float:
        """Cell-averaged fluid volume (the no-flow interface mass weight)."""
        return self.zeta_star * self.kappa

    def as_row(self, phi_deg, u3, defect):
        return [phi_deg, u3, self.A[0, 0], self.A[0, 1], self.A[1, 1],
                self.B[0], self.B[1], self.Bp[0], self.Bp[1], self.F,
                self.Mw, self.Tw, self.Twp, self.Wbar[0], self.Wbar[1],
                self.zeta_star, defect]


def compute_coefficients(sols: CellSolutionSet) -> HomogenizedCoefficients:
    """Evaluate all interface coefficients from one cell solution set."""
    op = sols.operator
    mesh, flow, props = op.mesh, op.flow, op.flow.properties
    xi_m = fem.xi_measure(mesh)
    theta = props.theta

    y = [mesh.nodes[:, 0], mesh.nodes[:, 1]]
    pis = [sols.pi1, sols.pi2]
    u = [y[b] + pis[b] for b in range(2)]

    # the operator applied once to the block of the fields, one contiguous
    # row per field
    *A_u, A_xi, A_pi_P = np.ascontiguousarray(
        op.apply(np.stack(u + [sols.xi, sols.pi_P], axis=1)).T)
    A = np.array([[u[b] @ A_u[a] for b in range(2)] for a in range(2)]) / xi_m

    B = np.array([y[b] @ A_xi for b in range(2)]) / xi_m
    Bp = np.array([_face_jump(mesh, pis[b], xi_m) for b in range(2)])
    F = -_face_jump(mesh, sols.xi, xi_m)
    Twp = _face_jump(mesh, sols.pi_P, xi_m)

    # a . v = int w . grad v for P1 v, and a . y_b = int w_b
    # exactly, as sum_i y_b,i grad phi_i = e_b
    adv = advective_vector(flow)
    Tw = (adv @ sols.xi) / xi_m
    Mw = theta * (adv @ sols.pi_P) / xi_m
    Wbar = np.array([adv @ u[b] for b in range(2)]) / xi_m
    Qw = np.array([props.c ** 2 * (y[b] @ A_pi_P) - theta * (adv @ y[b])
                   for b in range(2)]) / xi_m

    kappa = float(mesh.nodes[:, 2].max() - mesh.nodes[:, 2].min())
    zeta = fem.cell_measure(mesh) / (xi_m * kappa)

    return HomogenizedCoefficients(
        A=A, B=B, Bp=Bp, F=F, Mw=Mw, Tw=Tw, Twp=Twp, Wbar=Wbar,
        Wbarp=Qw / theta, Qw=Qw, zeta_star=zeta, kappa=kappa)


def _face_jump(mesh, nodal, xi_m):
    return (fem.integrate(mesh, nodal, "I+") - fem.integrate(mesh, nodal, "I-")) / xi_m


# -- symmetry verification ---------------------------------------------------

@dataclass
class SymmetryCheck:
    name: str
    defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


@dataclass
class SymmetryReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_defect(self) -> float:
        return max(c.defect for c in self.checks)

    def __str__(self):
        lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
                 f"defect {c.defect:.3e} (tol {c.tol:.1e})" for c in self.checks]
        return "\n".join(lines)


def _defect(lhs, rhs, floor):
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    num = np.abs(lhs - rhs).max()
    den = max(np.abs(lhs).max(), np.abs(rhs).max(), floor)
    if den == 0.0:
        return 0.0
    return float(num / den)


def verify_symmetries(coeffs: HomogenizedCoefficients, tol, properties,
                      speed_scale=None) -> SymmetryReport:
    """Check the interface symmetry identities with measured defects.

    Relative defects use per-identity floors so that coefficients that
    vanish by geometric symmetry (compared against solver noise) do not
    produce spurious 0/0 failures: dimensionless identities are floored at
    1% of the tangential-tensor scale, velocity-like ones at 1% of the
    advection speed scale.
    """
    theta, c2 = properties.theta, properties.c ** 2
    a_scale = max(np.abs(coeffs.A).max(), 1e-300)
    if speed_scale is None:
        speed_scale = max(abs(coeffs.Tw) / max(coeffs.kappa, 1e-300),
                          np.abs(coeffs.Wbar).max())
    dimless_floor = 1e-2 * a_scale
    vel_floor = 1e-2 * max(speed_scale, 0.0)
    checks = [
        SymmetryCheck("A symmetric", _defect(coeffs.A, coeffs.A.T, dimless_floor), tol),
        SymmetryCheck("B equals B'", _defect(coeffs.B, coeffs.Bp, dimless_floor), tol),
        SymmetryCheck("T' equals -(theta/c^2) T",
                      _defect(coeffs.Twp, -(theta / c2) * coeffs.Tw,
                              (theta / c2) * vel_floor * max(coeffs.kappa, 1.0)), tol),
        SymmetryCheck("W' equals -W", _defect(coeffs.Wbarp, -coeffs.Wbar, vel_floor), tol),
        SymmetryCheck("Qw equals theta*W'",
                      _defect(coeffs.Qw, theta * coeffs.Wbarp, theta * vel_floor), tol),
    ]
    return SymmetryReport(checks)


# -- sweeps ------------------------------------------------------------------

def cell_pipeline(geom: CellGeometry, u3, resolution, properties,
                  residual_tol=1e-10, mesh=None):
    """Mesh (optional reuse), flow, correctors, coefficients for one point."""
    if mesh is None:
        mesh = generate_unit_cell_mesh(geom, resolution)
    flw = solve_cell_potential_flow(mesh, u3, properties, residual_tol)
    sols = solve_cell_problems(flw, residual_tol)
    coeffs = compute_coefficients(sols)
    return mesh, flw, sols, coeffs


def rest_speed_last(solve, speeds):
    """[solve(u3) for u3 in speeds], in that order, from calls made for the
    flow speeds first, in their order, and for the speeds at rest last: on
    one mesh a rest point frees the kept stiffness solver, the P1 table and
    the unit flow with its W1 forms (``cell_problems.CellOperator``), which
    a flow point after it would build again."""
    results = [None] * len(speeds)
    for i in sorted(range(len(speeds)), key=lambda i: speeds[i] == 0.0):
        results[i] = solve(speeds[i])
    return results


def _sweep_one_angle(args):
    geom, u3_values, resolution, properties, residual_tol = args
    mesh = generate_unit_cell_mesh(geom, resolution)

    def point(u3):
        try:
            _, flw, _, coeffs = cell_pipeline(geom, u3, resolution, properties,
                                              residual_tol, mesh=mesh)
            report = verify_symmetries(coeffs, SYMMETRY_TOL, properties,
                                       speed_scale=max(flw.max_speed(), abs(u3)))
            return geom.hole_slope_deg, u3, coeffs, report.max_defect, None
        except (MachBoundError, SolverError, FlowError) as exc:  # record, keep sweeping
            return geom.hole_slope_deg, u3, None, math.nan, str(exc)
    return rest_speed_last(point, u3_values)


def sweep_coefficients(base_geom: CellGeometry, phi_degrees, u3_values,
                       resolution, properties, jobs=1, residual_tol=1e-10):
    """Coefficient table over hole slopes and through-flow speeds.

    Returns (rows, failures): rows are CSV-ready lists in deterministic
    (phi, u3) order; per-point failures are recorded and skipped, in grid
    order.  Each angle's mesh solves its rest speed last (``rest_speed_last``).
    The angles run in min(jobs, angles) worker processes when that exceeds 1.
    """
    tasks = []
    for phi in phi_degrees:
        geom = replace(base_geom, hole_slope_deg=phi)
        tasks.append((geom, list(u3_values), resolution, properties, residual_tol))
    if jobs > 1 and len(tasks) > 1:
        # imported here, so that only a parallel sweep loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_sweep_one_angle, tasks))
    else:
        results = [_sweep_one_angle(t) for t in tasks]
    rows, failures = [], []
    for angle_rows in results:
        for phi, u3, coeffs, defect, err in angle_rows:
            if err is not None:
                failures.append((phi, u3, err))
            else:
                rows.append(coeffs.as_row(phi, u3, defect))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows, failures
