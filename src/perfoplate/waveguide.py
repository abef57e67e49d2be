"""Monolithic frequency-domain solver for the waveguide with the
homogenized plate interface.

Unknowns are the complex pressure P on both subdomains (independent traces
along the interface) and two complex interface flux densities G+ and G-,
one per side.  The bulk operator is the advection-extended Helmholtz form;
its natural boundary quantity is the flow-modified normal derivative, so
radiation conditions and the interface flux coupling substitute directly.

Sign conventions (fixed upward interface normal):
    d_nw P(+/-) = -i w G(+/-)   on the interface, from either side,
so equal fluxes G+ = G- describe a transparent layer and the difference
(G+ - G-)/eps0 is the first-order flux jump across the finite thickness.
The interface equations are the homogenized layer balance (tested on the
interface nodes) and the pressure-jump coupling; eliminating the static
limit reproduces a fluid slab of the layer thickness exactly (zero
reflection, pure phase delay), which fixes every sign here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .duct_mesh import GROUP_IN, GROUP_OUT, interface_nodes
from .coefficients import HomogenizedCoefficients
from .fem import FluidProperties, SolverError


class MacroAssemblyError(ValueError):
    pass


@dataclass
class InterfaceIndex:
    """Interface dof bookkeeping: nodes sorted along the line."""

    minus: np.ndarray
    plus: np.ndarray
    x: np.ndarray

    @property
    def n(self):
        return len(self.x)

    @property
    def n_elements(self):
        return len(self.x) - 1

    def element_lengths(self):
        return np.diff(self.x)


@dataclass
class MacroProblem:
    """Everything needed to assemble one frequency solve.

    interface_coeffs: one HomogenizedCoefficients per interface element
    (or a single instance used uniformly).  flow: MacroFlowField or None.
    """

    mesh: object
    properties: FluidProperties
    interface_coeffs: object
    eps0: float
    flow: object = None
    amplitude: float = 300.0
    outer_advection: bool = True
    impedance_flow_correction: bool = False
    source_side: str = "in"
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.eps0 <= 0:
            raise MacroAssemblyError("eps0 must be positive")
        if self.source_side not in ("in", "out"):
            raise MacroAssemblyError("source_side must be 'in' or 'out'")
        if "iface" in self.mesh.periodic_pairs:
            self.index = InterfaceIndex(*interface_nodes(self.mesh))
        else:
            # unsplit mesh: plain duct without interface unknowns
            self.index = None

    def element_coefficients(self):
        coeffs = self.interface_coeffs
        ne = self.index.n_elements
        if isinstance(coeffs, HomogenizedCoefficients):
            return [coeffs] * ne
        coeffs = list(coeffs)
        if len(coeffs) != ne:
            raise MacroAssemblyError(
                f"need coefficients for {ne} interface elements, got {len(coeffs)}")
        return coeffs

    def advection_velocity(self):
        if self.flow is None or not self.outer_advection:
            return None
        vel = self.flow.velocity
        if not np.any(vel):
            return None
        speed = float(np.linalg.norm(vel, axis=1).max())
        if speed >= self.properties.mach_speed_limit:
            raise MacroAssemblyError(
                f"macro flow max |w| = {speed:.6g} m/s reaches the bound "
                f"c/sqrt(tau) = {self.properties.mach_speed_limit:.6g} m/s")
        return vel


@dataclass
class MacroSolution:
    """Fields of one frequency solve."""

    omega: float
    P: np.ndarray
    Gp: np.ndarray
    Gm: np.ndarray
    index: InterfaceIndex
    mesh: object


# 1D P1 element matrices on a segment of length L
def _mass1d(L):
    return L / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])


def _stiff1d(L):
    return 1.0 / L * np.array([[1.0, -1.0], [-1.0, 1.0]])


# int phi_i dphi_j  (rows: plain test, cols: differentiated trial)
_TEST_DTRIAL = np.array([[-0.5, 0.5], [-0.5, 0.5]])
# int dphi_i phi_j
_DTEST_TRIAL = _TEST_DTRIAL.T


class _Coo:
    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, r, c, block):
        r = np.asarray(r)
        c = np.asarray(c)
        block = np.asarray(block, dtype=complex)
        self.rows.append(np.repeat(r, len(c)))
        self.cols.append(np.tile(c, len(r)))
        self.vals.append(block.reshape(-1))

    def add_matrix(self, mat, row_off=0, col_off=0):
        coo = mat.tocoo()
        self.rows.append(coo.row + row_off)
        self.cols.append(coo.col + col_off)
        self.vals.append(coo.data.astype(complex))

    def build(self, n):
        return sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=(n, n)).tocsr()


def _boundary_impedance_factor(problem, group):
    """Optional convective correction (1 + w.n/c) of the plane-wave impedance."""
    if not problem.impedance_flow_correction or problem.flow is None:
        return 1.0
    mesh = problem.mesh
    nodes = mesh.group_nodes(group)
    vel = problem.flow.velocity[nodes]
    # boundary groups are vertical lines; outward normal is +-e1
    xmid = mesh.nodes[nodes, 0].mean()
    interior_x = mesh.nodes[:, 0].mean()
    n1 = 1.0 if xmid > interior_x else -1.0
    wn = float(vel[:, 0].mean()) * n1
    return 1.0 + wn / problem.properties.c


def interface_element_blocks(co, L, omega, properties):
    """Dense 2x2 blocks of one interface element of length L.

    Returns (me, p, g, p2, f): the 1D mass matrix, the layer-balance
    pressure and flux blocks, and the coupling pressure and flux blocks.
    """
    c2 = properties.c ** 2
    theta = properties.theta
    iw = 1j * omega
    me = _mass1d(L)
    ke = _stiff1d(L)
    mass_c = co.mass_factor + co.Mw
    p = (c2 * co.A[0, 0] * ke
         - omega ** 2 * mass_c * me
         + iw * theta * (co.Wbar[0] * _TEST_DTRIAL
                         + co.Wbarp[0] * _DTEST_TRIAL))
    g = iw * c2 * co.B[0] * _DTEST_TRIAL - omega ** 2 * theta * co.Tw * me
    p2 = co.Bp[0] * _TEST_DTRIAL + iw * co.Twp * me
    f = -iw * co.F * me
    return me, p, g, p2, f


def assemble_coupled_system(problem: MacroProblem, omega: float):
    """Complex system for (P, G+, G-) at one angular frequency.

    Returns (matrix, rhs, n_pressure) with unknown layout [P, G+, G-] and
    equation layout [bulk, interface balance, pressure-jump coupling].
    """
    mesh = problem.mesh
    props = problem.properties
    idx = problem.index
    c, c2 = props.c, props.c ** 2
    theta, tau = props.theta, props.tau
    iw = 1j * omega

    nP = mesh.num_nodes
    nG = idx.n if idx is not None else 0
    n = nP + 2 * nG
    og, om = nP, nP + nG  # offsets of G+ and G- columns / M1, M2 rows

    acc = _Coo()
    # bulk extended-Helmholtz blocks
    K = fem.stiffness_matrix(mesh)
    M = fem.mass_matrix(mesh)
    acc.add_matrix(c2 * K - omega ** 2 * M)
    vel = problem.advection_velocity()
    if vel is not None:
        W, C = fem.advection_matrices(mesh, vel)
        acc.add_matrix(-tau * W + iw * theta * (C - C.T))

    # radiation boundaries: d_nw P + (i w / c) P = 2 (i w / c) p_in (source)
    # weak form adds c^2 * boundary terms
    rhs = np.zeros(n, dtype=complex)
    source_group = GROUP_IN if problem.source_side == "in" else GROUP_OUT
    for group in (GROUP_IN, GROUP_OUT):
        zfac = _boundary_impedance_factor(problem, group)
        acc.add_matrix(iw * c * zfac * fem.boundary_mass_matrix(mesh, group))
        if group == source_group:
            rhs[:nP] += 2.0 * iw * c * problem.amplitude \
                * fem.boundary_load_vector(mesh, group)

    if idx is not None:
        # trace coupling to the interface fluxes: d_nw P(+/-) = -i w G(+/-)
        lengths = idx.element_lengths()
        for e in range(idx.n_elements):
            L = lengths[e]
            me = _mass1d(L)
            pplus = [idx.plus[e], idx.plus[e + 1]]
            pminus = [idx.minus[e], idx.minus[e + 1]]
            acc.add(pplus, [og + e, og + e + 1], -iw * c2 * me)
            acc.add(pminus, [om + e, om + e + 1], iw * c2 * me)

        coeffs = problem.element_coefficients()
        eps0 = problem.eps0
        for e in range(idx.n_elements):
            me, p_block, g_block, p2_block, f_block = interface_element_blocks(
                coeffs[e], lengths[e], omega, props)
            rows1 = [og + e, og + e + 1]      # layer balance rows
            rows2 = [om + e, om + e + 1]      # coupling rows
            pp = [idx.plus[e], idx.plus[e + 1]]
            pm = [idx.minus[e], idx.minus[e + 1]]
            gp = [og + e, og + e + 1]
            gm = [om + e, om + e + 1]
            for cols in (pp, pm):
                acc.add(rows1, cols, 0.5 * p_block)
            for cols in (gp, gm):
                acc.add(rows1, cols, 0.5 * g_block)
            acc.add(rows1, gp, (iw * c2 / eps0) * me)
            acc.add(rows1, gm, -(iw * c2 / eps0) * me)
            acc.add(rows2, pp, 0.5 * p2_block - me / eps0)
            acc.add(rows2, pm, 0.5 * p2_block + me / eps0)
            for cols in (gp, gm):
                acc.add(rows2, cols, 0.5 * f_block)

    return acc.build(n), rhs, nP


def solve_frequency(problem: MacroProblem, omega: float) -> MacroSolution:
    """Direct monolithic solve at one angular frequency."""
    A, rhs, nP = assemble_coupled_system(problem, omega)
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"singular coupled system at omega={omega:.6g}: {exc}")
    x = lu.solve(rhs)
    resid = np.linalg.norm(A @ x - rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if not np.isfinite(resid) or resid / scale > problem.residual_tol:
        raise SolverError(
            f"coupled solve at omega={omega:.6g}: residual {resid / scale:.3e}")
    if problem.index is not None:
        nG = problem.index.n
        Gp = x[nP:nP + nG]
        Gm = x[nP + nG:nP + 2 * nG]
    else:
        Gp = Gm = np.zeros(0, dtype=complex)
    return MacroSolution(omega, x[:nP], Gp, Gm, problem.index, problem.mesh)


def boundary_energy(mesh, P, group):
    """Integral of |P|^2 over a boundary group (exact for P1 traces)."""
    facets = mesh.facet_group(group)
    meas = mesh.facet_measures(group)
    a = P[facets[:, 0]]
    b = P[facets[:, 1]]
    vals = (np.abs(a) ** 2 + np.abs(b) ** 2 + (a * np.conj(b)).real) / 3.0
    return float((meas * vals).sum())


def transmission_loss(sol: MacroSolution, problem: MacroProblem):
    """(TL_db, flux_in, flux_out) with TL = 10 log10(out/in) as printed.

    Note the out/in orientation makes attenuation negative; both boundary
    integrals are returned so either convention can be recovered.
    """
    e_in = boundary_energy(problem.mesh, sol.P, GROUP_IN)
    e_out = boundary_energy(problem.mesh, sol.P, GROUP_OUT)
    if e_in <= 0.0:
        raise ZeroDivisionError("no incident energy on the inlet boundary")
    tl = 10.0 * math.log10(e_out / e_in) if e_out > 0.0 else -math.inf
    return tl, e_in, e_out


def frequency_sweep(problem: MacroProblem, omegas):
    """TL rows [omega, f, TL_db, flux_in, flux_out]; failures recorded."""
    rows, failures = [], []
    for omega in omegas:
        try:
            sol = solve_frequency(problem, omega)
            tl, e_in, e_out = transmission_loss(sol, problem)
            rows.append([omega, omega / (2 * math.pi), tl, e_in, e_out])
        except (SolverError, MacroAssemblyError, ZeroDivisionError) as exc:
            failures.append((omega, str(exc)))
    return rows, failures
