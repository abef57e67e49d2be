"""The per-element `_Coo` assembly of the coupled waveguide system, kept as
the byte-level reference for `waveguide.assemble_coupled_system`.

It rebuilds every matrix at every frequency and adds the interface element
by element; the program builds the frequency-independent parts once per
problem and the interface as arrays, and must emit the same (rows, cols,
vals) sequence, so that the two CSR matrices agree to the last bit.
"""

import numpy as np
import scipy.sparse as sp

from perfoplate import fem
from perfoplate.duct_mesh import GROUP_IN, GROUP_OUT
from perfoplate.waveguide import MacroAssemblyError, _boundary_impedance_factor


def element_coefficients(problem):
    coeffs = problem.interface_coeffs
    ne = problem.index.n_elements
    if len(coeffs) != ne:
        raise MacroAssemblyError(
            f"need coefficients for {ne} interface elements, got {len(coeffs)}")
    return coeffs


def advection_velocity(problem):
    if problem.flow is None or not problem.outer_advection:
        return None
    vel = problem.flow.velocity
    if not np.any(vel):
        return None
    speed = float(np.linalg.norm(vel, axis=1).max())
    if speed >= problem.properties.mach_speed_limit:
        raise MacroAssemblyError(
            f"macro flow max |w| = {speed:.6g} m/s reaches the bound "
            f"c/sqrt(tau) = {problem.properties.mach_speed_limit:.6g} m/s")
    return vel


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


def assemble_coupled_system(problem, omega: float):
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
    vel = advection_velocity(problem)
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
        lengths = np.diff(idx.x)
        for e in range(idx.n_elements):
            L = lengths[e]
            me = _mass1d(L)
            pplus = [idx.plus[e], idx.plus[e + 1]]
            pminus = [idx.minus[e], idx.minus[e + 1]]
            acc.add(pplus, [og + e, og + e + 1], -iw * c2 * me)
            acc.add(pminus, [om + e, om + e + 1], iw * c2 * me)

        coeffs = element_coefficients(problem)
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
