"""Independent static-fluid reference implementation (no-flow oracle).

A deliberately plain re-implementation of the zero-flow coupled problem:
per-element Python assembly loops, its own interface block construction,
and a dense-ish sparse solve.  Shares nothing with the package except the
mesh container, so coding slips in either path show up as disagreements.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from perfoplate.duct_mesh import interface_nodes
from perfoplate.mesh import Mesh


def _tri_stiffness(xy):
    x = xy[:, 0]
    y = xy[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area = 0.5 * abs((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * area), area


def _tri_mass(area):
    return area / 12.0 * np.array([[2.0, 1.0, 1.0],
                                   [1.0, 2.0, 1.0],
                                   [1.0, 1.0, 2.0]])


def _edge_mass(length):
    return length / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])


def _edge_load(length):
    return length / 2.0 * np.array([1.0, 1.0])


def _duct_system(mesh, omega, c, amplitude, n):
    """The bulk rows and the radiation boundaries of a system of n unknowns,
    the first of which are the mesh nodes: (lil matrix, rhs)."""
    A = sp.lil_matrix((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)

    c2 = c * c
    iw = 1j * omega
    for cell in mesh.cells:
        xy = mesh.nodes[cell]
        ke, area = _tri_stiffness(xy)
        me = _tri_mass(area)
        for a in range(3):
            for b in range(3):
                A[cell[a], cell[b]] += c2 * ke[a, b] - omega ** 2 * me[a, b]

    for group, source in (("Gamma_in", True), ("Gamma_out", False)):
        for (na, nb) in mesh.facet_groups[group]:
            L = float(np.linalg.norm(mesh.nodes[nb] - mesh.nodes[na]))
            me = _edge_mass(L)
            le = _edge_load(L)
            for a, ga in enumerate((na, nb)):
                for b, gb in enumerate((na, nb)):
                    A[ga, gb] += iw * c * me[a, b]
                if source:
                    rhs[ga] += 2.0 * iw * c * amplitude * le[a]
    return A, rhs


def solve_static_reference(mesh, omega, c, amplitude, coeffs_per_element,
                           eps0):
    """Solve the zero-flow coupled problem; returns (P, Gp, Gm).

    coeffs_per_element: list of dicts with keys A11, B1, Bp1, F, mass
    (one per interface element, ordered along the interface).
    """
    minus, plus, x = interface_nodes(mesh)
    nP = mesh.num_nodes
    nG = len(x)
    A, rhs = _duct_system(mesh, omega, c, amplitude, nP + 2 * nG)
    c2 = c * c
    iw = 1j * omega
    og, om = nP, nP + nG
    for e in range(nG - 1):
        co = coeffs_per_element[e]
        L = x[e + 1] - x[e]
        me = _edge_mass(L)
        ke = np.array([[1.0, -1.0], [-1.0, 1.0]]) / L
        dme = np.array([[-0.5, 0.5], [-0.5, 0.5]])   # int phi_i dphi_j
        pp = (plus[e], plus[e + 1])
        pm = (minus[e], minus[e + 1])
        gdof = (og + e, og + e + 1)
        mdof = (om + e, om + e + 1)
        for a in range(2):
            for b in range(2):
                # bulk trace coupling
                A[pp[a], gdof[b]] += -iw * c2 * me[a, b]
                A[pm[a], mdof[b]] += iw * c2 * me[a, b]
                # layer balance (rows at G+ dofs)
                pb = c2 * co["A11"] * ke[a, b] - omega ** 2 * co["mass"] * me[a, b]
                A[gdof[a], pp[b]] += 0.5 * pb
                A[gdof[a], pm[b]] += 0.5 * pb
                gb = iw * c2 * co["B1"] * dme[b, a]   # d(test) x trial
                A[gdof[a], gdof[b]] += 0.5 * gb + iw * c2 / eps0 * me[a, b]
                A[gdof[a], mdof[b]] += 0.5 * gb - iw * c2 / eps0 * me[a, b]
                # pressure-jump coupling (rows at G- dofs)
                p2 = co["Bp1"] * dme[a, b]
                A[mdof[a], pp[b]] += 0.5 * p2 - me[a, b] / eps0
                A[mdof[a], pm[b]] += 0.5 * p2 + me[a, b] / eps0
                fb = -iw * co["F"] * me[a, b]
                A[mdof[a], gdof[b]] += 0.5 * fb
                A[mdof[a], mdof[b]] += 0.5 * fb

    sol = spla.spsolve(A.tocsc(), rhs)
    return sol[:nP], sol[og:og + nG], sol[om:om + nG]


def static_transmission_loss(mesh, P):
    def energy(group):
        total = 0.0
        for (na, nb) in mesh.facet_groups[group]:
            L = float(np.linalg.norm(mesh.nodes[nb] - mesh.nodes[na]))
            a, b = P[na], P[nb]
            total += L * (abs(a) ** 2 + abs(b) ** 2 + (a * np.conj(b)).real) / 3.0
        return total

    e_in = energy("Gamma_in")
    e_out = energy("Gamma_out")
    return 10.0 * math.log10(e_out / e_in), e_in, e_out


def glued_single_duct(mesh):
    """The split duct glued back along its interface: its first nodes (all
    but the plus-side copies), the cells above the interface moved back onto
    the minus-side nodes, and its inlet and outlet groups."""
    pairs = mesh.periodic_pairs["iface"]
    glue = np.arange(mesh.num_nodes)
    glue[pairs[:, 1]] = pairs[:, 0]
    groups = {name: mesh.facet_groups[name] for name in ("Gamma_in", "Gamma_out")}
    return Mesh(2, mesh.nodes[:mesh.num_nodes - len(pairs)], glue[mesh.cells], groups)


def solve_single_duct(mesh, omega, c, amplitude):
    """Pressure of the plain duct at rest, without interface unknowns."""
    A, rhs = _duct_system(mesh, omega, c, amplitude, mesh.num_nodes)
    return spla.spsolve(A.tocsc(), rhs)
