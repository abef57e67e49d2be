"""The volume-quadrature `compute_coefficients`, kept as the reference for
`coefficients.compute_coefficients`.

It gathers the cell-mean velocity of every tetrahedron at every point and
integrates each flow coefficient over the cells on its own; the program
reads Tw, Mw, W and the flow part of Qw from the advective vector a kept
per mesh (``cell_problems.advective_vector``).  Both take A, B and the
rest of Qw from the operator's own products (``CellOperator.apply``, the
operator K - s W1 without the cell measure |Xi|, which both divide by).  At
rest the two must agree to the last bit, with flow to rounding.
"""

import numpy as np

from fixtures import cell_velocity
from perfoplate import fem
from perfoplate.cell_problems import CellSolutionSet
from perfoplate.coefficients import HomogenizedCoefficients


def compute_coefficients(sols: CellSolutionSet) -> HomogenizedCoefficients:
    """Evaluate all interface coefficients from one cell solution set."""
    op = sols.operator
    mesh, flow, props = op.mesh, op.flow, op.flow.properties
    xi_m = fem.xi_measure(mesh)
    c2 = props.c ** 2
    theta = props.theta

    y = [mesh.nodes[:, 0], mesh.nodes[:, 1]]
    pis = [sols.pi1, sols.pi2]
    u = [y[b] + pis[b] for b in range(2)]

    A = np.empty((2, 2))
    for a in range(2):
        Aua = op.apply(u[a])
        for b in range(2):
            A[a, b] = u[b] @ Aua
    A /= xi_m

    B = np.array([y[b] @ op.apply(sols.xi) for b in range(2)]) / xi_m
    Bp = np.array([_face_jump(mesh, pis[b], xi_m) for b in range(2)])
    F = -_face_jump(mesh, sols.xi, xi_m)
    Twp = _face_jump(mesh, sols.pi_P, xi_m)

    wmean = cell_velocity(flow)[mesh.cells].mean(axis=1)
    Tw = _advective_average(mesh, sols.xi, wmean) / xi_m
    Mw = theta * _advective_average(mesh, sols.pi_P, wmean) / xi_m
    Wbar = np.array([
        (_flow_component_integral(mesh, wmean, b)
         + _advective_average(mesh, pis[b], wmean)) / xi_m
        for b in range(2)])
    Qw = np.array([
        c2 * (y[b] @ op.apply(sols.pi_P)) - theta * _flow_component_integral(mesh, wmean, b)
        for b in range(2)]) / xi_m
    Wbarp = Qw / theta

    vol = fem.cell_measure(mesh)
    kappa = float(mesh.nodes[:, 2].max() - mesh.nodes[:, 2].min())
    zeta = vol / (xi_m * kappa)

    return HomogenizedCoefficients(
        A=A, B=B, Bp=Bp, F=F, Mw=Mw, Tw=Tw, Twp=Twp, Wbar=Wbar, Wbarp=Wbarp,
        Qw=Qw, zeta_star=zeta, kappa=kappa)


def _face_jump(mesh, nodal, xi_m):
    return (fem.integrate(mesh, nodal, "I+") - fem.integrate(mesh, nodal, "I-")) / xi_m


def _advective_average(mesh, nodal, wmean):
    """Integral of w . grad(field) (exact for nodal w, P1 field)."""
    g = fem.cell_gradients(mesh, nodal)
    return float(np.einsum('m,md,md->', mesh.cell_volumes(), wmean, g))


def _flow_component_integral(mesh, wmean, b):
    return float((mesh.cell_volumes() * wmean[:, b]).sum())
