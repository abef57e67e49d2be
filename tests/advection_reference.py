"""The element-block assembly of the advection forms, kept as the reference
for `fem.advection_forms` and `fem.advection_matrices`.

It builds the dense (M, n, n) element blocks of W and C, point by point of
the second-order rule, and scatters them through a COO matrix, and it
integrates the advective vector a with the cell-mean velocity.  The program
sums products of sparse per-point factors instead, which rounds differently
and drops exact zeros from the pattern, so the two agree in value to
rounding, not bit for bit or in pattern.
"""

import numpy as np

from perfoplate import fem


def advection_element_blocks(mesh, velocity):
    """(W, C) element blocks, each (cells, n, n), of a nodal velocity."""
    grads, vols = fem.p1_geometry(mesh)
    wn = np.asarray(velocity, dtype=float)[mesh.cells]
    lam, wts = fem._QUAD2[mesh.dim]
    n = mesh.dim + 1
    Welem = np.zeros((mesh.num_cells, n, n))
    Celem = np.zeros((mesh.num_cells, n, n))
    for q in range(len(wts)):
        scale = wts[q] * vols
        dq = np.einsum('md,mjd->mj', np.einsum('i,mid->md', lam[q], wn), grads)
        Welem += np.einsum('m,mi,mj->mij', scale, dq, dq)
        Celem += np.einsum('m,i,mj->mij', scale, lam[q], dq)
    return Welem, Celem


def advection_matrices(mesh, velocity):
    """(W, C) scattered from their element blocks."""
    return tuple(fem._scatter(mesh.cells, elem, mesh.num_nodes)
                 for elem in advection_element_blocks(mesh, velocity))


def cell_mean_advective_vector(mesh, velocity):
    """Vector of int (cell-mean w) . grad phi_i: for P1 w it is
    int w . grad phi_i, as the rule integrates w exactly."""
    grads, vols = fem.p1_geometry(mesh)
    wmean = np.asarray(velocity, dtype=float)[mesh.cells].mean(axis=1)
    contrib = np.einsum('m,md,mid->mi', vols, wmean, grads)
    return np.bincount(mesh.cells.reshape(-1), contrib.reshape(-1), mesh.num_nodes)
