"""P1 element matrices, periodic reduction and the zero-mean solver.

Scalar P1 matrices and loads on simplex meshes, and one sparse direct
solver for pure-Neumann problems under periodic and zero-mean
constraints.  Element gradients are cell-constant; products with
nodal velocity fields are integrated with second-order quadrature, which is
exact for the quadratic integrands that occur here, and are summed from
sparse per-point factors rather than element blocks.  The solver of the
stiffness matrix is kept for one mesh at a time (``stiffness_solver`` frees
another mesh's before it builds one): it computes the cell flow and
preconditions the cell correctors, whose Krylov runs are kept with it.
At most one cell factorization is alive, kept or bordered: a bordered one
is made only once ``drop_stiffness_solver`` has freed the kept one.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import edge_matrices, per_mesh


class AssemblyError(ValueError):
    """Invalid assembly request (missing flow, unknown group, ...)."""


class SolverError(RuntimeError):
    """Sparse solve failed its residual or compatibility contract."""


@dataclass(frozen=True)
class FluidProperties:
    """Acoustic fluid constants; the advection parameter tau fixes theta."""

    c: float = 343.0
    tau: float = 3.0

    def __post_init__(self):
        if not 0 < self.c < math.inf:  # also rejects NaN
            raise ValueError(f"fluid c must be positive and finite, got {self.c!r}")
        if not math.isfinite(self.tau):
            raise ValueError(f"fluid tau must be finite, got {self.tau!r}")
        if self.theta == 0:  # W' = Qw / theta
            raise ValueError(f"fluid tau must be other than -1, got {self.tau!r}: "
                             "theta = (1 + tau)/2 is 0")

    @property
    def theta(self) -> float:
        return (1.0 + self.tau) / 2.0

    @property
    def mach_speed_limit(self) -> float:
        """Largest advection speed with a coercive flow-modified operator."""
        return self.c / math.sqrt(self.tau) if self.tau > 0 else math.inf


# -- geometry tables ---------------------------------------------------------

@per_mesh
def p1_geometry(mesh):
    """Per-cell shape gradients and measures: (grads (M, n, d), vols (M,))."""
    vols = mesh.cell_volumes()
    e = edge_matrices(mesh)
    if mesh.dim == 2:
        det = 2.0 * vols
        inv = np.empty_like(e)
        inv[:, 0, 0] = e[:, 1, 1] / det
        inv[:, 0, 1] = -e[:, 0, 1] / det
        inv[:, 1, 0] = -e[:, 1, 0] / det
        inv[:, 1, 1] = e[:, 0, 0] / det
    else:
        inv = np.linalg.inv(e)
    grads = np.empty((len(mesh.cells), mesh.dim + 1, mesh.dim))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    # grad phi_0 = -(grad phi_1 + ... + grad phi_d), added in that order
    grads[:, 0, :] = -functools.reduce(np.add, grads[:, 2:].swapaxes(0, 1), grads[:, 1])
    return grads, vols


_QUAD2 = {
    2: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1 / 3, 1 / 3, 1 / 3])),
    3: (np.array([
        [0.5854101966249685, 0.1381966011250105, 0.1381966011250105, 0.1381966011250105],
        [0.1381966011250105, 0.5854101966249685, 0.1381966011250105, 0.1381966011250105],
        [0.1381966011250105, 0.1381966011250105, 0.5854101966249685, 0.1381966011250105],
        [0.1381966011250105, 0.1381966011250105, 0.1381966011250105, 0.5854101966249685]]),
        np.array([0.25, 0.25, 0.25, 0.25])),
}


def _scatter(simplices, elem, n_nodes):
    """Sum dense element blocks, one per simplex, into a CSR matrix."""
    n = simplices.shape[1]
    # indices in the dtype coo_matrix keeps (int32 while it fits), so it
    # takes the arrays without a copy
    fits = n_nodes <= np.iinfo(np.int32).max
    simplices = simplices.astype(np.int32 if fits else np.int64, copy=False)
    rows = np.repeat(simplices, n, axis=1).reshape(-1)
    cols = np.tile(simplices, (1, n)).reshape(-1)
    return sp.coo_matrix((elem.reshape(-1), (rows, cols)),
                         shape=(n_nodes, n_nodes)).tocsr()


def _simplex_mass(simplices, measures, n_nodes):
    """P1 mass matrix over a set of simplices (cells or boundary facets)."""
    n = simplices.shape[1]
    base = (np.ones((n, n)) + np.eye(n)) / (n * (n + 1))
    return _scatter(simplices, measures[:, None, None] * base[None, :, :], n_nodes)


def _simplex_load(simplices, measures, n_nodes):
    """Vector of int phi_i over a set of simplices (exact for P1)."""
    n = simplices.shape[1]
    return np.bincount(simplices.reshape(-1), np.repeat(measures / n, n), n_nodes)


@per_mesh
def stiffness_matrix(mesh):
    """P1 stiffness matrix, built once per mesh with read-only arrays."""
    grads, vols = p1_geometry(mesh)
    elem = np.einsum('m,mid,mjd->mij', vols, grads, grads)
    return _scatter(mesh.cells, elem, mesh.num_nodes)


def mass_matrix(mesh):
    return _simplex_mass(mesh.cells, mesh.cell_volumes(), mesh.num_nodes)


# Cells per block of the advection factors.  A block's products with its
# factors hold at most (d + 1)^2 entries per cell, so the transient of the
# assembly stays near the size of W, not that of per-cell element blocks.
_ADVECTION_BLOCK = 4096


def _advection_factors(mesh, velocity):
    """Sparse factors of the advection forms: (s, lambda_q, D) per block of
    cells and quadrature point q, with s_m = sqrt(weight_q |T_m|) for each
    cell m of the block and one row of D per cell.

    Row m of D holds s_m w(x_q) . grad phi_j at the cell's nodes j, so that
    W = sum D^T D and a = sum D^T s; L, whose row m holds s_m lambda_q,j on
    D's pattern, gives C = sum L^T D.
    """
    velocity = np.asarray(velocity, dtype=float)
    if velocity.shape != (mesh.num_nodes, mesh.dim):
        raise AssemblyError("velocity must be nodal with one vector per mesh node")
    grads, vols = p1_geometry(mesh)
    lam, wts = _QUAD2[mesh.dim]
    for start in range(0, mesh.num_cells, _ADVECTION_BLOCK):
        block = slice(start, start + _ADVECTION_BLOCK)
        cells = mesh.cells[block]
        # w(x_q) . grad phi_j, indexed (cell, q, j)
        dq = lam @ velocity[cells] @ np.swapaxes(grads[block], 1, 2)
        root = np.sqrt(vols[block])
        pattern = (cells.reshape(-1), np.arange(0, cells.size + 1, mesh.dim + 1))
        shape = (len(cells), mesh.num_nodes)
        for q, weight in enumerate(wts):
            s = math.sqrt(weight) * root
            yield s, lam[q], sp.csr_matrix(((s[:, None] * dq[:, q]).reshape(-1), *pattern),
                                           shape=shape)


# The sums below take each product A^T B as A.T.tocsr() @ B, so that it is
# CSR; products and sums leave the indices unsorted, so they are sorted once.

def advection_forms(mesh, velocity):
    """(W, a): W_ij = int (w.grad phi_i)(w.grad phi_j) and the advective
    vector a_j = int w.grad phi_j, from one sweep of the factors."""
    n = mesh.num_nodes
    W, a = sp.csr_matrix((n, n)), np.zeros(n)
    for s, _, D in _advection_factors(mesh, velocity):
        Dt = D.T.tocsr()
        W = W + Dt @ D
        a += Dt @ s
    W.sort_indices()
    return W, a


def advection_matrices(mesh, velocity):
    """(W, C): W as in ``advection_forms`` and C_ij = int phi_i (w.grad phi_j),
    from one sweep of the factors."""
    n = mesh.num_nodes
    W = C = sp.csr_matrix((n, n))
    for s, lam, D in _advection_factors(mesh, velocity):
        L = sp.csr_matrix((np.outer(s, lam).reshape(-1), D.indices, D.indptr), shape=D.shape)
        W = W + D.T.tocsr() @ D
        C = C + L.T.tocsr() @ D
    W.sort_indices()
    C.sort_indices()
    return W, C


def boundary_mass_matrix(mesh, group):
    return _simplex_mass(mesh.facet_group(group), mesh.facet_measures(group),
                         mesh.num_nodes)


def boundary_load_vector(mesh, group):
    """Vector of int_group phi_i."""
    return _simplex_load(mesh.facet_group(group), mesh.facet_measures(group),
                         mesh.num_nodes)


def lumped_volume_vector(mesh):
    """Vector of int phi_i (exact for P1)."""
    return _simplex_load(mesh.cells, mesh.cell_volumes(), mesh.num_nodes)


# -- constraints -------------------------------------------------------------

@per_mesh
def periodic_reduction(mesh):
    """Prolongation matrix T (full dofs from reduced dofs) for periodic pairs.

    A class is a connected component of the pair graph (chained pairs join
    edge and corner nodes); its column is numbered by its representative,
    the smallest node index in the class, which min-label propagation over
    the pairs finds: a label is always a node of its class and never rises.
    """
    n = mesh.num_nodes
    a, b = np.concatenate([np.empty((0, 2), np.int64), *mesh.periodic_pairs.values()]).T
    label, prev = np.arange(n), None
    # a periodic class is at most three pairs across, so a few rounds
    while not np.array_equal(label, prev):
        prev, label = label, label.copy()
        np.minimum.at(label, a, label[b])
        np.minimum.at(label, b, label[a])
        label = label[label]  # one pointer jump
    classes, red = np.unique(label, return_inverse=True)
    return sp.csr_matrix((np.ones(n), red, np.arange(n + 1)), shape=(n, len(classes)))


# SuperLU options of every grounded factorization (``ZeroMeanSolver``).  The
# grounded matrix is symmetric positive definite, so SuperLU's symmetric mode
# factors it without a pivot search: minimum degree on A^T + A (half the fill
# of the default COLAMD on the bordered matrix) and diagonal pivots.  relax=1
# turns relaxed supernodes off; on cell meshes they add work but no fill (at
# resolution 0.08 the default relaxation took 176 ms, relax=1 57 ms).
# Against the bordered matrix with the same ordering and relax=1, on the 30
# degree cell, BLAS on one thread (the medians of two runs that interleave them):
#   resolution 0.1  ( 1481 classes): factor   7.4-7.8 ->  6.4-6.5 ms, fill   115,808 ->   113,442
#   resolution 0.08 ( 3938 classes): factor    58-77  ->   48-63  ms, fill   852,112 ->   785,736
#   resolution 0.06 ( 7107 classes): factor    85-125 ->   74-107 ms, fill 1,284,506 -> 1,270,244
#   resolution 0.05 (12804 classes): factor   258-337 ->  255-271 ms, fill 3,034,452 -> 2,969,482
#   resolution 0.04 (25445 classes): factor      1961 ->     1687 ms, fill  11.89M   ->  11.78M
# A 4-column apply moved by -12% to +7%.  The rest cell operator and the
# macro LUs keep SuperLU's defaults: their outputs are pinned byte for byte.
STIFFNESS_LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1, "diag_pivot_thresh": 0.0,
                        "options": {"SymmetricMode": True}}


class ZeroMeanSolver:
    """Periodic, zero-mean solutions of one pure-Neumann matrix.

    The matrix is reduced to the periodic classes, whose lumped volumes m
    weigh the integral mean.  By default it is grounded: its last class is
    removed, which leaves a symmetric positive definite matrix (every cell
    and duct fluid domain is connected), factored once in SuperLU's
    symmetric mode (``STIFFNESS_LU_OPTIONS``).  A right side r first loses
    its part along m, lambda m with lambda = sum(r) / sum(m) (the multiplier
    of the bordered form below); the grounded solution z is then shifted to
    zero mean by (m . z) / (m . 1).  With ``bordered`` the reduced matrix is
    instead bordered by the mean (one Lagrange multiplier) and factored with
    SuperLU's defaults.  Either way the factorization is shared by every
    right side, and the solver keeps no reference to the mesh and checks no
    residual: each caller checks it (``check_residual``).
    """

    def __init__(self, mesh, matrix, bordered=False):
        self.num_nodes = mesh.num_nodes
        self.reduction = periodic_reduction(mesh)
        self.restriction = self.reduction.T
        self._mean = self.restriction @ lumped_volume_vector(mesh)
        self._volume = self._mean.sum()
        reduced = (self.restriction @ matrix @ self.reduction).tocsr()
        self._bordered = bordered
        if bordered:
            aug = sp.bmat([[reduced, self._mean.reshape(-1, 1)],
                           [self._mean.reshape(1, -1), None]], format='csc')
            # one copy of the operator while it factors: the largest
            # factorization of a run, which sets the rest path's peak RSS
            del reduced
            self._lu = spla.splu(aug)
            self.reduced = aug[:-1, :-1]
        else:
            self.reduced = reduced
            self._lu = spla.splu(reduced[:-1, :-1].tocsc(), **STIFFNESS_LU_OPTIONS)

    def reduce(self, rhs_full, solve):
        """A nodal right side on the periodic classes and its norm, 0.0 only
        if it is zero or the periodic sum cancels it to 1e-10 of its nodal norm.

        The right side must be compatible (orthogonal to constants) within
        1e-10 relative; a SolverError that names the ``solve`` asserts it.
        """
        rhs_full = np.asarray(rhs_full, dtype=float)
        rhs = self.restriction @ rhs_full
        norm = np.linalg.norm(rhs)
        # the in-plane corrector loads of a cell of zero plate thickness cancel to
        # 1.1e-14, 4e-14 and 9.7e-14 of their nodal norm at resolutions 0.15,
        # 0.08 and 0.05; on the 0, 30 and 60 degree default cells, about 0.11
        if norm <= 1e-10 * np.linalg.norm(rhs_full):
            return rhs, 0.0
        defect = abs(rhs.sum())
        if defect / norm > 1e-10:
            raise SolverError(
                f"{solve}: pure-Neumann right side incompatible: defect {defect / norm:.3e}")
        return rhs, norm

    def solve(self, rhs_full, solve):
        """(u, relative residual): the full nodal zero-mean periodic solution
        of (matrix) u = rhs and the residual |K x + lambda m - r| / |r| of
        its reduced system, with lambda the multiplier of the mean.

        The right side must be compatible (``reduce``, naming ``solve``).
        """
        rhs, norm = self.reduce(rhs_full, solve)
        if norm == 0.0:
            return np.zeros(self.num_nodes), 0.0
        x = self._apply(rhs)
        resid = np.linalg.norm(self.reduced @ x + self._mean * (rhs.sum() / self._volume) - rhs)
        return self.reduction @ x, resid / norm

    def precondition(self, r):
        """The reduced zero-mean solution of (matrix) z = r, for a right side
        r on the periodic classes or for each column of a block r (n, k):
        the preconditioner apply of an iterative solve.  A block is one
        triangular solve of all its columns; a column of it agrees with its
        own apply to rounding (about 1e-16 relative), not bit for bit."""
        return self._apply(r)

    def _apply(self, r):
        """``precondition``'s solution; ``solve`` calls it directly, so that
        only the applies of iterative solves are preconditioner calls."""
        if self._bordered:
            return self._lu.solve(np.concatenate([r, np.zeros_like(r[:1])]))[:-1]
        # one contiguous column per right side, so that a block column's sum
        # is that of its own apply; its solve and projection agree with that
        # apply to rounding
        cols = np.array(r, dtype=float, order='F').reshape(len(r), -1, order='F')
        cols -= np.outer(self._mean, cols.sum(axis=0) / self._volume)
        z = np.zeros_like(cols)
        z[:-1] = self._lu.solve(cols[:-1])
        z -= (self._mean @ z) / self._volume
        return z.reshape(r.shape, order='F')


def check_residual(residual, tol, solve):
    """Raise SolverError, naming the solve, unless its relative residual is
    finite and within tolerance."""
    if not np.isfinite(residual) or not residual <= tol:
        raise SolverError(f"{solve}: relative residual {residual:.3e} exceeds {tol:.1e}")


# The kept stiffness solver: a map from at most one mesh to its (solver,
# runs).  Its factorization is the largest array set of a cell mesh, so at
# most one is alive; the entry dies with its mesh, which the solver does not
# reference.  ``runs`` is a dict for the cell correctors' Krylov runs on that
# solver; nothing in it may reference the solver, so it is freed with the
# entry and not at the next garbage collection.
# Caching it per mesh (``per_mesh``) instead raised the peak RSS of a
# three-angle sweep by 14%: the previous angle's mesh, and with it its
# factorization, is still alive while the next angle's rest operator factors.
_kept = weakref.WeakKeyDictionary()


def stiffness_solver(mesh):
    """(solver, runs): the zero-mean solver of the mesh's stiffness matrix
    and the dict of the Krylov runs it preconditions, kept until a solver
    for another mesh is built, the kept mesh dies or
    ``drop_stiffness_solver`` frees them."""
    if mesh not in _kept:
        _kept.clear()  # another mesh's, freed before this mesh's K and factor are built
        _kept[mesh] = ZeroMeanSolver(mesh, stiffness_matrix(mesh)), {}
    return _kept[mesh]


def drop_stiffness_solver():
    """Free the kept stiffness solver and its runs, whichever mesh they are
    for (called before a bordered factorization, which is then the one cell
    factorization alive)."""
    _kept.clear()


# -- integration -------------------------------------------------------------

def cell_measure(mesh):
    """Measure of the mesh's cells."""
    return float(np.abs(mesh.cell_volumes()).sum())


def integrate(mesh, field, group):
    """Integral of a nodal field over a facet group (exact for P1 fields)."""
    meas = mesh.facet_measures(group)
    if meas.size == 0:
        raise AssemblyError(f"facet group {group!r} is empty")
    vals = np.asarray(field)[mesh.facet_group(group)]
    return (meas * vals.mean(axis=1)).sum()


def xi_measure(mesh):
    """In-plane cell measure |Xi|, read off the top-face group."""
    return mesh.group_measure("I+")


def cell_gradients(mesh, field):
    """Cell-constant gradient vectors of a nodal field."""
    grads, _ = p1_geometry(mesh)
    vals = np.asarray(field)[mesh.cells]
    return np.einsum('mi,mid->md', vals, grads)
