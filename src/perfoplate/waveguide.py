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
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .duct_mesh import GROUP_IN, GROUP_OUT, IFACE_PAIRING, interface_nodes
from .fem import FluidProperties, SolverError

# the duct mouths the incident wave can enter by (``MacroProblem.source_side``):
# Gamma_in and Gamma_out
SOURCE_SIDES = ("in", "out")


class MacroAssemblyError(ValueError):
    pass


def interface_pairs(mesh):
    """The (minus, plus) node pairs of the mesh's split interface (the
    ``iface`` pairing of `duct_mesh.generate_waveguide_mesh`); a
    MacroAssemblyError if the mesh has none."""
    if IFACE_PAIRING not in mesh.periodic_pairs:
        raise MacroAssemblyError(
            f"mesh has no {IFACE_PAIRING!r} pairing: the interface must be split")
    return mesh.periodic_pairs[IFACE_PAIRING]


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


@dataclass(frozen=True)
class MacroProblem:
    """Everything needed to assemble one frequency solve.

    interface_coeffs: a sequence of one HomogenizedCoefficients per
    interface element.  flow: MacroFlowField solved on this mesh object,
    or None.
    The problem is frozen, so its operator parts, built on first use and
    kept, cannot go stale.  The mesh must carry the split interface (the
    ``iface`` pairing of `duct_mesh.generate_waveguide_mesh`).
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
        if not self.eps0 > 0:  # also rejects NaN
            raise MacroAssemblyError(f"eps0 must be positive, got {self.eps0!r}")
        if not self.residual_tol > 0:  # also rejects NaN
            raise MacroAssemblyError(
                f"residual_tol must be > 0, got {self.residual_tol!r}")
        if self.source_side not in SOURCE_SIDES:
            raise MacroAssemblyError("source_side must be 'in' or 'out'")
        if not (math.isfinite(self.amplitude) and self.amplitude != 0):
            raise MacroAssemblyError(
                f"amplitude must be finite and nonzero, got {self.amplitude!r}")
        interface_pairs(self.mesh)
        if len(self.interface_coeffs) != self.index.n_elements:
            raise MacroAssemblyError(f"need coefficients for {self.index.n_elements} "
                                     f"interface elements, got {len(self.interface_coeffs)}")
        if self.flow is not None and self.flow.mesh is not self.mesh:
            raise MacroAssemblyError(
                "the mean flow was solved on another mesh than the problem's")
        if self.flow is not None and self.flow.properties != self.properties:
            raise MacroAssemblyError(
                f"the mean flow was solved for {self.flow.properties}, "
                f"the problem is posed for {self.properties}")

    @cached_property
    def index(self):
        return InterfaceIndex(*interface_nodes(self.mesh))

    @cached_property
    def parts(self):
        return OperatorParts(self)


class OperatorParts:
    """The frequency-independent parts of the coupled operator of a problem.

    zfacs: the impedance factors of Gamma_in and Gamma_out.  load: int phi_i
    over the source boundary.  table: the interface element table
    (`_element_table`).  plan: the `SummationPlan` of the coupled matrix.
    It keeps on the matrix's slots the data of the pressure terms c^2 K
    and M, then -tau * W and D = C - C.T with outer advection, and of the
    ports' boundary masses, each read off its own CSR, and the summation
    order of the interface entries
    (`_interface_pattern`).  Every frequency's matrix is on its pattern.
    It is in natural column order until the first factorization
    (``plan.perm`` is None), and in that factorization's order after it.
    """

    def __init__(self, problem: MacroProblem):
        mesh, props, idx = problem.mesh, problem.properties, problem.index
        coeffs = problem.interface_coeffs
        terms = [props.c ** 2 * fem.stiffness_matrix(mesh), fem.mass_matrix(mesh)]
        vel = problem.flow.velocity if problem.flow is not None else None
        if problem.outer_advection and vel is not None and np.any(vel):
            speed = problem.flow.max_speed()
            if not speed < props.mach_speed_limit:  # also catches NaN
                raise MacroAssemblyError(
                    f"macro flow max |w| = {speed:.6g} m/s reaches the bound "
                    f"c/sqrt(tau) = {props.mach_speed_limit:.6g} m/s")
            W, C = fem.advection_matrices(mesh, vel)
            terms += [-props.tau * W, C - C.T]
        groups = (GROUP_IN, GROUP_OUT)
        self.zfacs = [_boundary_impedance_factor(problem, group) for group in groups]
        ports = [fem.boundary_mass_matrix(mesh, group) for group in groups]
        source = GROUP_IN if problem.source_side == "in" else GROUP_OUT
        self.load = fem.boundary_load_vector(mesh, source)
        self.table = _element_table(np.diff(idx.x), coeffs)
        self.plan = SummationPlan.record(terms, ports, _interface_pattern(idx, mesh.num_nodes),
                                         mesh.num_nodes + 2 * idx.n)


def _pointer(keys, n, dtype):
    """Compressed pointer of entries with these sorted rows (CSR) or columns (CSC)."""
    pointer = np.zeros(n + 1, dtype=dtype)
    np.cumsum(np.bincount(keys, minlength=n), out=pointer[1:])
    return pointer


@dataclass(frozen=True)
class SummationPlan:
    """The slots of the coupled matrix, laid out as the CSC that SuperLU
    factors, with the frequency-independent data kept on them, and how
    scipy's COO to CSR conversion sums the interface entries there.

    colptr, rows: the CSC pattern, the matrix's column j at position
    perm[j].  terms: each pressure term's data on the slots, +0.0 where
    the term has no entry.  ports: (slots, data) of each boundary mass.
    No interface entry shares a slot with these: each has a G+ or G- row
    or column.  The conversion buckets the entries by row in input order,
    sorts each row by column with scipy's (unstable) sort and sums each run
    of equal columns left to right.  That sort's permutation depends on the
    column keys alone, so running it (``sort_indices``) on the input
    positions records it.  sums: for each addend depth k, (the interface
    slots with more than k addends, their addend k).  perm: None in natural
    order, else SuperLU's ``perm_c``, and A x = b has x = y[perm] for y of
    the plan's matrix.  The arrays are read-only: every matrix the plan
    builds shares colptr and rows.
    """

    colptr: np.ndarray
    rows: np.ndarray
    terms: tuple
    ports: tuple
    sums: tuple
    perm: np.ndarray | None = None

    @classmethod
    def record(cls, terms, ports, interface, n):
        """The natural-order plan of an n x n matrix whose entries are those
        of these terms and ports (CSR matrices with unique entries), then
        the interface entries at (rows, cols)."""
        coos = [A.tocoo() for A in (*terms, *ports)]
        rows = np.concatenate([A.row for A in coos] + [interface[0]])
        cols = np.concatenate([A.col for A in coos] + [interface[1]])
        count, first_interface = len(rows), len(rows) - len(interface[0])
        # the index dtype the conversion keeps: int32 while it fits
        idx = np.int32 if max(count, n) <= np.iinfo(np.int32).max else np.int64
        order = np.argsort(rows, kind="stable")
        row = rows[order]
        tags = sp.csr_matrix((order, cols[order].astype(idx), _pointer(row, n, idx)),
                             shape=(n, n))
        tags.sort_indices()
        source, cols = tags.data, tags.indices
        starts = np.ones(count, dtype=bool)
        starts[1:] = (cols[1:] != cols[:-1]) | (row[1:] != row[:-1])
        slot = np.cumsum(starts) - 1
        entry_slot = np.empty_like(slot)  # the slot of every entry
        entry_slot[source] = slot
        placed = [(slots, A.data.copy()) for A, slots in
                  zip(coos, np.split(entry_slot, np.cumsum([A.nnz for A in coos])))]
        kept = [np.zeros(slot[-1] + 1) for _ in terms]
        for data, (slots, values) in zip(kept, placed):
            data[slots] = values
        tail = source >= first_interface  # the interface entries
        slot, source = slot[tail], source[tail] - first_interface
        depth = np.arange(count)[tail] - np.flatnonzero(starts)[slot]
        sums = tuple((slot[depth == k], source[depth == k]) for k in range(depth.max() + 1))
        return cls._laid_out(n, row[starts].astype(idx), cols[starts], kept,
                             placed[len(terms):], sums)

    def permuted(self, perm):
        """This natural-order plan laid out in SuperLU's column order
        ``perm`` (``perm_c``: the matrix's column j at position perm[j])."""
        perm = np.array(perm)  # a copy: SuperLU's perm_c keeps its factors alive
        perm.flags.writeable = False
        n = len(self.colptr) - 1
        cols = np.repeat(np.arange(n), np.diff(self.colptr))
        return self._laid_out(n, self.rows, perm[cols], self.terms, self.ports, self.sums, perm)

    @classmethod
    def _laid_out(cls, n, rows, cols, terms, ports, sums, perm=None):
        """The plan of the slots at (rows[s], cols[s]), with the slot-aligned
        ``terms`` and the slots of ``ports`` and ``sums``, laid out as a CSC:
        by column, then by row."""
        order = np.lexsort((rows, cols))
        at = np.empty_like(order)  # the position of every slot in the CSC
        at[order] = np.arange(len(order))
        plan = cls(_pointer(cols[order], n, rows.dtype), rows[order],
                   tuple(data[order] for data in terms),
                   tuple((at[slots], data) for slots, data in ports),
                   tuple((at[slots], addends) for slots, addends in sums), perm)
        for a in (plan.colptr, plan.rows, *plan.terms, *sum(plan.ports + plan.sums, ())):
            a.flags.writeable = False
        return plan

    def matrix(self, data, interface):
        """The CSC matrix, in the plan's column order, of this data on the
        pressure slots, completed in place by the interface entries with
        these values."""
        (slots, addends), *later = self.sums
        data[slots] = interface[addends]
        for slots, addends in later:
            data[slots] += interface[addends]
        n = len(self.colptr) - 1
        return sp.csc_matrix((data, self.rows, self.colptr), shape=(n, n))


@dataclass
class MacroSolution:
    """Fields of one frequency solve."""

    omega: float
    P: np.ndarray
    Gp: np.ndarray
    Gm: np.ndarray


# 1D P1 element matrices of a segment of length L: mass = L / 6 * _MASS1D,
# stiffness = 1 / L * _STIFF1D
_MASS1D = np.array([[2.0, 1.0], [1.0, 2.0]])
_STIFF1D = np.array([[1.0, -1.0], [-1.0, 1.0]])
# int phi_i dphi_j  (rows: plain test, cols: differentiated trial)
_TEST_DTRIAL = np.array([[-0.5, 0.5], [-0.5, 0.5]])
# int dphi_i phi_j
_DTEST_TRIAL = _TEST_DTRIAL.T


def _boundary_impedance_factor(problem, group):
    """Optional convective correction (1 + w.n/c) of the plane-wave impedance."""
    if not problem.impedance_flow_correction or problem.flow is None:
        return 1.0
    vel = problem.flow.velocity[problem.mesh.group_nodes(group)]
    # the outward normal is -e1 on the inlet and +e1 on the outlet
    n1 = -1.0 if group == GROUP_IN else 1.0
    return 1.0 + float(vel[:, 0].mean()) * n1 / problem.properties.c


def _element_table(lengths, coeffs):
    """Rows L, A11, B1, B'1, F, mass_factor + Mw, Tw, T'w, Wbar1, W'bar1 of
    every interface element, shaped (10, n_elements, 1, 1) so that each row
    scales a stack of 2x2 element blocks."""
    rows = [(co.A[0, 0], co.B[0], co.Bp[0], co.F, co.mass_factor + co.Mw,
             co.Tw, co.Twp, co.Wbar[0], co.Wbarp[0]) for co in coeffs]
    return np.vstack([lengths, np.array(rows, dtype=float).T])[:, :, None, None]


def _interface_pattern(idx, nP):
    """(rows, cols) of the interface entries in emission order: the two trace
    blocks of every element, then its ten layer blocks, each 2x2 row-major."""
    e = np.arange(idx.n_elements)[:, None] + [0, 1]  # element node pairs
    pp, pm = idx.plus[e], idx.minus[e]
    gp, gm = nP + e, nP + idx.n + e  # G+ / G- columns; balance / coupling rows
    blocks = [(pp, gp), (pm, gm),
              (gp, pp), (gp, pm), (gp, gp), (gp, gm), (gp, gp), (gp, gm),
              (gm, pp), (gm, pm), (gm, gp), (gm, gm)]
    rows = np.stack([r for r, _ in blocks], axis=1)[:, :, :, None]
    cols = np.stack([c for _, c in blocks], axis=1)[:, :, None, :]
    return [np.concatenate([a[:, :2].ravel(), a[:, 2:].ravel()])
            for a in np.broadcast_arrays(rows, cols)]


def interface_element_blocks(table, omega, properties):
    """Dense 2x2 blocks of every interface element, each (n_elements, 2, 2).

    table: the element table of `_element_table`.  Returns (me, p, g, p2, f):
    the 1D mass matrices, the layer-balance pressure and flux blocks, and
    the coupling pressure and flux blocks.
    """
    L, A11, B1, Bp1, F, mass, Tw, Twp, Wbar1, Wbarp1 = table
    c2 = properties.c ** 2
    theta = properties.theta
    iw = 1j * omega
    me = L / 6.0 * _MASS1D
    ke = 1.0 / L * _STIFF1D
    p = (c2 * A11 * ke
         - omega ** 2 * mass * me
         + iw * theta * (Wbar1 * _TEST_DTRIAL + Wbarp1 * _DTEST_TRIAL))
    g = iw * c2 * B1 * _DTEST_TRIAL - omega ** 2 * theta * Tw * me
    p2 = Bp1 * _TEST_DTRIAL + iw * Twp * me
    f = -iw * F * me
    return me, p, g, p2, f


def assemble_coupled_system(problem: MacroProblem, omega: float):
    """Complex system for (P, G+, G-) at one angular frequency.

    Returns (matrix, rhs, n_pressure) with unknown layout [P, G+, G-] and
    equation layout [bulk, interface balance, pressure-jump coupling]; the
    matrix is a CSC in the kept plan's column order (``parts.plan.perm``,
    None until the problem's first factorization), on a fresh data array.
    Only the omega-dependent values are formed here, from the plan's kept
    slot-aligned term data and with the arithmetic of scipy's CSR scalar
    products, sums and differences of the blocks.  A pressure slot holds at
    most two real addends (c^2 K - w^2 M, then -tau W) and two imaginary
    ones (w theta D and a port), so its real and imaginary parts are summed
    apart, an absent term adding an exact +0.0; the plan adds the interface
    entries as a COO to CSR conversion of the blocks would.  Every entry is
    that conversion's to the last bit.
    """
    parts = problem.parts
    plan = parts.plan
    props = problem.properties
    c, c2 = props.c, props.c ** 2
    iw = 1j * omega
    nP = problem.mesh.num_nodes
    n = nP + 2 * problem.index.n

    # bulk extended-Helmholtz terms, then the radiation boundaries:
    # d_nw P + (i w / c) P = 2 (i w / c) p_in (source), times c^2 in weak form
    stiffness, mass, *advection = plan.terms
    data = np.zeros(len(plan.rows), dtype=complex)
    np.subtract(stiffness, mass * omega ** 2, out=data.real)
    if advection:
        W, D = advection
        data.real += W
        np.multiply(D, (iw * props.theta).imag, out=data.imag)
    for zfac, (slots, B) in zip(parts.zfacs, plan.ports):
        data.imag[slots] += B * (iw * c * zfac).imag
    rhs = np.zeros(n, dtype=complex)
    rhs[:nP] += 2.0 * iw * c * problem.amplitude * parts.load

    eps0 = problem.eps0
    me, p, g, p2, f = interface_element_blocks(parts.table, omega, props)
    # trace coupling to the interface fluxes: d_nw P(+/-) = -i w G(+/-);
    # both lists follow the block order of `_interface_pattern`
    trace = [-iw * c2 * me, iw * c2 * me]
    layer = [0.5 * p, 0.5 * p, 0.5 * g, 0.5 * g,
             (iw * c2 / eps0) * me, -(iw * c2 / eps0) * me,
             0.5 * p2 - me / eps0, 0.5 * p2 + me / eps0, 0.5 * f, 0.5 * f]
    interface = np.concatenate([np.stack(trace, axis=1).ravel(),
                                np.stack(layer, axis=1).ravel()], dtype=complex)
    return plan.matrix(data, interface), rhs, nP


def solve_frequency(problem: MacroProblem, omega: float) -> MacroSolution:
    """Direct monolithic solve at one angular frequency.  The first solve of
    a problem factors with COLAMD and lays the kept plan out in its column
    order; later ones factor that CSC with NATURAL and take x = y[perm].
    SuperLU's ``perm_c`` already holds its elimination-tree postorder, which
    NATURAL skips, so this gives COLAMD's LU: L, U and row pivots were
    bitwise equal on every duct matrix tried (rest and flow, 464 to 4036
    dofs, 100-1000 Hz).  The residual is that of the factored matrix."""
    if not 0 < omega < math.inf:  # also rejects NaN
        raise MacroAssemblyError(f"omega must be finite and > 0, got {omega!r}")
    A, rhs, nP = assemble_coupled_system(problem, omega)
    parts = problem.parts
    perm = parts.plan.perm
    try:
        if perm is None:
            lu = spla.splu(A)
            parts.plan = parts.plan.permuted(lu.perm_c)
        else:
            lu = spla.splu(A, permc_spec="NATURAL")
        y = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolverError(f"singular coupled system at omega={omega:.6g}: {exc}")
    fem.check_residual(np.linalg.norm(A @ y - rhs) / max(np.linalg.norm(rhs), 1e-300),
                       problem.residual_tol,
                       f"coupled solve at omega={omega:.6g} ({A.shape[0]} dofs)")
    x = y if perm is None else y[perm]
    nG = problem.index.n
    return MacroSolution(omega, x[:nP], x[nP:nP + nG], x[nP + nG:nP + 2 * nG])


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
    """(rows, failures, solutions): the TL rows [omega, f, TL_db, flux_in,
    flux_out], the recorded failures (omega, message), and the MacroSolution
    of each row."""
    rows, failures, solutions = [], [], []
    for omega in omegas:
        try:
            sol = solve_frequency(problem, omega)
            tl, e_in, e_out = transmission_loss(sol, problem)
            rows.append([omega, omega / (2 * math.pi), tl, e_in, e_out])
            solutions.append(sol)
        except (SolverError, MacroAssemblyError, ZeroDivisionError) as exc:
            failures.append((omega, str(exc)))
    return rows, failures, solutions
