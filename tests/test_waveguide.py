import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import coo_reference
import mesh_reference
from fixtures import empty_cell_coefficients, uniform_macro_flow, uniform_problem
from static_reference import (glued_single_duct, solve_single_duct,
                              solve_static_reference, static_transmission_loss)
from perfoplate import fem, waveguide
from perfoplate.coefficients import cell_pipeline
from perfoplate.config import default_config
from perfoplate.duct_mesh import GROUP_IN, GROUP_OUT
from perfoplate.fem import FluidProperties, SolverError
from perfoplate.flow import solve_macro_potential_flow
from perfoplate.geometry import CellGeometry, WaveguideGeometry
from perfoplate.mesh import Mesh
from perfoplate.waveguide import (MacroAssemblyError, MacroProblem,
                                  MacroSolution, assemble_coupled_system,
                                  boundary_energy, interface_element_blocks,
                                  solve_frequency, frequency_sweep,
                                  transmission_loss)

OMEGA = 2 * math.pi * 400.0


@pytest.fixture(scope="module")
def slant_coeffs(props):
    _, _, _, co = cell_pipeline(CellGeometry(hole_slope_deg=30.0), 0.0, 0.1, props)
    return co


@pytest.fixture(scope="module")
def slant_flow_coeffs(props):
    _, _, _, co = cell_pipeline(CellGeometry(hole_slope_deg=30.0), 3.0, 0.1, props)
    return co


def test_static_assembly_matches_reference_entrywise(duct_mesh, props,
                                                     slant_coeffs):
    co = slant_coeffs
    prob = uniform_problem(duct_mesh, props, co, eps0=0.025)
    A, rhs, nP = assemble_coupled_system(prob, OMEGA)
    ref = dict(A11=co.A[0, 0], B1=co.B[0], Bp1=co.Bp[0], F=co.F,
               mass=co.mass_factor)
    import scipy.sparse as sp
    from static_reference import _edge_load  # noqa: F401  (import check only)
    from static_reference import solve_static_reference  # noqa: F401
    # rebuild the reference matrix via its own assembly
    import static_reference as sr
    minus, plus, x = prob.index.minus, prob.index.plus, prob.index.x
    n = duct_mesh.num_nodes + 2 * len(x)
    Aref = sp.lil_matrix((n, n), dtype=complex)
    rhs_ref = np.zeros(n, dtype=complex)
    c2 = props.c ** 2
    iw = 1j * OMEGA
    for cell in duct_mesh.cells:
        ke, area = sr._tri_stiffness(duct_mesh.nodes[cell])
        me = sr._tri_mass(area)
        for a in range(3):
            for b in range(3):
                Aref[cell[a], cell[b]] += c2 * ke[a, b] - OMEGA ** 2 * me[a, b]
    for group, source in ((GROUP_IN, True), (GROUP_OUT, False)):
        for (na, nb) in duct_mesh.facet_groups[group]:
            L = float(np.linalg.norm(duct_mesh.nodes[nb] - duct_mesh.nodes[na]))
            me = sr._edge_mass(L)
            le = sr._edge_load(L)
            for a, ga in enumerate((na, nb)):
                for b, gb in enumerate((na, nb)):
                    Aref[ga, gb] += iw * props.c * me[a, b]
                if source:
                    rhs_ref[ga] += 2.0 * iw * props.c * prob.amplitude * le[a]
    og, om = duct_mesh.num_nodes, duct_mesh.num_nodes + len(x)
    for e in range(len(x) - 1):
        L = x[e + 1] - x[e]
        me = sr._edge_mass(L)
        ke = np.array([[1.0, -1.0], [-1.0, 1.0]]) / L
        dme = np.array([[-0.5, 0.5], [-0.5, 0.5]])
        pp = (plus[e], plus[e + 1])
        pm = (minus[e], minus[e + 1])
        gdof = (og + e, og + e + 1)
        mdof = (om + e, om + e + 1)
        for a in range(2):
            for b in range(2):
                Aref[pp[a], gdof[b]] += -iw * c2 * me[a, b]
                Aref[pm[a], mdof[b]] += iw * c2 * me[a, b]
                pb = c2 * ref["A11"] * ke[a, b] - OMEGA ** 2 * ref["mass"] * me[a, b]
                Aref[gdof[a], pp[b]] += 0.5 * pb
                Aref[gdof[a], pm[b]] += 0.5 * pb
                gb = iw * c2 * ref["B1"] * dme[b, a]
                Aref[gdof[a], gdof[b]] += 0.5 * gb + iw * c2 / 0.025 * me[a, b]
                Aref[gdof[a], mdof[b]] += 0.5 * gb - iw * c2 / 0.025 * me[a, b]
                p2 = ref["Bp1"] * dme[a, b]
                Aref[mdof[a], pp[b]] += 0.5 * p2 - me[a, b] / 0.025
                Aref[mdof[a], pm[b]] += 0.5 * p2 + me[a, b] / 0.025
                fb = -iw * ref["F"] * me[a, b]
                Aref[mdof[a], gdof[b]] += 0.5 * fb
                Aref[mdof[a], mdof[b]] += 0.5 * fb
    diff = (A - Aref.tocsr()).tocoo()
    scale = max(abs(A).max(), 1.0)
    assert (np.abs(diff.data).max(initial=0.0)) <= 1e-12 * scale
    np.testing.assert_allclose(rhs, rhs_ref, atol=1e-12 * np.abs(rhs_ref).max())


def test_zero_flow_tl_matches_static_reference(duct_mesh, props, slant_coeffs):
    co = slant_coeffs
    eps0 = 0.025
    prob = uniform_problem(duct_mesh, props, co, eps0=eps0)
    ref = dict(A11=co.A[0, 0], B1=co.B[0], Bp1=co.Bp[0], F=co.F,
               mass=co.mass_factor)
    n_elem = prob.index.n_elements
    for f in (250.0, 650.0):
        omega = 2 * math.pi * f
        sol = solve_frequency(prob, omega)
        tl, _, _ = transmission_loss(sol, prob)
        P, _, _ = solve_static_reference(duct_mesh, omega, props.c,
                                         prob.amplitude, [ref] * n_elem, eps0)
        tl_ref, _, _ = static_transmission_loss(duct_mesh, P)
        assert abs(tl - tl_ref) <= 1e-8
        assert np.abs(sol.P - P).max() <= 1e-10 * np.abs(P).max()


def test_glued_duct_is_the_unsplit_duct(duct_mesh):
    single = glued_single_duct(duct_mesh)
    unsplit = mesh_reference.generate_waveguide_mesh(WaveguideGeometry(), 0.02,
                                                     split_interface=False)
    assert single.nodes.tobytes() == unsplit.nodes.tobytes()
    assert single.cells.tobytes() == unsplit.cells.tobytes()
    for group in (GROUP_IN, GROUP_OUT):
        assert (single.facet_groups[group].tobytes()
                == unsplit.facet_groups[group].tobytes())


def test_transparent_interface_approaches_single_duct(duct_mesh, props):
    co = empty_cell_coefficients(kappa=1.0)
    single = glued_single_duct(duct_mesh)
    for f in (200.0, 500.0):
        omega = 2 * math.pi * f
        P = solve_single_duct(single, omega, props.c, amplitude=300.0)
        tl_ref, _, _ = static_transmission_loss(single, P)
        diffs = []
        for eps0 in (0.025, 0.0125):
            prob = uniform_problem(duct_mesh, props, co, eps0=eps0)
            tl, _, _ = transmission_loss(solve_frequency(prob, omega), prob)
            diffs.append(abs(tl - tl_ref))
        # the collapsed layer acts as a slab of thickness kappa*eps0: its
        # leftover effect on TL shrinks with eps0
        assert diffs[1] < diffs[0]


def test_tl_grid_convergence(props, slant_coeffs):
    """TL at a smooth mid-band frequency changes little between the two
    finest of three uniformly refined duct meshes (resonance neighborhoods
    converge in feature position instead, not pointwise)."""
    from perfoplate.duct_mesh import generate_waveguide_mesh
    from perfoplate.geometry import WaveguideGeometry
    tls = []
    for res in (0.05, 0.025, 0.0125):
        mesh = generate_waveguide_mesh(WaveguideGeometry(), res)
        prob = uniform_problem(mesh, props, slant_coeffs, eps0=0.025)
        tl, _, _ = transmission_loss(solve_frequency(prob, OMEGA), prob)
        tls.append(tl)
    assert abs(tls[2] - tls[1]) <= 0.02 * abs(tls[2])


def test_blocking_limit_large_resistance(duct_mesh, props):
    # infinite through-flow resistance plus a dead layer: nothing crosses
    co = empty_cell_coefficients()
    blocked = replace(co, F=1e12, A=1e-12 * np.eye(2), zeta_star=1e-12)
    prob = uniform_problem(duct_mesh, props, blocked, eps0=0.025)
    tl, _, _ = transmission_loss(solve_frequency(prob, OMEGA), prob)
    assert abs(tl) >= 40.0


def test_identical_boundary_fields_give_zero_db(duct_mesh, props):
    prob = uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025)
    P = np.full(duct_mesh.num_nodes, 1.0 + 2.0j)
    nG = prob.index.n
    sol = MacroSolution(OMEGA, P, np.zeros(nG, complex), np.zeros(nG, complex))
    tl, e_in, e_out = transmission_loss(sol, prob)
    assert tl == pytest.approx(0.0, abs=1e-12)


def test_energy_conservation_at_rest(duct_mesh, props, slant_coeffs):
    """Net injected power equals transmitted power for the lossless model.

    The balance is measured against its largest term: at the TL dip of
    480 Hz (-56 dB) the injected power is a near-cancelling difference
    (2.5e-6 of its terms), so relative to it the same balance would read
    4e5 times worse.
    """
    prob = uniform_problem(duct_mesh, props, slant_coeffs, eps0=0.025)
    facets = duct_mesh.facet_group(GROUP_IN)
    meas = duct_mesh.facet_measures(GROUP_IN)
    for freq in (400.0, 480.0):
        sol = solve_frequency(prob, 2 * math.pi * freq)
        a, b = sol.P[facets[:, 0]], sol.P[facets[:, 1]]
        driven = 2 * prob.amplitude * float((meas * (a.real + b.real) / 2).sum())
        e_in = boundary_energy(duct_mesh, sol.P, GROUP_IN)
        e_out = boundary_energy(duct_mesh, sol.P, GROUP_OUT)
        assert abs(driven - e_in - e_out) <= 1e-9 * max(abs(driven), e_in, e_out), freq


@pytest.mark.parametrize("corrected", [False, True], ids=["plain", "impedance-corrected"])
def test_power_balance_of_the_pressure_rows_with_flow(duct_mesh, props, slant_flow_coeffs,
                                                      corrected):
    """The flow half of the power balance.  The pressure rows read
    A_PP P + A_PG G = b_P with A_PP = c^2 K - w^2 M - tau W + i w theta (C - C^T)
    + i w c (z_in B_in + z_out B_out).  The symmetric -tau W and the skew
    theta (C - C^T) add no imaginary part to P^H A_PP P, so
    w c (z_in E_in + z_out E_out) + Im(P^H A_PG G) = Im(P^H b_P),
    with E a port's boundary energy and z its impedance factor.  A and b are
    those of a problem that is never factored, in natural column order.
    """
    flow = solve_macro_potential_flow(duct_mesh, 25.0, props)

    def problem():
        return uniform_problem(duct_mesh, props, slant_flow_coeffs, eps0=0.025, flow=flow,
                               impedance_flow_correction=corrected)
    solved, natural = problem(), problem()
    nP = duct_mesh.num_nodes
    for freq in default_config().frequencies_hz():
        omega = 2 * math.pi * freq
        sol = solve_frequency(solved, omega)
        A, b, _ = assemble_coupled_system(natural, omega)
        ports = [omega * props.c * z * boundary_energy(duct_mesh, sol.P, group)
                 for z, group in zip(natural.parts.zfacs, (GROUP_IN, GROUP_OUT))]
        interface = np.vdot(sol.P, A[:nP, nP:] @ np.concatenate([sol.Gp, sol.Gm])).imag
        driven = np.vdot(sol.P, b[:nP]).imag
        terms = [*ports, interface, driven]
        assert abs(sum(ports) + interface - driven) <= 1e-9 * max(map(abs, terms)), freq
    # the flow terms are assembled, and the correction moves both ports
    assert len(natural.parts.plan.terms) == 4 and natural.parts.plan.perm is None
    assert all((z != 1.0) == corrected for z in natural.parts.zfacs)


def _block_max(a):
    """Largest absolute entry of each 2x2 block of an (n, 2, 2) stack."""
    return np.abs(a).max(axis=(1, 2))


def test_interface_element_blocks(duct_mesh, props, slant_flow_coeffs):
    prob = uniform_problem(duct_mesh, props, slant_flow_coeffs, eps0=0.025)
    table = prob.parts.table
    ratio = 1j / (OMEGA * props.c ** 2)
    _, p, _, _, _ = interface_element_blocks(table, OMEGA, props)
    assert p.shape == (prob.index.n_elements, 2, 2)
    # real part symmetric; imaginary part skew, which needs W' = -W
    # because the advective block sum TD + TD^T does not vanish
    scale = _block_max(p)
    pT = p.transpose(0, 2, 1)
    assert np.all(_block_max(p.real - pT.real) <= 1e-10 * scale)
    assert np.all(_block_max(p.imag + pT.imag) <= 1e-10 * scale)
    # without the through-flux couplings the flux/pressure blocks keep
    # only the Tw and T'w mass terms, whose ratio encodes the duality
    uncoupled = table.copy()
    uncoupled[2:4] = 0.0  # the B1 and B'1 rows
    _, _, g, p2, _ = interface_element_blocks(uncoupled, OMEGA, props)
    assert np.all(_block_max(p2 - ratio * g) <= 1e-10 * _block_max(p2))


def _boundary_integral(mesh, P, group):
    """Integral of P over a boundary group (exact for P1 traces)."""
    facets = mesh.facet_group(group)
    return complex((mesh.facet_measures(group)
                    * (P[facets[:, 0]] + P[facets[:, 1]]) / 2).sum())


def test_reciprocity_at_rest_on_symmetric_duct(duct_mesh, props, slant_coeffs):
    """Centrally symmetric duct: swapping the source side leaves TL unchanged.
    And at rest the model is reciprocal: the pressure one port receives from
    a source at the other does not depend on the direction, although the
    slanted layer is not symmetric under x1 -> -x1."""
    fwd = uniform_problem(duct_mesh, props, slant_coeffs, eps0=0.025)
    rev = uniform_problem(duct_mesh, props, slant_coeffs, eps0=0.025,
                          source_side="out")
    for f in (300.0, 800.0):
        omega = 2 * math.pi * f
        sol_fwd, sol_rev = solve_frequency(fwd, omega), solve_frequency(rev, omega)
        tlf, _, _ = transmission_loss(sol_fwd, fwd)
        _, e_in, e_out = transmission_loss(sol_rev, rev)
        tlr = 10 * math.log10(e_in / e_out)
        assert abs(tlf - tlr) <= 1e-8
        out_of_in = _boundary_integral(duct_mesh, sol_fwd.P, GROUP_OUT)
        in_of_out = _boundary_integral(duct_mesh, sol_rev.P, GROUP_IN)
        assert abs(out_of_in - in_of_out) <= 1e-9 * abs(out_of_in)


@pytest.mark.parametrize("phi", [0.0, 30.0])
def test_flow_reversal_reciprocity_on_symmetric_duct(duct_mesh, props, phi):
    """With flow the model is reciprocal under flow reversal: the pressure
    the outlet receives from a source at the inlet under +U, with the layer's
    coefficients at +u3, is the pressure the inlet receives from a source at
    the outlet under -U, with the coefficients at -u3.  Swapping the source
    alone, under the same flow, is no symmetry."""
    geom = CellGeometry(hole_slope_deg=phi)
    coeffs = {u3: cell_pipeline(geom, u3, 0.1, props)[3] for u3 in (3.0, -3.0)}
    for outer_advection in (True, False):
        def problem(speed, u3, source_side):
            return uniform_problem(duct_mesh, props, coeffs[u3], eps0=0.025,
                                   flow=uniform_macro_flow(duct_mesh, speed, props),
                                   source_side=source_side, outer_advection=outer_advection)
        fwd, rev = problem(15.0, 3.0, "in"), problem(-15.0, -3.0, "out")
        swapped = problem(15.0, 3.0, "out")
        for f in (300.0, 550.0, 800.0):
            omega = 2 * math.pi * f
            out_of_in = _boundary_integral(duct_mesh, solve_frequency(fwd, omega).P, GROUP_OUT)
            in_of_out = _boundary_integral(duct_mesh, solve_frequency(rev, omega).P, GROUP_IN)
            control = _boundary_integral(duct_mesh, solve_frequency(swapped, omega).P,
                                         GROUP_IN)
            assert abs(out_of_in - in_of_out) <= 1e-9 * abs(out_of_in)
            assert abs(out_of_in - control) >= 1e-2 * abs(out_of_in)


def test_outer_advection_toggle(duct_mesh, props):
    mf = solve_macro_potential_flow(duct_mesh, 15.0, props)
    co = empty_cell_coefficients()
    on = uniform_problem(duct_mesh, props, co, eps0=0.025, flow=mf)
    off = uniform_problem(duct_mesh, props, co, eps0=0.025, flow=mf,
                          outer_advection=False)
    tl_on, _, _ = transmission_loss(solve_frequency(on, OMEGA), on)
    tl_off, _, _ = transmission_loss(solve_frequency(off, OMEGA), off)
    assert abs(tl_on - tl_off) > 1e-6


def test_macro_mach_guard(duct_mesh, props):
    fast = uniform_macro_flow(duct_mesh, 1.2 * props.mach_speed_limit, props)
    prob = uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025,
                           flow=fast)
    with pytest.raises(MacroAssemblyError):
        assemble_coupled_system(prob, OMEGA)
    # a failed build is not kept: every frequency of a sweep records the guard
    omegas = [2 * math.pi * f for f in (200.0, 400.0, 800.0)]
    rows, failures, solutions = frequency_sweep(prob, omegas)
    assert rows == solutions == [] and [w for w, _ in failures] == omegas
    assert all("reaches the bound c/sqrt(tau)" in msg for _, msg in failures)


def test_macro_mach_guard_rejects_a_nan_speed(duct_mesh, props):
    # NaN >= limit is false, so a guard written that way builds a NaN matrix
    flow = uniform_macro_flow(duct_mesh, 10.0, props)
    flow.velocity[5, 0] = np.nan
    prob = uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025,
                           flow=flow)
    with pytest.raises(MacroAssemblyError, match=r"max \|w\| = nan m/s"):
        assemble_coupled_system(prob, OMEGA)


def test_flow_of_another_fluid_rejected(duct_mesh, props):
    other = FluidProperties(c=300.0, tau=1.0)
    flow = uniform_macro_flow(duct_mesh, 10.0, other)
    with pytest.raises(MacroAssemblyError, match=rf"solved for {re.escape(repr(other))}, "
                                                 rf"the problem is posed for {re.escape(repr(props))}"):
        uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025, flow=flow)


def test_flow_on_another_duct_rejected(duct_mesh, props):
    """The flow is indexed by the problem's nodes, so it must be solved on
    the problem's mesh object: a flow on a duct of the same size, mirrored
    in x1 or an exact copy, is rejected."""
    nodes = duct_mesh.nodes.copy()
    nodes[:, 0] = WaveguideGeometry().l_m - nodes[:, 0]
    mirrored = Mesh(2, nodes, duct_mesh.cells[:, [0, 2, 1]], duct_mesh.facet_groups,
                    duct_mesh.periodic_pairs).validate()
    copy = Mesh(2, duct_mesh.nodes.copy(), duct_mesh.cells.copy(),
                duct_mesh.facet_groups, duct_mesh.periodic_pairs).validate()
    for other in (mirrored, copy):
        assert other.num_nodes == duct_mesh.num_nodes
        flow = solve_macro_potential_flow(other, 10.0, props)
        with pytest.raises(MacroAssemblyError, match="solved on another mesh"):
            uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025,
                            flow=flow)
        prob = uniform_problem(other, props, empty_cell_coefficients(), eps0=0.025,
                               flow=flow)
        assert prob.flow is flow


def test_missing_elementwise_coefficients_rejected(duct_mesh, props):
    # a wrong count is one error when the problem is built, not one failure
    # row per frequency of a sweep
    prob = uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025)
    n = prob.index.n_elements
    for coeffs in (prob.interface_coeffs[:3], prob.interface_coeffs[:-1]):
        with pytest.raises(MacroAssemblyError, match=f"^need coefficients for {n} "
                           f"interface elements, got {len(coeffs)}$"):
            replace(prob, interface_coeffs=coeffs)


def _assert_same_solution(got, want):
    for a, b in ((got.P, want.P), (got.Gp, want.Gp), (got.Gm, want.Gm)):
        assert a.tobytes() == b.tobytes()


def test_frequency_sweep_records_failures(duct_mesh, props):
    def fresh():
        return uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025)
    want = solve_frequency(fresh(), OMEGA)
    # a failed first frequency leaves nothing behind for the next one
    for omegas in ([OMEGA, float("nan")], [float("nan"), OMEGA]):
        rows, failures, solutions = frequency_sweep(fresh(), omegas)
        assert len(rows) == 1 and len(failures) == 1 and math.isnan(failures[0][0])
        # the solution kept with a row is the one a fresh solve gives
        assert solutions[0].omega == rows[0][0] == OMEGA
        _assert_same_solution(solutions[0], want)


def test_unsplit_mesh_rejected(duct_mesh, props):
    with pytest.raises(MacroAssemblyError, match="no 'iface' pairing"):
        MacroProblem(glued_single_duct(duct_mesh), props, [empty_cell_coefficients()],
                     eps0=0.025)


def test_frequency_sweep_propagates_programming_errors(duct_mesh, props,
                                                       monkeypatch):
    def broken(problem, omega):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(waveguide, "solve_frequency", broken)
    prob = uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025)
    with pytest.raises(IndexError):
        frequency_sweep(prob, [OMEGA])


def test_impedance_flow_correction(duct_mesh, props):
    """The correction scales each port's radiation mass by 1 + w.n/c."""
    u = 15.0
    mf = uniform_macro_flow(duct_mesh, u, props)
    co = empty_cell_coefficients()
    on = uniform_problem(duct_mesh, props, co, eps0=0.025, flow=mf,
                         impedance_flow_correction=True)
    off = uniform_problem(duct_mesh, props, co, eps0=0.025, flow=mf)
    A_on, _, nP = assemble_coupled_system(on, OMEGA)
    A_off, _, _ = assemble_coupled_system(off, OMEGA)
    # inflow through Gamma_in (w.n = -u), outflow through Gamma_out (+u)
    iwc = 1j * OMEGA * props.c
    expected = (iwc * (-u / props.c) * fem.boundary_mass_matrix(duct_mesh, GROUP_IN)
                + iwc * (u / props.c) * fem.boundary_mass_matrix(duct_mesh, GROUP_OUT))
    change = (A_on - A_off).tocsr()
    assert abs(expected).max() > 0
    assert abs(change[:nP, :nP] - expected).max() <= 1e-12 * abs(expected).max()
    assert change[nP:, :].count_nonzero() == 0
    assert change[:, nP:].count_nonzero() == 0


@pytest.mark.parametrize("case", ["flow", "rest", "impedance_out",
                                  "no_outer_advection", "rest_out"])
def test_assembly_matches_coo_reference_bytes(duct_mesh, props, slant_coeffs,
                                              slant_flow_coeffs, case):
    """The array assembly gives the sums of the per-element reference's
    (rows, cols, vals) sequence, so its CSC arrays and the reference's CSR
    in the same format (an exact conversion) and the load agree to the last
    bit: with and without the advection terms, and with either port as the
    source."""
    source_side = "out" if case in ("impedance_out", "rest_out") else "in"
    if case in ("rest", "rest_out"):
        prob = uniform_problem(duct_mesh, props, slant_coeffs, eps0=0.025,
                               source_side=source_side)
    else:
        mf = solve_macro_potential_flow(duct_mesh, 15.0, props)
        kinds = (slant_flow_coeffs, slant_coeffs, empty_cell_coefficients())
        coeffs = [kinds[e % 3] for e in range(len(mf.interface_u3) - 1)]
        prob = MacroProblem(duct_mesh, props, coeffs, eps0=0.025, flow=mf,
                            outer_advection=case != "no_outer_advection",
                            impedance_flow_correction=case == "impedance_out",
                            source_side=source_side)
    # 479.9 Hz is the worst-conditioned dip of the dense rest workload
    for f in sorted([*np.linspace(100.0, 1000.0, 29), 479.9]):
        omega = 2 * math.pi * f
        A, rhs, nP = assemble_coupled_system(prob, omega)
        A_ref, rhs_ref, nP_ref = coo_reference.assemble_coupled_system(prob, omega)
        A_ref = A_ref.tocsc()
        assert nP == nP_ref and prob.parts.plan.perm is None
        for got, want in ((A.data, A_ref.data), (A.indices, A_ref.indices),
                          (A.indptr, A_ref.indptr), (rhs, rhs_ref)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _assert_same_matrix(got, want):
    for a, b in ((got.data, want.data), (got.indices, want.indices),
                 (got.indptr, want.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_summation_plan_recorded_once_per_problem(duct_mesh, props, slant_flow_coeffs,
                                                  coo_to_csr_calls, monkeypatch):
    """The plan is read off the frequency-independent patterns at the first
    frequency, even a NaN one; no later frequency converts a COO matrix, and
    each gives the matrix a problem of its own gives, to the last bit."""
    mf = solve_macro_potential_flow(duct_mesh, 15.0, props)

    def fresh():
        return uniform_problem(duct_mesh, props, slant_flow_coeffs, eps0=0.025, flow=mf)
    omegas = [2 * math.pi * f for f in (200.0, 479.9, 1000.0)]
    want = [assemble_coupled_system(fresh(), omega)[0] for omega in omegas]
    records = []
    real = waveguide.SummationPlan.record.__func__

    def counting(cls, *args):
        records.append(args)
        return real(cls, *args)
    monkeypatch.setattr(waveguide.SummationPlan, "record", classmethod(counting))
    prob = fresh()
    A, _, _ = assemble_coupled_system(prob, float("nan"))
    assert np.isnan(A.data).all() and len(records) == 1
    coo_to_csr_calls.clear()
    for omega, A_want in zip(omegas, want):
        _assert_same_matrix(assemble_coupled_system(prob, omega)[0], A_want)
    assert len(records) == 1 and coo_to_csr_calls == []


def test_summation_plan_keeps_explicit_zeros(duct_mesh, props):
    """The pattern is fixed per problem: an addend that is exactly zero at one
    frequency stays in its slot, where a CSR sum of the blocks drops it."""
    prob = uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025)
    plan = prob.parts.plan
    A = plan.matrix(np.zeros(len(plan.rows), dtype=complex),
                    np.zeros(sum(len(a) for _, a in plan.sums), dtype=complex))
    assert A.nnz == len(plan.rows) and not A.data.any()
    assert A.has_canonical_format


def test_later_frequency_assembly_keeps_its_peak_small(duct_mesh, props,
                                                      slant_flow_coeffs):
    """A later frequency's matrix is formed from the plan's kept slot-aligned
    arrays: the traced peak of its assembly stays within 3 x 16 bytes per
    entry, where a per-frequency vector of every term's entries and its
    gathers took 7.4 x."""
    mf = solve_macro_potential_flow(duct_mesh, 15.0, props)
    prob = uniform_problem(duct_mesh, props, slant_flow_coeffs, eps0=0.025, flow=mf)
    solve_frequency(prob, OMEGA)  # lays the kept plan out in COLAMD's order
    tracemalloc.start()
    try:
        A = assemble_coupled_system(prob, 2 * OMEGA)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * A.nnz, f"{peak / (16 * A.nnz):.2f} x 16 bytes per entry"


def test_unusable_frequencies_are_recorded(duct_mesh, props, splu_calls):
    """A frequency that is not finite and > 0 is rejected before assembly,
    and a sweep records it; -omega would otherwise mirror omega's TL."""
    prob = uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025)
    bad = [float("nan"), -OMEGA, 0.0, math.inf]
    for omega in bad:
        with pytest.raises(MacroAssemblyError,
                           match=re.escape(f"omega must be finite and > 0, got {omega!r}")):
            solve_frequency(prob, omega)
    assert splu_calls == []
    rows, failures, _ = frequency_sweep(prob, bad + [OMEGA])
    assert [row[0] for row in rows] == [OMEGA] and len(failures) == len(bad)
    for (omega, msg), want in zip(failures, bad):
        assert repr(omega) == repr(want) and msg.startswith("omega must be finite and > 0")


def test_frequency_independent_parts_built_once(duct_mesh, props, monkeypatch):
    mf = solve_macro_potential_flow(duct_mesh, 15.0, props)
    prob = uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025,
                           flow=mf)
    calls = {"mass_matrix": 0, "advection_matrices": 0, "boundary_mass_matrix": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(fem, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(fem, name, counted)
    omegas = [2 * math.pi * f for f in (200.0, 400.0, 800.0)]
    rows, failures, _ = frequency_sweep(prob, omegas)
    assert len(rows) == 3 and not failures
    assert calls == {"mass_matrix": 1, "advection_matrices": 1,
                     "boundary_mass_matrix": 2}


def test_residual_tolerance_must_be_positive(duct_mesh, props):
    for tol in (float("nan"), 0.0, -1e-10):
        with pytest.raises(MacroAssemblyError, match=f"residual_tol must be > 0, got {tol!r}"):
            uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025,
                            residual_tol=tol)


def test_eps0_must_be_positive(duct_mesh, props):
    for eps0 in (float("nan"), 0.0, -0.025):
        with pytest.raises(MacroAssemblyError, match=f"eps0 must be positive, got {eps0!r}"):
            uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=eps0)


def test_amplitude_must_be_finite_and_nonzero(duct_mesh, props):
    for amplitude in (float("nan"), float("inf"), 0.0):
        with pytest.raises(MacroAssemblyError,
                           match=f"amplitude must be finite and nonzero, got {amplitude!r}"):
            uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025,
                            amplitude=amplitude)


def test_residual_failure_names_its_context(duct_mesh, props):
    prob = uniform_problem(duct_mesh, props, empty_cell_coefficients(), eps0=0.025,
                           residual_tol=1e-300)
    n = duct_mesh.num_nodes + 2 * prob.index.n
    with pytest.raises(SolverError, match=(rf"^coupled solve at omega={OMEGA:.6g} \({n} dofs\): "
                                           rf"relative residual \S+ exceeds 1\.0e-300$")):
        solve_frequency(prob, OMEGA)


@pytest.mark.parametrize("case", ["flow", "rest"])
def test_one_column_ordering_per_problem(duct_mesh, props, slant_coeffs,
                                         slant_flow_coeffs, splu_calls, case):
    """The first frequency computes the COLAMD ordering; every later one
    factors the pre-permuted columns with NATURAL and gets the solution a
    problem of its own gives, to the last bit."""
    if case == "flow":
        flow, co = solve_macro_potential_flow(duct_mesh, 15.0, props), slant_flow_coeffs
    else:
        flow, co = None, slant_coeffs
    splu_calls.clear()  # the macro flow's own factorization

    def fresh():
        return uniform_problem(duct_mesh, props, co, eps0=0.025, flow=flow)
    omegas = [2 * math.pi * f for f in (200.0, 479.9, 800.0, 1000.0)]
    rows, failures, solutions = frequency_sweep(fresh(), omegas)
    assert len(rows) == len(omegas) and not failures
    assert [c.ordering for c in splu_calls] == ["COLAMD"] + ["NATURAL"] * 3
    assert all(c.options == {} for c in splu_calls)  # SuperLU's defaults
    for sol in solutions:
        _assert_same_solution(sol, solve_frequency(fresh(), sol.omega))


def test_one_pattern_per_problem(duct_mesh, props, slant_flow_coeffs, sparse_builds):
    """Every frequency's matrix is built on the kept plan's own read-only
    pattern: the natural-order plan before the problem's first
    factorization, and after it the one plan laid out in that
    factorization's column order, whose matrix holds a fresh problem's
    column j at position perm[j].  An in-place change of a returned
    matrix's pattern raises and leaves the plan as it was, and a later
    frequency builds one sparse matrix: the CSC that SuperLU factors."""
    mf = solve_macro_potential_flow(duct_mesh, 15.0, props)

    def fresh():
        return uniform_problem(duct_mesh, props, slant_flow_coeffs, eps0=0.025, flow=mf)
    prob = fresh()
    natural = prob.parts.plan
    omegas = [2 * math.pi * f for f in (200.0, 479.9, 800.0, 1000.0)]
    A, _, _ = assemble_coupled_system(prob, omegas[0])
    assert natural.perm is None and A.format == "csc"
    assert np.shares_memory(A.indptr, natural.colptr)
    assert np.shares_memory(A.indices, natural.rows)
    solve_frequency(prob, omegas[0])  # lays the plan out in COLAMD's order
    plan = prob.parts.plan
    assert [f.name for f in fields(plan)] == ["colptr", "rows", "terms", "ports", "sums", "perm"]
    assert plan.perm is not None and not plan.perm.flags.writeable
    for omega in omegas:
        A, _, _ = assemble_coupled_system(prob, omega)
        for got, pattern in ((A.indptr, plan.colptr), (A.indices, plan.rows)):
            assert np.shares_memory(got, pattern) and not got.flags.writeable
        with pytest.raises(ValueError):
            A.eliminate_zeros()
        want = assemble_coupled_system(fresh(), omega)[0][:, np.argsort(plan.perm)]
        _assert_same_matrix(A, want)
    sparse_builds.clear()
    sol = solve_frequency(prob, omegas[-1])
    assert sparse_builds == ["csc_matrix"]
    _assert_same_solution(sol, solve_frequency(fresh(), omegas[-1]))


def test_failed_natural_factorization_is_a_solver_error(duct_mesh, props,
                                                        slant_coeffs, monkeypatch):
    prob = uniform_problem(duct_mesh, props, slant_coeffs, eps0=0.025)
    solve_frequency(prob, OMEGA)  # keeps the ordering
    real = spla.splu

    def singular(A, permc_spec=None, **kwargs):
        if permc_spec == "NATURAL":
            raise RuntimeError("Factor is exactly singular")
        return real(A, permc_spec, **kwargs)
    monkeypatch.setattr(spla, "splu", singular)
    omega = 2 * OMEGA
    with pytest.raises(SolverError, match=rf"omega={omega:.6g}: Factor is exactly singular"):
        solve_frequency(prob, omega)
    monkeypatch.setattr(spla, "splu", real)
    fresh = uniform_problem(duct_mesh, props, slant_coeffs, eps0=0.025)
    _assert_same_solution(solve_frequency(prob, omega), solve_frequency(fresh, omega))
