import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import advection_reference
import mesh_reference
from conftest import structured_square_mesh
from fixtures import (checked_solve, counted_factor_sweeps, empty_cell_coefficients,
                      integrate_cells, uniform_problem, uniform_velocity)
from perfoplate import fem
from perfoplate import flow as flow_module
from perfoplate.cell_mesh import generate_unit_cell_mesh
from perfoplate.fem import AssemblyError, FluidProperties, SolverError
from perfoplate.cell_problems import assemble_Aw
from perfoplate.coefficients import cell_pipeline
from perfoplate.duct_mesh import GROUP_OUT, generate_waveguide_mesh
from perfoplate.flow import (solve_cell_potential_flow, solve_macro_potential_flow,
                             unit_cell_flow)
from perfoplate.geometry import CellGeometry, WaveguideGeometry
from perfoplate.mesh import Mesh
from perfoplate.waveguide import solve_frequency


def reference_tet():
    nodes = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                      (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    return Mesh(3, nodes, np.array([[0, 1, 2, 3]]))


def test_fluid_properties():
    props = FluidProperties()
    assert props.theta == pytest.approx((1 + props.tau) / 2)
    with pytest.raises(ValueError):
        FluidProperties(c=-1.0)


@pytest.mark.parametrize("tau", [-1.0, -1])
def test_fluid_properties_reject_zero_theta(tau):
    # W' = Qw / theta would be 0/0
    with pytest.raises(ValueError, match=re.escape(
            f"fluid tau must be other than -1, got {tau!r}: theta = (1 + tau)/2 is 0")):
        FluidProperties(tau=tau)
    assert FluidProperties(tau=math.nextafter(-1.0, 0.0)).theta > 0


def test_reference_tet_stiffness():
    K = fem.stiffness_matrix(reference_tet()).toarray()
    expected = np.array([[3, -1, -1, -1],
                         [-1, 1, 0, 0],
                         [-1, 0, 1, 0],
                         [-1, 0, 0, 1]]) / 6.0
    np.testing.assert_allclose(K, expected, atol=1e-15)
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-15)


def test_mass_sum_equals_measure(straight_cell_mesh):
    M = fem.mass_matrix(straight_cell_mesh)
    vol = straight_cell_mesh.cell_volumes().sum()
    assert M.sum() == pytest.approx(vol, rel=1e-12)


@pytest.mark.parametrize("resolution", [0.02, 0.0125, 0.00625])
def test_stiffness_and_mass_share_one_pattern(resolution):
    # the macro operator keeps M's data on K's pattern
    mesh = generate_waveguide_mesh(WaveguideGeometry(), resolution)
    K, M = fem.stiffness_matrix(mesh), fem.mass_matrix(mesh)
    np.testing.assert_array_equal(K.indptr, M.indptr)
    np.testing.assert_array_equal(K.indices, M.indices)


def test_symmetry_without_flow(straight_cell_mesh):
    A = (2.0 * fem.stiffness_matrix(straight_cell_mesh)
         - 3.0 * fem.mass_matrix(straight_cell_mesh))
    diff = (A - A.T)
    assert abs(diff).max() < 1e-13


def test_advskew_exactly_skew(straight_cell_mesh):
    _, C = fem.advection_matrices(straight_cell_mesh,
                                  uniform_velocity(straight_cell_mesh, (1.0, 2.0, 3.0)))
    S = C - C.T
    assert abs(S + S.T).max() == 0.0


def test_advadv_keeps_stiffness_psd(straight_cell_mesh, props):
    # subtracting the advective square at half the critical speed
    speed = props.c / math.sqrt(2 * props.tau)
    K = fem.stiffness_matrix(straight_cell_mesh)
    W, _ = fem.advection_matrices(straight_cell_mesh,
                                  uniform_velocity(straight_cell_mesh, (0.0, 0.0, speed)))
    A = (K - (props.tau / props.c ** 2) * W).toarray()
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() > -1e-10 * abs(eigs).max()


def test_mesh_geometry_computed_once_and_read_only(straight_cell_mesh):
    m = straight_cell_mesh
    grads, vols = fem.p1_geometry(m)
    T = fem.periodic_reduction(m)
    again = fem.p1_geometry(m)
    assert again[0] is grads and again[1] is vols and m.cell_volumes() is vols
    K = fem.stiffness_matrix(m)
    assert fem.periodic_reduction(m) is T and fem.stiffness_matrix(m) is K
    for arr in (grads, vols, T.data, T.indices, T.indptr, K.data, K.indices, K.indptr):
        with pytest.raises(ValueError):
            arr[0] = 0
    copy = Mesh(m.dim, m.nodes, m.cells, m.facet_groups, m.periodic_pairs)
    grads2, vols2 = fem.p1_geometry(copy)
    assert grads2 is not grads and vols2 is not vols
    assert fem.periodic_reduction(copy) is not T
    assert fem.stiffness_matrix(copy) is not K
    np.testing.assert_array_equal(grads2, grads)


def test_flow_mesh_releases_its_gradient_table(props):
    # K, the unit flow and W1, a1 read the table; a rest point builds only K
    # and releases the table once K exists, the first flow point builds the
    # table again with the rest and releases it, and a later read rebuilds it
    # bit for bit
    geom = CellGeometry(hole_slope_deg=30.0)
    mesh = generate_unit_cell_mesh(geom, 0.2)
    cell_pipeline(geom, 0.0, 0.2, props, mesh=mesh)
    assert not any(key[0] == "perfoplate.fem.p1_geometry" for key in mesh._cache)
    grads, vols = fem.p1_geometry(mesh)
    assert fem.p1_geometry(mesh)[0] is grads
    first, kept = grads.tobytes(), weakref.ref(grads)
    del grads
    cell_pipeline(geom, 2.5, 0.2, props, mesh=mesh)
    assert not any(key[0] == "perfoplate.fem.p1_geometry" for key in mesh._cache)
    gc.collect()
    assert kept() is None
    again, vols_again = fem.p1_geometry(mesh)
    assert again.tobytes() == first and vols_again is vols
    assert not again.flags.writeable


def test_periodic_reduction_preserves_symmetry_class(straight_cell_mesh):
    T = fem.periodic_reduction(straight_cell_mesh)
    K = fem.stiffness_matrix(straight_cell_mesh)
    Kr = (T.T @ K @ T).toarray()
    np.testing.assert_allclose(Kr, Kr.T, atol=1e-13)
    _, C = fem.advection_matrices(straight_cell_mesh,
                                  uniform_velocity(straight_cell_mesh, (1.0, 0.5, 2.0)))
    S = C - C.T
    Sr = (T.T @ S @ T).toarray()
    np.testing.assert_allclose(Sr, -Sr.T, atol=1e-13)


@st.composite
def paired_meshes(draw):
    """A small 2D mesh with random pairings: chains and cycles over disjoint
    node sets, extra (repeated, reversed and self) pairs, nodes in no pair,
    all shuffled over several pairing names, one of them possibly empty."""
    n = draw(st.integers(3, 60))
    order = draw(st.permutations(range(n)))
    pairs, start = [], 0
    while start < n:
        stop = draw(st.integers(start + 1, n))
        run, start = order[start:stop], stop
        kind = draw(st.sampled_from(["unpaired", "chain", "cycle"]))
        if kind != "unpaired":
            pairs += zip(run, run[1:] + (run[:1] if kind == "cycle" else []))
    node = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(node, node), max_size=10))  # self pairs too
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))  # repeats
    pairs = [p[::-1] if draw(st.booleans()) else p for p in draw(st.permutations(pairs))]
    names = draw(st.lists(st.sampled_from("abcd"), min_size=len(pairs), max_size=len(pairs)))
    pairings = {"empty": []} if draw(st.booleans()) else {}
    for name, pair in zip(names, pairs):
        pairings.setdefault(name, []).append(pair)
    pairings = {name: np.array(p, dtype=np.int64).reshape(-1, 2) for name, p in pairings.items()}
    nodes = np.arange(2.0 * n).reshape(n, 2)
    return Mesh(2, nodes, np.array([[0, 1, 2]]), periodic_pairs=pairings)


def assert_same_reduction(mesh):
    T, T_ref = fem.periodic_reduction(mesh), mesh_reference.periodic_reduction(mesh)
    assert T.shape == T_ref.shape
    for part in ("data", "indices", "indptr"):
        ours, theirs = getattr(T, part), getattr(T_ref, part)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@settings(max_examples=200, deadline=None)
@given(mesh=paired_meshes())
def test_periodic_reduction_matches_union_find(mesh):
    assert_same_reduction(mesh)


def test_periodic_reduction_joins_a_long_shuffled_path():
    # a path through 2000 nodes in random order, its pairs shuffled and
    # randomly oriented: one class, as union-find finds it
    rng = np.random.default_rng(0)
    order = rng.permutation(2000)
    pairs = np.column_stack([order[:-1], order[1:]])[rng.permutation(1999)]
    flip = rng.random(1999) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    mesh = Mesh(2, np.zeros((2000, 2)), np.array([[0, 1, 2]]), periodic_pairs={"path": pairs})
    assert_same_reduction(mesh)
    assert fem.periodic_reduction(mesh).shape == (2000, 1)


def relative_deviation(A, reference):
    return abs(A - reference).max() / abs(reference).max()


@pytest.mark.parametrize("slope", [0.0, 30.0, 60.0])
def test_advection_forms_match_element_blocks_on_cells(slope):
    # values, not patterns: the program's sparse products drop exact zeros
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=slope), 0.1)
    velocity = unit_cell_flow(mesh).velocity
    W_ref, C_ref = advection_reference.advection_matrices(mesh, velocity)
    W, C = fem.advection_matrices(mesh, velocity)
    assert relative_deviation(W, W_ref) <= 1e-15
    assert relative_deviation(C, C_ref) <= 1e-15
    assert W.has_canonical_format and C.has_canonical_format
    assert abs(W - W.T).max() == 0.0  # sum_m D_mi D_mj in one order for ij and ji


def test_advection_forms_match_element_blocks_on_the_duct(duct_mesh, props):
    velocity = solve_macro_potential_flow(duct_mesh, 25.0, props).velocity
    W_ref, C_ref = advection_reference.advection_matrices(duct_mesh, velocity)
    W, C = fem.advection_matrices(duct_mesh, velocity)
    assert relative_deviation(W, W_ref) <= 1e-15
    assert relative_deviation(C, C_ref) <= 1e-15
    assert W.has_canonical_format and C.has_canonical_format


def test_advection_assembly_builds_no_element_blocks():
    """W and a of the 0.08 cell are summed from blocks of sparse factors: the
    assembly's traced peak stays under 4 MB, where the dense element blocks
    and their COO triplets took 10.8 MB for W alone (W itself is 0.7 MB)."""
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.08)
    velocity = unit_cell_flow(mesh).velocity
    fem.p1_geometry(mesh)  # built and kept outside the traced section
    tracemalloc.start()
    try:
        fem.advection_forms(mesh, velocity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"{peak / 1e6:.2f} MB"


def test_advection_matrices_sweep_the_factors_once(slant_cell_mesh, monkeypatch):
    velocity = unit_cell_flow(slant_cell_mesh).velocity
    sweeps = counted_factor_sweeps(monkeypatch)
    fem.advection_matrices(slant_cell_mesh, velocity)
    assert sweeps == [slant_cell_mesh]


def test_advection_forms_from_one_sweep(slant_cell_mesh, monkeypatch):
    mesh = slant_cell_mesh
    velocity = unit_cell_flow(mesh).velocity
    W_ref, _ = fem.advection_matrices(mesh, velocity)
    sweeps = counted_factor_sweeps(monkeypatch)
    W, a = fem.advection_forms(mesh, velocity)
    assert sweeps == [mesh]
    assert W.has_canonical_format
    for got, want in ((W.data, W_ref.data), (W.indices, W_ref.indices),
                      (W.indptr, W_ref.indptr)):
        assert got.tobytes() == want.tobytes()
    # the rule integrates P1 w exactly, so a is the cell-mean form
    a_ref = advection_reference.cell_mean_advective_vector(mesh, velocity)
    assert np.abs(a - a_ref).max() <= 1e-14 * np.abs(a_ref).max()


def test_missing_flow_rejected(straight_cell_mesh):
    with pytest.raises(AssemblyError):
        fem.advection_matrices(straight_cell_mesh, None)


def test_unknown_group_rejected(straight_cell_mesh):
    with pytest.raises(Exception) as err:
        fem.boundary_mass_matrix(straight_cell_mesh, "nope")
    assert "nope" in str(err.value)


def laplace_solver(mesh):
    return fem.ZeroMeanSolver(mesh, fem.stiffness_matrix(mesh))


def test_bordered_solver_factors_one_copy_of_its_operator(monkeypatch):
    # while the bordered matrix factors, the reduced operator T^T K T it was
    # built from is no longer alive; the kept leading block is that operator
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.2)
    T, K = fem.periodic_reduction(mesh), fem.stiffness_matrix(mesh)
    n_red = T.shape[1]

    def reduced_shaped():
        return [o for o in gc.get_objects()
                if issubclass(type(o), (sp.spmatrix, sp.sparray)) and o.shape == (n_red, n_red)]
    before, seen = reduced_shaped(), []
    real = spla.splu

    def inspecting(A, *args, **kwargs):
        seen.append((A.shape, [o for o in reduced_shaped()
                               if not any(o is b for b in before)]))
        return real(A, *args, **kwargs)
    monkeypatch.setattr(spla, "splu", inspecting)
    solver = fem.ZeroMeanSolver(mesh, K, bordered=True)
    assert [(shape, len(extra)) for shape, extra in seen] == [((n_red + 1, n_red + 1), 0)]
    np.testing.assert_array_equal(solver.reduced.toarray(), (T.T @ K @ T).toarray())


@pytest.mark.parametrize("speeds", [(0.0,), (2.5, 0.0)], ids=["rest", "flow-then-rest"])
def test_rest_point_factors_alone(speeds, props, monkeypatch):
    # while a rest point's bordered matrix factors, its mesh holds no P1
    # table and not the unit flow record of a flow point before it, and no kept
    # stiffness solver is alive, neither another mesh's nor the one a flow
    # point before it kept for this mesh
    geom = CellGeometry(hole_slope_deg=30.0)
    mesh = generate_unit_cell_mesh(geom, 0.2)
    for u3 in speeds[:-1]:
        cell_pipeline(geom, u3, 0.2, props, mesh=mesh)
    kept = [weakref.ref(solver) for solver, _ in fem._kept.values()]
    n_red = fem.periodic_reduction(mesh).shape[1]
    freed = {"perfoplate.fem.p1_geometry", "perfoplate.flow.unit_cell_flow"}
    seen, real = [], spla.splu

    def inspecting(A, *args, **kwargs):
        if A.shape == (n_red + 1, n_red + 1):
            seen.append(([key for key in mesh._cache if key[0] in freed],
                         len(fem._kept), [ref() is None for ref in kept]))
        return real(A, *args, **kwargs)
    monkeypatch.setattr(spla, "splu", inspecting)
    cell_pipeline(geom, speeds[-1], 0.2, props, mesh=mesh)
    assert seen == [([], 0, [True] * len(kept))]


def face_average_load(mesh, group):
    """Load (1/|group|) * int_group phi_i."""
    return fem.boundary_load_vector(mesh, group) / mesh.group_measure(group)


def test_zero_rhs_zero_mean_solution(straight_cell_mesh):
    x, residual = laplace_solver(straight_cell_mesh).solve(
        np.zeros(straight_cell_mesh.num_nodes), "zero solve")
    assert np.abs(x).max() < 1e-12 and residual == 0.0


def test_incompatible_neumann_rejected(straight_cell_mesh):
    with pytest.raises(SolverError, match=r"^face solve: pure-Neumann right side "
                                          r"incompatible: defect "):
        laplace_solver(straight_cell_mesh).solve(
            face_average_load(straight_cell_mesh, "I+"), "face solve")


def test_check_residual_rejects_what_is_not_within_tolerance():
    fem.check_residual(1e-12, 1e-10, "some solve")
    for residual, tol in ((1.0, math.nan), (2e-10, 1e-10), (math.nan, 1e-10),
                          (math.inf, math.inf)):
        message = f"some solve: relative residual {residual:.3e} exceeds {tol:.1e}"
        with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
            fem.check_residual(residual, tol, "some solve")


def _coupled_solve(cell, duct, props):
    prob = uniform_problem(duct, props, empty_cell_coefficients(), eps0=0.025,
                           residual_tol=1e-300)
    omega = 2 * math.pi * 400.0
    name = f"coupled solve at omega={omega:.6g} ({duct.num_nodes + 2 * prob.index.n} dofs)"
    return lambda: solve_frequency(prob, omega), name, 1e-300


def _corrector(u3):
    # the point's first corrector is the first to fail
    def case(cell, duct, props):
        op = assemble_Aw(solve_cell_potential_flow(cell, u3, props), residual_tol=1e-30)
        return op.solve, f"corrector ('pi', 1) at u3={u3:g}", 1e-30
    return case


FIVE_SOLVES = {
    "cell-flow": lambda cell, duct, props: (
        lambda: solve_cell_potential_flow(cell, 2.0, props, residual_tol=1e-30),
        "cell potential flow", 1e-30),
    "rest-corrector": _corrector(0.0),
    "lanczos-corrector": _corrector(2.0),
    "macro-flow": lambda cell, duct, props: (
        lambda: solve_macro_potential_flow(duct, 10.0, props, residual_tol=1e-30),
        "macro potential flow", 1e-30),
    "coupled": _coupled_solve,
}


@pytest.mark.parametrize("case", FIVE_SOLVES.values(), ids=FIVE_SOLVES.keys())
def test_every_solve_names_itself_in_a_residual_failure(straight_cell_mesh, duct_mesh,
                                                        props, case):
    solve, name, tol = case(straight_cell_mesh, duct_mesh, props)
    with pytest.raises(SolverError, match=rf"^{re.escape(name)}: relative residual "
                                          rf"\S+ exceeds {tol:.1e}$"):
        solve()


def _incompatible_cell_flow(monkeypatch, cell, duct, props):
    # a fresh mesh: the unit flow of a mesh is solved once and kept
    mesh = generate_unit_cell_mesh(CellGeometry(), 0.2)
    monkeypatch.setattr(flow_module, "face_flux_jump",
                        lambda m: fem.boundary_load_vector(m, "I+"))
    return lambda: solve_cell_potential_flow(mesh, 2.0, props), "cell potential flow"


def _incompatible_macro_flow(monkeypatch, cell, duct, props):
    # twice the outflow of the inflow
    real = fem.boundary_load_vector
    monkeypatch.setattr(fem, "boundary_load_vector",
                        lambda m, group: (2.0 if group == GROUP_OUT else 1.0) * real(m, group))
    return lambda: solve_macro_potential_flow(duct, 10.0, props), "macro potential flow"


def _incompatible_corrector(u3):
    def case(monkeypatch, cell, duct, props):
        op = assemble_Aw(solve_cell_potential_flow(cell, u3, props))
        real = op.load
        load = real("xi")
        load[0] += 1e-3 * np.abs(load).max()
        monkeypatch.setattr(op, "load", lambda name: load if name == "xi" else real(name))
        return op.solve, f"corrector 'xi' at u3={u3:g}"
    return case


INCOMPATIBLE_LOADS = {
    "cell-flow": _incompatible_cell_flow,
    "macro-flow": _incompatible_macro_flow,
    "rest-corrector": _incompatible_corrector(0.0),
    "lanczos-corrector": _incompatible_corrector(2.0),
}


@pytest.mark.parametrize("case", INCOMPATIBLE_LOADS.values(), ids=INCOMPATIBLE_LOADS.keys())
def test_every_pure_neumann_solve_names_itself_for_an_incompatible_load(
        straight_cell_mesh, duct_mesh, props, monkeypatch, case):
    solve, name = case(monkeypatch, straight_cell_mesh, duct_mesh, props)
    with pytest.raises(SolverError, match=rf"^{re.escape(name)}: pure-Neumann right side "
                                          r"incompatible: defect \S+$"):
        solve()


def test_zero_mean_contract(straight_cell_mesh):
    m = straight_cell_mesh
    x = checked_solve(laplace_solver(m),
                      face_average_load(m, "I-") - face_average_load(m, "I+"))
    mean = integrate_cells(m, x) / fem.cell_measure(m)
    assert abs(mean) <= 1e-12 * np.linalg.norm(x)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-6, 1e6))
def test_zero_mean_solver_properties(straight_cell_mesh, seed, scale):
    m = straight_cell_mesh
    solver = laplace_solver(m)
    T = solver.reduction
    # a random load on the periodic classes with its sum removed, spread
    # evenly over each class's nodes: a compatible right side
    red = scale * np.random.default_rng(seed).standard_normal(T.shape[1])
    red -= red.mean()
    rhs = T @ (red / np.asarray(T.sum(axis=0)).ravel())
    x = checked_solve(solver, rhs)
    assert abs(integrate_cells(m, x)) <= 1e-12 * fem.cell_measure(m) * np.abs(x).max()
    for pairs in m.periodic_pairs.values():
        np.testing.assert_array_equal(x[pairs[:, 0]], x[pairs[:, 1]])
    resid = T.T @ (fem.stiffness_matrix(m) @ x - rhs)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(T.T @ rhs)
    with pytest.raises(SolverError, match="^random solve: pure-Neumann right side incompatible"):
        solver.solve(rhs + np.linalg.norm(red) * face_average_load(m, "I+"), "random solve")


def cell_average(mesh, field, group=None):
    """Integral over the cell (or a facet group) normalized by |Xi|."""
    total = integrate_cells(mesh, field) if group is None else fem.integrate(mesh, field, group)
    return total / fem.xi_measure(mesh)


def test_integrate_and_averages(straight_cell_mesh):
    m = straight_cell_mesh
    ones = np.ones(m.num_nodes)
    assert cell_average(m, ones, group="I+") == pytest.approx(1.0, rel=1e-12)
    assert cell_average(m, ones, group="I-") == pytest.approx(1.0, rel=1e-12)
    # cell average of 1 over the fluid equals porosity times height factor
    zeta_kappa = m.cell_volumes().sum() / m.group_measure("I+")
    assert cell_average(m, ones) == pytest.approx(zeta_kappa, rel=1e-12)


def test_empty_cell_average_is_kappa(empty_cell_mesh):
    ones = np.ones(empty_cell_mesh.num_nodes)
    assert cell_average(empty_cell_mesh, ones) == pytest.approx(1.0, rel=1e-12)


def test_empty_group_rejected():
    mesh = structured_square_mesh(4)
    with pytest.raises(Exception):
        fem.integrate(mesh, np.ones(mesh.num_nodes), group="nope")


# -- manufactured-solution convergence ---------------------------------------

# degree-4 rule on the reference triangle (6 points), for manufactured loads
TRI_Q4_L = np.array([
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070]])
TRI_Q4_W = np.array([0.109951743655322, 0.109951743655322, 0.109951743655322,
                     0.223381589678011, 0.223381589678011, 0.223381589678011])


def function_load_vector(mesh, fn):
    """Load vector int f phi_i on a 2D mesh, with the degree-4 rule."""
    _, vols = fem.p1_geometry(mesh)
    x = mesh.nodes[mesh.cells]
    out = np.zeros(mesh.num_nodes, dtype=complex)
    for lam, wt in zip(TRI_Q4_L, TRI_Q4_W):
        pts = np.einsum('i,mid->md', lam, x)
        contrib = wt * vols * fn(pts)
        for i in range(3):
            np.add.at(out, mesh.cells[:, i], lam[i] * contrib)
    return out


def l2_error(mesh, field, exact_fn):
    """L2 distance between a P1 field and an exact function (2D)."""
    _, vols = fem.p1_geometry(mesh)
    x = mesh.nodes[mesh.cells]
    vals = np.asarray(field)[mesh.cells]
    acc = 0.0
    for lam, wt in zip(TRI_Q4_L, TRI_Q4_W):
        pts = np.einsum('i,mid->md', lam, x)
        uh = np.einsum('i,mi->m', lam, vals)
        acc += (wt * vols * np.abs(uh - exact_fn(pts)) ** 2).sum()
    return math.sqrt(acc)


def _dirichlet_solve(mesh, matrix, exact, forcing):
    """Eliminate the exact boundary values and solve for the interior."""
    A = matrix.tocsr().astype(complex)
    rhs = function_load_vector(mesh, forcing)
    boundary = np.unique(mesh.boundary_facets())
    free = np.setdiff1d(np.arange(mesh.num_nodes), boundary)
    x = np.zeros(mesh.num_nodes, dtype=complex)
    x[boundary] = exact(mesh.nodes[boundary])
    load = rhs[free] - A[free][:, boundary] @ x[boundary]
    x[free] = spla.splu(A[free][:, free].tocsc()).solve(load)
    return x


def convergence_order(errors):
    rates = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return min(rates)


def test_laplace_convergence_order():
    def exact(p):
        return np.sin(math.pi * p[:, 0]) * np.sin(math.pi * p[:, 1])

    def forcing(p):
        return 2 * math.pi ** 2 * exact(p)

    errors = []
    for n in (8, 16, 32):
        mesh = structured_square_mesh(n, groups=False)
        u = _dirichlet_solve(mesh, fem.stiffness_matrix(mesh), exact, forcing)
        errors.append(l2_error(mesh, u, exact))
    assert convergence_order(errors) >= 1.9


def extended_helmholtz_error(n, props, omega, w_vec):
    """L2 error of the advection-extended form on the unit square."""
    kx, ky = math.pi, 2 * math.pi
    c2 = props.c ** 2
    theta, tau = props.theta, props.tau

    def exact(p):
        return np.sin(kx * p[:, 0]) * np.sin(ky * p[:, 1])

    def grad_exact(p):
        gx = kx * np.cos(kx * p[:, 0]) * np.sin(ky * p[:, 1])
        gy = ky * np.sin(kx * p[:, 0]) * np.cos(ky * p[:, 1])
        return gx, gy

    def forcing(p):
        u = exact(p)
        gx, gy = grad_exact(p)
        uxx = -kx ** 2 * u
        uyy = -ky ** 2 * u
        uxy = kx * ky * np.cos(kx * p[:, 0]) * np.cos(ky * p[:, 1])
        adv1 = w_vec[0] * gx + w_vec[1] * gy
        adv2 = (w_vec[0] ** 2 * uxx + 2 * w_vec[0] * w_vec[1] * uxy
                + w_vec[1] ** 2 * uyy)
        return (-c2 * (uxx + uyy) - omega ** 2 * u
                + 1j * omega * (1 + tau) * adv1 + tau * adv2)

    mesh = structured_square_mesh(n, groups=False)
    W, C = fem.advection_matrices(mesh, uniform_velocity(mesh, w_vec))
    A = (c2 * fem.stiffness_matrix(mesh) - omega ** 2 * fem.mass_matrix(mesh)
         + 1j * omega * theta * (C - C.T) - tau * W)
    u = _dirichlet_solve(mesh, A, exact, forcing)
    return l2_error(mesh, u, exact)


def test_extended_helmholtz_convergence_order(props):
    omega = 2 * math.pi * 150.0
    w_vec = np.array([60.0, 35.0])
    assert np.linalg.norm(w_vec) < props.mach_speed_limit
    errors = [extended_helmholtz_error(n, props, omega, w_vec)
              for n in (16, 32, 64)]
    assert convergence_order(errors) >= 1.9
