import re
import weakref

import numpy as np
import pytest

import advection_reference
from fixtures import (cell_velocity, checked_solve, coef_deviation,
                      counted_factor_sweeps, integrate_cells, operator_matrix,
                      u3_at_mach_bound, u3_at_mach_fraction)
from perfoplate import fem
from perfoplate.cell_mesh import generate_unit_cell_mesh
from perfoplate.cell_problems import (CORRECTORS, LANCZOS_TOL, LanczosRun, MachBoundError,
                                      advective_vector, assemble_Aw, solve_cell_problems)
from perfoplate.coefficients import cell_pipeline
from perfoplate.fem import SolverError
from perfoplate.flow import FlowField, face_flux_jump, solve_cell_potential_flow, unit_cell_flow
from perfoplate.geometry import CellGeometry


def zero_flow(mesh, props):
    return solve_cell_potential_flow(mesh, 0.0, props)


def test_operator_is_periodic_laplacian_at_rest(straight_cell_mesh, props):
    op = assemble_Aw(zero_flow(straight_cell_mesh, props))
    K = fem.stiffness_matrix(straight_cell_mesh)
    assert abs(operator_matrix(op) - K).max() == 0.0
    x = np.random.default_rng(0).standard_normal((straight_cell_mesh.num_nodes, 3))
    assert op.apply(x).tobytes() == (K @ x).tobytes()


def test_operator_symmetric_exactly(slant_cell_mesh, props):
    flow = solve_cell_potential_flow(slant_cell_mesh, 3.0, props)
    A = operator_matrix(assemble_Aw(flow))
    assert abs(A - A.T).max() < 1e-14 * abs(A).max()


@pytest.mark.parametrize("u3", [-2.0, 3.0])
def test_operator_from_unit_advection_matches_assembly(slant_cell_mesh, props, u3):
    flow = solve_cell_potential_flow(slant_cell_mesh, u3, props)
    op = assemble_Aw(flow)
    W, _ = fem.advection_matrices(slant_cell_mesh, cell_velocity(flow))
    fresh = fem.stiffness_matrix(slant_cell_mesh) - (props.tau / props.c ** 2) * W
    assert abs(operator_matrix(op) - fresh).max() <= 1e-13 * abs(fresh).max()


def test_operator_psd_near_bound(straight_cell_mesh, props):
    u3 = u3_at_mach_fraction(straight_cell_mesh, props, 0.99)
    flow = solve_cell_potential_flow(straight_cell_mesh, u3, props)
    op = assemble_Aw(flow)
    T = fem.periodic_reduction(op.mesh)
    A = (T.T @ operator_matrix(op) @ T).toarray()
    eigs = np.linalg.eigvalsh(A)
    scale = abs(eigs).max()
    assert eigs[0] > -1e-12 * scale          # constants nullspace
    assert eigs[1] > 1e-8 * scale            # next eigenvalue strictly positive


def test_mach_guard_trips_exactly_at_bound(empty_cell_mesh, props):
    # the empty cell's flow is uniform to rounding, so a u3 puts max |w| on
    # the bound exactly
    limit = props.mach_speed_limit
    u3 = u3_at_mach_bound(empty_cell_mesh, props)
    at = solve_cell_potential_flow(empty_cell_mesh, u3, props)
    assert at.max_speed() == limit
    with pytest.raises(MachBoundError) as err:
        assemble_Aw(at)
    msg = str(err.value)
    assert f"{limit:.6g}" in msg and "max |w|" in msg
    below = solve_cell_potential_flow(empty_cell_mesh, np.nextafter(u3, 0.0), props)
    assemble_Aw(below)  # must not raise


def test_mach_guard_rejects_a_nan_speed(straight_cell_mesh, props):
    # NaN >= limit is false, so a guard written that way lets a NaN speed
    # through to a context-free error in the Lanczos step cap
    with pytest.raises(MachBoundError, match=r"max \|w\| = nan m/s"):
        assemble_Aw(FlowField(straight_cell_mesh, props, np.nan))


def test_empty_cell_correctors(empty_cell_mesh, props):
    op = assemble_Aw(zero_flow(empty_cell_mesh, props))
    z = empty_cell_mesh.nodes[:, 2]
    pi1, pi2, xi, pi_P = op.solve()
    assert np.abs(pi1).max() < 1e-12
    assert np.abs(pi2).max() < 1e-12
    np.testing.assert_allclose(xi, -z, atol=1e-12)
    assert np.abs(pi_P).max() == 0.0


def test_empty_cell_with_uniform_flow_analytic(empty_cell_mesh, props):
    """1D closed forms for a box cell under uniform vertical advection."""
    u3 = 5.0
    flow = solve_cell_potential_flow(empty_cell_mesh, u3, props)
    sols = solve_cell_problems(flow)
    z = empty_cell_mesh.nodes[:, 2]
    m = props.tau * u3 ** 2 / props.c ** 2
    np.testing.assert_allclose(sols.xi, -z / (1 - m), atol=1e-11)
    np.testing.assert_allclose(
        sols.pi_P, (props.theta * u3 / props.c ** 2) * z / (1 - m), atol=1e-14)
    assert np.abs(sols.pi1).max() < 1e-11
    assert np.abs(sols.pi2).max() < 1e-11


def test_static_reduction_matches_plain_laplace(slant_cell_mesh, props):
    flow = zero_flow(slant_cell_mesh, props)
    sols = solve_cell_problems(flow)
    # plain periodic Laplace solve, assembled independently of the operator
    K = fem.stiffness_matrix(slant_cell_mesh)
    y1 = slant_cell_mesh.nodes[:, 0]
    pi1 = checked_solve(fem.ZeroMeanSolver(slant_cell_mesh, K), -(K @ y1))
    np.testing.assert_allclose(sols.pi1, pi1, atol=1e-10)


def test_zero_mean_and_periodicity(slant_cell_mesh, props):
    flow = solve_cell_potential_flow(slant_cell_mesh, 2.0, props)
    sols = solve_cell_problems(flow)
    vol = fem.cell_measure(slant_cell_mesh)
    for field in (sols.pi1, sols.pi2, sols.xi, sols.pi_P):
        mean = integrate_cells(slant_cell_mesh, field) / vol
        assert abs(mean) <= 1e-12 * max(np.linalg.norm(field), 1.0)
        for pairs in slant_cell_mesh.periodic_pairs.values():
            np.testing.assert_array_equal(field[pairs[:, 0]], field[pairs[:, 1]])


def test_loads_compatible(slant_cell_mesh, props):
    flow = solve_cell_potential_flow(slant_cell_mesh, 4.0, props)
    op = assemble_Aw(flow)
    T = fem.periodic_reduction(op.mesh)
    for name in CORRECTORS:
        r = T.T @ op.load(name)
        assert abs(r.sum()) <= 1e-10 * max(np.linalg.norm(r), 1e-12)


def test_mirror_antisymmetry_of_tangential_corrector(props):
    """On a mirror-symmetric cell with vertical flow the first in-plane
    corrector is odd under the mirror."""
    mesh = generate_unit_cell_mesh(CellGeometry(), 0.1)
    flow = solve_cell_potential_flow(mesh, 1.5, props)
    op = assemble_Aw(flow)
    pi1 = op.solve()[0]
    lookup = {(round(p[0], 9), round(p[1], 9), round(p[2], 9)): i
              for i, p in enumerate(mesh.nodes)}
    perm = np.array([lookup[(round(1.0 - p[0], 9), round(p[1], 9), round(p[2], 9))]
                     for p in mesh.nodes])
    defect = np.abs(pi1 + pi1[perm]).max()
    assert defect <= 1e-8 * max(np.abs(pi1).max(), 1e-12)


def test_pi_P_linearity_for_small_flow(straight_cell_mesh, props):
    # the operator itself depends on the flow, so linearity holds to first
    # order only; doubling a small flow must double the corrector
    alpha = 1e-3
    one = assemble_Aw(
        solve_cell_potential_flow(straight_cell_mesh, alpha, props)).solve()[3]
    two = assemble_Aw(
        solve_cell_potential_flow(straight_cell_mesh, 2 * alpha, props)).solve()[3]
    mismatch = np.linalg.norm(two - 2.0 * one) / np.linalg.norm(two)
    assert mismatch <= 1e-5


def test_correctors_converge_to_static_limit(slant_cell_mesh, props):
    static = solve_cell_problems(zero_flow(slant_cell_mesh, props))
    tiny = solve_cell_problems(solve_cell_potential_flow(slant_cell_mesh, 1e-4, props))
    for a, b in ((tiny.pi1, static.pi1), (tiny.xi, static.xi)):
        assert np.abs(a - b).max() <= 1e-6 * max(np.abs(b).max(), 1.0)
    assert np.abs(tiny.pi_P).max() <= 1e-6


def test_duality_pairing_vs_surface_jump(slant_cell_mesh, props):
    """Operator pairing of the flux corrector with an in-plane corrector
    equals minus the top/bottom average jump of the latter."""
    flow = solve_cell_potential_flow(slant_cell_mesh, 3.0, props)
    sols = solve_cell_problems(flow)
    op = sols.operator
    for pi in (sols.pi1, sols.pi2):
        pairing = float(sols.xi @ op.apply(pi))
        jump = (fem.integrate(slant_cell_mesh, pi, "I+")
                - fem.integrate(slant_cell_mesh, pi, "I-"))
        assert abs(pairing + jump) <= 1e-10 * max(abs(jump), 1e-3)


def test_solver_residual_contract(slant_cell_mesh, props):
    flow = solve_cell_potential_flow(slant_cell_mesh, 2.0, props)
    op = assemble_Aw(flow)
    xi = op.solve()[2]
    T = fem.periodic_reduction(slant_cell_mesh)
    rhs = T.T @ op.load("xi")
    resid = np.linalg.norm((T.T @ op.apply(xi)) - rhs)
    assert resid <= 1e-9 * np.linalg.norm(rhs)


# -- corrector solves: direct at rest, Lanczos runs with flow ---------------

def direct_correctors(op):
    """The same correctors by a direct factorization of the same operator."""
    direct = fem.ZeroMeanSolver(op.mesh, operator_matrix(op))
    return [checked_solve(direct, op.load(name)) for name in CORRECTORS]


def slant_flow(u3):
    return lambda props, slant: (slant, solve_cell_potential_flow(slant, u3, props))


def near_bound_flow(props, _):
    mesh = generate_unit_cell_mesh(CellGeometry(), 0.2)
    u3 = u3_at_mach_fraction(mesh, props, 0.99)
    return mesh, solve_cell_potential_flow(mesh, u3, props)


def steep_fast_flow(props, _):
    # (60 deg, 5 m/s) is the fastest flow point of the default sweep grid
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=60.0), 0.1)
    return mesh, solve_cell_potential_flow(mesh, 5.0, props)


@pytest.mark.parametrize("case", [slant_flow(-2.0), slant_flow(3.0), slant_flow(0.01),
                                  near_bound_flow, steep_fast_flow],
                         ids=["slant-u3=-2", "slant-u3=3", "30deg-u3=0.01",
                              "uniform-0.99-bound", "60deg-u3=5"])
def test_lanczos_correctors_match_direct_solve(slant_cell_mesh, props, case):
    # the four correctors in one call, so their runs advance in lockstep
    mesh, flow = case(props, slant_cell_mesh)
    op = assemble_Aw(flow)
    for lanczos, direct in zip(op.solve(), direct_correctors(op)):
        assert np.linalg.norm(lanczos - direct) <= 1e-11 * np.linalg.norm(direct)


def test_rest_correctors_bitwise_equal_fresh_direct_solve(slant_cell_mesh, props):
    sols = solve_cell_problems(zero_flow(slant_cell_mesh, props))
    fresh = fem.ZeroMeanSolver(slant_cell_mesh, fem.stiffness_matrix(slant_cell_mesh),
                               bordered=True)
    op = sols.operator
    for field, name in ((sols.pi1, ("pi", 1)), (sols.pi2, ("pi", 2)), (sols.xi, "xi")):
        np.testing.assert_array_equal(field, checked_solve(fresh, op.load(name)))


def test_speeds_on_one_mesh_share_one_factorization(props, splu_calls, monkeypatch):
    # the first speed starts the mesh's Lanczos runs; every later one only
    # extends them, by fewer preconditioner applies than the first took
    applies = []
    real = fem.ZeroMeanSolver.precondition
    monkeypatch.setattr(fem.ZeroMeanSolver, "precondition",
                        lambda self, r: applies.append(r) or real(self, r))
    geom = CellGeometry(hole_slope_deg=30.0)
    mesh = generate_unit_cell_mesh(geom, 0.15)
    counts = []
    for u3 in (1.0, -2.5, 4.0, 2.0, 5.0):
        before = len(applies)
        cell_pipeline(geom, u3, 0.15, props, mesh=mesh)
        counts.append(len(applies) - before)
    assert len(splu_calls) == 1
    assert counts[0] > 0 and all(n < counts[0] for n in counts[1:]), counts


def test_run_of_a_zero_load_starts_at_a_later_speed(props):
    # at u3 = 1e-320 the pi_P load, u3 theta/c^2 a1, underflows to exactly
    # zero and starts no run; a later speed starts it
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.15)
    tiny = solve_cell_problems(solve_cell_potential_flow(mesh, 1e-320, props))
    assert not tiny.pi_P.any() and "pi_P" not in fem.stiffness_solver(mesh)[1]
    sols = solve_cell_problems(solve_cell_potential_flow(mesh, 1.0, props))
    direct = direct_correctors(sols.operator)[3]
    assert np.linalg.norm(sols.pi_P - direct) <= 1e-11 * np.linalg.norm(direct)


def test_tiny_speeds_keep_the_flow_coefficients_scaling(props):
    # a load's scale alone never makes it zero: Twp, linear in u3, and Mw,
    # quadratic in it, keep their scaling down to u3 = 1e-9, where an
    # absolute floor on the load's norm gave 0.0 for both
    geom = CellGeometry(hole_slope_deg=30.0)
    mesh = generate_unit_cell_mesh(geom, 0.15)
    ref = cell_pipeline(geom, 1e-6, 0.15, props, mesh=mesh)[3]
    tiny = cell_pipeline(geom, 1e-9, 0.15, props, mesh=mesh)[3]
    for got, want in ((tiny.Twp, 1e-3 * ref.Twp), (tiny.Mw, 1e-6 * ref.Mw)):
        assert want != 0.0 and abs(got - want) <= 1e-6 * abs(want), (got, want)


def test_later_speed_extends_every_run_in_lockstep(props, monkeypatch):
    # each step of a later speed applies the preconditioner once, to the
    # block of every run that needs that step
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.15)
    solve_cell_problems(solve_cell_potential_flow(mesh, 1.0, props))
    runs = fem.stiffness_solver(mesh)[1]
    before = {key: len(run.alpha) for key, run in runs.items()}
    columns = []
    real = fem.ZeroMeanSolver.precondition
    monkeypatch.setattr(fem.ZeroMeanSolver, "precondition",
                        lambda self, r: columns.append(r.shape[1]) or real(self, r))
    solve_cell_problems(solve_cell_potential_flow(mesh, 4.0, props))
    steps = [len(run.alpha) - before[key] for key, run in runs.items()]
    assert list(runs) == list(before) == list(CORRECTORS)  # one run per corrector
    assert len(columns) == max(steps) > 0 and sum(columns) == sum(steps), (columns, steps)
    assert 1 < max(columns) <= 4


def test_kept_rest_part_is_the_rest_corrector(slant_cell_mesh, props):
    # a tangential flow corrector is its kept rest part plus its run: that
    # part, prolonged, is the corrector of the u3 = 0 operator (direct solve)
    assemble_Aw(solve_cell_potential_flow(slant_cell_mesh, 2.0, props)).solve()
    solver, runs = fem.stiffness_solver(slant_cell_mesh)
    rest = solve_cell_problems(zero_flow(slant_cell_mesh, props))
    for name, field in ((("pi", 1), rest.pi1), (("pi", 2), rest.pi2)):
        kept = solver.reduction @ runs[name].offset
        assert np.linalg.norm(kept - field) <= 1e-12 * np.linalg.norm(field)


def test_rest_factorization_dies_when_solve_returns(slant_cell_mesh, props, monkeypatch):
    # a rest operator factors K for each solve and keeps no factorization
    solvers = []
    real = fem.ZeroMeanSolver.precondition
    monkeypatch.setattr(fem.ZeroMeanSolver, "precondition",
                        lambda self, r: solvers.append(weakref.ref(self)) or real(self, r))
    sols = solve_cell_problems(zero_flow(slant_cell_mesh, props))
    # checked while the solution set, and the operator in it, are alive
    assert sols.operator.flow.u3 == 0.0
    assert solvers and all(solver() is None for solver in solvers)


def dense_galerkin(run, s, scale, m):
    """y of (I - s T_m) y = e1 by a dense solve, and its residual estimate."""
    T = (np.diag(run.alpha[:m]) + np.diag(run.beta[:m - 1], 1)
         + np.diag(run.beta[:m - 1], -1))
    y = np.linalg.solve(np.eye(m) - s * T, np.eye(m)[0])
    return y, scale * abs(s * run.beta[m - 1] * y[-1]) * run.k_norm[m - 1]


@pytest.mark.parametrize("u3", [0.5, 2.5, 5.0])
def test_galerkin_is_the_shortest_converged_dense_solve(props, u3):
    # runs extended by a u3 = 5 point serve each speed at its own length
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.1)
    assemble_Aw(solve_cell_potential_flow(mesh, 5.0, props)).solve()
    runs = fem.stiffness_solver(mesh)[1]
    op = assemble_Aw(solve_cell_potential_flow(mesh, u3, props))
    T = fem.periodic_reduction(mesh)
    for name in CORRECTORS:
        run = runs[name]
        scale = (abs(op._coefficient(name)) * run.start_norm
                 / np.linalg.norm(T.T @ op.load(name)))
        y, estimate = run.galerkin(op._shift, scale, len(run.alpha))
        m = len(y)
        dense, dense_estimate = dense_galerkin(run, op._shift, scale, m)
        assert np.linalg.norm(y - dense) <= 1e-12 * np.linalg.norm(dense)
        assert estimate == pytest.approx(dense_estimate, rel=1e-12)
        shorter = [dense_galerkin(run, op._shift, scale, k)[1] for k in range(1, m)]
        assert dense_estimate <= LANCZOS_TOL < min(shorter)
        assert run.galerkin(op._shift, scale, m - 1) == (None, pytest.approx(shorter[-1],
                                                                          rel=1e-12))


def test_block_precondition_matches_column_applies():
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.1)
    solver, _ = fem.stiffness_solver(mesh)
    r = np.random.default_rng(3).standard_normal((solver.reduced.shape[0], 6))
    r -= r.mean(axis=0)
    block = solver.precondition(r)
    for j in range(r.shape[1]):
        column = solver.precondition(r[:, j])
        assert np.linalg.norm(block[:, j] - column) <= 1e-15 * np.linalg.norm(column)


def test_later_flow_point_builds_no_sparse_matrix(props, sparse_builds):
    # a flow operator applies the mesh's kept K and W and its kept periodic
    # transpose; it builds no matrix of its own
    geom = CellGeometry(hole_slope_deg=30.0)
    mesh = generate_unit_cell_mesh(geom, 0.15)
    cell_pipeline(geom, 1.0, 0.15, props, mesh=mesh)
    assert sparse_builds
    sparse_builds.clear()
    cell_pipeline(geom, 2.5, 0.15, props, mesh=mesh)
    assert sparse_builds == []


def test_speed_coefficients_do_not_depend_on_earlier_speeds(props):
    geom = CellGeometry(hole_slope_deg=30.0)
    speeds = (1.0, 2.5, 4.0)

    def rows(order):
        mesh = generate_unit_cell_mesh(geom, 0.15)
        return {u3: cell_pipeline(geom, u3, 0.15, props, mesh=mesh)[3].as_row(30.0, u3, 0.0)
                for u3 in order}
    ascending, descending = rows(speeds), rows(speeds[::-1])
    alone = {u3: rows([u3])[u3] for u3 in speeds}
    deviation = coef_deviation()
    for u3 in speeds:
        assert deviation(descending[u3], ascending[u3]) <= 1e-10
        assert deviation(alone[u3], ascending[u3]) <= 1e-10


def test_run_buffer_grows_past_sixteen_steps(props):
    # a run's basis buffer starts with 16 rows and doubles when full; no
    # flow point in use reaches that many steps, so the runs of one point
    # are extended by hand
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.2)
    assemble_Aw(solve_cell_potential_flow(mesh, 1.0, props)).solve()
    solver, runs = fem.stiffness_solver(mesh)
    W = unit_cell_flow(mesh).reduced
    heads = {name: run.basis[:len(run.alpha) + 1].copy() for name, run in runs.items()}
    assert all(len(run.basis) == 16 for run in runs.values())
    for _ in range(16):
        assert not LanczosRun.extend(list(runs.values()), solver.precondition,
                                     solver.reduced, W.__matmul__)
    op = assemble_Aw(solve_cell_potential_flow(
        mesh, u3_at_mach_fraction(mesh, props, 0.995), props))
    K, mean = solver.reduced.toarray(), solver._mean
    # K - s W1 bordered by the mean: its zero-mean solutions
    bordered = np.block([[K - op._shift * W.toarray(), mean[:, None]],
                         [mean[None, :], np.zeros((1, 1))]])
    for name, run in runs.items():
        steps = len(run.alpha)
        assert steps > 16 and len(run.basis) == 32
        V = run.basis[:steps + 1]
        assert np.array_equal(V[:len(heads[name])], heads[name])
        assert abs(V @ (solver.reduced @ V.T) - np.eye(steps + 1)).max() <= 1e-10
        # a scale that keeps the residual estimate above LANCZOS_TOL until
        # the solution takes rows of the grown buffer
        y, _ = run.galerkin(op._shift, 1e15, steps)
        assert len(y) > 16
        x = np.linalg.solve(bordered, np.append(K @ V[0], 0.0))[:-1]
        assert np.linalg.norm(y @ V[:len(y)] - x) <= 1e-12 * np.linalg.norm(x)


def kept_basis(mesh, props):
    """Weak reference to the basis of a Lanczos run kept for the mesh."""
    assemble_Aw(solve_cell_potential_flow(mesh, 2.0, props)).solve()
    _, runs = fem.stiffness_solver(mesh)
    return weakref.ref(runs["xi"].basis)


def test_one_kept_solver_per_process(props):
    # the Lanczos runs of the correctors live and die with the kept solver
    a, b = (generate_unit_cell_mesh(CellGeometry(hole_slope_deg=s), 0.2)
            for s in (30.0, 0.0))
    kept = weakref.ref(fem.stiffness_solver(a)[0])
    assert fem.stiffness_solver(a)[0] is kept()       # kept while a is in use
    basis = kept_basis(a, props)
    fem.stiffness_solver(b)
    assert kept() is None and basis() is None         # building b's freed a's
    kept = weakref.ref(fem.stiffness_solver(a)[0])
    basis = kept_basis(a, props)
    assemble_Aw(zero_flow(b, props))                  # a rest operator on b
    assert kept() is None and basis() is None
    kept = weakref.ref(fem.stiffness_solver(b)[0])
    basis = kept_basis(b, props)
    assemble_Aw(zero_flow(b, props))                  # ... and b's own
    assert kept() is None and basis() is None
    kept = weakref.ref(fem.stiffness_solver(b)[0])
    basis = kept_basis(b, props)
    mesh = weakref.ref(b)
    del b
    assert mesh() is None and kept() is None and basis() is None  # they die with their mesh


def test_pcg_residual_excludes_the_constant_part_of_the_load(slant_cell_mesh, props,
                                                             monkeypatch):
    # a load off compatibility by 0.9e-10 relative (the check admits 1e-10),
    # all of it along the constants of the periodic classes, is solved to a
    # residual of 1e-12, as by the direct solve
    flow = solve_cell_potential_flow(slant_cell_mesh, 2.0, props)
    op = assemble_Aw(flow, residual_tol=1e-12)
    T = fem.periodic_reduction(slant_cell_mesh)
    sizes = np.asarray(T.sum(axis=0)).ravel()
    real = op.load
    load = real("xi")
    load += T @ (0.9e-10 * np.linalg.norm(T.T @ load) / len(sizes) / sizes)
    monkeypatch.setattr(op, "load", lambda name: load.copy() if name == "xi" else real(name))
    direct = checked_solve(fem.ZeroMeanSolver(slant_cell_mesh, operator_matrix(op)),
                           load, tol=1e-12)
    assert np.linalg.norm(op.solve()[2] - direct) <= 1e-10 * np.linalg.norm(direct)


def test_pcg_breakdown_raises(props, monkeypatch):
    # a negated preconditioner breaks a run down at its start, and a kept
    # run at the step that would extend it
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.2)
    slow, fast = (assemble_Aw(solve_cell_potential_flow(mesh, u3, props))
                  for u3 in (0.5, 5.0))
    real = fem.ZeroMeanSolver.precondition
    negate = (fem.ZeroMeanSolver, "precondition", lambda self, r: -real(self, r))
    monkeypatch.setattr(*negate)
    # the point's first corrector is the first to fail
    with pytest.raises(SolverError, match=r"^corrector \('pi', 1\) at u3=0\.5: Lanczos run "
                                          r"\('pi', 1\) breaks down at max \|w\| = .* m/s: "
                                          r"step 1, residual estimate 1\.000e\+00$"):
        slow.solve()
    monkeypatch.undo()
    slow.solve()
    steps = 1 + len(fem.stiffness_solver(mesh)[1][("pi", 1)].alpha)
    monkeypatch.setattr(*negate)
    with pytest.raises(SolverError, match=rf"^corrector \('pi', 1\) at u3=5: Lanczos run "
                                          rf"\('pi', 1\) breaks down at max \|w\| = .* m/s: "
                                          rf"step {steps + 1}, residual estimate"):
        fast.solve()


def test_pcg_iteration_cap_raises(slant_cell_mesh, props):
    op = assemble_Aw(solve_cell_potential_flow(slant_cell_mesh, 2.0, props))
    op._max_iter = 2
    with pytest.raises(SolverError,
                       match=r"^corrector \('pi', 1\) at u3=2: Lanczos run \('pi', 1\) "
                             r"does not converge at max \|w\| = .* m/s: step 2, residual"):
        op.solve()


def test_pcg_residual_checked_against_tolerance(slant_cell_mesh, props):
    flow = solve_cell_potential_flow(slant_cell_mesh, 2.0, props)
    op = assemble_Aw(flow, residual_tol=1e-30)
    with pytest.raises(SolverError, match=r"^corrector \('pi', 1\) at u3=2: relative residual "
                                          r"\S+ exceeds 1\.0e-30$"):
        op.solve()


@pytest.mark.parametrize("u3", [0.0, 2.0])
@pytest.mark.parametrize("name", [("pi", 3), "foo"])
def test_unknown_corrector_load_fails_before_any_solve(slant_cell_mesh, props, monkeypatch,
                                                       u3, name):
    op = assemble_Aw(solve_cell_potential_flow(slant_cell_mesh, u3, props))

    def no_solve(*args):
        raise AssertionError("a solve started")
    for method in ("solve", "precondition"):
        monkeypatch.setattr(fem.ZeroMeanSolver, method, no_solve)
    with pytest.raises(ValueError, match=re.escape(f"unknown corrector load {name!r}")):
        op.load(name)


def test_unit_flow_record_from_one_sweep_per_mesh(props, monkeypatch, splu_calls):
    # the guard, the operator, the loads, the Lanczos runs and the flow
    # coefficients of every speed of a grid read the mesh's one u3 = 1 flow
    # record, built once, by one kept stiffness factorization and one sweep
    # of the factors; a speed the guard rejects builds nothing, and the rest
    # speed, last, factors only its own bordered matrix
    sweeps = counted_factor_sweeps(monkeypatch)
    geom = CellGeometry(hole_slope_deg=30.0)
    mesh = generate_unit_cell_mesh(geom, 0.15)
    n = fem.periodic_reduction(mesh).shape[1]
    for u3 in (1.0, -2.5, 4.0, 2.0, 5.0):
        cell_pipeline(geom, u3, 0.15, props, mesh=mesh)
    record = unit_cell_flow(mesh)
    with pytest.raises(MachBoundError):
        cell_pipeline(geom, u3_at_mach_bound(mesh, props), 0.15, props, mesh=mesh)
    assert unit_cell_flow(mesh) is record
    cell_pipeline(geom, 0.0, 0.15, props, mesh=mesh)
    assert sweeps == [mesh]
    assert [call.shape for call in splu_calls] == [(n - 1, n - 1), (n + 1, n + 1)]
    for arr in (record.velocity, record.matrix.data, record.matrix.indices,
                record.matrix.indptr, record.vector, record.reduced.data,
                record.reduced.indices, record.reduced.indptr, record.in_plane):
        assert not arr.flags.writeable


def test_advective_vector_of_scaled_unit_flow(slant_cell_mesh, props):
    mesh = slant_cell_mesh
    flow = solve_cell_potential_flow(mesh, 2.5, props)
    kept = advective_vector(flow)
    assembled = advection_reference.cell_mean_advective_vector(mesh, cell_velocity(flow))
    assert np.abs(kept - assembled).max() <= 1e-14 * np.abs(assembled).max()
    # a . y_b is the integral of the cell-mean w_b: sum_i y_b,i grad phi_i = e_b
    wmean = cell_velocity(flow)[mesh.cells].mean(axis=1)
    integrals = mesh.cell_volumes() @ wmean
    scale = np.abs(integrals).max()
    for b in range(3):
        assert abs(kept @ mesh.nodes[:, b] - integrals[b]) <= 1e-13 * scale
    rest = advective_vector(solve_cell_potential_flow(mesh, 0.0, props))
    assert rest.shape == (mesh.num_nodes,) and not rest.any()


def test_face_flux_jump_kept_per_mesh(slant_cell_mesh):
    jump = face_flux_jump(slant_cell_mesh)
    assert face_flux_jump(slant_cell_mesh) is jump
    assert not jump.flags.writeable
    expected = (fem.boundary_load_vector(slant_cell_mesh, "I+")
                - fem.boundary_load_vector(slant_cell_mesh, "I-"))
    assert jump.tobytes() == expected.tobytes()
