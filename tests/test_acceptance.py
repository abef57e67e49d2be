"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Three criteria assert the model's documented limits rather than an
identity the model does not promise (see "Known model limits" in the
README):

* criterion 1 checks the symmetry identities on every (slope, speed)
  instance the coercivity guard admits.  An instance may be missing only
  if its operator raised ``MachBoundError`` *and* mass conservation puts
  it outside the model at every resolution: the whole through-flux
  crosses the hole section across the tilted axis, so max |w| >=
  u3 |Xi| / (pi r^2 cos phi), which at (60 deg, 5.5 m/s) is 243 m/s,
  above c/sqrt(tau) = 198 m/s.  Any other rejection fails the test;
* criterion 4 holds the coefficient curves to a 5% adjacent-sample budget.
  The through-flow resistance steepens like 1/(1 - tau |w|^2/c^2) (exact
  for the empty cell), so steps of the 0.5 m/s grid may exceed the budget
  on a smooth curve; such a step is bisected on the same cell mesh, down
  to 0.0625 m/s, and every sub-step must meet the budget.  A jump fails
  at every depth.  Sweep failures are tolerated only where criterion 1
  tolerates them;
* criterion 5 requires the TL curves to separate under flow, and checks
  the TL-level consequence of the mirror identity (criterion 5b): the
  -30 degree plate in the duct equals the +30 degree plate in the duct
  mirrored in x1, at rest and under flow.  The two slopes in the same duct
  differ even at rest, because B1 is nonzero for a slanted hole and no
  symmetry of the duct that keeps its ports maps one slope onto the other;
  that gap is printed, not asserted.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fixtures import u3_at_mach_bound, uniform_problem
from static_reference import solve_static_reference, static_transmission_loss
from test_fem import convergence_order, extended_helmholtz_error

from perfoplate import fem
from perfoplate.cell_mesh import generate_unit_cell_mesh
from perfoplate.cell_problems import MachBoundError, assemble_Aw
from perfoplate.coefficients import (cell_pipeline, sweep_coefficients,
                                     verify_symmetries)
from perfoplate.duct_mesh import generate_waveguide_mesh
from perfoplate.fem import FluidProperties
from perfoplate.flow import solve_cell_potential_flow, solve_macro_potential_flow
from perfoplate.geometry import CellGeometry, WaveguideGeometry
from perfoplate.mesh import Mesh
from perfoplate.pipeline import quantize_speeds, setup_waveguide_run, tl_curve
from perfoplate.waveguide import solve_frequency, transmission_loss

CELL_RESOLUTION = 0.08      # default unit-cell resolution
DUCT_RESOLUTION = 0.0125    # default waveguide resolution
PHIS = (0.0, 30.0, 60.0)
SPEEDS = (0.0, 2.5, 5.5)


def mass_conservation_bound(geom, u3):
    """Lower bound on the continuous max |w| in the hole channel (m/s).

    Relies on ``hole_diameter`` being the hole's section in the plate
    plane, as in ``CellGeometry`` and ``cell_mesh``: the slanted hole is a
    sheared cylinder of radius r, so its section across the tilted axis is
    an ellipse of area pi r^2 cos(phi).  When that section lies inside the
    plate band, the whole through-flux u3 |Xi| crosses it, and its mean
    normal speed bounds max |w| from below at every resolution.
    """
    r = geom.hole_diameter / 2.0
    phi = math.radians(geom.hole_slope_deg)
    assert r * math.cos(phi) * abs(math.sin(phi)) <= geom.thickness / 2.0, \
        "hole section across the axis leaves the plate band"
    return abs(u3) * geom.b1 * geom.b2 / (math.pi * r ** 2 * math.cos(phi))


def outside_model(geom, u3, error, props):
    """True for a recorded cell failure that is the coercivity guard
    rejecting a point whose mass-conservation bound reaches c/sqrt(tau)."""
    return ("reaches the coercivity bound" in error
            and mass_conservation_bound(geom, u3) >= props.mach_speed_limit)


def report(criterion, name, passed, detail=""):
    line = f"ACCEPTANCE {criterion} [{name}]: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return passed


@pytest.fixture(scope="module")
def props():
    return FluidProperties()


@pytest.fixture(scope="module")
def symmetry_instances(props):
    """The 3x3 (slope, speed) grid of criterion 1, solved once."""
    out = {}
    for phi in PHIS:
        geom = CellGeometry(hole_slope_deg=phi)
        mesh = generate_unit_cell_mesh(geom, CELL_RESOLUTION)
        for u3 in SPEEDS:
            try:
                _, flw, _, coeffs = cell_pipeline(geom, u3, CELL_RESOLUTION,
                                                  props, mesh=mesh)
                out[(phi, u3)] = (coeffs, max(flw.max_speed(), abs(u3)))
            except MachBoundError as exc:
                out[(phi, u3)] = (None, str(exc))
    return out


def test_criterion_1_symmetry_suite(symmetry_instances, props):
    t0 = time.time()
    failures, rejected = [], []
    limit = props.mach_speed_limit
    for (phi, u3), (coeffs, info) in sorted(symmetry_instances.items()):
        if coeffs is None:
            geom = CellGeometry(hole_slope_deg=phi)
            bound = mass_conservation_bound(geom, u3)
            if outside_model(geom, u3, info, props):
                rejected.append(f"bound {bound:.0f} >= {limit:.0f} m/s")
            else:
                failures.append(f"(phi={phi}, u3={u3}) rejected although its "
                                f"mass-conservation bound {bound:.0f} m/s < "
                                f"{limit:.0f} m/s: {info}")
            continue
        rep = verify_symmetries(coeffs, tol=1e-8, properties=props,
                                speed_scale=info)
        named = {c.name: c for c in rep.checks}
        for key in ("A symmetric", "B equals B'", "T' equals -(theta/c^2) T",
                    "W' equals -W"):
            if not named[key].passed:
                failures.append(f"(phi={phi}, u3={u3}) {key}: "
                                f"defect {named[key].defect:.2e}")
    checked = sum(coeffs is not None
                  for coeffs, _ in symmetry_instances.values())
    ok = report(1, "symmetry suite 3x3", not failures,
                f"{checked} checked, {len(rejected)} rejected "
                f"({'; '.join(rejected) or 'none'}), {time.time() - t0:.0f}s")
    assert ok, "; ".join(failures)


def test_criterion_2_empty_cell_limit(props):
    failures = []
    for kappa in (1.0, 1.4):
        geom = CellGeometry(plate_thickness=0.0, kappa=kappa)
        _, _, _, co = cell_pipeline(geom, 0.0, 0.15, props)
        if np.abs(co.A - kappa * np.eye(2)).max() > 1e-10:
            failures.append(f"kappa={kappa}: A")
        if abs(co.F - kappa) > 1e-10:
            failures.append(f"kappa={kappa}: F")
        if np.abs(co.B).max() > 1e-10 or np.abs(co.Bp).max() > 1e-10:
            failures.append(f"kappa={kappa}: B")
        if abs(co.zeta_star - 1.0) > 1e-10:
            failures.append(f"kappa={kappa}: zeta*")
    assert report(2, "analytic empty-cell limit", not failures,
                  "A=kappa*I, F=kappa, B=0, zeta*=1 at 1e-10")
    assert not failures


@pytest.fixture(scope="module")
def duct(props):
    return generate_waveguide_mesh(WaveguideGeometry(), DUCT_RESOLUTION)


@pytest.fixture(scope="module")
def static_cell(props):
    """Coefficients of the resting slanted cell used by criteria 3 and 4."""
    return {phi: cell_pipeline(CellGeometry(hole_slope_deg=phi), 0.0,
                               CELL_RESOLUTION, props)[3]
            for phi in PHIS}


def test_criterion_3_zero_flow_reduction(duct, static_cell, props):
    t0 = time.time()
    co = static_cell[30.0]
    eps0 = CellGeometry().eps0
    prob = uniform_problem(duct, props, co, eps0=eps0)
    ref = dict(A11=co.A[0, 0], B1=co.B[0], Bp1=co.Bp[0], F=co.F,
               mass=co.mass_factor)
    n_elem = prob.index.n_elements
    freqs = np.linspace(100.0, 1000.0, 30)
    worst = 0.0
    for f in freqs:
        omega = 2 * math.pi * f
        tl, _, _ = transmission_loss(solve_frequency(prob, omega), prob)
        P, _, _ = solve_static_reference(duct, omega, props.c, prob.amplitude,
                                         [ref] * n_elem, eps0)
        tl_ref, _, _ = static_transmission_loss(duct, P)
        worst = max(worst, abs(tl - tl_ref))
    assert report(3, "zero-flow reduction vs static reference", worst <= 1e-8,
                  f"max |dTL| = {worst:.2e} dB over 30 freqs, "
                  f"{time.time() - t0:.0f}s")


JUMP_BUDGET = 0.05      # largest relative step between adjacent samples
MAX_BISECTIONS = 3      # 0.5 m/s grid steps refined down to 0.0625 m/s
SWEEP_COLUMNS = {"A11": 2, "B1": 5, "F": 9}


def _steep_or_jump(sample, u_lo, u_hi, scale, depth=0):
    """Largest step of the curve between u_lo and u_hi at the first depth
    where every sub-step meets the budget, or at the last allowed depth.

    ``sample(u3)`` returns the column values at one speed.  A steep but
    continuous curve meets the budget after a few bisections; a jump keeps
    its size at every depth.  Returns (worst step, depth reached).
    """
    step = np.abs(sample(u_hi) - sample(u_lo)) / scale
    if step.max() <= JUMP_BUDGET or depth == MAX_BISECTIONS:
        return step, depth
    mid = 0.5 * (u_lo + u_hi)
    lo, d_lo = _steep_or_jump(sample, u_lo, mid, scale, depth + 1)
    hi, d_hi = _steep_or_jump(sample, mid, u_hi, scale, depth + 1)
    return np.maximum(lo, hi), max(d_lo, d_hi)


def test_criterion_4_sweep_shape(static_cell, props):
    t0 = time.time()
    u3_grid = [0.5 * k for k in range(12)]  # 0 .. 5.5
    rows, failures = sweep_coefficients(CellGeometry(), PHIS, u3_grid,
                                        CELL_RESOLUTION, props)
    problems = []
    # failures are tolerable only where the model excludes the point
    for phi, u3, err in failures:
        if not outside_model(CellGeometry(hole_slope_deg=phi), u3, err, props):
            problems.append(f"unexpected failure at ({phi}, {u3}): {err}")
    names = list(SWEEP_COLUMNS)
    cols = list(SWEEP_COLUMNS.values())
    deepest, extra_solves = 0, 0
    for phi in PHIS:
        series = [r for r in rows if r[0] == phi]
        known = {r[1]: np.array([r[c] for c in cols]) for r in series}
        geom = CellGeometry(hole_slope_deg=phi)
        mesh = None

        def sample(u3):
            nonlocal mesh, extra_solves
            if u3 not in known:
                if mesh is None:
                    mesh = generate_unit_cell_mesh(geom, CELL_RESOLUTION)
                row = cell_pipeline(geom, u3, CELL_RESOLUTION, props,
                                    mesh=mesh)[3].as_row(phi, u3, 0.0)
                known[u3] = np.array([row[c] for c in cols])
                extra_solves += 1
            return known[u3]

        vals = np.array([known[r[1]] for r in series])
        scale = np.maximum(np.abs(vals).max(axis=0), 1e-12)
        worst = np.zeros(len(cols))
        for a, b in zip(series[:-1], series[1:]):
            step, depth = _steep_or_jump(sample, a[1], b[1], scale)
            worst = np.maximum(worst, step)
            deepest = max(deepest, depth)
        for name, w in zip(names, worst):
            if w > JUMP_BUDGET:
                problems.append(f"phi={phi} {name}: jump {w:.3f} after "
                                f"{MAX_BISECTIONS} bisections")
        static = static_cell[phi]
        first = series[0]
        if abs(first[SWEEP_COLUMNS["A11"]] - static.A[0, 0]) > 1e-10 or \
           abs(first[SWEEP_COLUMNS["F"]] - static.F) > 1e-10 or \
           abs(first[SWEEP_COLUMNS["B1"]] - static.B[0]) > 1e-10:
            problems.append(f"phi={phi}: U3=0 row does not reduce to statics")
    n_expected = len(PHIS) * len(u3_grid) - len(failures)
    if len(rows) != n_expected:
        problems.append(f"row count {len(rows)} != {n_expected}")
    assert report(4, "coefficient sweep shape", not problems,
                  f"{len(rows)} rows, {len(failures)} recorded guard "
                  f"failure(s), {deepest} bisection level(s), "
                  f"{extra_solves} extra cell solve(s), "
                  f"{time.time() - t0:.0f}s"), "; ".join(problems)


MIRROR_CHECK_SPEED = 25.0   # inlet speed of the mirrored-duct profile check
SPEED_QUANTUM = 0.25        # setup_waveguide_run's default quantum


@pytest.fixture(scope="module")
def mirrored_duct(duct, props):
    """The criterion-5 duct mirrored in x1 (x1 -> l_m - x1).

    The inlet moves to the bottom right and the outlet to the top left;
    triangle orientation is restored, and the facet groups and the
    ``iface`` pairing keep their node ids.  The mean-flow profile on the
    interface must come out reversed and quantize to the same speeds, so
    both ducts solve the same cell problems.
    """
    nodes = duct.nodes.copy()
    nodes[:, 0] = WaveguideGeometry().l_m - nodes[:, 0]
    mirrored = Mesh(2, nodes, duct.cells[:, [0, 2, 1]], duct.facet_groups,
                    duct.periodic_pairs).validate()
    flow = solve_macro_potential_flow(duct, MIRROR_CHECK_SPEED, props)
    flow_m = solve_macro_potential_flow(mirrored, MIRROR_CHECK_SPEED, props)
    u3 = flow.interface_u3
    defect = np.abs(flow_m.interface_u3 - u3[::-1]).max() / np.abs(u3).max()
    assert defect <= 1e-12, f"mirrored profile defect {defect:.2e}"
    assert np.array_equal(
        quantize_speeds(flow_m.element_u3(), SPEED_QUANTUM),
        quantize_speeds(flow.element_u3(), SPEED_QUANTUM)[::-1])
    return mirrored


@pytest.fixture(scope="module")
def tl_curves(duct, mirrored_duct, props):
    """TL curves for criterion 5, keyed by (duct, phi, U_in)."""
    freqs = np.linspace(100.0, 1000.0, 30)
    curves = {}
    for name, mesh, phi, u_in in (
            ("duct", duct, 30.0, 5.0), ("duct", duct, 30.0, 15.0),
            ("duct", duct, 30.0, 25.0), ("duct", duct, -30.0, 25.0),
            ("duct", duct, 30.0, 0.0), ("duct", duct, -30.0, 0.0),
            ("mirror", mirrored_duct, 30.0, 0.0),
            ("mirror", mirrored_duct, 30.0, 25.0)):
        run = setup_waveguide_run(
            WaveguideGeometry(), CellGeometry(hole_slope_deg=phi), props,
            u_in=u_in, duct_mesh=mesh, cell_resolution=CELL_RESOLUTION,
            quantum=SPEED_QUANTUM)
        rows, fails = tl_curve(run, freqs)
        assert not fails, fails
        curves[(name, phi, u_in)] = np.array([r[2] for r in rows])
    return curves


def test_criterion_5_flow_dependence(tl_curves, props):
    problems = []
    gaps = {}
    for a, b in ((5.0, 15.0), (5.0, 25.0), (15.0, 25.0)):
        gap = np.abs(tl_curves[("duct", 30.0, a)]
                     - tl_curves[("duct", 30.0, b)]).max()
        gaps[(a, b)] = gap
        if gap < 0.1:
            problems.append(f"curves {a} vs {b} m/s not distinct ({gap:.3f} dB)")
    split = np.abs(tl_curves[("duct", 30.0, 25.0)]
                   - tl_curves[("duct", -30.0, 25.0)]).max()
    if split <= 0.1:
        problems.append(f"+-30 at 25 m/s do not differ ({split:.2e} dB)")
    # TL(duct, -30) = TL(mirrored duct, +30): the mirror identity of 5b
    mirror = {}
    for u_in in (0.0, 25.0):
        mirror[u_in] = np.abs(tl_curves[("duct", -30.0, u_in)]
                              - tl_curves[("mirror", 30.0, u_in)]).max()
        if mirror[u_in] > 1e-6:
            problems.append(f"-30 in the duct and +30 in the mirrored duct "
                            f"differ by {mirror[u_in]:.2e} dB > 1e-6 at "
                            f"{u_in} m/s")
    rest = np.abs(tl_curves[("duct", 30.0, 0.0)]
                  - tl_curves[("duct", -30.0, 0.0)]).max()
    detail = (f"gaps {min(gaps.values()):.2f}..{max(gaps.values()):.2f} dB, "
              f"split(25)={split:.2f} dB, mirror defect "
              f"{mirror[0.0]:.1e}/{mirror[25.0]:.1e} dB at 0/25 m/s, "
              f"same-duct rest gap={rest:.2f} dB")
    assert report(5, "flow dependence of TL", not problems, detail), \
        "; ".join(problems)


def test_criterion_5_coefficient_mirror_identity(props):
    """The exact content of the mirror argument: opposite slopes give
    mirrored coefficient sets at rest (and under pure through-flow)."""
    ok = True
    for u3 in (0.0, 5.0):
        _, _, _, cp = cell_pipeline(CellGeometry(hole_slope_deg=30.0), u3,
                                    CELL_RESOLUTION, props)
        _, _, _, cm = cell_pipeline(CellGeometry(hole_slope_deg=-30.0), u3,
                                    CELL_RESOLUTION, props)
        ok &= abs(cm.A[0, 0] - cp.A[0, 0]) <= 1e-10 * abs(cp.A[0, 0])
        ok &= abs(cm.F - cp.F) <= 1e-10 * abs(cp.F)
        ok &= abs(cm.B[0] + cp.B[0]) <= 1e-8 * max(abs(cp.B[0]), 1e-3)
        ok &= abs(cm.Tw - cp.Tw) <= 1e-8 * max(abs(cp.Tw), 1e-3)
        ok &= abs(cm.Wbar[0] + cp.Wbar[0]) <= 1e-8 * max(abs(cp.Wbar[0]), 1e-3)
    assert report("5b", "mirror identity of coefficient sets", ok)


def test_criterion_6_fem_order(props):
    t0 = time.time()
    omega = 2 * math.pi * 150.0
    w_vec = np.array([60.0, 35.0])
    errors = [extended_helmholtz_error(n, props, omega, w_vec)
              for n in (16, 32, 64)]
    order = convergence_order(errors)
    assert report(6, "manufactured-solution order", order >= 1.9,
                  f"order {order:.3f}, {time.time() - t0:.0f}s")


def test_criterion_7_guards(empty_cell_mesh, straight_cell_mesh, props):
    # the guard is checked on the empty cell, whose flow is uniform to
    # rounding, so a u3 puts max |w| on the bound exactly
    u3 = u3_at_mach_bound(empty_cell_mesh, props)
    tripped_at = False
    try:
        assemble_Aw(solve_cell_potential_flow(empty_cell_mesh, u3, props))
    except MachBoundError:
        tripped_at = True
    passed_below = True
    try:
        assemble_Aw(solve_cell_potential_flow(empty_cell_mesh, np.nextafter(u3, 0), props))
    except MachBoundError:
        passed_below = False

    # pure-Neumann compatibility defects of all corrector loads
    flow = solve_cell_potential_flow(straight_cell_mesh, 3.0, props)
    op = assemble_Aw(flow)
    worst = 0.0
    for name in (("pi", 1), ("pi", 2), "xi", "pi_P"):
        r = fem.periodic_reduction(op.mesh).T @ op.load(name)
        worst = max(worst, abs(r.sum()) / max(np.linalg.norm(r), 1e-300))
    ok = tripped_at and passed_below and worst <= 1e-10
    assert report(7, "guard checks", ok,
                  f"trip at bound: {tripped_at}, pass below: {passed_below}, "
                  f"max compat defect {worst:.2e}")


def test_criterion_8_advective_coupling_identity(symmetry_instances, props):
    # checked on every instance the guard admits; criterion 1 accounts for
    # the rejected ones
    failures = []
    computed = 0
    for (phi, u3), (coeffs, info) in sorted(symmetry_instances.items()):
        if coeffs is None:
            continue
        computed += 1
        num = np.abs(coeffs.Qw - props.theta * coeffs.Wbarp).max()
        den = max(np.abs(coeffs.Qw).max(),
                  props.theta * np.abs(coeffs.Wbarp).max(),
                  1e-2 * props.theta * info)
        if num > 0 and num / max(den, 1e-300) > 1e-8:
            failures.append(f"(phi={phi}, u3={u3}): defect {num / den:.2e}")
    ok = report(8, "collected advective coupling identity", not failures,
                f"{computed - len(failures)}/{computed} computable instances")
    assert ok, "; ".join(failures)
