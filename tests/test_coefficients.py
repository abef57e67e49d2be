import csv
import io
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coefficients_reference
from fixtures import (builds_per_mesh, coef_deviation, counted_cell_builds,
                      empty_cell_coefficients, grid_order)
from perfoplate import coefficients
from perfoplate.cell_mesh import generate_unit_cell_mesh
from perfoplate.cell_problems import MachBoundError, solve_cell_problems
from perfoplate.cli import write_csv
from perfoplate.coefficients import (CSV_HEADER, cell_pipeline,
                                     compute_coefficients, sweep_coefficients,
                                     verify_symmetries)
from perfoplate.flow import solve_cell_potential_flow
from perfoplate.geometry import CellGeometry, GeometryError


def test_empty_cell_exact_limits(empty_cell_mesh, props):
    flow = solve_cell_potential_flow(empty_cell_mesh, 0.0, props)
    sols = solve_cell_problems(flow)
    co = compute_coefficients(sols)
    np.testing.assert_allclose(co.A, np.eye(2), atol=1e-10)
    assert co.F == pytest.approx(1.0, abs=1e-10)
    assert abs(co.zeta_star - 1.0) < 1e-10
    np.testing.assert_allclose(co.B, 0.0, atol=1e-10)
    np.testing.assert_allclose(co.Bp, 0.0, atol=1e-10)
    for v in (co.Mw, co.Tw, co.Twp):
        assert v == 0.0
    np.testing.assert_array_equal(co.Wbar, 0.0)
    np.testing.assert_array_equal(co.Wbarp, 0.0)


def test_empty_cell_with_flow_analytic(empty_cell_mesh, props):
    u3 = 4.0
    flow = solve_cell_potential_flow(empty_cell_mesh, u3, props)
    sols = solve_cell_problems(flow)
    co = compute_coefficients(sols)
    m = props.tau * u3 ** 2 / props.c ** 2
    assert co.F == pytest.approx(1.0 / (1.0 - m), rel=1e-12)
    assert co.Tw == pytest.approx(-u3 / (1.0 - m), rel=1e-12)
    assert co.Twp == pytest.approx(props.theta * u3 / (props.c ** 2 * (1.0 - m)),
                                   rel=1e-12)
    assert co.Mw == pytest.approx(
        props.theta ** 2 * u3 ** 2 / (props.c ** 2 * (1.0 - m)), rel=1e-12)
    np.testing.assert_allclose(co.A, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(co.Wbar, 0.0, atol=1e-12)


def test_zero_flow_coefficients_vanish_exactly(slant_cell_mesh, props):
    flow = solve_cell_potential_flow(slant_cell_mesh, 0.0, props)
    sols = solve_cell_problems(flow)
    co = compute_coefficients(sols)
    assert co.Mw == 0.0 and co.Tw == 0.0 and co.Twp == 0.0
    np.testing.assert_array_equal(co.Wbar, 0.0)
    np.testing.assert_array_equal(co.Wbarp, 0.0)
    # duality cross-check at rest
    np.testing.assert_allclose(co.B, co.Bp, atol=1e-8)


def test_symmetries_with_flow(slant_cell_mesh, props):
    flow = solve_cell_potential_flow(slant_cell_mesh, 5.0, props)
    sols = solve_cell_problems(flow)
    co = compute_coefficients(sols)
    report = verify_symmetries(co, tol=1e-8, properties=props,
                               speed_scale=flow.max_speed())
    assert report.passed, str(report)
    assert co.A[0, 0] > 0 and co.A[1, 1] > 0
    assert np.linalg.det(co.A) > 0  # positive definite tangential tensor


def test_default_floors_judge_flow_and_rest_sets(slant_cell_mesh, props):
    # without speed_scale the velocity-like floors come from |Tw|/kappa and
    # |W|, as the benchmark's TL workloads judge each interface table
    flow = compute_coefficients(solve_cell_problems(
        solve_cell_potential_flow(slant_cell_mesh, 5.0, props)))
    rest = compute_coefficients(solve_cell_problems(
        solve_cell_potential_flow(slant_cell_mesh, 0.0, props)))
    for co in (flow, rest):
        report = verify_symmetries(co, 1e-8, props)
        assert report.passed, str(report)
    bad = replace(flow, Wbarp=flow.Wbarp + [1e-6 * np.abs(flow.Wbarp).max(), 0.0])
    report = verify_symmetries(bad, 1e-8, props)
    assert [c.name for c in report.checks if not c.passed] == [
        "W' equals -W", "Qw equals theta*W'"], str(report)


def _all_values(coeffs):
    return np.concatenate([np.ravel(getattr(coeffs, f.name)) for f in fields(coeffs)])


@pytest.mark.parametrize("phi, b1, b2", [(0.0, 1.0, 1.0), (30.0, 1.0, 1.0), (30.0, 1.25, 1.0)],
                         ids=["0.0", "30.0", "30.0-period-1.25x1"])
def test_coefficients_match_volume_reference(phi, b1, b2, props):
    """The flow coefficients read from the kept advective vector agree with
    the per-point volume quadrature: at rest to the last bit, with flow to
    1e-12 relative on perfbench's family floors.  On the 1.25 x 1 cell the
    in-plane measure |Xi| that both divide by is not 1."""
    mesh = generate_unit_cell_mesh(CellGeometry(b1=b1, b2=b2, hole_slope_deg=phi), 0.1)
    deviation = coef_deviation()

    def both(flow):
        sols = solve_cell_problems(flow)
        return (compute_coefficients(sols),
                coefficients_reference.compute_coefficients(sols))
    new, ref = both(solve_cell_potential_flow(mesh, 0.0, props))
    assert _all_values(new).tobytes() == _all_values(ref).tobytes()
    for u3 in (0.5, 2.5, 4.0):
        flow = solve_cell_potential_flow(mesh, u3, props)
        new, ref = both(flow)
        assert deviation(new.as_row(phi, 0.0, 0.0), ref.as_row(phi, 0.0, 0.0)) <= 1e-12
        # Qw (not a CSV column) on the floor of the speed-like family, times theta
        floor = 1e-3 * props.theta * max(abs(ref.Tw), *np.abs(ref.Wbar))
        assert (np.abs(new.Qw - ref.Qw).max()
                <= 1e-12 * max(np.abs(ref.Qw).max(), floor))


@settings(max_examples=30, deadline=None)
@given(b1=st.floats(0.6, 1.4), b2=st.floats(0.6, 1.4),
       gap_exp=st.one_of(st.integers(-13, -1), st.floats(-4.0, -0.3)),
       slope=st.one_of(st.just(0.0), st.floats(-30.0, 30.0)),
       u3=st.sampled_from([0.0, 1.0, 4.0]))
@example(b1=1.0, b2=1.0, gap_exp=-12, slope=0.0, u3=1.0)
@example(b1=1.0, b2=1.0, gap_exp=-8, slope=0.0, u3=1.0)
def test_cell_gives_symmetric_coefficients_or_a_named_refusal(b1, b2, gap_exp, slope, u3,
                                                              props):
    """A hole that fills all but a fraction 10^gap_exp of the room its
    slant leaves in the cell, up to a rim that all but touches the cell
    boundary, gives coefficients whose identities hold to 1e-8, or a
    refusal that names its cause: never a plausible row from a mesh too
    thin to trust, nor a solver failure."""
    shift = math.tan(math.radians(abs(slope))) * CellGeometry().thickness / 2.0
    geom = CellGeometry(b1=b1, b2=b2, hole_slope_deg=slope,
                        hole_diameter=(min(b1, b2) - 2.0 * shift) * (1.0 - 10.0 ** gap_exp))
    try:
        _, flow, _, co = cell_pipeline(geom, u3, 0.1, props)
    except GeometryError as exc:
        assert re.search(r"hole rim|inverted cell", str(exc)), exc
        return
    except MachBoundError as exc:
        assert "coercivity bound" in str(exc)
        return
    report = verify_symmetries(co, coefficients.SYMMETRY_TOL, props,
                               speed_scale=max(flow.max_speed(), abs(u3)))
    assert report.max_defect <= 1e-8, str(report)


def test_fault_injection_flagged(slant_cell_mesh, props):
    flow = solve_cell_potential_flow(slant_cell_mesh, 5.0, props)
    sols = solve_cell_problems(flow)
    co = compute_coefficients(sols)
    corrupted = replace(co, Bp=co.Bp + np.array([0.05, 0.0]))
    report = verify_symmetries(corrupted, tol=1e-8, properties=props,
                               speed_scale=flow.max_speed())
    assert not report.passed
    bad = [c for c in report.checks if not c.passed]
    assert any("B" in c.name for c in bad)


def test_gauge_invariance(slant_cell_mesh, props):
    """Adding constants to the correctors must not change any coefficient."""
    flow = solve_cell_potential_flow(slant_cell_mesh, 3.0, props)
    sols = solve_cell_problems(flow)
    co = compute_coefficients(sols)
    shifted = replace(sols, pi1=sols.pi1 + 0.7, pi2=sols.pi2 - 1.3,
                      xi=sols.xi + 2.0, pi_P=sols.pi_P + 0.1)
    co2 = compute_coefficients(shifted)
    np.testing.assert_allclose(co2.A, co.A, atol=1e-10)
    np.testing.assert_allclose(co2.B, co.B, atol=1e-12)
    np.testing.assert_allclose(co2.Bp, co.Bp, atol=1e-12)
    assert co2.F == pytest.approx(co.F, abs=1e-12)
    assert co2.Tw == pytest.approx(co.Tw, abs=1e-12)
    assert co2.Twp == pytest.approx(co.Twp, abs=1e-14)
    np.testing.assert_allclose(co2.Wbar, co.Wbar, atol=1e-12)
    np.testing.assert_allclose(co2.Qw, co.Qw, atol=1e-10)


def test_mirrored_slants_mirror_coefficients(props):
    """Opposite hole slopes give exactly mirrored coefficient sets."""
    res = 0.1
    _, _, _, cp = cell_pipeline(CellGeometry(hole_slope_deg=30.0), 2.0, res, props)
    _, _, _, cm = cell_pipeline(CellGeometry(hole_slope_deg=-30.0), 2.0, res, props)
    assert cm.A[0, 0] == pytest.approx(cp.A[0, 0], rel=1e-12)
    assert cm.F == pytest.approx(cp.F, rel=1e-12)
    assert cm.Tw == pytest.approx(cp.Tw, rel=1e-12)
    assert cm.B[0] == pytest.approx(-cp.B[0], rel=1e-10)
    assert cm.Wbar[0] == pytest.approx(-cp.Wbar[0], rel=1e-10)
    assert cm.A[0, 1] == pytest.approx(-cp.A[0, 1], abs=1e-12)


def test_hole_size_raises_resistance(props):
    """A narrower hole makes the through-flow resistance larger."""
    big = CellGeometry(hole_diameter=0.4)
    small = CellGeometry(hole_diameter=0.24)
    _, _, _, co_big = cell_pipeline(big, 0.0, 0.1, props)
    _, _, _, co_small = cell_pipeline(small, 0.0, 0.1, props)
    assert co_small.F > co_big.F > 1.0


def test_csv_schema_and_determinism(props, tmp_path):
    geom = CellGeometry()
    rows, failures = sweep_coefficients(geom, [0.0], [0.0, 1.0], 0.12, props)
    assert not failures
    write_csv(tmp_path / "one.csv", CSV_HEADER, rows)
    text = (tmp_path / "one.csv").read_text()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert header == CSV_HEADER.split(",")
    assert len(list(reader)) == 2
    rows2, _ = sweep_coefficients(geom, [0.0], [0.0, 1.0], 0.12, props)
    write_csv(tmp_path / "two.csv", CSV_HEADER, rows2)
    assert (tmp_path / "two.csv").read_text() == text


def test_sweep_single_point_matches_pipeline(props):
    geom = CellGeometry(hole_slope_deg=30.0)
    rows, _ = sweep_coefficients(geom, [30.0], [2.0], 0.12, props)
    _, flw, _, co = cell_pipeline(geom, 2.0, 0.12, props)
    report = verify_symmetries(co, 1e-8, props,
                               speed_scale=max(flw.max_speed(), 2.0))
    expected = co.as_row(30.0, 2.0, report.max_defect)
    np.testing.assert_allclose(rows[0], expected, rtol=1e-12)


def test_sweep_worker_count_invariance(props):
    geom = CellGeometry()
    rows1, _ = sweep_coefficients(geom, [0.0, 30.0], [0.0, 2.0], 0.12, props,
                                  jobs=1)
    rows2, _ = sweep_coefficients(geom, [0.0, 30.0], [0.0, 2.0], 0.12, props,
                                  jobs=2)
    assert np.array(rows1).tobytes() == np.array(rows2).tobytes()


def test_sweep_records_failures_and_continues(props):
    # a through-speed far beyond the coercivity bound must be recorded,
    # not fatal, and the other points must still be produced
    geom = CellGeometry(hole_slope_deg=60.0)
    rows, failures = sweep_coefficients(geom, [60.0], [0.0, 50.0], 0.12, props)
    assert len(rows) == 1 and rows[0][1] == 0.0
    assert len(failures) == 1 and failures[0][1] == 50.0


@pytest.mark.parametrize("phis, speeds, resolution", [
    ([0.0, 30.0], [0.0, 1.0, 2.5], 0.15),
    ([0.0, 30.0], [2.5, 1.0, 0.0], 0.15),
    ([60.0], np.linspace(0.0, 5.5, 12).tolist(), 0.08),  # 5.5 m/s reaches the bound
], ids=["ascending", "descending", "60-deg-default-grid"])
def test_sweep_solves_each_rest_speed_last(phis, speeds, resolution, props, monkeypatch,
                                           tmp_path):
    # each angle's mesh builds its P1 table once and factors its kept solver
    # once, before the bordered rest factorization; the CSV and the failures
    # are those of solving the points in grid order
    builds = counted_cell_builds(monkeypatch)
    rows, failures = sweep_coefficients(CellGeometry(), phis, speeds, resolution, props)
    assert builds_per_mesh(builds) == [["table", "kept", "bordered"]] * len(phis)
    monkeypatch.setattr(coefficients, "rest_speed_last", grid_order)
    ref_rows, ref_failures = sweep_coefficients(CellGeometry(), phis, speeds, resolution,
                                                props)
    write_csv(tmp_path / "rest_last.csv", CSV_HEADER, rows)
    write_csv(tmp_path / "grid_order.csv", CSV_HEADER, ref_rows)
    assert (tmp_path / "rest_last.csv").read_bytes() == (tmp_path / "grid_order.csv").read_bytes()
    assert failures == ref_failures
    assert [(phi, u3) for phi, u3, _ in failures] == (
        [(60.0, 5.5)] if phis == [60.0] else [])


def test_sweep_propagates_programming_errors(props, monkeypatch):
    # only solver and guard failures are sweep rows; a bug must surface
    def broken(*args, **kwargs):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(coefficients, "cell_pipeline", broken)
    with pytest.raises(IndexError):
        sweep_coefficients(CellGeometry(), [0.0], [1.0], 0.15, props)


def test_empty_cell_helper_matches_computed(empty_cell_mesh, props):
    flow = solve_cell_potential_flow(empty_cell_mesh, 0.0, props)
    sols = solve_cell_problems(flow)
    co = compute_coefficients(sols)
    helper = empty_cell_coefficients(kappa=co.kappa)
    np.testing.assert_allclose(co.A, helper.A, atol=1e-10)
    assert co.F == pytest.approx(helper.F, abs=1e-10)


# as_row columns that change sign between slopes +phi and -phi (criterion 5b)
MIRROR_ODD = {"A12", "B1", "Bp1", "W1"}
MIRROR_TIGHT = {"A11", "A22", "F", "zeta_star"}  # 1e-10 relative
NOT_COEFFICIENTS = {"phi_deg", "U3", "defect_M3"}


def _mirror_point(phi, u3, props):
    """The coefficient row at slope phi, or None when the speed guard rejects it."""
    try:
        coeffs = cell_pipeline(CellGeometry(hole_slope_deg=phi), u3, 0.2, props)[3]
    except MachBoundError:
        return None
    return dict(zip(CSV_HEADER.split(","), coeffs.as_row(phi, u3, 0.0)))


@settings(max_examples=15, deadline=None)
@given(phi=st.floats(0.0, 60.0), u3=st.floats(0.0, 6.0))
def test_mirror_identity_of_coefficient_sets(phi, u3, props):
    """Slopes +phi and -phi are mirror images in x1: the guard decides alike,
    and the coefficients agree with the x1-odd ones negated."""
    plus, minus = _mirror_point(phi, u3, props), _mirror_point(-phi, u3, props)
    assert (plus is None) == (minus is None)
    if plus is None:
        return
    for name in set(plus) - NOT_COEFFICIENTS:
        p, m = plus[name], minus[name]
        if name in MIRROR_TIGHT:
            assert abs(m - p) <= 1e-10 * abs(p), name
        else:
            sign = -1.0 if name in MIRROR_ODD else 1.0
            assert abs(m - sign * p) <= 1e-8 * max(abs(p), 1e-3), name
