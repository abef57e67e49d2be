from dataclasses import fields

import numpy as np
import pytest

from fixtures import builds_per_mesh, counted_cell_builds, grid_order
from perfoplate import pipeline
from perfoplate.cell_problems import MachBoundError
from perfoplate.fem import FluidProperties, SolverError
from perfoplate.geometry import CellGeometry, WaveguideGeometry
from perfoplate.mesh import Mesh
from perfoplate.pipeline import (build_interface_coefficients, macro_flow_for_mode,
                                 quantize_speeds, setup_waveguide_run, tl_curve)
from perfoplate.waveguide import MacroAssemblyError


def test_quantize_speeds():
    vals = np.array([0.12, 0.13, 0.24, 0.26])
    np.testing.assert_allclose(quantize_speeds(vals, 0.25), [0.0, 0.25, 0.25, 0.25])
    np.testing.assert_allclose(quantize_speeds(vals, 0.0), vals)


@pytest.mark.parametrize("quantum", [-0.25, float("nan"), float("inf")])
def test_quantize_speeds_rejects_bad_quantum(quantum):
    with pytest.raises(ValueError, match="speed quantum must be finite and >= 0"):
        quantize_speeds([1.02, 1.07], quantum)


def test_dedup_bounds_cell_solves(props):
    geom = CellGeometry()
    u3 = np.array([1.02, 1.07, 1.13, 1.21, 1.18])
    table = build_interface_coefficients(geom, u3, resolution=0.12,
                                         properties=props, quantum=0.25)
    assert len(table.by_speed) == 2  # 1.0 and 1.25
    assert len(table.coefficients) == len(u3)
    for q, co in zip(quantize_speeds(u3, 0.25), table.coefficients):
        assert co is table.by_speed[q]


def coefficient_bytes(coeffs):
    return b"".join(np.asarray(getattr(coeffs, f.name), dtype=float).tobytes()
                    for f in fields(coeffs))


@pytest.mark.parametrize("element_u3", [[0.0, 0.5, 0.5, 1.0, 1.5], [1.5, 1.0, 0.5, 0.0, 0.0]],
                         ids=["ascending", "descending"])
def test_interface_coefficients_solve_the_rest_speed_last(element_u3, props, monkeypatch):
    # the mesh builds its P1 table once and factors its kept solver once,
    # before the bordered rest factorization; by_speed is in ascending speed
    # order, with the values of solving the speeds in that order
    geom = CellGeometry(hole_slope_deg=30.0)
    builds = counted_cell_builds(monkeypatch)
    table = build_interface_coefficients(geom, element_u3, 0.15, props)
    assert builds_per_mesh(builds) == [["table", "kept", "bordered"]]
    monkeypatch.setattr(pipeline, "rest_speed_last", grid_order)
    ref = build_interface_coefficients(geom, element_u3, 0.15, props)
    assert list(table.by_speed) == list(ref.by_speed) == [0.0, 0.5, 1.0, 1.5]
    assert ([coefficient_bytes(co) for co in table.by_speed.values()]
            == [coefficient_bytes(co) for co in ref.by_speed.values()])
    assert table.coefficients == [table.by_speed[u3] for u3 in element_u3]


def test_interface_coefficients_raise_the_mach_bound_of_the_grid(props, monkeypatch):
    # on the 60 degree cell at resolution 0.08, 5.5 m/s reaches the bound:
    # it stops the flow speeds before the rest speed, with the error that
    # solving the speeds in ascending order raises
    geom = CellGeometry(hole_slope_deg=60.0)
    speeds = np.linspace(0.0, 5.5, 12)
    builds = counted_cell_builds(monkeypatch)
    with pytest.raises(MachBoundError) as rest_last:
        build_interface_coefficients(geom, speeds, 0.08, props, quantum=0.0)
    assert builds_per_mesh(builds) == [["table", "kept"]]
    monkeypatch.setattr(pipeline, "rest_speed_last", grid_order)
    with pytest.raises(MachBoundError) as ascending:
        build_interface_coefficients(geom, speeds, 0.08, props, quantum=0.0)
    assert str(rest_last.value) == str(ascending.value)


def test_zero_flow_run_uses_single_cell_solve(duct_mesh, props):
    run = setup_waveguide_run(WaveguideGeometry(), CellGeometry(), props,
                              u_in=0.0, duct_mesh=duct_mesh,
                              cell_resolution=0.12)
    assert len(run.table.by_speed) == 1
    assert run.problem.flow is None
    rows, failures = tl_curve(run, [400.0])
    assert not failures and len(rows) == 1


@pytest.mark.parametrize("u_in", [0.0, 5.0])
def test_unknown_flow_mode_rejected(duct_mesh, props, u_in):
    # at rest too: the mode is checked before u_in = 0 skips the mean flow
    with pytest.raises(ValueError, match="^unknown flow mode 'bogus'$"):
        setup_waveguide_run(WaveguideGeometry(), CellGeometry(), props,
                            u_in=u_in, flow_mode="bogus", duct_mesh=duct_mesh)


@pytest.mark.parametrize("u_in", [0.0, 10.0])
def test_unsplit_duct_rejected_before_the_mean_flow(duct_mesh, props, u_in):
    # without its iface pairing the duct's two halves are not joined: the
    # pairing is checked before the mean flow, which would fail its residual
    unsplit = Mesh(2, duct_mesh.nodes, duct_mesh.cells, duct_mesh.facet_groups)
    with pytest.raises(MacroAssemblyError, match="^mesh has no 'iface' pairing: "
                                                 "the interface must be split$"):
        setup_waveguide_run(WaveguideGeometry(), CellGeometry(), props, u_in=u_in,
                            duct_mesh=unsplit, cell_resolution=0.12)


def test_potential_flow_run_deterministic(duct_mesh, props):
    kw = dict(u_in=10.0, duct_mesh=duct_mesh, cell_resolution=0.12)
    r1 = setup_waveguide_run(WaveguideGeometry(), CellGeometry(), props, **kw)
    r2 = setup_waveguide_run(WaveguideGeometry(), CellGeometry(), props, **kw)
    rows1, _ = tl_curve(r1, [300.0, 600.0])
    rows2, _ = tl_curve(r2, [300.0, 600.0])
    assert rows1 == rows2


def test_macro_flow_honours_residual_tol(duct_mesh, props):
    assert macro_flow_for_mode(duct_mesh, "potential", 10.0, props) is not None
    with pytest.raises(SolverError, match=r"^macro potential flow: relative residual "
                                          r"\S+ exceeds 1\.0e-30$"):
        macro_flow_for_mode(duct_mesh, "potential", 10.0, props, residual_tol=1e-30)
