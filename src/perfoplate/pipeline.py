"""End-to-end orchestration: mean flow, per-element cell problems, TL sweep.

The interface coefficients vary along the plate because the through-flow
profile does.  Cell problems are solved once per distinct quantized
through-speed and shared by all interface elements that round to it, which
bounds the number of 3D solves regardless of the macro resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cell_mesh import generate_unit_cell_mesh
from .coefficients import cell_pipeline, rest_speed_last
from .flow import solve_macro_potential_flow
from .geometry import CellGeometry, WaveguideGeometry
from .duct_mesh import generate_waveguide_mesh
from .waveguide import MacroProblem, frequency_sweep, interface_pairs


# the mean-flow modes of a run (``macro_flow_for_mode``)
FLOW_MODES = ("none", "potential")


@dataclass
class InterfaceCoefficientTable:
    """Per-element coefficients plus the distinct cell solves behind them."""

    element_u3: np.ndarray
    coefficients: list
    by_speed: dict = field(default_factory=dict)


def quantize_speeds(values, quantum):
    """Round speeds to multiples of the quantum (0 keeps exact values)."""
    if not 0.0 <= quantum < math.inf:  # also rejects NaN
        raise ValueError(f"speed quantum must be finite and >= 0, got {quantum!r}")
    values = np.asarray(values, dtype=float)
    if quantum == 0:
        return values.copy()
    return np.round(values / quantum) * quantum


def build_interface_coefficients(cell_geom: CellGeometry, element_u3,
                                 resolution, properties, quantum=0.25,
                                 residual_tol=1e-10) -> InterfaceCoefficientTable:
    """Solve cell problems for each distinct quantized through-speed, all
    on one cell mesh, the rest speed last (``rest_speed_last``); ``by_speed``
    is in ascending speed order."""
    element_u3 = np.asarray(element_u3, dtype=float)
    q = quantize_speeds(element_u3, quantum)
    mesh = generate_unit_cell_mesh(cell_geom, resolution)

    def solve(u3):
        return cell_pipeline(cell_geom, u3, resolution, properties, residual_tol, mesh=mesh)[3]
    speeds = sorted(set(q.tolist()))
    by_speed = dict(zip(speeds, rest_speed_last(solve, speeds)))
    coeffs = [by_speed[u3] for u3 in q]
    return InterfaceCoefficientTable(element_u3, coeffs, by_speed)


def macro_flow_for_mode(mesh, mode, u_in, properties, residual_tol=1e-10):
    """Mean-flow field per the configured mode: none or potential, any other a ValueError."""
    if mode not in FLOW_MODES:
        raise ValueError(f"unknown flow mode {mode!r}")
    if mode == "none" or u_in == 0.0:
        return None
    return solve_macro_potential_flow(mesh, u_in, properties, residual_tol)


@dataclass
class WaveguideRun:
    """Assembled inputs of one TL computation; the duct mesh and its mean
    flow are the problem's."""

    problem: MacroProblem
    table: InterfaceCoefficientTable


def setup_waveguide_run(duct_geom: WaveguideGeometry, cell_geom: CellGeometry,
                        properties, u_in, flow_mode="potential",
                        duct_resolution=0.0125, cell_resolution=0.08,
                        quantum=0.25, amplitude=300.0, outer_advection=True,
                        impedance_flow_correction=False, source_side="in",
                        residual_tol=1e-10, duct_mesh=None) -> WaveguideRun:
    """Build the macro problem with flow-dependent interface coefficients."""
    mesh = duct_mesh if duct_mesh is not None else \
        generate_waveguide_mesh(duct_geom, duct_resolution)
    # checked before the mean flow, which cannot join an unsplit duct's halves
    n_elements = len(interface_pairs(mesh)) - 1
    mf = macro_flow_for_mode(mesh, flow_mode, u_in, properties, residual_tol)
    element_u3 = np.zeros(n_elements) if mf is None else mf.element_u3()
    table = build_interface_coefficients(
        cell_geom, element_u3, cell_resolution, properties, quantum, residual_tol)
    problem = MacroProblem(
        mesh, properties, table.coefficients, eps0=cell_geom.eps0, flow=mf,
        amplitude=amplitude, outer_advection=outer_advection,
        impedance_flow_correction=impedance_flow_correction,
        source_side=source_side, residual_tol=residual_tol)
    return WaveguideRun(problem, table)


def tl_curve(run: WaveguideRun, frequencies_hz):
    """TL rows over a frequency grid in Hz."""
    omegas = [2.0 * math.pi * f for f in frequencies_hz]
    rows, failures, _ = frequency_sweep(run.problem, omegas)
    return rows, failures
