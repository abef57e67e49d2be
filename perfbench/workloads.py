"""The three benchmark workloads, driven through perfoplate's public functions.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has finished.  A pass is one complete unit of the
workload (one TL curve or one coefficient grid); it starts with its set-up
and then runs its operations one at a time, each timed through a `Clock`.

Outputs are kept as records ``{"key", "values", "error"}`` so that the
checks in ``checks.py`` and the reference generator share one format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from perfoplate import coefficients, config, pipeline
from perfoplate import cell_mesh

from calibrate import Clock

# INI text of each workload; the TL ones are also fed to `perfoplate waveguide`
TL_FLOW_INI = """\
[cell]
hole_slope_deg = 30
[flow]
u_in = 25
"""

TL_REST_DENSE_INI = """\
[cell]
hole_slope_deg = 30
[flow]
u_in = 0
[waveguide]
resolution = 0.00625
[frequencies]
count = 200
"""

SPEED_JITTER = 0.1  # m/s, largest seed jitter of an interior sweep speed
SYMMETRY_TOL = 1e-8


@dataclass
class PassResult:
    """Timings and outputs of one pass.  Times are wall seconds of the timed
    items (calibration blocks between them excluded); `setup_item` and
    `op_items` index the run's `Clock.items`."""

    setup_s: float
    run_s: float
    op_s: list = field(default_factory=list)
    records: list = field(default_factory=list)
    defects: list = field(default_factory=list)  # of TL interface tables
    setup_item: int = 0
    op_items: list = field(default_factory=list)


def _record(key, values=None, error=None):
    return {"key": [float(k) for k in key],
            "values": None if values is None else [float(v) for v in values],
            "error": error}


def _jittered_frequencies(canonical, seed):
    """Canonical grid for seed 0; otherwise each point moves by up to half a
    step, staying inside the band."""
    if seed == 0:
        return list(canonical)
    lo, hi = canonical[0], canonical[-1]
    step = (hi - lo) / (len(canonical) - 1)
    rng = np.random.default_rng(seed)
    moved = np.asarray(canonical) + rng.uniform(-0.5, 0.5, len(canonical)) * step
    return sorted(np.clip(moved, lo, hi).tolist())


def _jittered_speeds(canonical, seed):
    """Canonical speeds for seed 0; otherwise interior speeds move by up to
    SPEED_JITTER while the end points (0 and the failing top speed) stay."""
    if seed == 0:
        return list(canonical)
    rng = np.random.default_rng(seed)
    out = list(canonical)
    for i in range(1, len(out) - 1):
        out[i] = out[i] + rng.uniform(-SPEED_JITTER, SPEED_JITTER)
    return out


class TLWorkload:
    """One TL curve: `setup_waveguide_run`, then `tl_curve` per frequency,
    the way `perfoplate waveguide` drives it."""

    kind = "tl"

    def __init__(self, name, ini, seed):
        self.name = name
        self.ini = ini
        self.cfg = config.parse_config(ini)
        self.frequencies = _jittered_frequencies(self.cfg.frequencies_hz(), seed)

    def setup(self):
        cfg = self.cfg
        return pipeline.setup_waveguide_run(
            cfg.waveguide_geometry(), cfg.cell_geometry(), cfg.fluid_properties(),
            u_in=cfg["flow.u_in"], flow_mode=cfg["flow.mode"],
            duct_resolution=cfg["waveguide.resolution"],
            cell_resolution=cfg["cell.resolution"],
            quantum=cfg["flow.u3_quantum"],
            amplitude=cfg["acoustics.amplitude"],
            outer_advection=cfg["acoustics.outer_advection"],
            impedance_flow_correction=cfg["acoustics.impedance_flow_correction"],
            source_side=cfg["acoustics.source_side"],
            residual_tol=cfg["run.residual_tol"])

    def run_pass(self, clock=None):
        clock = clock or Clock(calibrate=False)
        first = len(clock.items)
        run = clock.time("setup", self.setup)
        outcomes = [clock.time("op", pipeline.tl_curve, run, [f])
                    for f in self.frequencies]
        res = _timed(clock, first)
        for f, (rows, failures) in zip(self.frequencies, outcomes):
            key = [2.0 * math.pi * f]  # omega, as tl_curve computes it
            if failures or len(rows) != 1:
                res.records.append(_record(key, error=str(failures)))
            else:
                res.records.append(_record(key, rows[0]))
        props = self.cfg.fluid_properties()
        for coeffs in run.table.by_speed.values():
            report = coefficients.verify_symmetries(coeffs, SYMMETRY_TOL, props)
            res.defects.append(report.max_defect)
        return res


class CellWorkload:
    """Cell points (phi, resolution, u3), one operation each, solved by
    `cell_pipeline` and checked by `verify_symmetries` exactly as
    `sweep_coefficients` does per point.  Consecutive points on the same
    (phi, resolution) share one mesh; the set-up is the first mesh."""

    kind = "coef"

    def __init__(self, name, cfg, points):
        self.name = name
        self.cfg = cfg
        self.points = points  # [(phi_deg, resolution, u3), ...]

    def geometry(self, phi):
        return replace(self.cfg.cell_geometry(), hole_slope_deg=phi)

    def setup(self):
        phi, resolution, _ = self.points[0]
        return cell_mesh.generate_unit_cell_mesh(self.geometry(phi), resolution)

    def point(self, mesh, phi, resolution, u3):
        """One cell point; returns (mesh used, record)."""
        props = self.cfg.fluid_properties()
        geom = self.geometry(phi)
        if (phi, resolution) != mesh[0]:
            mesh = ((phi, resolution), cell_mesh.generate_unit_cell_mesh(geom, resolution))
        key = [phi, u3, resolution]
        try:
            _, flw, _, coeffs = coefficients.cell_pipeline(
                geom, u3, resolution, props, mesh=mesh[1])
            report = coefficients.verify_symmetries(
                coeffs, SYMMETRY_TOL, props, speed_scale=max(flw.max_speed(), abs(u3)))
            rec = _record(key, coeffs.as_row(phi, u3, report.max_defect))
        except Exception as exc:  # recorded and judged by the check
            rec = _record(key, error=type(exc).__name__)
            rec["message"] = str(exc)
        return mesh, rec

    def run_pass(self, clock=None):
        clock = clock or Clock(calibrate=False)
        first = len(clock.items)
        mesh = (self.points[0][:2], clock.time("setup", self.setup))
        records = []
        for phi, resolution, u3 in self.points:
            mesh, rec = clock.time("op", self.point, mesh, phi, resolution, u3)
            records.append(rec)
        res = _timed(clock, first)
        res.records = records
        return res


def _timed(clock, first):
    """PassResult of the set-up at item `first` and the operations after it."""
    wall = [item[1] for item in clock.items[first:]]
    return PassResult(setup_s=wall[0], run_s=sum(wall), op_s=wall[1:],
                      setup_item=first,
                      op_items=list(range(first + 1, len(clock.items))))


def make(name, seed):
    """Workload by name; `seed` only moves the inputs, 0 is the canonical grid."""
    if name == "tl_flow":
        return TLWorkload(name, TL_FLOW_INI, seed)
    if name == "tl_rest_dense":
        return TLWorkload(name, TL_REST_DENSE_INI, seed)
    if name == "coef_sweep":
        cfg = config.default_config()
        speeds = _jittered_speeds(cfg.sweep_u3(), seed)
        res = cfg["cell.resolution"]
        points = [(phi, res, u3) for phi in cfg.sweep_phis() for u3 in speeds]
        return CellWorkload(name, cfg, points)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("tl_flow", "tl_rest_dense", "coef_sweep")
