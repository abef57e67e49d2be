"""Batch command-line front-end.

Commands: mesh-cell, mesh-duct, cell, sweep, waveguide.  Every command
writes its declared outputs plus the effective configuration echo into the
output directory; failures leave a machine-readable error record and a
nonzero exit code, and a run first removes the failure records of an
earlier run in the same directory.  Outputs are deterministic for identical
inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .cell_mesh import generate_unit_cell_mesh
from .coefficients import (CSV_HEADER, SYMMETRY_TOL, cell_pipeline,
                           sweep_coefficients, verify_symmetries)
from .duct_mesh import generate_waveguide_mesh
from .mesh import save_mesh
from .pipeline import setup_waveguide_run
from .waveguide import frequency_sweep


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def write_csv(path: Path, header, rows):
    """A header line, then one line per row: numbers in round-trip
    precision, commas inside text replaced by semicolons."""
    lines = [header] + [",".join(_field(v) for v in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _field(v):
    return v.replace(",", ";") if isinstance(v, str) else format(float(v), ".17g")


def cmd_mesh_cell(cfg, out: Path):
    mesh = generate_unit_cell_mesh(cfg.cell_geometry(), cfg["cell.resolution"])
    save_mesh(mesh, out / "cell.msh")
    return ["cell.msh"]


def cmd_mesh_duct(cfg, out: Path):
    mesh = generate_waveguide_mesh(cfg.waveguide_geometry(),
                                   cfg["waveguide.resolution"])
    save_mesh(mesh, out / "duct.msh")
    return ["duct.msh"]


def cmd_cell(cfg, out: Path):
    props = cfg.fluid_properties()
    geom = cfg.cell_geometry()
    u3 = cfg["flow.u3"]
    mesh, flw, sols, coeffs = cell_pipeline(
        geom, u3, cfg["cell.resolution"], props,
        residual_tol=cfg["run.residual_tol"])
    save_mesh(mesh, out / "correctors.msh",
              {"pi1": sols.pi1, "pi2": sols.pi2, "xi": sols.xi, "pi_P": sols.pi_P})
    report = verify_symmetries(coeffs, SYMMETRY_TOL, props,
                               speed_scale=max(flw.max_speed(), abs(u3)))
    rows = [coeffs.as_row(geom.hole_slope_deg, u3, report.max_defect)]
    write_csv(out / "coefficients.csv", CSV_HEADER, rows)
    _write(out / "symmetry_report.txt", str(report) + "\n")
    return ["correctors.msh", "coefficients.csv", "symmetry_report.txt"]


def cmd_sweep(cfg, out: Path, jobs):
    props = cfg.fluid_properties()
    rows, failures = sweep_coefficients(
        cfg.cell_geometry(), cfg.sweep_phis(), cfg.sweep_u3(),
        cfg["cell.resolution"], props, jobs=jobs,
        residual_tol=cfg["run.residual_tol"])
    write_csv(out / "coefficients.csv", CSV_HEADER, rows)
    written = ["coefficients.csv"]
    if failures:
        write_csv(out / "failures.csv", "phi_deg,U3,error", failures)
        written.append("failures.csv")
    return written


def cmd_waveguide(cfg, out: Path):
    props = cfg.fluid_properties()
    run = setup_waveguide_run(
        cfg.waveguide_geometry(), cfg.cell_geometry(), props,
        u_in=cfg["flow.u_in"], flow_mode=cfg["flow.mode"],
        duct_resolution=cfg["waveguide.resolution"],
        cell_resolution=cfg["cell.resolution"],
        quantum=cfg["flow.u3_quantum"],
        amplitude=cfg["acoustics.amplitude"],
        outer_advection=cfg["acoustics.outer_advection"],
        impedance_flow_correction=cfg["acoustics.impedance_flow_correction"],
        source_side=cfg["acoustics.source_side"],
        residual_tol=cfg["run.residual_tol"])
    problem = run.problem
    omegas = [2.0 * math.pi * f for f in cfg.frequencies_hz()]
    rows, failures, solutions = frequency_sweep(problem, omegas)
    write_csv(out / "tl.csv", "omega_rad_s,freq_hz,TL_db,flux_in,flux_out", rows)

    x = problem.index.x
    u3 = np.zeros(len(x)) if problem.flow is None else problem.flow.interface_u3
    write_csv(out / "interface_u3.csv", "arc_length,U3", zip(x - x[0], u3))

    written = ["tl.csv", "interface_u3.csv"]
    if rows:
        sol = solutions[len(rows) // 2]
        save_mesh(problem.mesh, out / "pressure.msh",
                  {"pressure_re": sol.P.real, "pressure_im": sol.P.imag,
                   "pressure_abs": np.abs(sol.P)})
        written.append("pressure.msh")
    if failures:
        write_csv(out / "failures.csv", "omega_rad_s,error", failures)
        written.append("failures.csv")
    return written


COMMANDS = {
    "mesh-cell": cmd_mesh_cell,
    "mesh-duct": cmd_mesh_duct,
    "cell": cmd_cell,
    "sweep": cmd_sweep,
    "waveguide": cmd_waveguide,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="perfoplate",
        description="Homogenized acoustic transmission through perforated "
                    "plates in steady flow")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes of a sweep (default: 1)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the outputs written only on a failure: an earlier run's must not stay
    # next to this run's
    for name in ("error.json", "failures.csv"):
        (out / name).unlink(missing_ok=True)
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        cfg = cfgmod.load_config(args.config) if args.config \
            else cfgmod.default_config()
        _write(out / "effective_config.ini", cfgmod.render_config(cfg))
        if args.command == "sweep":
            written = cmd_sweep(cfg, out, jobs=args.jobs)
        else:
            written = COMMANDS[args.command](cfg, out)
    except Exception as exc:
        record = {"command": args.command, "error": type(exc).__name__,
                  "message": str(exc)}
        _write(out / "error.json", json.dumps(record, indent=2) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in ["effective_config.ini"] + written:
        print(out / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
