import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfoplate import waveguide
from perfoplate.cli import build_parser, main
from perfoplate.config import (ConfigError, default_config, load_config,
                               parse_config, render_config)
from perfoplate.mesh import load_mesh

FAST_CELL = """
[cell]
resolution = 0.14
hole_slope_deg = 30
[flow]
u3 = 1.0
"""

FAST_WAVEGUIDE = """
[cell]
resolution = 0.14
[waveguide]
resolution = 0.03
[flow]
u_in = 10.0
[frequencies]
f_min = 300
f_max = 500
count = 3
"""


def run_cli(args):
    return main(args)


def test_config_defaults_roundtrip():
    cfg = default_config()
    text = render_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2.values == cfg.values


DEFAULT_ECHO = """\
[cell]
b1 = 1
b2 = 1
kappa = 1
plate_thickness = 0.25
hole_diameter = 0.23999999999999999
hole_slope_deg = 0
eps0 = 0.025000000000000001
resolution = 0.080000000000000002

[waveguide]
l_m = 0.29999999999999999
h_m = 0.20000000000000001
l_io = 0.20000000000000001
h_io = 0.0625
interface_pos = 0.20000000000000001
resolution = 0.012500000000000001

[fluid]
c = 343
tau = 3

[flow]
mode = potential
u_in = 20
u3 = 1
u3_quantum = 0.25

[sweep]
phi_list = 0,30,60
u3_start = 0
u3_stop = 5.5
u3_count = 12

[frequencies]
f_min = 100
f_max = 1000
count = 30

[acoustics]
amplitude = 300
outer_advection = true
impedance_flow_correction = false
source_side = in

[run]
residual_tol = 1e-10

"""


def test_default_echo_is_pinned():
    # every section, key, order and default of effective_config.ini
    assert render_config(default_config()) == DEFAULT_ECHO


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nbogus = 1\n",
    "[DEFAULT]\nb1 = 7\n[cell]\nhole_slope_deg = 30\n",
    "[DEFAULT]\nb1 = 7\n[flow]\nu_in = 1\n",
], ids=["alone", "beside_cell", "beside_flow"])
def test_config_rejects_a_default_section(text):
    """configparser's defaults section would go unchecked, set cell.b1 in
    the second text, and make the third fail as an unknown key of [flow]."""
    with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
        parse_config(text)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config("[cell]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[nosuch]\na = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[flow]\nmode = sideways\n")
    # the unread keys of older echoes are gone: [run] seed, [fluid] rho0,
    # [waveguide] width and [run] jobs (--jobs is the one source of jobs)
    for section, key in (("run", "seed"), ("fluid", "rho0"),
                         ("waveguide", "width"), ("run", "jobs")):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in section \\[{section}\\]"):
            parse_config(f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError, match="got 'uniform'"):
        parse_config("[flow]\nmode = uniform\n")


@pytest.mark.parametrize("value", ["1%", "%(b2)s"])
def test_config_percent_is_literal(value):
    # no interpolation: a lone '%' is not a syntax error of its own, and a
    # reference to another key does not read that key's value
    with pytest.raises(ConfigError,
                       match=re.escape(f"[cell] b1: cannot parse {value!r} as float")):
        parse_config(f"[cell]\nb1 = {value}\n")


@pytest.mark.parametrize("value", ["0", "-1e-8", "nan", "-inf"])
def test_config_rejects_non_positive_residual_tol(value):
    with pytest.raises(ConfigError, match="residual_tol must be > 0"):
        parse_config(f"[run]\nresidual_tol = {value}\n")


@pytest.mark.parametrize("text, field", [("c = nan", "c"), ("c = inf", "c"),
                                          ("c = 0", "c"), ("tau = nan", "tau"),
                                          ("tau = inf", "tau"), ("tau = -1", "tau")])
def test_config_rejects_bad_fluid_constants(text, field):
    with pytest.raises(ValueError, match=f"fluid {field} must be"):
        parse_config(f"[fluid]\n{text}\n")


@pytest.mark.parametrize("value", ["-0.25", "nan", "inf"])
def test_config_rejects_bad_u3_quantum(value):
    with pytest.raises(ConfigError, match="u3_quantum must be finite and >= 0"):
        parse_config(f"[flow]\nu3_quantum = {value}\n")
    assert parse_config("[flow]\nu3_quantum = 0\n")["flow.u3_quantum"] == 0.0


@pytest.mark.parametrize("key", ["f_min", "f_max"])
@pytest.mark.parametrize("value", ["-300", "0", "nan", "inf"])
def test_config_rejects_unusable_frequencies(key, value):
    with pytest.raises(ConfigError, match=rf"\[frequencies\] {key} must be finite and > 0, "
                                          rf"got {float(value)!r}"):
        parse_config(f"[frequencies]\n{key} = {value}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_config_rejects_unusable_amplitude(value):
    # a NaN amplitude fails every frequency's residual check, a zero one
    # leaves no incident energy to measure TL against
    with pytest.raises(ConfigError, match=rf"\[acoustics\] amplitude must be finite and "
                                          rf"nonzero, got {float(value)!r}"):
        parse_config(f"[acoustics]\namplitude = {value}\n")
    assert parse_config("[acoustics]\namplitude = -1\n")["acoustics.amplitude"] == -1.0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_inflow(value):
    with pytest.raises(ConfigError, match=rf"\[flow\] u_in must be finite, got {float(value)!r}"):
        parse_config(f"[flow]\nu_in = {value}\n")
    assert parse_config("[flow]\nu_in = -5\n")["flow.u_in"] == -5.0


@pytest.mark.parametrize("section", ["cell", "waveguide"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_config_rejects_unusable_resolution(section, value):
    with pytest.raises(ConfigError, match=rf"\[{section}\] resolution must be finite and "
                                          rf"> 0, got {float(value)!r}"):
        parse_config(f"[{section}]\nresolution = {value}\n")
    assert parse_config(f"[{section}]\nresolution = 0.5\n")[f"{section}.resolution"] == 0.5


def test_negative_frequency_is_an_error(tmp_path):
    # it would write a TL row at -300 Hz that mirrors +300 Hz
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[frequencies]\nf_min = -300\n")
    out = tmp_path / "out"
    assert run_cli(["waveguide", "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"] == "[frequencies] f_min must be finite and > 0, got -300.0"
    assert not (out / "tl.csv").exists()


def test_config_grids():
    cfg = parse_config("[frequencies]\nf_min=100\nf_max=200\ncount=3\n")
    assert cfg.frequencies_hz() == [100.0, 150.0, 200.0]
    cfg = parse_config("[sweep]\nu3_start=0\nu3_stop=1\nu3_count=2\n"
                       "phi_list = 0, 30\n")
    assert cfg.sweep_u3() == [0.0, 1.0]
    assert cfg.sweep_phis() == [0.0, 30.0]
    assert parse_config("[sweep]\nu3_start=2\nu3_count=1\n").sweep_u3() == [2.0]
    with pytest.raises(ConfigError, match="frequency count must be >= 1"):
        parse_config("[frequencies]\ncount=0\n").frequencies_hz()
    with pytest.raises(ConfigError, match="sweep u3_count must be >= 1"):
        parse_config("[sweep]\nu3_count=0\n").sweep_u3()


@pytest.mark.parametrize("text, message", [
    ("[frequencies]\ncount = 0\n", "frequency count must be >= 1"),
    ("[sweep]\nu3_count = 0\n", "sweep u3_count must be >= 1"),
    ("[sweep]\nphi_list = 0,x\n", "bad phi_list '0,x'"),
    ("[sweep]\nphi_list = ,\n", "phi_list ',' names no angle"),
    ("[sweep]\nphi_list = nan\n", "phi_list 'nan' names a non-finite angle"),
    ("[sweep]\nphi_list = 30, inf\n", "phi_list '30, inf' names a non-finite angle"),
    ("[sweep]\nu3_start = nan\n", "[sweep] u3_start must be finite, got nan"),
    ("[sweep]\nu3_stop = inf\n", "[sweep] u3_stop must be finite, got inf"),
    ("[flow]\nu3 = nan\n", "[flow] u3 must be finite, got nan"),
    ("[flow]\nu3 = inf\n", "[flow] u3 must be finite, got inf"),
    ("[flow]\nmode = sideways\n",
     "[flow] mode must be one of ('none', 'potential'), got 'sideways'"),
    ("[acoustics]\nsource_side = up\n",
     "[acoustics] source_side must be one of ('in', 'out'), got 'up'"),
    ("[acoustics]\namplitude = 0\n",
     "[acoustics] amplitude must be finite and nonzero, got 0.0"),
    ("[run]\nresidual_tol = nan\n", "[run] residual_tol must be > 0, got nan"),
    ("[flow]\nu3_quantum = -0.25\n",
     "[flow] u3_quantum must be finite and >= 0, got -0.25"),
    ("[flow]\nu_in = -inf\n", "[flow] u_in must be finite, got -inf"),
    ("[cell]\nresolution = 0\n", "[cell] resolution must be finite and > 0, got 0.0"),
    ("[waveguide]\nresolution = nan\n",
     "[waveguide] resolution must be finite and > 0, got nan"),
    # the first key to break its rule, in schema order, is the one named
    ("[run]\nresidual_tol = 0\n[flow]\nmode = sideways\n[cell]\nresolution = -1\n",
     "[cell] resolution must be finite and > 0, got -1.0")],
    ids=["count", "u3_count", "phi_list", "empty-phi_list", "nan-phi_list",
         "inf-phi_list", "nan-u3_start", "inf-u3_stop", "nan-u3", "inf-u3",
         "mode", "source_side", "zero-amplitude", "nan-residual_tol",
         "negative-u3_quantum", "-inf-u_in", "zero-cell-resolution",
         "nan-waveguide-resolution", "schema-order"])
def test_config_rejects_unusable_grids(text, message):
    # every command rejects them at parse time, before any set-up runs
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(text)


def test_sweep_rejects_an_empty_frequency_grid(tmp_path):
    # it would echo a config that the waveguide command cannot run
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[frequencies]\ncount = 0\n")
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record == {"command": "sweep", "error": "ConfigError",
                      "message": "frequency count must be >= 1"}
    assert not (out / "coefficients.csv").exists()


def test_mesh_cell_command(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[cell]\nresolution = 0.14\n")
    out = tmp_path / "out"
    assert run_cli(["mesh-cell", "--config", str(cfgfile), "--out", str(out)]) == 0
    mesh, fields = load_mesh(out / "cell.msh")
    mesh.validate()
    assert fields == {}
    assert (out / "effective_config.ini").exists()


def test_mesh_duct_command(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[waveguide]\nresolution = 0.03\n")
    out = tmp_path / "out"
    assert run_cli(["mesh-duct", "--config", str(cfgfile), "--out", str(out)]) == 0
    mesh, fields = load_mesh(out / "duct.msh")
    mesh.validate()
    assert fields == {}
    assert "iface" in mesh.periodic_pairs


def test_cell_command_and_determinism(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(FAST_CELL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["cell", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert run_cli(["cell", "--config", str(cfgfile), "--out", str(out2)]) == 0
    for name in ("coefficients.csv", "correctors.msh", "symmetry_report.txt",
                 "effective_config.ini"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _, fields = load_mesh(out1 / "correctors.msh")
    assert set(fields) == {"pi1", "pi2", "xi", "pi_P"}


def test_cell_command_zero_flow_zeroes_flow_coefficients(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[cell]\nresolution = 0.14\n[flow]\nu3 = 0.0\n")
    out = tmp_path / "out"
    assert run_cli(["cell", "--config", str(cfgfile), "--out", str(out)]) == 0
    header, row = (out / "coefficients.csv").read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    for key in ("Mw", "Tw", "Twp", "W1", "W2"):
        assert float(cols[key]) == 0.0


def test_sweep_command(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[cell]\nresolution = 0.14\n"
                       "[sweep]\nphi_list = 0\nu3_start = 0\nu3_stop = 1\n"
                       "u3_count = 2\n")
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = (out / "coefficients.csv").read_text().splitlines()
    assert len(lines) == 3


def test_waveguide_command(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(FAST_WAVEGUIDE)
    out = tmp_path / "out"
    assert run_cli(["waveguide", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = (out / "tl.csv").read_text().splitlines()
    assert lines[0] == "omega_rad_s,freq_hz,TL_db,flux_in,flux_out"
    assert len(lines) == 4
    profile = (out / "interface_u3.csv").read_text().splitlines()
    assert profile[0] == "arc_length,U3"
    _, fields = load_mesh(out / "pressure.msh")
    assert "pressure_re" in fields


def test_waveguide_command_bit_reproducible(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(FAST_WAVEGUIDE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["waveguide", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert run_cli(["waveguide", "--config", str(cfgfile), "--out", str(out2)]) == 0
    for name in ("tl.csv", "interface_u3.csv", "pressure.msh"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rerun_leaves_no_stale_failure_record(tmp_path):
    failing = tmp_path / "failing.ini"
    failing.write_text("[cell]\nresolution = 0.2\n"
                       "[sweep]\nphi_list = 0\nu3_start = 1\nu3_count = 1\n"
                       "[run]\nresidual_tol = 1e-30\n")
    good = tmp_path / "good.ini"
    good.write_text("[cell]\nresolution = 0.2\n"
                    "[sweep]\nphi_list = 0\nu3_start = 0\nu3_count = 1\n")
    out = tmp_path / "out"
    for command, record, code in (("sweep", "failures.csv", 0), ("cell", "error.json", 1)):
        assert run_cli([command, "--config", str(failing), "--out", str(out)]) == code
        assert (out / record).exists()
        assert run_cli(["sweep", "--config", str(good), "--out", str(out)]) == 0
        assert not (out / "failures.csv").exists() and not (out / "error.json").exists()
        assert (out / "coefficients.csv").read_text().count("\n") == 2


def test_effective_config_reparses_identically(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(FAST_CELL)
    out = tmp_path / "out"
    assert run_cli(["cell", "--config", str(cfgfile), "--out", str(out)]) == 0
    echoed = load_config(out / "effective_config.ini")
    assert echoed.values == load_config(cfgfile).values


def test_multiline_value_echo_reparses(tmp_path):
    """A value that continues on an indented line comes back from the echo."""
    text = "[cell]\nresolution = 0.2\n[sweep]\nphi_list = 0,\n  30\nu3_count = 1\n"
    cfg = parse_config(text)
    assert cfg["sweep.phi_list"] == "0,\n30"
    assert parse_config(render_config(cfg)).values == cfg.values
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    echoed = load_config(out / "effective_config.ini")
    assert echoed.values == cfg.values and echoed.sweep_phis() == [0.0, 30.0]


def test_error_record_on_failure(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[cell]\nhole_diameter = 2.0\n")
    out = tmp_path / "out"
    assert run_cli(["mesh-cell", "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["command"] == "mesh-cell"
    assert record["error"] == "GeometryError"


@pytest.mark.parametrize("command, section, resolution", [
    ("waveguide", "waveguide", "-0.0125"),
    ("mesh-duct", "waveguide", "0"),
    ("mesh-duct", "waveguide", "nan"),
    ("mesh-cell", "cell", "0"),
    ("mesh-cell", "cell", "nan"),
    ("mesh-cell", "cell", "inf"),
    ("sweep", "cell", "-1"),
])
def test_non_positive_resolution_is_an_error(tmp_path, command, section, resolution):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[{section}]\nresolution = {resolution}\n")
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"] == (f"[{section}] resolution must be finite and > 0, "
                                 f"got {float(resolution)!r}")
    assert not (out / "tl.csv").exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("waveguide", "cell", "eps0", "nan"),
    ("cell", "cell", "hole_slope_deg", "nan"),
    ("mesh-cell", "cell", "kappa", "nan"),
    ("mesh-cell", "cell", "b1", "inf"),
    ("mesh-duct", "waveguide", "l_m", "nan"),
    ("mesh-duct", "waveguide", "l_io", "inf"),
])
def test_non_finite_geometry_is_an_error(tmp_path, command, section, key, value):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "GeometryError"
    assert record["message"] == f"{key} must be finite, got {float(value)!r}"
    # the geometries are built when the config is parsed, before it is echoed
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("command, text, message", [
    ("mesh-duct", "[cell]\nhole_diameter = 5\n",
     "hole diameter must satisfy 0 < d < min(b1, b2)"),
    ("mesh-cell", "[waveguide]\ninterface_pos = 0.5\n",
     "interface must lie strictly inside the duct"),
])
def test_every_command_rejects_a_bad_geometry(tmp_path, command, text, message):
    # the other mesh command's geometry is built when the config is parsed
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert (record["error"], record["message"]) == ("GeometryError", message)
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("command", ["sweep", "mesh-duct"])
def test_every_command_rejects_a_sweep_angle_whose_cell_is_bad(tmp_path, command):
    # the cell of every sweep angle is built when the config is parsed
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[sweep]\nphi_list = 0,80\n")
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert (record["error"], record["message"]) == (
        "GeometryError", "[sweep] phi_list angle 80: slanted hole leaves the cell "
                         "interior (rim offset 0.8289 >= 0.5)")
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]


def test_waveguide_snapshot_reuses_the_sweep_solution(tmp_path, monkeypatch):
    """On the default config every frequency is solved once; pressure.msh
    holds the middle frequency's pressure as a fresh solve gives it."""
    solved = []
    real = waveguide.solve_frequency

    def counting(problem, omega):
        solved.append((problem, omega))
        return real(problem, omega)
    monkeypatch.setattr(waveguide, "solve_frequency", counting)
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("")
    out = tmp_path / "out"
    assert run_cli(["waveguide", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert len(solved) == 30 and not (out / "failures.csv").exists()
    problem, omega = solved[15]
    fresh = real(problem, omega).P
    _, fields = load_mesh(out / "pressure.msh")
    assert fields["pressure_re"].tobytes() == fresh.real.tobytes()
    assert fields["pressure_im"].tobytes() == fresh.imag.tobytes()


def test_jobs_flag_sweeps_in_parallel(tmp_path, monkeypatch):
    """--jobs 2 runs the two angles in worker processes and writes the same
    bytes as --jobs 1; the jobs count is not part of the echoed config."""
    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counting_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[cell]\nresolution = 0.14\n"
                       "[sweep]\nphi_list = 0,30\nu3_start = 0\nu3_stop = 1\n"
                       "u3_count = 2\n")
    csv = {}
    for jobs in ("2", "1"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out),
                        "--jobs", jobs]) == 0
        csv[jobs] = (out / "coefficients.csv").read_bytes()
        assert "jobs" not in (out / "effective_config.ini").read_text()
    assert pools == [2]
    assert len(csv["2"].decode().splitlines()) == 5
    assert csv["2"] == csv["1"]


@pytest.fixture
def pool_workers(monkeypatch):
    """Worker count of each process pool a sweep asks for while the test
    runs; the stand-in pool maps in this process, so no test starts a large
    number of processes."""
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return workers


def test_jobs_beyond_the_angles_start_one_worker_per_angle(tmp_path, pool_workers):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[cell]\nresolution = 0.14\n"
                       "[sweep]\nphi_list = 0,30\nu3_start = 0\nu3_stop = 0\n"
                       "u3_count = 1\n")
    csv = {}
    for jobs in ("500", "1"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out),
                        "--jobs", jobs]) == 0
        csv[jobs] = (out / "coefficients.csv").read_bytes()
    assert pool_workers == [2]
    assert csv["500"] == csv["1"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, pool_workers, jobs):
    out = tmp_path / "out"
    assert run_cli(["sweep", "--out", str(out), "--jobs", jobs]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert record["message"] == f"--jobs must be >= 1, got {jobs}"
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert pool_workers == []


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a parallel sweep loads multiprocessing: importing the CLI, in a
    fresh interpreter, loads neither it nor the process pool's module."""
    code = ("import sys, perfoplate.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    src = str(Path(waveguide.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_leaves_the_graph_library_unloaded():
    """The periodic classes need no graph library: importing the CLI, in a
    fresh interpreter, loads no ``scipy.sparse.csgraph`` module."""
    code = ("import sys, perfoplate.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.csgraph')))")
    src = str(Path(waveguide.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_every_other_setting_is_a_config_key():
    """The command line offers the command, the config file, the output
    directory and the worker count; every other setting has its one home
    in the configuration."""
    settings = sorted(a.option_strings[-1] if a.option_strings else a.dest
                      for a in build_parser()._actions if a.dest != "help")
    assert settings == ["--config", "--jobs", "--out", "command"]


def test_nan_tol_rejected(tmp_path):
    """A NaN tolerance would pass every residual check (r > nan is false)."""
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[cell]\nresolution = 0.2\nhole_slope_deg = 30\n"
                       "[flow]\nu3 = 2\n[run]\nresidual_tol = nan\n")
    out = tmp_path / "out"
    assert run_cli(["cell", "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert "residual_tol must be > 0" in record["message"]
    assert not (out / "coefficients.csv").exists()


@pytest.mark.parametrize("u3", ["0", "2"])
def test_nan_fluid_constant_rejected(tmp_path, u3):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(f"[cell]\nresolution = 0.2\n[flow]\nu3 = {u3}\n"
                       "[fluid]\ntau = nan\n")
    out = tmp_path / "out"
    assert run_cli(["cell", "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["message"] == "fluid tau must be finite, got nan"
    assert not (out / "coefficients.csv").exists()


def test_tol_reaches_every_solve(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[cell]\nresolution = 0.2\n"
                       "[sweep]\nphi_list = 0\nu3_start = 1\nu3_count = 1\n"
                       "[run]\nresidual_tol = 1e-30\n")
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert (out / "coefficients.csv").read_text().count("\n") == 1  # header only
    header, row = (out / "failures.csv").read_text().splitlines()
    assert header == "phi_deg,U3,error"
    assert re.fullmatch(r"0,1,cell potential flow: relative residual \S+ exceeds 1\.0e-30",
                        row), row
    out = tmp_path / "cell"
    assert run_cli(["cell", "--config", str(cfgfile), "--out", str(out)]) == 1
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "SolverError"
    assert record["message"].startswith("cell potential flow: relative residual ")
