"""Plain-text run configuration (INI sections) for the batch front-end.

The effective (fully defaulted) configuration is echoed next to every
command's outputs and re-parses to an identical run, so outputs are
reproducible from the echo alone.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace

from .fem import FluidProperties
from .geometry import CellGeometry, GeometryError, WaveguideGeometry
from .pipeline import FLOW_MODES
from .waveguide import SOURCE_SIDES


class ConfigError(ValueError):
    pass


# key -> (type, default); section order fixed for deterministic echoes
_SCHEMA = {
    "cell": {
        "b1": (float, 1.0),
        "b2": (float, 1.0),
        "kappa": (float, 1.0),
        "plate_thickness": (float, 0.25),
        "hole_diameter": (float, 0.24),
        "hole_slope_deg": (float, 0.0),
        "eps0": (float, 0.025),
        "resolution": (float, 0.08),
    },
    "waveguide": {
        "l_m": (float, 0.3),
        "h_m": (float, 0.2),
        "l_io": (float, 0.2),
        "h_io": (float, 0.0625),
        "interface_pos": (float, 0.2),
        "resolution": (float, 0.0125),
    },
    "fluid": {
        "c": (float, 343.0),
        "tau": (float, 3.0),
    },
    "flow": {
        "mode": (str, "potential"),
        "u_in": (float, 20.0),
        "u3": (float, 1.0),
        "u3_quantum": (float, 0.25),
    },
    "sweep": {
        "phi_list": (str, "0,30,60"),
        "u3_start": (float, 0.0),
        "u3_stop": (float, 5.5),
        "u3_count": (int, 12),
    },
    "frequencies": {
        "f_min": (float, 100.0),
        "f_max": (float, 1000.0),
        "count": (int, 30),
    },
    "acoustics": {
        "amplitude": (float, 300.0),
        "outer_advection": (bool, True),
        "impedance_flow_correction": (bool, False),
        "source_side": (str, "in"),
    },
    "run": {
        "residual_tol": (float, 1e-10),
    },
}


# the configparser getter of each schema type; getboolean takes
# true/false, yes/no, on/off and 1/0 in any case
_GETTERS = {float: "getfloat", int: "getint", bool: "getboolean", str: "get"}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        section, name = key.split(".", 1)
        return self.values[section][name]

    def cell_geometry(self) -> CellGeometry:
        c = self.values["cell"]
        return CellGeometry(b1=c["b1"], b2=c["b2"], kappa=c["kappa"],
                            plate_thickness=c["plate_thickness"],
                            hole_diameter=c["hole_diameter"],
                            hole_slope_deg=c["hole_slope_deg"],
                            eps0=c["eps0"])

    def waveguide_geometry(self) -> WaveguideGeometry:
        w = self.values["waveguide"]
        return WaveguideGeometry(l_m=w["l_m"], h_m=w["h_m"], l_io=w["l_io"],
                                 h_io=w["h_io"], interface_pos=w["interface_pos"])

    def fluid_properties(self) -> FluidProperties:
        f = self.values["fluid"]
        return FluidProperties(c=f["c"], tau=f["tau"])

    def frequencies_hz(self):
        f = self.values["frequencies"]
        return _even_grid(f["f_min"], f["f_max"], f["count"], "frequency count")

    def sweep_u3(self):
        s = self.values["sweep"]
        return _even_grid(s["u3_start"], s["u3_stop"], s["u3_count"],
                          "sweep u3_count")

    def sweep_phis(self):
        text = self.values["sweep"]["phi_list"]
        try:
            phis = [float(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"bad phi_list {text!r}") from None
        if not phis:
            raise ConfigError(f"phi_list {text!r} names no angle")
        if not all(map(math.isfinite, phis)):
            raise ConfigError(f"phi_list {text!r} names a non-finite angle")
        return phis


def _even_grid(start, stop, n, what):
    """``n`` evenly spaced values from start to stop (just start when n == 1)."""
    if n < 1:
        raise ConfigError(f"{what} must be >= 1")
    if n == 1:
        return [start]
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n)]


def default_config() -> RunConfig:
    return RunConfig({s: {k: d for k, (_, d) in keys.items()}
                      for s, keys in _SCHEMA.items()})


def parse_config(text: str) -> RunConfig:
    """Parse an INI config; unknown sections/keys are rejected, ``[DEFAULT]``
    too.  Values are literal: ``%`` interpolates nothing."""
    # no section header holds a newline, so no input names the defaults
    # section, whose keys would otherwise reach every section
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None, default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    cfg = default_config()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            kind, _ = _SCHEMA[section][key]
            try:
                cfg.values[section][key] = getattr(parser, _GETTERS[kind])(section, key)
            except ValueError:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} "
                                  f"as {kind.__name__}") from None
    validate(cfg)
    return cfg


def validate(cfg: RunConfig):
    """Reject values no run can use."""
    mode = cfg["flow.mode"]
    if mode not in FLOW_MODES:
        raise ConfigError(f"flow mode must be one of {FLOW_MODES}, got {mode!r}")
    if cfg["acoustics.source_side"] not in SOURCE_SIDES:
        raise ConfigError("acoustics source_side must be 'in' or 'out'")
    amplitude = cfg["acoustics.amplitude"]
    if not (math.isfinite(amplitude) and amplitude != 0):
        raise ConfigError(
            f"[acoustics] amplitude must be finite and nonzero, got {amplitude!r}")
    if not cfg["run.residual_tol"] > 0:  # also rejects NaN
        raise ConfigError(f"[run] residual_tol must be > 0, got {cfg['run.residual_tol']!r}")
    if not 0 <= cfg["flow.u3_quantum"] < math.inf:  # 0 keeps exact speeds
        raise ConfigError(
            f"[flow] u3_quantum must be finite and >= 0, got {cfg['flow.u3_quantum']!r}")
    for key in ("flow.u_in", "flow.u3", "sweep.u3_start", "sweep.u3_stop"):
        if not math.isfinite(cfg[key]):
            section, name = key.split(".")
            raise ConfigError(f"[{section}] {name} must be finite, got {cfg[key]!r}")
    for key in ("cell.resolution", "waveguide.resolution", "frequencies.f_min",
                "frequencies.f_max"):
        if not 0 < cfg[key] < math.inf:  # also rejects NaN
            section, name = key.split(".")
            raise ConfigError(f"[{section}] {name} must be finite and > 0, got {cfg[key]!r}")
    cfg.fluid_properties()  # raises ValueError naming a bad c or tau
    # each raises GeometryError naming the bad value, whatever the command
    cell = cfg.cell_geometry()
    cfg.waveguide_geometry()
    # each raises ConfigError on a grid no command can run
    cfg.frequencies_hz()
    cfg.sweep_u3()
    for phi in cfg.sweep_phis():  # the cell of every sweep angle
        try:
            replace(cell, hole_slope_deg=phi)
        except GeometryError as exc:
            raise GeometryError(f"[sweep] phi_list angle {phi:g}: {exc}") from None


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(cfg: RunConfig) -> str:
    """Deterministic INI rendering of the effective configuration."""
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            val = cfg.values[section][key]
            if isinstance(val, bool):
                text = "true" if val else "false"
            elif isinstance(val, float):
                text = format(val, ".17g")
            else:
                # an indent marks a continuation line, as configparser reads it
                text = str(val).replace("\n", "\n    ")
            out.write(f"{key} = {text}\n")
        out.write("\n")
    return out.getvalue()
