"""Plain-text run configuration (INI sections) for the batch front-end.

The effective (fully defaulted) configuration is echoed next to every
command's outputs and re-parses to an identical run, so outputs are
reproducible from the echo alone.

Each key's type, default and rule sit on its one ``_SCHEMA`` line (the
geometry and fluid keys are the fields of the objects they build).  The
first key, in schema order, whose value breaks its rule raises
``ConfigError("[section] key must be <text>, got <value!r>")``, the text
from ``_RULES`` or ``one of <the allowed values>``.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace

from .fem import FluidProperties
from .geometry import CellGeometry, GeometryError, WaveguideGeometry
from .pipeline import FLOW_MODES
from .waveguide import SOURCE_SIDES


class ConfigError(ValueError):
    pass


# the keys of a section that builds ``cls``: its fields, in order, with
# their defaults
def _fields_of(cls):
    return {f.name: (float, f.default) for f in fields(cls)}


# key -> (type, default[, rule]); section order fixed for deterministic
# echoes.  A rule is a name in _RULES or a tuple of the allowed values.
_SCHEMA = {
    "cell": {**_fields_of(CellGeometry), "resolution": (float, 0.08, "positive")},
    "waveguide": {**_fields_of(WaveguideGeometry),
                  # explicit: the library puts a missing interface at h_m
                  "interface_pos": (float, 0.2),
                  "resolution": (float, 0.0125, "positive")},
    "fluid": _fields_of(FluidProperties),
    "flow": {
        "mode": (str, "potential", FLOW_MODES),
        "u_in": (float, 20.0, "finite"),
        "u3": (float, 1.0, "finite"),
        "u3_quantum": (float, 0.25, "nonnegative"),  # 0 keeps exact speeds
    },
    "sweep": {
        "phi_list": (str, "0,30,60"),
        "u3_start": (float, 0.0, "finite"),
        "u3_stop": (float, 5.5, "finite"),
        "u3_count": (int, 12),
    },
    "frequencies": {
        "f_min": (float, 100.0, "positive"),
        "f_max": (float, 1000.0, "positive"),
        "count": (int, 30),
    },
    "acoustics": {
        "amplitude": (float, 300.0, "nonzero"),
        "outer_advection": (bool, True),
        "impedance_flow_correction": (bool, False),
        "source_side": (str, "in", SOURCE_SIDES),
    },
    "run": {"residual_tol": (float, 1e-10, "tolerance")},
}

# rule -> (test a value passes, what its error says the value must be);
# each test fails NaN
_RULES = {
    "finite": (math.isfinite, "finite"),
    "positive": (lambda x: 0 < x < math.inf, "finite and > 0"),
    "nonnegative": (lambda x: 0 <= x < math.inf, "finite and >= 0"),
    "nonzero": (lambda x: math.isfinite(x) and x != 0, "finite and nonzero"),
    "tolerance": (lambda x: x > 0, "> 0"),
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

    def _build(self, cls, section):
        return cls(**{f.name: self.values[section][f.name] for f in fields(cls)})

    def cell_geometry(self) -> CellGeometry:
        return self._build(CellGeometry, "cell")

    def waveguide_geometry(self) -> WaveguideGeometry:
        return self._build(WaveguideGeometry, "waveguide")

    def fluid_properties(self) -> FluidProperties:
        return self._build(FluidProperties, "fluid")

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
    return RunConfig({s: {k: row[1] for k, row in keys.items()}
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
            kind = _SCHEMA[section][key][0]
            try:
                cfg.values[section][key] = getattr(parser, _GETTERS[kind])(section, key)
            except ValueError:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} "
                                  f"as {kind.__name__}") from None
    validate(cfg)
    return cfg


def validate(cfg: RunConfig):
    """Reject values no run can use: the first key, in schema order, whose
    value breaks its rule, then a bad object, grid or sweep angle."""
    for section, keys in _SCHEMA.items():
        for key, (_, _, *rules) in keys.items():
            value = cfg.values[section][key]
            for rule in rules:  # none or one
                test, text = _RULES.get(rule) or (rule.__contains__, f"one of {rule!r}")
                if not test(value):
                    raise ConfigError(f"[{section}] {key} must be {text}, got {value!r}")
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
