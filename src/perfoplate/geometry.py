"""Geometric descriptions of the periodic unit cell and the waveguide."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class GeometryError(ValueError):
    """Raised when a geometric description violates its invariants."""


def _require_finite(geom):
    """Reject a NaN or infinite field: no comparison below may pass it."""
    for f in fields(geom):
        value = getattr(geom, f.name)
        if not math.isfinite(value):
            raise GeometryError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class CellGeometry:
    """Periodic unit cell of the perforated plate, in plate-scaled coordinates.

    The cell occupies ``(0, b1) x (0, b2) x (-kappa/2, kappa/2)``.  A rigid
    plate of (dimensionless) thickness ``plate_thickness * kappa`` spans the
    full cross section except for a cylindrical hole of diameter
    ``hole_diameter``, whose axis may be tilted by ``hole_slope_deg`` in the
    first in-plane direction.  Physical lengths are recovered by multiplying
    with the fine scale ``eps0`` (meters).

    ``plate_thickness = 0`` describes a cell with no plate at all.
    """

    b1: float = 1.0
    b2: float = 1.0
    kappa: float = 1.0
    plate_thickness: float = 0.25
    hole_diameter: float = 0.24
    hole_slope_deg: float = 0.0
    eps0: float = 0.025

    def __post_init__(self):
        _require_finite(self)
        if not (self.b1 > 0 and self.b2 > 0):
            raise GeometryError("cell periods b1, b2 must be positive")
        if not self.kappa > 0:
            raise GeometryError("transverse height factor kappa must be positive")
        if not 0.0 <= self.plate_thickness < 1.0:
            raise GeometryError("plate_thickness must lie in [0, 1) (fraction of kappa)")
        if not self.eps0 > 0:
            raise GeometryError("finite scale eps0 must be positive")
        if abs(self.hole_slope_deg) >= 90.0:
            raise GeometryError("hole slope must satisfy |phi| < 90 degrees")
        if self.plate_thickness > 0:
            if not 0 < self.hole_diameter < min(self.b1, self.b2):
                raise GeometryError("hole diameter must satisfy 0 < d < min(b1, b2)")
            # Slanting shifts the hole rim by tan(phi)*h/2 at the plate faces;
            # the hole must stay strictly interior to the cell cross section.
            shift = math.tan(math.radians(abs(self.hole_slope_deg))) * self.thickness / 2.0
            if self.hole_diameter / 2.0 + shift >= min(self.b1, self.b2) / 2.0:
                raise GeometryError(
                    "slanted hole leaves the cell interior "
                    f"(rim offset {self.hole_diameter / 2.0 + shift:.4g} >= "
                    f"{min(self.b1, self.b2) / 2.0:.4g})"
                )

    @property
    def thickness(self) -> float:
        """Dimensionless plate thickness (fraction of kappa times kappa)."""
        return self.plate_thickness * self.kappa

    @property
    def has_plate(self) -> bool:
        return self.plate_thickness > 0.0


@dataclass(frozen=True)
class WaveguideGeometry:
    """Quasi-2D waveguide: two stacked chambers separated by the plate.

    The main box spans ``(0, l_m) x (0, 2*h_m)`` in the ``(x1, x3)`` section.
    The perforated interface is the horizontal line ``x3 = interface_pos``
    spanning the full box length.  An inlet duct of section ``l_io x h_io``
    attaches at the bottom of the left edge, an outlet duct at the top of the
    right edge, so the mean flow has to cross the interface.
    """

    l_m: float = 0.3
    h_m: float = 0.2
    l_io: float = 0.2
    h_io: float = 0.0625
    interface_pos: float | None = None

    def __post_init__(self):
        if self.interface_pos is None:
            object.__setattr__(self, "interface_pos", self.h_m)
        _require_finite(self)
        for name in ("l_m", "h_m", "l_io", "h_io"):
            if not getattr(self, name) > 0:
                raise GeometryError(f"waveguide dimension {name} must be positive")
        s = self.interface_pos
        if not 0.0 < s < self.total_height:
            raise GeometryError("interface must lie strictly inside the duct")
        if not self.h_io <= s <= self.total_height - self.h_io:
            raise GeometryError("interface must not cut the inlet/outlet duct mouths")

    @property
    def total_height(self) -> float:
        return 2.0 * self.h_m
