"""Structured tetrahedral meshing of the perforated-plate unit cell.

The fluid domain is the cell box minus the plate-with-hole.  The mesh is
built in three stages:

1. a 2D cross-section of the cell rectangle with a circular hole: a disk
   fan/ring grid inside the hole, an O-grid ring blending the circle to the
   rectangle perimeter outside it;
2. a layered extrusion in z whose layer interfaces align with the plate
   faces (plate layers extrude only the disk, i.e. the hole channel);
3. a post-hoc piecewise-linear shear of the plate band that tilts the hole
   by the requested angle.  The shear is affine on every tetrahedron (layer
   interfaces coincide with its breakpoints), hence volume preserving.

Quad splitting uses mirror-equivariant rules (angular parity in 2D, a
coordinate-folded node ordering for the prisms) so that the unsheared mesh
is an exact simplicial mirror image of itself across the mid-plane of the
first in-plane axis.  Slanting by opposite angles then yields exactly
mirrored meshes, which the corrector symmetry tests rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import CellGeometry, GeometryError
from .mesh import Mesh, detect_periodic_pairs

GROUP_TOP = "I+"
GROUP_BOTTOM = "I-"
GROUP_SOLID = "solid"
LATERAL_GROUPS = {
    "x0": "lateral_x0",
    "x1": "lateral_x1",
    "y0": "lateral_y0",
    "y1": "lateral_y1",
}
PERIODIC_DIRECTIONS = {
    "d1": ("lateral_x0", "lateral_x1"),
    "d2": ("lateral_y0", "lateral_y1"),
}


def _even_count(length, res):
    return 2 * max(1, int(round(length / (2.0 * res))))


def _span_count(length, res):
    return max(1, int(round(length / res)))


class _CrossSection:
    """2D mesh of the cell rectangle with an embedded circle."""

    def __init__(self, geom: CellGeometry, resolution: float):
        b1, b2 = geom.b1, geom.b2
        d = geom.hole_diameter
        if not 0 < d < min(b1, b2):
            # no plate: any interior circle works as a mesh feature
            d = 0.5 * min(b1, b2)
        self.radius = d / 2.0
        self.center = np.array([b1 / 2.0, b2 / 2.0])

        nsx = _even_count(b1, resolution)
        nsy = _even_count(b2, resolution)
        self.ntheta = 2 * (nsx + nsy)
        self.n_disk_rings = max(1, int(round(self.radius / resolution)))
        margin = (min(b1, b2) - d) / 2.0
        self.n_ann_rings = max(2, int(round(margin / resolution)))

        # perimeter walk, counter-clockwise from the (0, 0) corner
        per = []
        sides = []
        for i in range(nsx):
            per.append((i * b1 / nsx, 0.0))
            sides.append("y0")
        for j in range(nsy):
            per.append((b1, j * b2 / nsy))
            sides.append("x1")
        for i in range(nsx):
            per.append((b1 - i * b1 / nsx, b2))
            sides.append("y1")
        for j in range(nsy):
            per.append((0.0, b2 - j * b2 / nsy))
            sides.append("x0")
        self.perimeter = np.array(per)
        # edge k runs from perimeter[k] to perimeter[k+1] and lies on the same
        # side as its starting point (corners start the next side)
        self.edge_sides = list(sides)

        theta = np.arctan2(self.perimeter[:, 1] - self.center[1],
                           self.perimeter[:, 0] - self.center[0])

        nodes = [tuple(self.center)]
        self.i_center = 0
        self.disk_rings = []
        for j in range(1, self.n_disk_rings + 1):
            r = self.radius * j / self.n_disk_rings
            ring = []
            for t in theta:
                ring.append(len(nodes))
                nodes.append((self.center[0] + r * math.cos(t),
                              self.center[1] + r * math.sin(t)))
            self.disk_rings.append(ring)
        self.circle = self.disk_rings[-1]
        circle_xy = np.array([nodes[i] for i in self.circle])
        self.ann_rings = [self.circle]
        for j in range(1, self.n_ann_rings + 1):
            f = j / self.n_ann_rings
            ring = []
            if j == self.n_ann_rings:
                pts = self.perimeter
            else:
                pts = circle_xy + f * (self.perimeter - circle_xy)
            for p in pts:
                ring.append(len(nodes))
                nodes.append((p[0], p[1]))
            self.ann_rings.append(ring)
        self.perimeter_ids = self.ann_rings[-1]
        self.nodes = np.array(nodes)

        self.disk_tris = self._fan() + self._ring_tris(self.disk_rings)
        self.annulus_tris = self._ring_tris(self.ann_rings)
        self._orient(self.disk_tris)
        self._orient(self.annulus_tris)

        # strict node order whose comparisons are invariant under the
        # y1 -> b1 - y1 mirror (fold about the mid-plane, then y2)
        fold = np.abs(self.nodes[:, 0] - b1 / 2.0)
        order = np.lexsort((np.arange(len(self.nodes)), self.nodes[:, 1], fold))
        self.rank = np.empty(len(self.nodes), dtype=np.int64)
        self.rank[order] = np.arange(len(self.nodes))

    def _fan(self):
        n = self.ntheta
        ring = self.disk_rings[0]
        return [(self.i_center, ring[k], ring[(k + 1) % n]) for k in range(n)]

    def _ring_tris(self, rings):
        n = self.ntheta
        tris = []
        for j in range(len(rings) - 1):
            inner, outer = rings[j], rings[j + 1]
            for k in range(n):
                a, b = inner[k], inner[(k + 1) % n]
                c, d = outer[(k + 1) % n], outer[k]
                if (k + j) % 2 == 0:
                    tris.append((a, b, c))
                    tris.append((a, c, d))
                else:
                    tris.append((d, a, b))
                    tris.append((d, b, c))
        return tris

    def _orient(self, tris):
        x = self.nodes
        for i, (a, b, c) in enumerate(tris):
            area = ((x[b, 0] - x[a, 0]) * (x[c, 1] - x[a, 1])
                    - (x[b, 1] - x[a, 1]) * (x[c, 0] - x[a, 0]))
            if area < 0:
                tris[i] = (a, c, b)

    def circle_edges(self):
        n = self.ntheta
        return [(self.circle[k], self.circle[(k + 1) % n]) for k in range(n)]

    def perimeter_edges(self):
        n = self.ntheta
        return [((self.perimeter_ids[k], self.perimeter_ids[(k + 1) % n]),
                 self.edge_sides[k]) for k in range(n)]


def _z_breakpoints(geom: CellGeometry):
    k2 = geom.kappa / 2.0
    if not geom.has_plate:
        return [-k2, k2]
    h2 = geom.thickness / 2.0
    zb = min(geom.thickness, k2)
    pts = sorted({-k2, -zb, -h2, h2, zb, k2})
    return pts


def _z_lines(geom: CellGeometry, resolution: float):
    breaks = _z_breakpoints(geom)
    zs = [breaks[0]]
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        n = _span_count(hi - lo, resolution)
        for i in range(1, n + 1):
            zs.append(lo + (hi - lo) * i / n)
    return np.array(zs)


def _shear_profile(z, thickness, kappa, slope_deg):
    """In-plane displacement of the slant map at height z."""
    if slope_deg == 0.0 or thickness == 0.0:
        return np.zeros_like(z)
    t = math.tan(math.radians(slope_deg))
    h2 = thickness / 2.0
    zb = min(thickness, kappa / 2.0)
    az = np.abs(z)
    fade = np.clip((zb - az) / (zb - h2), 0.0, 1.0)
    return t * np.where(az <= h2, z, np.sign(z) * h2 * fade)


def generate_unit_cell_mesh(geom: CellGeometry, resolution: float = 0.08) -> Mesh:
    """Mesh the fluid part of the unit cell with tagged facet groups.

    Facet groups: ``I+`` / ``I-`` (top and bottom faces), four lateral
    groups, and ``solid`` (plate faces and hole channel wall).  Lateral
    periodic node pairs are detected and stored under ``d1`` / ``d2``.
    """
    if resolution <= 0:
        raise GeometryError("resolution must be positive")
    cs = _CrossSection(geom, resolution)
    zs = _z_lines(geom, resolution)
    nz = len(zs)
    h2 = geom.thickness / 2.0
    tiny = 1e-12 * max(geom.kappa, 1.0)

    def layer_in_plate(l):
        return geom.has_plate and zs[l] >= -h2 - tiny and zs[l + 1] <= h2 + tiny

    disk_set = cs.disk_tris
    all_tris = cs.disk_tris + cs.annulus_tris

    node_id = {}
    coords = []

    def nid(n2d, iz):
        key = (n2d, iz)
        idx = node_id.get(key)
        if idx is None:
            idx = len(coords)
            node_id[key] = idx
            coords.append((cs.nodes[n2d, 0], cs.nodes[n2d, 1], zs[iz]))
        return idx

    rank = cs.rank
    tets = []
    for l in range(nz - 1):
        tris = disk_set if layer_in_plate(l) else all_tris
        for tri in tris:
            v = sorted(tri, key=lambda n: rank[n])
            b = [nid(n, l) for n in v]
            t = [nid(n, l + 1) for n in v]
            tets.append((b[0], b[1], b[2], t[2]))
            tets.append((b[0], b[1], t[2], t[1]))
            tets.append((b[0], t[0], t[1], t[2]))

    coords = np.array(coords)
    tets = np.array(tets, dtype=np.int64)

    # fix tet orientation (swap two nodes where the signed volume is negative)
    flip = Mesh(3, coords, tets).cell_volumes() < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]

    def quad_facets(u, v, lo_layer):
        """Two boundary triangles of the vertical quad over a 2D edge."""
        a, b = (u, v) if rank[u] < rank[v] else (v, u)
        B_a, B_b = nid(a, lo_layer), nid(b, lo_layer)
        T_a, T_b = nid(a, lo_layer + 1), nid(b, lo_layer + 1)
        return [(B_a, B_b, T_b), (B_a, T_b, T_a)]

    groups = {name: [] for name in
              [GROUP_TOP, GROUP_BOTTOM, GROUP_SOLID] + list(LATERAL_GROUPS.values())}
    top_tris = disk_set if layer_in_plate(nz - 2) else all_tris
    bot_tris = disk_set if layer_in_plate(0) else all_tris
    for tri in top_tris:
        groups[GROUP_TOP].append(tuple(nid(n, nz - 1) for n in tri))
    for tri in bot_tris:
        groups[GROUP_BOTTOM].append(tuple(nid(n, 0) for n in tri))

    for l in range(nz - 1):
        if layer_in_plate(l):
            for u, v in cs.circle_edges():
                groups[GROUP_SOLID].extend(quad_facets(u, v, l))
        else:
            for (u, v), side in cs.perimeter_edges():
                groups[LATERAL_GROUPS[side]].extend(quad_facets(u, v, l))

    if geom.has_plate:
        iz_bot = int(np.argmin(np.abs(zs + h2)))
        iz_top = int(np.argmin(np.abs(zs - h2)))
        for tri in cs.annulus_tris:
            groups[GROUP_SOLID].append(tuple(nid(n, iz_bot) for n in tri))
            groups[GROUP_SOLID].append(tuple(nid(n, iz_top) for n in tri))
    else:
        del groups[GROUP_SOLID]

    # slant the hole
    disp = _shear_profile(coords[:, 2], geom.thickness, geom.kappa,
                          geom.hole_slope_deg)
    coords = coords.copy()
    coords[:, 0] += disp

    mesh = Mesh(3, coords, tets,
                {name: np.array(f, dtype=np.int64) for name, f in groups.items()})
    vols = mesh.cell_volumes()
    bad = np.nonzero(vols <= 0)[0]
    if bad.size:
        raise GeometryError(
            f"shear by {geom.hole_slope_deg} deg inverted cell {bad[0]} "
            f"(volume {vols[bad[0]]:.3e}); refine the resolution"
        )
    pairs = detect_periodic_pairs(mesh, PERIODIC_DIRECTIONS)
    mesh = Mesh(3, coords, tets, mesh.facet_groups, pairs)
    return mesh.validate()
