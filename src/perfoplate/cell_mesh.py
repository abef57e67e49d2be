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


# Smallest height of a cross-section triangle, as a fraction of the
# resolution, of a cross section that is meshed.  A hole rim near the cell
# boundary squeezes the annulus there, as a hole far smaller than the
# resolution squeezes its fan.  Probed on 1 x 1 and 1 x 0.7 cells at
# resolutions 0.06-0.2, the corrector loads first failed their compatibility
# check at smallest heights between 9e-6 and 8.3e-5 resolutions, while at
# 1.2e-4 and above every symmetry defect stayed below 1e-10.  The default cell's
# smallest height is 0.04-0.18 resolutions.
MIN_TRIANGLE_HEIGHT = 1e-3


def _even_count(length, res):
    return 2 * max(1, int(round(length / (2.0 * res))))


def _span_count(length, res):
    return max(1, int(round(length / res)))


class _CrossSection:
    """2D mesh of the cell rectangle with an embedded circle.

    Node 0 is the circle center; ring q (0-based) holds nodes
    ``1 + q * ntheta + k``, k along the perimeter walk.  The disk rings come
    first, its last ring is the circle (the first ring of the annulus) and
    the last ring is the perimeter.
    """

    def __init__(self, geom: CellGeometry, resolution: float):
        b1, b2 = geom.b1, geom.b2
        d = geom.hole_diameter
        if not 0 < d < min(b1, b2):
            # no plate: any interior circle works as a mesh feature
            d = 0.5 * min(b1, b2)
        radius = d / 2.0
        center = np.array([b1 / 2.0, b2 / 2.0])

        nsx = _even_count(b1, resolution)
        nsy = _even_count(b2, resolution)
        n = 2 * (nsx + nsy)
        n_disk = max(1, int(round(radius / resolution)))
        margin = (min(b1, b2) - d) / 2.0
        n_ann = max(2, int(round(margin / resolution)))
        self.resolution = resolution

        # perimeter walk, counter-clockwise from the (0, 0) corner; edge k
        # runs from point k to point k+1 and lies on the same side as its
        # starting point (corners start the next side)
        i, j = np.arange(nsx), np.arange(nsy)
        perimeter = np.column_stack([
            np.concatenate([i * b1 / nsx, np.full(nsy, b1), b1 - i * b1 / nsx,
                            np.zeros(nsy)]),
            np.concatenate([np.zeros(nsx), j * b2 / nsy, np.full(nsx, b2),
                            b2 - j * b2 / nsy])])
        self.edge_sides = np.repeat(["y0", "x1", "y1", "x0"], [nsx, nsy, nsx, nsy])

        theta = np.arctan2(perimeter[:, 1] - center[1], perimeter[:, 0] - center[0])
        r = radius * np.arange(1, n_disk + 1)[:, None, None] / n_disk
        disk = center + r * np.column_stack([np.cos(theta), np.sin(theta)])
        f = np.arange(1, n_ann)[:, None, None] / n_ann
        annulus = disk[-1] + f * (perimeter - disk[-1])
        self.nodes = np.concatenate([center[None], disk.reshape(-1, 2),
                                     annulus.reshape(-1, 2), perimeter])

        rings = 1 + n * np.arange(n_disk + n_ann)[:, None] + np.arange(n)
        self.circle, self.perimeter_ids = rings[n_disk - 1], rings[-1]
        fan = np.column_stack([np.zeros(n, np.int64), rings[0], np.roll(rings[0], -1)])
        self.disk_tris = self._orient(np.concatenate([fan, _ring_tris(rings[:n_disk])]),
                                      f"the hole of diameter {d:g} is too small; widen it")
        self.annulus_tris = self._orient(_ring_tris(rings[n_disk - 1:]),
                                         "the hole rim touches the cell boundary within "
                                         f"{margin:.3e}; widen that gap")

        # strict node order whose comparisons are invariant under the
        # y1 -> b1 - y1 mirror (fold about the mid-plane, then y2)
        fold = np.abs(self.nodes[:, 0] - b1 / 2.0)
        order = np.lexsort((np.arange(len(self.nodes)), self.nodes[:, 1], fold))
        self.rank = np.empty(len(self.nodes), dtype=np.int64)
        self.rank[order] = np.arange(len(self.nodes))

    def _orient(self, tris, cause):
        """The triangles, counter-clockwise.  One below MIN_TRIANGLE_HEIGHT
        resolutions high, down to one flat to roundoff (of no orientation),
        rejects the cross section, naming the ``cause`` of thin ``tris``."""
        x = self.nodes[tris]
        e1, e2 = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        # a triangle's smallest height, in resolutions: twice its area over
        # its longest edge
        longest = np.linalg.norm([e1, e2, x[:, 2] - x[:, 1]], axis=2).max(axis=0)
        height = np.abs(cross) / (longest * self.resolution)
        thin = int(np.argmin(height))
        if not height[thin] >= MIN_TRIANGLE_HEIGHT:
            raise GeometryError(f"cross-section triangle {thin} is {height[thin]:.3e} "
                                f"resolutions high, below {MIN_TRIANGLE_HEIGHT:g}: {cause} "
                                "or refine the resolution")
        flip = cross < 0
        tris[flip] = tris[flip][:, [0, 2, 1]]
        return tris

    def circle_edges(self):
        return np.column_stack([self.circle, np.roll(self.circle, -1)])

    def perimeter_edges(self, side):
        """Perimeter edges on one side, in walk order."""
        ids = self.perimeter_ids
        return np.column_stack([ids, np.roll(ids, -1)])[self.edge_sides == side]


def _ring_tris(rings):
    """Two triangles per quad between consecutive rings, ring pair by ring
    pair along the walk; the diagonal alternates with the quad's parity."""
    a, d = rings[:-1], rings[1:]
    b, c = np.roll(a, -1, axis=1), np.roll(d, -1, axis=1)
    even = ((np.arange(len(a))[:, None] + np.arange(rings.shape[1])) % 2 == 0)[..., None]
    first = np.where(even, np.stack([a, b, c], -1), np.stack([d, a, b], -1))
    second = np.where(even, np.stack([a, c, d], -1), np.stack([d, b, c], -1))
    return np.stack([first, second], axis=2).reshape(-1, 3)


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


# the three tetrahedra of a prism over a triangle sorted by rank, as indices
# into its nodes (b0, b1, b2, t0, t1, t2): bottom layer, then top layer
_PRISM_TETS = [[0, 1, 2, 5], [0, 1, 5, 4], [0, 3, 4, 5]]


def _rank_sort(rank, tris):
    """The triangles with their nodes in rank order, and where that sort was
    an odd permutation (it reversed the triangle)."""
    r = rank[tris]
    odd = (r[:, 0] > r[:, 1]) ^ (r[:, 0] > r[:, 2]) ^ (r[:, 1] > r[:, 2])
    return np.take_along_axis(tris, np.argsort(r, axis=1), axis=1), odd


def _first_touch(keys, size):
    """The distinct keys (ints in [0, size)) of an array in the order its
    row-major walk first meets them."""
    flat = keys.ravel()
    where = np.arange(flat.size)
    # each key's first position: ufunc.at applies repeated indices in turn
    first = np.full(size, flat.size)
    np.minimum.at(first, flat, where)
    return flat[first[flat] == where]


def generate_unit_cell_mesh(geom: CellGeometry, resolution: float = 0.08) -> Mesh:
    """Mesh the fluid part of the unit cell with tagged facet groups.

    Facet groups: ``I+`` / ``I-`` (top and bottom faces), four lateral
    groups, and ``solid`` (plate faces and hole channel wall).  Lateral
    periodic node pairs are detected and stored under ``d1`` / ``d2``.

    Nodes are numbered in the order the prisms, layer by layer, first touch
    them: (2D node, z-level) key ``n2d * nz + iz``.
    """
    if not 0 < resolution < math.inf:
        raise GeometryError(f"resolution must be positive and finite, got {resolution}")
    cs = _CrossSection(geom, resolution)
    zs = _z_lines(geom, resolution)
    nz = len(zs)
    h2 = geom.thickness / 2.0
    tiny = 1e-12 * max(geom.kappa, 1.0)
    in_plate = (zs[:-1] >= -h2 - tiny) & (zs[1:] <= h2 + tiny) & geom.has_plate
    all_tris = np.concatenate([cs.disk_tris, cs.annulus_tris])
    sorted_tris, odd = _rank_sort(cs.rank, all_tris)
    # a layer's triangles are a prefix of all_tris: the disk, or all of them
    counts = np.where(in_plate, len(cs.disk_tris), len(all_tris))

    def prism_keys(layer):
        """Node keys (b0, b1, b2, t0, t1, t2) of the prisms of a layer."""
        v = sorted_tris[:counts[layer]]
        return np.hstack([v * nz + layer, v * nz + layer + 1])

    prisms = np.concatenate([prism_keys(layer) for layer in range(nz - 1)])
    touched = _first_touch(prisms, len(cs.nodes) * nz)
    node_of = np.full(len(cs.nodes) * nz, -1, dtype=np.int64)
    node_of[touched] = np.arange(len(touched))

    def node(n2d, iz):
        return node_of[n2d * nz + iz]

    coords = np.column_stack([cs.nodes[touched // nz], zs[touched % nz]])
    tets = node_of[prisms][:, _PRISM_TETS].reshape(-1, 4)

    # before the shear, each tet of a prism has the signed volume
    # dz * cross(b1 - b0, b2 - b0) / 6 of its rank-sorted bottom triangle;
    # the cross-section's triangles are counter-clockwise, so it is negative
    # where the rank sort was an odd permutation, and there two nodes swap
    flip = np.repeat(np.concatenate([odd[:c] for c in counts]), len(_PRISM_TETS))
    tets[flip, 2:] = tets[flip, :1:-1]

    def quads(edges, layers):
        """Two boundary triangles of the vertical quad over each 2D edge, in
        each layer: (B_a, B_b, T_b), (B_a, T_b, T_a), with a before b by rank."""
        ab = np.where((cs.rank[edges[:, 0]] < cs.rank[edges[:, 1]])[:, None],
                      edges, edges[:, ::-1])
        iz = layers[:, None, None]
        quad = np.concatenate([node(ab, iz), node(ab, iz + 1)], axis=-1)
        return quad[..., [[0, 1, 3], [0, 3, 2]]].reshape(-1, 3)

    layers = np.arange(nz - 1)
    groups = {GROUP_TOP: node(all_tris[:counts[-1]], nz - 1),
              GROUP_BOTTOM: node(all_tris[:counts[0]], 0)}
    if geom.has_plate:
        iz_bot = int(np.argmin(np.abs(zs + h2)))
        iz_top = int(np.argmin(np.abs(zs - h2)))
        faces = np.stack([node(cs.annulus_tris, iz_bot), node(cs.annulus_tris, iz_top)],
                         axis=1)
        groups[GROUP_SOLID] = np.concatenate([quads(cs.circle_edges(), layers[in_plate]),
                                              faces.reshape(-1, 3)])
    for side, name in LATERAL_GROUPS.items():
        groups[name] = quads(cs.perimeter_edges(side), layers[~in_plate])

    # slant the hole
    coords[:, 0] += _shear_profile(coords[:, 2], geom.thickness, geom.kappa,
                                   geom.hole_slope_deg)

    # the pairs are detected on a mesh that only carries the groups; the
    # volumes are computed once, on the final mesh, which keeps them
    pairs = detect_periodic_pairs(Mesh(3, coords, tets, groups), PERIODIC_DIRECTIONS)
    mesh = Mesh(3, coords, tets, groups, pairs)
    vols = mesh.cell_volumes()
    bad = np.nonzero(vols <= 0)[0]
    if bad.size:
        raise GeometryError(
            f"shear by {geom.hole_slope_deg} deg inverted cell {bad[0]} "
            f"(volume {vols[bad[0]]:.3e}); refine the resolution"
        )
    return mesh.validate()
