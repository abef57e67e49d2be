"""The mesh generators as they were before they were rewritten as array
code, kept as the byte-level reference for `cell_mesh.generate_unit_cell_mesh`,
`duct_mesh.generate_waveguide_mesh`, `Mesh.boundary_facets` and
`fem.periodic_reduction`, and `Mesh.validate` as it was before it checked
the facet groups by integer facet keys, kept as the reference for its
verdicts and error texts.  The `np.unique` forms of the cell generator's
first-touch node order and of `Mesh._boundary_keys` (on the min/max facet
keys that `mesh._facet_keys` formed before the keys came from sorted cell
rows) are kept as the references of the forms that replaced them, and
`Mesh.cell_volumes` and `fem.p1_geometry` as they were before their edge
matrices came from contiguous gathers and the first shape gradient from
explicit adds, as the bit-level references of both (signs of zeros
included).

The cell generator numbers nodes by first touch through a (2D node,
z-level) dict and emits facets per simplex; the duct generator numbers
nodes through a dict keyed by rounded coordinates and splits the interface
node by node.  The program derives the same numbers from the mesh
structure and must produce the same node, cell, facet-group and pair
arrays to the last bit.
"""

import functools
import math

import numpy as np
import scipy.sparse as sp

from perfoplate.geometry import CellGeometry, GeometryError, WaveguideGeometry
from perfoplate.mesh import Mesh, MeshError, detect_periodic_pairs

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


GROUP_IN = "Gamma_in"
GROUP_OUT = "Gamma_out"
GROUP_IFACE_MINUS = "Gamma0-"
GROUP_IFACE_PLUS = "Gamma0+"
GROUP_WALL = "wall"
IFACE_PAIRING = "iface"


def _lines(lo, hi, res):
    n = max(1, int(round((hi - lo) / res)))
    return lo + (hi - lo) * np.arange(n + 1) / n


def _multi_lines(breaks, res):
    out = [np.array([breaks[0]])]
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        out.append(_lines(lo, hi, res)[1:])
    return np.concatenate(out)


class _Builder:
    def __init__(self):
        self.nodes = []
        self.index = {}
        self.tris = []

    def node(self, x, y):
        key = (round(x, 12), round(y, 12))
        idx = self.index.get(key)
        if idx is None:
            idx = len(self.nodes)
            self.index[key] = idx
            self.nodes.append((x, y))
        return idx

    def grid(self, xs, ys):
        ids = np.array([[self.node(x, y) for y in ys] for x in xs])
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                n00, n01 = ids[i, j], ids[i, j + 1]
                n10, n11 = ids[i + 1, j], ids[i + 1, j + 1]
                self.tris.append((n00, n10, n11))
                self.tris.append((n00, n11, n01))


def generate_waveguide_mesh(geom: WaveguideGeometry, resolution: float = 0.0125,
                            split_interface: bool = True) -> Mesh:
    """Triangle mesh of the waveguide with tagged boundary groups.

    With ``split_interface`` the interface nodes are duplicated (groups
    ``Gamma0-`` / ``Gamma0+``, pairing ``iface``); otherwise the mesh is a
    single connected transparent duct, useful as a reference.
    """
    s = geom.interface_pos
    H = geom.total_height
    ys_main = _multi_lines([0.0, geom.h_io, s, H - geom.h_io, H], resolution)
    xs_main = _lines(0.0, geom.l_m, resolution)
    xs_in = _lines(-geom.l_io, 0.0, resolution)
    xs_out = _lines(geom.l_m, geom.l_m + geom.l_io, resolution)
    ys_in = ys_main[ys_main <= geom.h_io + 1e-12]
    ys_out = ys_main[ys_main >= H - geom.h_io - 1e-12]

    b = _Builder()
    b.grid(xs_in, ys_in)
    b.grid(xs_main, ys_main)
    b.grid(xs_out, ys_out)
    nodes = np.array(b.nodes)
    tris = np.array(b.tris, dtype=np.int64)

    pairs = {}
    if split_interface:
        tol = 1e-9 * max(geom.l_m, H)
        on_iface = np.nonzero(np.abs(nodes[:, 1] - s) < tol)[0]
        on_iface = on_iface[np.argsort(nodes[on_iface, 0])]
        dup_of = {}
        extra = []
        for n in on_iface:
            dup_of[n] = len(nodes) + len(extra)
            extra.append(nodes[n])
        nodes = np.vstack([nodes, np.array(extra)])
        cen_y = nodes[tris].mean(axis=1)[:, 1]
        above = cen_y > s
        remap = tris[above]
        for old, new in dup_of.items():
            remap[remap == old] = new
        tris = tris.copy()
        tris[above] = remap
        pairs[IFACE_PAIRING] = np.array(
            [(m, dup_of[m]) for m in on_iface], dtype=np.int64)

    mesh = Mesh(2, nodes, tris)
    tol = 1e-9 * max(geom.l_m + 2 * geom.l_io, H)
    groups = {GROUP_IN: [], GROUP_OUT: [], GROUP_WALL: []}
    if split_interface:
        groups[GROUP_IFACE_MINUS] = []
        groups[GROUP_IFACE_PLUS] = []
        minus_set = set(pairs[IFACE_PAIRING][:, 0].tolist())
        plus_set = set(pairs[IFACE_PAIRING][:, 1].tolist())
    for a, c in sorted(map(tuple, boundary_facets(mesh))):
        xa, ya = nodes[a]
        xc, yc = nodes[c]
        if abs(xa + geom.l_io) < tol and abs(xc + geom.l_io) < tol:
            groups[GROUP_IN].append((a, c))
        elif abs(xa - geom.l_m - geom.l_io) < tol and abs(xc - geom.l_m - geom.l_io) < tol:
            groups[GROUP_OUT].append((a, c))
        elif split_interface and a in minus_set and c in minus_set:
            groups[GROUP_IFACE_MINUS].append((a, c))
        elif split_interface and a in plus_set and c in plus_set:
            groups[GROUP_IFACE_PLUS].append((a, c))
        else:
            groups[GROUP_WALL].append((a, c))

    mesh = Mesh(2, nodes, tris,
                {k: np.array(v, dtype=np.int64).reshape(-1, 2) for k, v in groups.items()},
                pairs)
    return mesh.validate()


def boundary_facets(mesh):
    """All facets owned by exactly one cell, as sorted node tuples."""
    c = mesh.cells
    if mesh.dim == 2:
        idx = [(0, 1), (1, 2), (2, 0)]
    else:
        idx = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    faces = np.concatenate([c[:, list(i)] for i in idx], axis=0)
    faces = np.sort(faces, axis=1)
    uniq, counts = np.unique(faces, axis=0, return_counts=True)
    return uniq[counts == 1]


def first_touch(prisms):
    """The distinct keys of an array in the order its row-major walk first
    meets them, from `np.unique`'s first indices."""
    keys, first = np.unique(prisms, return_index=True)
    return keys[np.argsort(first)]


def _facet_keys(facets, num_nodes):
    """One int64 per facet (node ids a <= b <= c of N nodes): a*N + b in 2D,
    (a*N + b)*N + c in 3D; keys sort as the sorted node tuples do."""
    dim = facets.shape[1]
    if num_nodes ** dim > 2 ** 63:
        raise MeshError(f"{num_nodes} nodes are too many for int64 facet keys "
                        f"(N**{dim} > 2**63; a 3D mesh may have at most 2097152 nodes)")
    x = [facets[:, k] for k in range(dim)]
    lo, hi = functools.reduce(np.minimum, x), functools.reduce(np.maximum, x)
    head = lo if dim == 2 else lo * num_nodes + (sum(x) - lo - hi)
    return head * num_nodes + hi


def boundary_keys(mesh):
    """Sorted keys of the facets owned by exactly one cell, from
    `np.unique`'s counts."""
    if mesh.dim == 2:
        idx = [(0, 1), (1, 2), (2, 0)]
    else:
        idx = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    faces = np.concatenate([mesh.cells[:, list(i)] for i in idx])
    keys, counts = np.unique(_facet_keys(faces, mesh.num_nodes), return_counts=True)
    return keys[counts == 1]


def cell_volumes(mesh):
    """Signed simplex measures (areas in 2D, volumes in 3D)."""
    e = mesh.nodes[mesh.cells[:, 1:]] - mesh.nodes[mesh.cells[:, :1]]
    if mesh.dim == 2:
        return 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    return np.linalg.det(e) / 6.0


def p1_geometry(mesh):
    """Per-cell shape gradients and measures: (grads (M, n, d), vols (M,))."""
    vols = cell_volumes(mesh)
    e = mesh.nodes[mesh.cells[:, 1:]] - mesh.nodes[mesh.cells[:, :1]]
    if mesh.dim == 2:
        det = 2.0 * vols
        inv = np.empty_like(e)
        inv[:, 0, 0] = e[:, 1, 1] / det
        inv[:, 0, 1] = -e[:, 0, 1] / det
        inv[:, 1, 0] = -e[:, 1, 0] / det
        inv[:, 1, 1] = e[:, 0, 0] / det
    else:
        inv = np.linalg.inv(e)
    grads = np.empty((len(mesh.cells), mesh.dim + 1, mesh.dim))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads, vols


def _equal_runs(rows):
    """Stable lexicographic order of the rows of an int array and, along it,
    a flag for each row that starts a run of equal rows."""
    order = np.lexsort(rows.T[::-1])
    s = rows[order]
    start = np.ones(len(s), dtype=bool)
    start[1:] = np.any(s[1:] != s[:-1], axis=1)
    return order, start


def validate(mesh):
    """Check invariants: positive volumes, groups on the boundary."""
    vols = mesh.cell_volumes()
    bad = np.nonzero(vols <= 0)[0]
    if bad.size:
        raise MeshError(
            f"cell {bad[0]} has non-positive volume {vols[bad[0]]:.3e}"
        )
    boundary = boundary_facets(mesh)
    names = list(mesh.facet_groups)
    tagged = np.sort(np.concatenate(
        [boundary[:0]] + [mesh.facet_groups[name] for name in names]), axis=1)
    # along the stable order, each boundary facet leads its run of equal
    # rows, followed by the tagged copies of it
    order, start = _equal_runs(np.concatenate([boundary, tagged]))
    is_tagged = order >= len(boundary)
    head = np.flatnonzero(start)[np.cumsum(start) - 1]  # each row's run start
    outside = order[is_tagged & is_tagged[head]] - len(boundary)
    if outside.size:
        first = int(outside.min())
        ends = np.cumsum([len(mesh.facet_groups[name]) for name in names])
        name = names[int(np.searchsorted(ends, first, side="right"))]
        raise MeshError(f"group {name!r} contains a non-boundary facet "
                        f"{tuple(tagged[first].tolist())}")
    if np.any(is_tagged[1:] & is_tagged[:-1] & ~start[1:]):
        raise MeshError("facet groups overlap")
    if mesh.facet_groups and len(tagged) != len(boundary):
        raise MeshError(
            f"facet groups do not partition the boundary "
            f"({len(tagged)} tagged vs {len(boundary)} boundary facets)"
        )
    return mesh


def periodic_reduction(mesh):
    """Prolongation matrix T (full dofs from reduced dofs) for periodic pairs.

    Chained pairs (edge and corner nodes) are resolved by union-find; the
    canonical representative is the smallest node index in each class.
    """
    n = mesh.num_nodes
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for arr in mesh.periodic_pairs.values():
        for m, s in arr:
            rm, rs = find(m), find(s)
            if rm != rs:
                lo, hi = (rm, rs) if rm < rs else (rs, rm)
                parent[hi] = lo
    root = np.array([find(i) for i in range(n)])
    uniq, red = np.unique(root, return_inverse=True)
    return sp.coo_matrix((np.ones(n), (np.arange(n), red)), shape=(n, len(uniq))).tocsr()
