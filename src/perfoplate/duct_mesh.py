"""Structured triangulation of the quasi-2D waveguide section.

The section consists of a main box split by the horizontal interface line
into the lower/upper acoustic subdomains, an inlet duct attached at the
bottom of the left edge, and an outlet duct at the top of the right edge.
With the interface at mid-height the whole construction is symmetric under
a 180-degree rotation about the center, which the no-flow reciprocity
checks exploit.

Interface nodes are duplicated so the traces from below and above are
independent unknowns; the correspondence is stored as the ``iface``
periodic pairing (used to re-glue the domain for the mean-flow solve).
"""

from __future__ import annotations

import numpy as np

from .geometry import GeometryError, WaveguideGeometry
from .mesh import Mesh

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


def _grid(xs, ys, first, shared_rows=slice(0), shared_ids=()):
    """Node ids of the grid xs x ys, x-major; the rows ``shared_rows`` of its
    first column are the nodes ``shared_ids`` of the grid before it, the
    others are numbered from ``first``.  Returns (ids, new node coordinates)."""
    new = np.ones((len(xs), len(ys)), dtype=bool)
    new[0, shared_rows] = False
    ids = np.empty(new.shape, dtype=np.int64)
    ids[0, shared_rows] = shared_ids
    ids[new] = first + np.arange(new.sum())
    x, y = np.meshgrid(xs, ys, indexing="ij")
    return ids, np.column_stack([x[new], y[new]])


def _grid_tris(ids):
    """Two triangles per grid square, square by square, x-major."""
    n00, n01, n10, n11 = ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]
    return np.stack([np.stack([n00, n10, n11], axis=-1),
                     np.stack([n00, n11, n01], axis=-1)], axis=2).reshape(-1, 3)


def generate_waveguide_mesh(geom: WaveguideGeometry, resolution: float) -> Mesh:
    """Triangle mesh of the waveguide with tagged boundary groups.

    Nodes: the inlet grid, the main grid, then the outlet grid, each x-major
    and without the column it shares with the grid before it, then the
    duplicated interface nodes (groups ``Gamma0-`` / ``Gamma0+``, pairing
    ``iface``) that the cells above the interface use.
    """
    if not 0 < resolution < np.inf:
        raise GeometryError(f"resolution must be positive and finite, got {resolution}")
    s = geom.interface_pos
    H = geom.total_height
    ys_main = _multi_lines([0.0, geom.h_io, s, H - geom.h_io, H], resolution)
    xs_main = _lines(0.0, geom.l_m, resolution)
    xs_in = _lines(-geom.l_io, 0.0, resolution)
    xs_out = _lines(geom.l_m, geom.l_m + geom.l_io, resolution)
    # a prefix and a suffix of ys_main
    ys_in = ys_main[ys_main <= geom.h_io + 1e-12]
    ys_out = ys_main[ys_main >= H - geom.h_io - 1e-12]

    ids_in, x_in = _grid(xs_in, ys_in, 0)
    ids_main, x_main = _grid(xs_main, ys_main, len(x_in),
                             slice(len(ys_in)), ids_in[-1])
    ids_out, x_out = _grid(xs_out, ys_out, len(x_in) + len(x_main),
                           slice(None), ids_main[-1, len(ys_main) - len(ys_out):])
    nodes = np.concatenate([x_in, x_main, x_out])
    tris = np.concatenate([_grid_tris(ids) for ids in (ids_in, ids_main, ids_out)])

    tol = 1e-9 * max(geom.l_m, H)
    minus = np.nonzero(np.abs(nodes[:, 1] - s) < tol)[0]
    minus = minus[np.argsort(nodes[minus, 0])]
    n = len(nodes)
    plus = n + np.arange(len(minus))
    nodes = np.concatenate([nodes, nodes[minus]])
    above = nodes[tris].mean(axis=1)[:, 1] > s
    upper = np.arange(len(nodes))  # the node a cell above the interface uses
    upper[minus] = plus
    tris[above] = upper[tris[above]]

    facets = Mesh(2, nodes, tris).boundary_facets()
    x = nodes[facets, 0]
    tol = 1e-9 * max(geom.l_m + 2 * geom.l_io, H)
    kind = np.select(  # first match wins
        [np.all(np.abs(x + geom.l_io) < tol, axis=1),
         np.all(np.abs(x - geom.l_m - geom.l_io) < tol, axis=1),
         np.all(np.isin(facets, minus), axis=1),
         np.all(facets >= n, axis=1)],
        [0, 1, 3, 4], default=2)
    names = [GROUP_IN, GROUP_OUT, GROUP_WALL, GROUP_IFACE_MINUS, GROUP_IFACE_PLUS]
    mesh = Mesh(2, nodes, tris, {name: facets[kind == k] for k, name in enumerate(names)},
                {IFACE_PAIRING: np.column_stack([minus, plus])})
    return mesh.validate()


def interface_nodes(mesh):
    """(minus ids, plus ids, x1 coordinates), sorted along the interface."""
    pairs = mesh.periodic_pairs[IFACE_PAIRING]
    x = mesh.nodes[pairs[:, 0], 0]
    order = np.argsort(x)
    return pairs[order, 0], pairs[order, 1], x[order]
