"""Simplex meshes with tagged facet groups, periodic node pairs and field IO.

Meshes are plain containers: nodes, simplex connectivity (triangles in 2D,
tetrahedra in 3D), named facet groups (node tuples) and per-direction
periodic node pairs.  Instances are treated as immutable after construction;
geometric transforms return new meshes.

The on-disk format is plain text (``perfomesh v1``): a header line, a node
block, a cell block, one ``group`` block per facet group, one ``periodic``
block per pairing direction, and optional ``field`` blocks carrying nodal
values.
"""

from __future__ import annotations

import functools
import re

import numpy as np

FORMAT_HEADER = "perfomesh v1"


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


class MeshFormatError(ValueError):
    """Malformed mesh file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def per_mesh(build):
    """Decorator: ``build(mesh, *args)`` runs once per mesh instance and
    arguments; its result is kept on the mesh and shared by all callers, so
    its arrays (an array, a sparse matrix's data and index arrays, or those
    of each item of a tuple) are marked read-only.  The result is kept
    under the build's module and qualified name (``release``)."""
    name = f"{build.__module__}.{build.__qualname__}"

    @functools.wraps(build)
    def cached(mesh, *args):
        key = (name, *args)
        if key not in mesh._cache:
            mesh._cache[key] = _read_only(build(mesh, *args))
        return mesh._cache[key]
    return cached


def release(mesh, name, *args):
    """Drop what a ``per_mesh`` build kept on a mesh for these arguments;
    the build is named by its module and qualified name (as in
    ``"perfoplate.fem.p1_geometry"``), not passed, since a tracer may rebind
    it.  A later call builds the result again."""
    mesh._cache.pop((name, *args), None)


def _read_only(value):
    """Mark the arrays of a per-mesh result read-only; other values pass."""
    for item in value if isinstance(value, tuple) else (value,):
        arrays = (item.data, item.indices, item.indptr) if hasattr(item, "indptr") else (item,)
        for a in arrays:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
    return value


def _frozen(values, dtype):
    """Read-only C-ordered copy of an array."""
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def _node_ids(what, values, num_nodes):
    """Read-only int64 copy of node ids; an id that is not a whole number (a cast
    alone would truncate it) or not in [0, num_nodes) is a ``MeshError``."""
    raw = np.asarray(values)
    if raw.dtype.kind == "f":
        bad = ~(np.isfinite(raw) & (raw == np.trunc(raw)))
        if bad.any():
            raise MeshError(f"{what} must hold whole node numbers, got {float(raw[bad][0])!r}")
    elif raw.dtype.kind not in "biu":
        raise MeshError(f"{what} must hold whole node numbers, got {raw.dtype} values")
    ids = _frozen(raw, np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
        raise MeshError(f"{what} references nodes out of range")
    return ids


def _index_rows(what, values, num_nodes, count, width):
    """Read-only (count, width) int64 copy of the ``_node_ids`` rows; an
    empty input gives no rows, and any other shape is a ``MeshError``."""
    rows = _node_ids(what, values, num_nodes)
    if rows.size == 0:
        return rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise MeshError(f"{what} must have shape ({count}, {width}), got {rows.shape}")
    return rows


def _sorted_keys(columns, num_nodes):
    """One int64 per facet from the columns of its node ids a <= b <= c of N nodes:
    a*N + b in 2D, (a*N + b)*N + c in 3D; keys sort as the sorted node tuples do."""
    dim = len(columns)
    if num_nodes ** dim > 2 ** 63:
        raise MeshError(f"{num_nodes} nodes are too many for int64 facet keys "
                        f"(N**{dim} > 2**63; a 3D mesh may have at most 2097152 nodes)")
    key = np.array(columns[0], dtype=np.int64)
    for x in columns[1:]:
        key *= num_nodes
        key += x
    return key


def _facet_keys(facets, num_nodes):
    """The ``_sorted_keys`` of (K, dim) facets with node ids in any order."""
    return _sorted_keys(np.sort(facets, axis=1).T, num_nodes)


def edge_matrices(mesh):
    """(M, d, d) edge vectors x_k - x_0, k = 1..d, of each cell, from two
    contiguous gathers of node rows."""
    e = np.take(mesh.nodes, mesh.cells[:, 1:], axis=0)
    e -= np.take(mesh.nodes, mesh.cells[:, :1], axis=0)
    return e


class Mesh:
    """Conforming simplex mesh (P1 geometry).

    Immutable after construction: the node, cell, facet and pair arrays are
    read-only copies of the caller's, so the data ``per_mesh`` caches on the
    mesh cannot go stale.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    nodes : (N, dim) float array
        Node coordinates.
    cells : (M, dim+1) int array
        Simplex connectivity, 0-based.
    facet_groups : dict[str, (K, dim) int array]
        Named boundary facet sets (edges in 2D, triangles in 3D).
    periodic_pairs : dict[str, (P, 2) int array]
        Per-direction (master, slave) node pairs.
    fields : dict[str, (N,) array]
        Optional nodal fields attached to the mesh, one value per node.
    """

    def __init__(self, dim, nodes, cells, facet_groups=None, periodic_pairs=None,
                 fields=None):
        if dim not in (2, 3):
            raise MeshError(f"dim must be 2 or 3, got {dim}")
        self.dim = int(dim)
        self.nodes = _frozen(nodes, float)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != dim:
            raise MeshError(f"nodes must have shape (N, {dim})")
        n = len(self.nodes)
        self.cells = _node_ids("cell connectivity", cells, n)
        if self.cells.ndim != 2 or self.cells.shape[1] != dim + 1:
            raise MeshError(f"cells must have shape (M, {dim + 1})")
        self.facet_groups = {name: _index_rows(f"facet group {name!r}", f, n, "K", dim)
                             for name, f in (facet_groups or {}).items()}
        self.periodic_pairs = {name: _index_rows(f"periodic pairing {name!r}", p, n, "P", 2)
                               for name, p in (periodic_pairs or {}).items()}
        self.fields = dict(fields or {})
        for name, values in self.fields.items():
            if np.shape(values) != (n,):
                raise MeshError(f"field {name!r} must hold {n} nodal values, "
                                f"got shape {np.shape(values)}")
        self._cache = {}

    # -- basic queries -----------------------------------------------------

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_cells(self):
        return len(self.cells)

    @per_mesh
    def cell_volumes(self):
        """Signed simplex measures (areas in 2D, volumes in 3D), read-only."""
        e = edge_matrices(self)
        if self.dim == 2:
            return 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
        vols = np.linalg.det(e)
        vols /= 6.0
        return vols

    @per_mesh
    def facet_measures(self, name):
        """Lengths (2D) or areas (3D) of the facets in a group, read-only."""
        x = self.nodes[self.facet_group(name)]
        if self.dim == 2:
            return np.linalg.norm(x[:, 1] - x[:, 0], axis=1)
        cr = np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
        return 0.5 * np.linalg.norm(cr, axis=1)

    def group_measure(self, name):
        return float(self.facet_measures(name).sum())

    def facet_group(self, name):
        try:
            return self.facet_groups[name]
        except KeyError:
            raise MeshError(f"unknown facet group {name!r}") from None

    def group_nodes(self, name):
        """Sorted unique node indices touched by a facet group."""
        return np.unique(self.facet_group(name))

    def _boundary_keys(self):
        """Sorted keys of the facets owned by exactly one cell."""
        ranked = np.sort(self.cells, axis=1).T  # each cell's k-th lowest node id
        # a sorted cell row without one of its nodes is a sorted facet
        faces = [[x for i, x in enumerate(ranked) if i != k] for k in range(self.dim + 1)]
        keys = np.sort(np.concatenate([_sorted_keys(f, self.num_nodes) for f in faces]))
        # a key occurs once where it differs from both sorted neighbours
        differs = np.ones(len(keys) + 1, dtype=bool)
        differs[1:-1] = keys[1:] != keys[:-1]
        return keys[differs[:-1] & differs[1:]]

    def boundary_facets(self):
        """All facets owned by exactly one cell, as sorted node tuples, in
        lexicographic order."""
        keys, n = self._boundary_keys(), self.num_nodes
        return np.column_stack([keys // n ** k % n for k in range(self.dim - 1, -1, -1)])

    def validate(self):
        """Check invariants: positive volumes, groups on the boundary."""
        vols = self.cell_volumes()
        bad = np.nonzero(vols <= 0)[0]
        if bad.size:
            raise MeshError(
                f"cell {bad[0]} has non-positive volume {vols[bad[0]]:.3e}"
            )
        boundary = self._boundary_keys()
        names = list(self.facet_groups)
        facets = np.concatenate([np.empty((0, self.dim), np.int64),
                                 *self.facet_groups.values()])
        tagged = _facet_keys(facets, self.num_nodes)
        at = np.searchsorted(boundary, tagged)
        # past the last boundary key, a tagged key meets -1, which no key equals
        outside = np.flatnonzero(np.append(boundary, -1)[at] != tagged)
        if outside.size:
            first = int(outside[0])
            ends = np.cumsum([len(self.facet_groups[name]) for name in names])
            name = names[int(np.searchsorted(ends, first, side="right"))]
            raise MeshError(f"group {name!r} contains a non-boundary facet "
                            f"{tuple(sorted(facets[first].tolist()))}")
        if np.any(np.bincount(at) > 1):
            raise MeshError("facet groups overlap")
        if self.facet_groups and len(tagged) != len(boundary):
            raise MeshError(
                f"facet groups do not partition the boundary "
                f"({len(tagged)} tagged vs {len(boundary)} boundary facets)"
            )
        return self

    def diameter(self):
        lo = self.nodes.min(axis=0)
        hi = self.nodes.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def with_fields(self, **fields):
        merged = dict(self.fields)
        merged.update(fields)
        return Mesh(self.dim, self.nodes, self.cells, self.facet_groups,
                    self.periodic_pairs, merged)


def detect_periodic_pairs(mesh, group_pairs):
    """Match nodes of opposite lateral faces up to a translation.

    Parameters
    ----------
    mesh : Mesh
    group_pairs : dict[str, (str, str)]
        Maps a direction label to (master group, slave group).  The
        translation vector is inferred as the difference of the group node
        centroids, which is exact for translated facet sets.  Nodes match
        within ``1e-9 * mesh.diameter()``.

    Returns
    -------
    dict[str, (P, 2) int array] of (master, slave) node index pairs.
    """
    tol = 1e-9 * mesh.diameter()
    out = {}
    for direction, (master_group, slave_group) in group_pairs.items():
        masters = mesh.group_nodes(master_group)
        slaves = mesh.group_nodes(slave_group)
        if len(masters) != len(slaves):
            raise MeshError(
                f"periodic groups {master_group!r}/{slave_group!r} have "
                f"{len(masters)} vs {len(slaves)} nodes"
            )
        shift = mesh.nodes[slaves].mean(axis=0) - mesh.nodes[masters].mean(axis=0)
        target = mesh.nodes[slaves] - shift
        source = mesh.nodes[masters]
        order_m = np.lexsort(tuple(np.round(source[:, k] / tol) for k in range(mesh.dim)))
        order_s = np.lexsort(tuple(np.round(target[:, k] / tol) for k in range(mesh.dim)))
        src = source[order_m]
        tgt = target[order_s]
        err = np.linalg.norm(src - tgt, axis=1)
        worst = int(np.argmax(err))
        if err[worst] > tol:
            coord = tgt[worst] + shift
            raise MeshError(
                f"unmatched periodic node in direction {direction!r} at "
                f"{np.array2string(coord, precision=6)} "
                f"(mismatch {err[worst]:.3e} > tol {tol:.3e})"
            )
        pairs = np.column_stack([masters[order_m], slaves[order_s]])
        out[direction] = pairs
    return out


# -- plain-text IO ---------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


def save_mesh(mesh, path):
    """Write a mesh (and attached nodal fields) in perfomesh v1 format; a
    facet-group, pairing or field name that would not read back (empty,
    holding whitespace or not ASCII) is a ``MeshError``, raised before the
    file is opened."""
    blocks = {"facet group": mesh.facet_groups, "periodic pairing": mesh.periodic_pairs,
              "field": mesh.fields}
    for what, named in blocks.items():
        for name in named:
            # the reader splits a block header on whitespace and reads ASCII
            if not (isinstance(name, str) and re.fullmatch(r"[!-~]+", name)):
                raise MeshError(f"{what} name {name!r} cannot be saved: a name is one or "
                                "more printable ASCII characters without whitespace")
    lines = [FORMAT_HEADER]
    lines.append(f"nodes {mesh.num_nodes}")
    for row in mesh.nodes:
        lines.append(" ".join(_fmt(v) for v in row))
    index_blocks = [("cells", mesh.cells)]
    index_blocks += [(f"group {name}", mesh.facet_groups[name])
                     for name in sorted(mesh.facet_groups)]
    index_blocks += [(f"periodic {name}", mesh.periodic_pairs[name])
                     for name in sorted(mesh.periodic_pairs)]
    for head, rows in index_blocks:
        lines.append(f"{head} {len(rows)}")
        lines.extend(" ".join(str(int(v)) for v in row) for row in rows)
    for name in sorted(mesh.fields):
        values = np.asarray(mesh.fields[name])
        kind = "complex" if np.iscomplexobj(values) else "real"
        lines.append(f"field {name} {kind} {len(values)}")
        if kind == "complex":
            for v in values:
                lines.append(f"{_fmt(v.real)} {_fmt(v.imag)}")
        else:
            for v in values:
                lines.append(_fmt(v))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


class _Reader:
    def __init__(self, path):
        with open(path, "r", encoding="ascii") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self, what):
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            raise MeshFormatError(f"unexpected end of file, expected {what}",
                                  line=len(self.lines))
        self.pos += 1
        return self.lines[self.pos - 1].strip(), self.pos

    def peek(self):
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos].strip()

    def header(self, usage):
        """Block header shaped like ``usage`` ('group <name> K'): (names, count)."""
        keyword = usage.split()[0]
        text, ln = self.next(f"{keyword} header")
        parts = text.split()
        if len(parts) != len(usage.split()) or parts[0] != keyword:
            raise MeshFormatError(f"expected '{usage}', got {text!r}", line=ln)
        if not parts[-1].isdecimal():  # a count is a whole number >= 0
            raise MeshFormatError(f"bad count in {text!r}", line=ln)
        return parts[1:-1], int(parts[-1])

    def rows(self, count, width, convert, what):
        """``count`` lines of ``width`` values each, converted by ``convert``."""
        out = []
        for _ in range(count):
            text, ln = self.next(what)
            vals = text.split()
            if len(vals) != width:
                raise MeshFormatError(f"{what} needs {width} values, got {len(vals)}",
                                      line=ln)
            try:
                out.append([convert(v) for v in vals])
            except ValueError as exc:
                raise MeshFormatError(f"bad {what} {text!r}: {exc}", line=ln) from None
        return out


def load_mesh(path):
    """Read a perfomesh v1 file back into a Mesh."""
    r = _Reader(path)
    header, ln = r.next("format header")
    if header != FORMAT_HEADER:
        raise MeshFormatError(f"unsupported format header {header!r}", line=ln)
    _, n_nodes = r.header("nodes N")
    if n_nodes <= 0 or r.peek() is None:
        raise MeshFormatError("mesh has no nodes", line=r.pos)
    dim = len(r.peek().split())
    if dim not in (2, 3):
        raise MeshFormatError(f"nodes must have 2 or 3 coordinates, got {dim}",
                              line=r.pos + 1)
    coords = r.rows(n_nodes, dim, float, "node")

    def index(v):
        i = int(v)
        if not 0 <= i < n_nodes:
            raise ValueError(f"node {i} out of range")
        return i

    cells = r.rows(r.header("cells N")[1], dim + 1, index, "cell")
    groups, periodic, fields = {}, {}, {}
    while (head := r.peek()) is not None:
        keyword = head.split()[0]
        if keyword == "group":
            (name,), count = r.header("group <name> K")
            groups[name] = np.array(r.rows(count, dim, index, "facet"),
                                    dtype=np.int64).reshape(-1, dim)
        elif keyword == "periodic":
            (name,), count = r.header("periodic <dir> K")
            periodic[name] = np.array(r.rows(count, 2, index, "periodic pair"),
                                      dtype=np.int64).reshape(-1, 2)
        elif keyword == "field":
            (name, kind), count = r.header("field <name> <kind> N")
            if kind == "complex":
                vals = [complex(re, im) for re, im in r.rows(count, 2, float, "field value")]
            elif kind == "real":
                vals = [v for (v,) in r.rows(count, 1, float, "field value")]
            else:
                raise MeshFormatError(f"unknown field kind {kind!r}", line=r.pos)
            fields[name] = np.array(vals)
        else:
            raise MeshFormatError(f"unknown block {head!r}", line=r.pos + 1)

    try:
        return Mesh(dim, np.array(coords), np.array(cells, dtype=np.int64).reshape(-1, dim + 1),
                    groups, periodic, fields)
    except MeshError as exc:
        raise MeshFormatError(str(exc)) from exc
