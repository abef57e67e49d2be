import functools
import itertools
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mesh_reference
from perfoplate import fem
from perfoplate.cell_mesh import generate_unit_cell_mesh
from perfoplate.duct_mesh import generate_waveguide_mesh
from perfoplate.geometry import CellGeometry, GeometryError, WaveguideGeometry
from perfoplate.mesh import (Mesh, MeshError, MeshFormatError, _facet_keys,
                             detect_periodic_pairs, load_mesh, save_mesh)


def box_mesh():
    """Two-tet unit... actually a 6-tet unit cube with face groups."""
    nodes = np.array([(i, j, k) for i in (0.0, 1.0) for j in (0.0, 1.0)
                      for k in (0.0, 1.0)])
    # index: i*4 + j*2 + k
    cubes = [[0, 4, 6, 7], [0, 4, 5, 7], [0, 1, 5, 7],
             [0, 1, 3, 7], [0, 2, 3, 7], [0, 2, 6, 7]]
    return Mesh(3, nodes, np.array(cubes))


def test_geometry_invariants():
    with pytest.raises(GeometryError):
        CellGeometry(kappa=-1.0)
    with pytest.raises(GeometryError):
        CellGeometry(hole_diameter=1.5)
    with pytest.raises(GeometryError):
        CellGeometry(hole_slope_deg=95.0)
    with pytest.raises(GeometryError):
        CellGeometry(plate_thickness=1.2)
    with pytest.raises(GeometryError):
        # rim offset of the slanted hole must stay inside the cell
        CellGeometry(hole_slope_deg=80.0, plate_thickness=0.5)
    with pytest.raises(GeometryError):
        WaveguideGeometry(l_io=0.0)
    with pytest.raises(GeometryError):
        WaveguideGeometry(interface_pos=0.5)
    assert WaveguideGeometry().interface_pos == pytest.approx(0.2)


def test_cell_volumes_positive_and_measures():
    m = box_mesh()
    vols = m.cell_volumes()
    assert np.all(np.abs(vols) > 0)
    assert abs(np.abs(vols).sum() - 1.0) < 1e-14


def test_mesh_owns_read_only_arrays():
    nodes = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    cells = np.array([[0, 1, 2]])
    edges = np.array([[0, 1]])
    pairs = np.array([[0, 1]])
    m = Mesh(2, nodes, cells, {"g": edges}, {"d": pairs})
    arrays = (m.nodes, m.cells, m.facet_groups["g"], m.periodic_pairs["d"])
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0, 0] = 7
    assert m.cell_volumes()[0] == 0.5
    # editing the caller's arrays leaves the mesh (and its caches) as it was
    nodes[1, 0] = 3.0
    assert Mesh(2, nodes, cells).cell_volumes()[0] == 1.5
    assert m.nodes[1, 0] == 1.0 and m.cell_volumes()[0] == 0.5
    cells[0, 1], edges[0, 1], pairs[0, 1] = 2, 2, 2
    assert (m.cells[0, 1], m.facet_groups["g"][0, 1], m.periodic_pairs["d"][0, 1]) == (1, 1, 1)


@pytest.mark.parametrize("dim", [2, 3])
def test_facet_measures_kept_per_group(dim, straight_cell_mesh):
    mesh = straight_cell_mesh if dim == 3 else generate_waveguide_mesh(
        WaveguideGeometry(), 0.05)
    for name, facets in mesh.facet_groups.items():
        meas = mesh.facet_measures(name)
        assert mesh.facet_measures(name) is meas and not meas.flags.writeable
        x = mesh.nodes[facets]
        if dim == 2:
            expected = np.linalg.norm(x[:, 1] - x[:, 0], axis=1)
        else:
            expected = 0.5 * np.linalg.norm(
                np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]), axis=1)
        assert meas.tobytes() == expected.tobytes(), name
    with pytest.raises(MeshError, match="unknown facet group"):
        mesh.facet_measures("nowhere")


def test_roundtrip(tmp_path, straight_cell_mesh):
    m = straight_cell_mesh.with_fields(demo=np.arange(straight_cell_mesh.num_nodes,
                                                      dtype=float))
    path = tmp_path / "cell.msh"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert m2.dim == m.dim
    np.testing.assert_array_equal(m2.cells, m.cells)
    np.testing.assert_array_equal(m2.nodes, m.nodes)
    assert set(m2.facet_groups) == set(m.facet_groups)
    for k in m.facet_groups:
        np.testing.assert_array_equal(m2.facet_groups[k], m.facet_groups[k])
    for k in m.periodic_pairs:
        np.testing.assert_array_equal(m2.periodic_pairs[k], m.periodic_pairs[k])
    np.testing.assert_array_equal(m2.fields["demo"], m.fields["demo"])


@pytest.mark.parametrize("kind, name", [
    ("facet group", "my group"), ("facet group", ""), ("periodic pairing", "d\t1"),
    ("field", "f\n"), ("field", "caf\u00e9"),
])
def test_save_rejects_names_that_do_not_read_back(tmp_path, kind, name):
    # 'my group' was written as 'group my group 1', which the reader rejects
    nodes, cells = TRIANGLE_NODES, [[0, 1, 2]]
    groups, pairs, fields = {"g": [[0, 1]]}, {"d": [[0, 2]]}, {"f": np.zeros(3)}
    target = {"facet group": groups, "periodic pairing": pairs, "field": fields}[kind]
    target[name] = target.popitem()[1]
    path = tmp_path / "m.msh"
    with pytest.raises(MeshError, match=re.escape(f"{kind} name {name!r} cannot be saved")):
        save_mesh(Mesh(2, nodes, cells, groups, pairs, fields), path)
    assert not path.exists()


def test_names_with_punctuation_round_trip(tmp_path):
    names = ["I+", "lateral_x0", "a-b.c", "#1"]
    m = Mesh(2, TRIANGLE_NODES, [[0, 1, 2]], {n: [[0, 1]] for n in names[:2]},
             {names[2]: [[0, 2]]}, {names[3]: np.arange(3.0)})
    save_mesh(m, tmp_path / "m.msh")
    back = load_mesh(tmp_path / "m.msh")
    assert list(back.facet_groups) == names[:2] and list(back.periodic_pairs) == [names[2]]
    np.testing.assert_array_equal(back.fields[names[3]], np.arange(3.0))


def test_complex_field_roundtrip(tmp_path):
    m = box_mesh().with_fields(p=np.arange(8) * (1 + 2j))
    save_mesh(m, tmp_path / "b.msh")
    m2 = load_mesh(tmp_path / "b.msh")
    np.testing.assert_array_equal(m2.fields["p"], m.fields["p"])


finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.from_regex(r"[A-Za-z][A-Za-z0-9_+-]{0,6}", fullmatch=True)


@st.composite
def small_meshes(draw):
    """Random small meshes with groups, pairs and real and complex fields."""
    dim = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(dim + 1, 8))
    index = st.integers(0, n - 1)
    nodes = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                          min_size=n, max_size=n))
    cells = draw(st.lists(st.lists(index, min_size=dim + 1, max_size=dim + 1),
                          max_size=5))
    facets = st.lists(st.lists(index, min_size=dim, max_size=dim), max_size=4)
    pairs = st.lists(st.lists(index, min_size=2, max_size=2), max_size=4)
    groups = draw(st.dictionaries(names, facets, max_size=3))
    periodic = draw(st.dictionaries(names, pairs, max_size=2))
    real = draw(st.dictionaries(names, st.lists(finite, min_size=n, max_size=n),
                                max_size=2))
    cplx = draw(st.dictionaries(names, st.lists(st.complex_numbers(
        allow_nan=False, allow_infinity=False), min_size=n, max_size=n), max_size=2))
    fields = {k: np.array(v, dtype=float) for k, v in real.items()}
    fields.update({"c" + k: np.array(v, dtype=complex) for k, v in cplx.items()})
    return Mesh(dim, np.array(nodes), np.array(cells, dtype=np.int64).reshape(-1, dim + 1),
                groups, periodic, fields)


@settings(max_examples=60, deadline=None)
@given(mesh=small_meshes())
def test_roundtrip_random_meshes(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.msh"
        save_mesh(mesh, path)
        back = load_mesh(path)
    assert back.dim == mesh.dim
    np.testing.assert_array_equal(back.nodes, mesh.nodes)
    np.testing.assert_array_equal(back.cells, mesh.cells)
    for attr in ("facet_groups", "periodic_pairs", "fields"):
        got, want = getattr(back, attr), getattr(mesh, attr)
        assert set(got) == set(want)
        for k in want:
            np.testing.assert_array_equal(got[k], want[k])
            assert np.iscomplexobj(got[k]) == np.iscomplexobj(want[k])


def test_truncated_file_reports_line(tmp_path):
    path = tmp_path / "m.msh"
    save_mesh(box_mesh(), path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:5]) + "\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert "line" in str(err.value)


def test_version_mismatch(tmp_path):
    path = tmp_path / "m.msh"
    save_mesh(box_mesh(), path)
    body = path.read_text().replace("perfomesh v1", "perfomesh v2", 1)
    path.write_text(body)
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_bad_coordinate_reports_line(tmp_path):
    path = tmp_path / "m.msh"
    save_mesh(box_mesh(), path)
    lines = path.read_text().splitlines()
    lines[3] = "0 zero 0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert "line 4" in str(err.value)


def box_with_lateral_groups():
    """The cube, positively oriented, with a facet group per face."""
    m = box_mesh()
    cells = m.cells.copy()
    flip = m.cell_volumes() < 0
    cells[flip] = cells[flip][:, [0, 1, 3, 2]]
    faces = m.boundary_facets()
    mids = m.nodes[faces].mean(axis=1)
    groups = {}
    for name, axis, val in (("lateral_x0", 0, 0.0), ("lateral_x1", 0, 1.0),
                            ("lateral_y0", 1, 0.0), ("lateral_y1", 1, 1.0),
                            ("I-", 2, 0.0), ("I+", 2, 1.0)):
        sel = np.abs(mids[:, axis] - val) < 1e-12
        groups[name] = faces[sel]
    return Mesh(3, m.nodes, cells, groups)


def test_detect_periodic_pairs_box():
    m = box_with_lateral_groups()
    pairs = detect_periodic_pairs(m, {"d1": ("lateral_x0", "lateral_x1")})
    assert len(pairs["d1"]) == 4  # one per node of a cube face
    for master, slave in pairs["d1"]:
        np.testing.assert_allclose(m.nodes[slave] - m.nodes[master], [1, 0, 0])


def test_detect_periodic_pairs_perturbed():
    m = box_with_lateral_groups()
    nodes = m.nodes.copy()
    slave_nodes = np.unique(m.facet_groups["lateral_x1"])
    nodes[slave_nodes[0], 1] += 1e-5
    m2 = Mesh(3, nodes, m.cells, m.facet_groups)
    with pytest.raises(MeshError) as err:
        detect_periodic_pairs(m2, {"d1": ("lateral_x0", "lateral_x1")})
    assert "unmatched" in str(err.value)


def test_sheared_cell_still_pairs(slant_cell_mesh):
    # regenerating the pairing on the slanted mesh must reproduce it
    pairs = detect_periodic_pairs(
        slant_cell_mesh, {"d1": ("lateral_x0", "lateral_x1"),
                          "d2": ("lateral_y0", "lateral_y1")})
    for key in ("d1", "d2"):
        got = {tuple(p) for p in pairs[key]}
        want = {tuple(p) for p in slant_cell_mesh.periodic_pairs[key]}
        assert got == want


def test_pairing_complete_and_disjoint(straight_cell_mesh):
    m = straight_cell_mesh
    lateral = np.unique(np.concatenate(
        [m.group_nodes(g) for g in ("lateral_x0", "lateral_x1",
                                    "lateral_y0", "lateral_y1")]))
    seen = {}
    for key, pairs in m.periodic_pairs.items():
        for master, slave in pairs:
            assert seen.setdefault((key, slave), master) == master
    paired = set()
    for pairs in m.periodic_pairs.values():
        paired.update(pairs.reshape(-1).tolist())
    assert paired == set(lateral.tolist())


TRIANGLE_NODES = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
TET_NODES = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


@pytest.mark.parametrize("dim, nodes, cell", [
    (2, TRIANGLE_NODES, [0, 2, 1]),                                   # inverted
    (2, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [0, 1, 2]),            # zero area
    (3, TET_NODES, [0, 2, 1, 3]),                                     # inverted
    (3, TET_NODES[:3] + [(1.0, 1.0, 0.0)], [0, 1, 2, 3]),             # zero volume
])
def test_validate_rejects_non_positive_volume(dim, nodes, cell):
    with pytest.raises(MeshError, match="non-positive volume"):
        Mesh(dim, np.array(nodes), np.array([cell])).validate()


@pytest.mark.parametrize("kwargs", [dict(facet_groups={"g": [[0, 3]]}),
                                    dict(periodic_pairs={"d": [[0, 3]]}),
                                    dict(periodic_pairs={"d": [[-1, 0]]})])
def test_mesh_rejects_node_indices_out_of_range(kwargs):
    with pytest.raises(MeshError, match="out of range"):
        Mesh(2, np.array(TRIANGLE_NODES), np.array([[0, 1, 2]]), **kwargs)


FIVE_NODES = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                       (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)])


@pytest.mark.parametrize("kwargs, message", [
    (dict(facet_groups={"g": [[0, 1], [1, 2], [2, 3]]}),
     "facet group 'g' must have shape (K, 3), got (3, 2)"),
    (dict(facet_groups={"g": [0, 1, 2]}), "facet group 'g' must have shape (K, 3), got (3,)"),
    (dict(periodic_pairs={"d": [[0, 1, 2], [1, 2, 3]]}),
     "periodic pairing 'd' must have shape (P, 2), got (2, 3)"),
    (dict(periodic_pairs={"d": [[[0, 1]]]}),
     "periodic pairing 'd' must have shape (P, 2), got (1, 1, 2)"),
])
def test_mesh_rejects_index_rows_of_the_wrong_width(kwargs, message):
    with pytest.raises(MeshError, match=re.escape(message)):
        Mesh(3, FIVE_NODES, [[0, 1, 2, 3], [1, 2, 3, 4]], **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(cells=[[0.9, 1.5, 2.2]]), "cell connectivity must hold whole node numbers, got 0.9"),
    (dict(facet_groups={"g": [[0.7, 1.9]]}),
     "facet group 'g' must hold whole node numbers, got 0.7"),
    (dict(periodic_pairs={"d": [[0.0, 1.5]]}),
     "periodic pairing 'd' must hold whole node numbers, got 1.5"),
    (dict(periodic_pairs={"d": [[0.0, math.nan]]}),
     "periodic pairing 'd' must hold whole node numbers, got nan"),
    (dict(facet_groups={"g": [[0.0, math.inf]]}),
     "facet group 'g' must hold whole node numbers, got inf"),
    (dict(cells=[["0", "1", "2"]]), "cell connectivity must hold whole node numbers, got <U1"),
])
def test_mesh_rejects_node_ids_that_are_not_whole_numbers(kwargs, message):
    # a cast to int64 alone truncated them: the cells [[0.9, 1.5, 2.2]] and
    # the facet [0.7, 1.9] were built as [0, 1, 2] and [0, 1]
    kwargs = {"cells": [[0, 1, 2]], **kwargs}
    with pytest.raises(MeshError, match=re.escape(message)):
        Mesh(2, TRIANGLE_NODES, **kwargs)


def test_mesh_accepts_whole_float_node_ids():
    m = Mesh(2, TRIANGLE_NODES, [[0.0, 1.0, 2.0]], {"g": [[0.0, 1.0]]}, {"d": [[0.0, 2.0]]})
    for ids in (m.cells, m.facet_groups["g"], m.periodic_pairs["d"]):
        assert ids.dtype == np.int64
    assert m.cells.tolist() == [[0, 1, 2]] and m.facet_groups["g"].tolist() == [[0, 1]]


def test_mesh_accepts_empty_groups_and_pairings():
    m = Mesh(3, FIVE_NODES, [[0, 1, 2, 3]], {"g": [], "h": np.empty((0, 3))},
             {"d": np.array([], dtype=np.int64)})
    assert m.facet_groups["g"].shape == m.facet_groups["h"].shape == (0, 3)
    assert m.periodic_pairs["d"].shape == (0, 2)


SMALL_MESH_TEXT = """perfomesh v1
nodes 3
0 0
1 0
0 1
cells 1
0 1 2
group g 1
0 1
periodic d 1
0 2
field f real 3
0
1
2
"""


@pytest.mark.parametrize("line, text", [
    (8, "group g x"),          # non-integer counts
    (10, "periodic d x"),
    (12, "field f real x"),
    (6, "cells -1"),           # negative counts
    (8, "group g -2"),
    (10, "periodic d -1"),
    (12, "field f real -3"),
    (9, "0 x"),                # non-integer indices
    (11, "0 x"),
    (9, "0 9"),                # indices beyond the node range
    (11, "9 0"),
])
def test_malformed_block_reports_line(tmp_path, line, text):
    path = tmp_path / "m.msh"
    path.write_text(SMALL_MESH_TEXT)
    assert load_mesh(path).periodic_pairs["d"].tolist() == [[0, 2]]
    lines = SMALL_MESH_TEXT.splitlines()
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("values", [np.zeros(7), np.zeros(2, complex), np.zeros((3, 2)), 1.0])
def test_mesh_rejects_fields_that_are_not_nodal(values):
    message = f"field 'q' must hold 3 nodal values, got shape {np.shape(values)}"
    with pytest.raises(MeshError, match=re.escape(message)):
        Mesh(2, TRIANGLE_NODES, [[0, 1, 2]], fields={"q": values})


def test_load_rejects_a_field_that_is_not_nodal(tmp_path):
    path = tmp_path / "m.msh"
    path.write_text(SMALL_MESH_TEXT.replace("field f real 3\n0\n", "field p real 2\n"))
    with pytest.raises(MeshFormatError,
                       match=re.escape("field 'p' must hold 3 nodal values, got shape (2,)")):
        load_mesh(path)


def test_validate_catches_group_overlap():
    m = box_with_lateral_groups()
    groups = dict(m.facet_groups)
    groups["extra"] = groups["I+"]
    bad = Mesh(3, m.nodes, m.cells, groups)
    with pytest.raises(MeshError, match="facet groups overlap"):
        bad.validate()


def test_validate_names_the_first_non_boundary_facet():
    m = box_with_lateral_groups()
    groups = dict(m.facet_groups)
    # the cube diagonal face (0, 3, 7) is shared by two tets, and so is (0, 5, 7)
    groups["lateral_x1"] = np.vstack([groups["lateral_x1"], [[7, 5, 0], [7, 3, 0]]])
    groups["I+"] = np.vstack([groups["I+"], [[3, 7, 0]]])
    with pytest.raises(MeshError, match=r"group 'lateral_x1' contains a "
                                        r"non-boundary facet \(0, 5, 7\)"):
        Mesh(3, m.nodes, m.cells, groups).validate()


def test_validate_requires_groups_to_partition_the_boundary():
    m = box_with_lateral_groups().validate()
    groups = dict(m.facet_groups)
    del groups["I-"]
    with pytest.raises(MeshError, match=r"\(10 tagged vs 12 boundary facets\)"):
        Mesh(3, m.nodes, m.cells, groups).validate()


def test_facet_keys_fit_int64_up_to_two_to_the_21_nodes():
    top = 2 ** 21
    assert _facet_keys(np.full((1, 3), top - 1), top).tolist() == [2 ** 63 - 1]
    assert _facet_keys(np.array([[2, 0, 1], [1, 2, 0]]), top).tolist() == [top + 2] * 2
    with pytest.raises(MeshError, match=r"2097153 nodes are too many for int64 facet keys"):
        _facet_keys(np.zeros((1, 3), np.int64), top + 1)
    # the boundary path forms its keys with the same guard; a stand-in for a
    # mesh of 2**21 nodes holds only the cells the keys are built from
    cell = [top - 1, top - 2, top - 4, top - 3]
    want = sorted((a * top + b) * top + c for a, b, c in itertools.combinations(sorted(cell), 3))
    stand_in = SimpleNamespace(dim=3, cells=np.array([cell]), num_nodes=top)
    assert Mesh._boundary_keys(stand_in).tolist() == want
    stand_in.num_nodes = top + 1
    with pytest.raises(MeshError, match=r"2097153 nodes are too many for int64 facet keys"):
        Mesh._boundary_keys(stand_in)


@functools.lru_cache(maxsize=None)
def corruptible_meshes():
    """A small sheared cell mesh and a small duct mesh, with the faces of
    their cells that no group may hold."""
    out = []
    for mesh in (generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.25),
                 generate_waveguide_mesh(WaveguideGeometry(), 0.05)):
        faces = {f for c in mesh.cells.tolist()
                 for f in itertools.combinations(sorted(c), mesh.dim)}
        interior = sorted(faces - set(map(tuple, mesh.boundary_facets().tolist())))
        out.append((mesh, interior))
    return out


@settings(max_examples=100, deadline=None)
@given(which=st.sampled_from([0, 1]), data=st.data())
def test_validate_agrees_with_the_reference_on_corrupted_groups(which, data):
    # a dropped facet, a facet copied into a second group, an interior facet
    # added and a facet repeated within its group, in any mix and order
    mesh, interior = corruptible_meshes()[which]
    groups = {name: facets.tolist() for name, facets in mesh.facet_groups.items()}
    names = list(groups)
    kinds = st.sampled_from(["drop", "copy", "interior", "repeat"])
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=4)):
        name = data.draw(st.sampled_from([n for n in names if groups[n]]))
        facets = groups[name]
        if kind == "drop":
            facets.pop(data.draw(st.integers(0, len(facets) - 1)))
            continue
        if kind == "interior":
            facet = interior[data.draw(st.integers(0, len(interior) - 1))]
        else:
            facet = facets[data.draw(st.integers(0, len(facets) - 1))]
        if kind == "copy":
            facets = groups[data.draw(st.sampled_from([n for n in names if n != name]))]
        facets.insert(data.draw(st.integers(0, len(facets))),
                      list(data.draw(st.permutations(facet))))

    def verdict(check):
        try:
            check(Mesh(mesh.dim, mesh.nodes, mesh.cells, groups))
        except MeshError as exc:
            return str(exc)
        return None

    assert verdict(Mesh.validate) == verdict(mesh_reference.validate)


@st.composite
def cells_on_few_nodes(draw):
    """(dim, cells) with every cell on dim + 1 distinct of at most dim + 4
    nodes, so that a facet is owned by one cell, by two, or by three or more."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(dim + 1, dim + 4))
    cell = st.permutations(range(n)).map(lambda p: p[:dim + 1])
    return dim, draw(st.lists(cell, max_size=12))


@settings(max_examples=200, deadline=None)
@given(case=cells_on_few_nodes())
@example(case=(3, []))
@example(case=(3, [[0, 1, 2, 3]]))
@example(case=(3, [[0, 1, 2, 3], [0, 1, 2, 4], [2, 1, 0, 5], [1, 2, 0, 3]]))
@example(case=(2, [[0, 1, 2], [1, 0, 3], [0, 1, 4], [2, 3, 4]]))
def test_boundary_keys_match_the_unique_form(case):
    dim, cells = case
    cells = np.array(cells, dtype=np.int64).reshape(-1, dim + 1)
    mesh = Mesh(dim, np.zeros((dim + 4, dim)), cells)
    assert_same_bytes(mesh._boundary_keys(), mesh_reference.boundary_keys(mesh))


def test_boundary_facets_of_the_cube():
    faces = box_mesh().boundary_facets()
    assert faces.dtype == np.int64 and faces.shape == (12, 3)
    assert faces.tolist() == sorted(faces.tolist())
    # every boundary face lies on one face of the cube
    x = box_mesh().nodes[faces]
    assert np.all(np.any(np.ptp(x, axis=1) == 0.0, axis=1))


CELL_CASES = [(dict(hole_slope_deg=phi), res)
              for phi in (-60.0, -30.0, 0.0, 30.0, 60.0) for res in (0.2, 0.1)]
CELL_CASES += [(dict(hole_slope_deg=30.0), 0.08),
               (dict(plate_thickness=0.0), 0.15),
               (dict(b1=1.5, b2=0.8, hole_slope_deg=20.0), 0.1),
               (dict(kappa=0.3, plate_thickness=0.6, hole_diameter=0.3), 0.05)]
DUCT_CASES = [({}, res) for res in (0.025, 0.0125, 0.00625, 0.0111)]
DUCT_CASES += [(dict(interface_pos=0.1), 0.01),
               (dict(l_m=0.37, h_m=0.23, l_io=0.13, h_io=0.05, interface_pos=0.21),
                0.0125)]


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_mesh(mesh, ref):
    assert_same_bytes(mesh.nodes, ref.nodes)
    assert_same_bytes(mesh.cells, ref.cells)
    for name in ("facet_groups", "periodic_pairs"):
        ours, theirs = getattr(mesh, name), getattr(ref, name)
        assert list(ours) == list(theirs)
        for key in theirs:
            assert_same_bytes(ours[key], theirs[key])
    assert_same_bytes(mesh.boundary_facets(), mesh_reference.boundary_facets(mesh))
    T, T_ref = fem.periodic_reduction(mesh), mesh_reference.periodic_reduction(mesh)
    assert T.shape == T_ref.shape
    for part in ("data", "indices", "indptr"):
        assert_same_bytes(getattr(T, part), getattr(T_ref, part))


@pytest.mark.parametrize("kwargs, resolution", CELL_CASES)
def test_cell_mesh_matches_reference_generator(kwargs, resolution):
    geom = CellGeometry(**kwargs)
    assert_same_mesh(generate_unit_cell_mesh(geom, resolution),
                     mesh_reference.generate_unit_cell_mesh(geom, resolution))


@pytest.mark.parametrize("kwargs, resolution", DUCT_CASES)
def test_duct_mesh_matches_reference_generator(kwargs, resolution):
    geom = WaveguideGeometry(**kwargs)
    assert_same_mesh(generate_waveguide_mesh(geom, resolution),
                     mesh_reference.generate_waveguide_mesh(geom, resolution))


GEOMETRY_CASES = [(generate_unit_cell_mesh, CellGeometry(hole_slope_deg=phi), res)
                  for phi in (0.0, 30.0, 60.0, -45.0) for res in (0.08, 0.2)]
GEOMETRY_CASES += [(generate_waveguide_mesh, WaveguideGeometry(), 0.0125)]


def assert_same_bits(a, b):
    # tobytes compares every bit; signbit names the zeros' signs explicitly
    assert_same_bytes(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("generate, geom, resolution", GEOMETRY_CASES)
def test_geometry_matches_the_fancy_gather_form(generate, geom, resolution):
    mesh = generate(geom, resolution)
    grads, vols = fem.p1_geometry(mesh)
    ref_grads, ref_vols = mesh_reference.p1_geometry(mesh)
    assert_same_bits(mesh.cell_volumes(), mesh_reference.cell_volumes(mesh))
    assert_same_bits(vols, ref_vols)
    assert_same_bits(grads, ref_grads)
    # axis-aligned edges leave negative zeros in the table, so the signs are checked
    assert np.signbit(grads[grads == 0]).any()


def test_periodic_reduction_without_pairs_is_identity():
    T = fem.periodic_reduction(box_mesh())
    assert (T != sp.identity(8)).nnz == 0
