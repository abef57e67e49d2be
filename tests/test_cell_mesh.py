import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import mesh_reference
from perfoplate import fem
from perfoplate.cell_mesh import (_PRISM_TETS, _CrossSection, _first_touch, _rank_sort,
                                  generate_unit_cell_mesh)
from perfoplate.geometry import CellGeometry, GeometryError
from perfoplate.mesh import Mesh


def fluid_volume_formula(geom):
    hole = math.pi * geom.hole_diameter ** 2 / 4.0
    return geom.b1 * geom.b2 * geom.kappa - geom.thickness * (geom.b1 * geom.b2 - hole)


def test_empty_cell_is_plain_box(empty_cell_mesh):
    m = empty_cell_mesh
    assert "solid" not in m.facet_groups
    assert abs(m.cell_volumes().sum() - 1.0) < 1e-12
    assert abs(m.nodes[:, 2].min() + 0.5) < 1e-12
    assert abs(m.nodes[:, 2].max() - 0.5) < 1e-12


def test_straight_hole_volume(straight_cell_mesh):
    geom = CellGeometry()
    vol = straight_cell_mesh.cell_volumes().sum()
    expected = fluid_volume_formula(geom)
    assert abs(vol - expected) / expected < 0.02


def test_shear_preserves_volume():
    coarse = 0.12
    v0 = generate_unit_cell_mesh(CellGeometry(), coarse).cell_volumes().sum()
    v30 = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0),
                                  coarse).cell_volumes().sum()
    assert v30 == pytest.approx(v0, abs=1e-13)


@pytest.mark.parametrize("phi", [-60.0, -30.0, 0.0, 30.0, 60.0])
def test_positive_volumes_after_shear(phi):
    # default resolution; the shear is affine with unit determinant on every
    # tet, so inversion is impossible by construction
    mesh = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=phi), 0.08)
    assert mesh.cell_volumes().min() > 0


def test_face_areas_match_cell_section(straight_cell_mesh):
    geom = CellGeometry()
    assert straight_cell_mesh.group_measure("I+") == pytest.approx(geom.b1 * geom.b2, rel=1e-12)
    assert straight_cell_mesh.group_measure("I-") == pytest.approx(geom.b1 * geom.b2, rel=1e-12)


def test_groups_partition_boundary(slant_cell_mesh):
    slant_cell_mesh.validate()


def test_anisotropic_cell():
    geom = CellGeometry(b1=1.25, b2=0.8, hole_diameter=0.2)
    mesh = generate_unit_cell_mesh(geom, 0.1)
    mesh.validate()
    assert mesh.group_measure("I+") == pytest.approx(1.0, rel=1e-12)
    expected = fluid_volume_formula(geom)
    assert abs(mesh.cell_volumes().sum() - expected) / expected < 0.02


def mirror_map(mesh, b1=1.0):
    """Node index permutation of the y1 -> b1 - y1 reflection."""
    key = {}
    for i, p in enumerate(mesh.nodes):
        key[(round(p[0], 9), round(p[1], 9), round(p[2], 9))] = i
    perm = np.empty(mesh.num_nodes, dtype=int)
    for i, p in enumerate(mesh.nodes):
        j = key.get((round(b1 - p[0], 9), round(p[1], 9), round(p[2], 9)))
        assert j is not None, f"node {i} has no mirror partner"
        perm[i] = j
    return perm


def test_unsheared_mesh_is_mirror_symmetric(straight_cell_mesh):
    perm = mirror_map(straight_cell_mesh)
    cells = {tuple(sorted(c)) for c in straight_cell_mesh.cells.tolist()}
    mirrored = {tuple(sorted(perm[c].tolist()))
                for c in straight_cell_mesh.cells}
    assert cells == mirrored


def test_opposite_slants_are_mirror_meshes():
    mp = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.12)
    mm = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=-30.0), 0.12)
    np.testing.assert_array_equal(mp.cells, mm.cells)
    flipped = mm.nodes.copy()
    flipped[:, 0] = 1.0 - flipped[:, 0]
    np.testing.assert_allclose(np.sort(mp.nodes[:, 0]), np.sort(flipped[:, 0]),
                               atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(b1=st.floats(0.5, 2.0), b2=st.floats(0.5, 2.0),
       hole_diameter=st.floats(0.05, 0.6), slope=st.floats(-60.0, 60.0))
def test_periodic_pairing_on_random_cells(b1, b2, hole_diameter, slope):
    try:
        geom = CellGeometry(b1=b1, b2=b2, hole_diameter=hole_diameter,
                            hole_slope_deg=slope)
        m = generate_unit_cell_mesh(geom, 0.2)
    except GeometryError:
        assume(False)
    tol = 1e-9 * m.diameter()
    for key, shift in (("d1", (b1, 0.0, 0.0)), ("d2", (0.0, b2, 0.0))):
        pairs = m.periodic_pairs[key]
        gap = m.nodes[pairs[:, 1]] - m.nodes[pairs[:, 0]] - shift
        assert np.abs(gap).max() <= tol
    T = fem.periodic_reduction(m)
    assert set(np.asarray(T.sum(axis=0)).ravel().tolist()) <= {1.0, 2.0, 4.0}
    fresh = fem.periodic_reduction(Mesh(3, m.nodes, m.cells, m.facet_groups,
                                        m.periodic_pairs))
    assert fresh is not T and fresh.shape == T.shape and (fresh != T).nnz == 0


def test_one_volume_pass_per_sheared_mesh(monkeypatch):
    # the orientation comes from the parity of the rank sort; the final mesh
    # computes the volumes once and keeps them for validate() and the P1 geometry
    dets = []
    real = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(len(a)) or real(a))
    m = generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.2)
    fem.p1_geometry(m)
    assert dets == [m.num_cells]


@settings(max_examples=15, deadline=None)
@given(b1=st.floats(0.5, 2.0), b2=st.floats(0.5, 2.0),
       hole_diameter=st.floats(0.05, 0.6), dz=st.floats(0.01, 0.5))
@example(b1=1.0, b2=0.5000000000000001, hole_diameter=0.5, dz=0.5)
def test_odd_rank_sort_is_a_negative_prism_volume(b1, b2, hole_diameter, dz):
    try:
        cs = _CrossSection(CellGeometry(b1=b1, b2=b2, hole_diameter=hole_diameter), 0.2)
    except GeometryError:
        assume(False)
    tris = np.concatenate([cs.disk_tris, cs.annulus_tris])
    v, odd = _rank_sort(cs.rank, tris)
    assert np.array_equal(np.sort(v, axis=1), np.sort(tris, axis=1))
    assert np.all(np.diff(cs.rank[v], axis=1) > 0)
    # the unsheared prisms over the sorted triangles, between z = 0 and dz
    x = np.concatenate([np.pad(cs.nodes[v], ((0, 0), (0, 0), (0, 1))),
                        np.pad(cs.nodes[v], ((0, 0), (0, 0), (0, 1)), constant_values=dz)],
                       axis=1)
    tets = x[:, _PRISM_TETS]
    det = np.linalg.det(tets[:, :, 1:] - tets[:, :, :1])
    assert np.array_equal(det < 0, np.repeat(odd[:, None], 3, axis=1))


def keys_below(size):
    """(size, int64 array of 1 or 2 dims with entries in [0, size))."""
    shapes = array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=12)
    return st.tuples(st.just(size), arrays(np.int64, shapes,
                                           elements=st.integers(0, size - 1)))


@settings(max_examples=200, deadline=None)
@given(case=st.integers(1, 40).flatmap(keys_below))
@example(case=(3, np.array([[2, 0, 2], [1, 0, 2]])))
def test_first_touch_matches_the_unique_form(case):
    size, keys = case
    touched = _first_touch(keys, size)
    assert touched.dtype == np.int64
    assert touched.tobytes() == mesh_reference.first_touch(keys).tobytes()


def test_hole_touching_the_cell_boundary_is_rejected():
    # one ulp of margin between rim and boundary: the annulus has flat triangles
    geom = CellGeometry(b1=1.0, b2=0.5000000000000001, hole_diameter=0.5)
    with pytest.raises(GeometryError, match="hole rim touches the cell boundary"):
        generate_unit_cell_mesh(geom, 0.2)


@pytest.mark.parametrize("diameter, cause", [
    (0.999999999999, "the hole rim touches the cell boundary within 5.000e-13; widen that gap"),
    (0.99999999, "the hole rim touches the cell boundary within 5.000e-09; widen that gap"),
    (0.0005, "the hole of diameter 0.0005 is too small; widen it")])
def test_cross_section_thinner_than_the_resolution_is_rejected(diameter, cause):
    # near the rim or in the hole's fan, triangles far thinner than the
    # resolution; meshed, the first geometry gave symmetry defects of 2e-5
    # and the second a failed cell flow residual
    with pytest.raises(GeometryError, match=r"resolutions high, below 0\.001: "
                                            rf"{re.escape(cause)} or refine the resolution$"):
        generate_unit_cell_mesh(CellGeometry(hole_diameter=diameter), 0.08)


@pytest.mark.parametrize("resolution", [math.inf, math.nan, 0.0, -1.0])
def test_resolution_must_be_positive_and_finite(resolution):
    with pytest.raises(GeometryError, match="resolution must be positive and finite"):
        generate_unit_cell_mesh(CellGeometry(), resolution)
