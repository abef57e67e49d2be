import numpy as np
import pytest

from perfoplate.duct_mesh import generate_waveguide_mesh, interface_nodes
from perfoplate.geometry import GeometryError, WaveguideGeometry


def test_paper_dimensions_mesh(duct_mesh):
    m = duct_mesh
    m.validate()
    pairs = m.periodic_pairs["iface"]
    assert len(pairs) > 0
    # duplicated interface nodes coincide geometrically but are distinct dofs
    np.testing.assert_allclose(m.nodes[pairs[:, 0]], m.nodes[pairs[:, 1]])
    assert len(np.unique(pairs)) == 2 * len(pairs)
    # two subdomains: cells strictly below/above the interface line
    s = m.nodes[pairs[0, 0], 1]
    cen = m.nodes[m.cells].mean(axis=1)[:, 1]
    assert np.all((cen < s) | (cen > s))
    for group in ("Gamma_in", "Gamma_out", "Gamma0-", "Gamma0+", "wall"):
        assert len(m.facet_groups[group]) > 0
    geom = WaveguideGeometry()
    assert m.group_measure("Gamma_in") == pytest.approx(geom.h_io, rel=1e-12)
    assert m.group_measure("Gamma0-") == pytest.approx(geom.l_m, rel=1e-12)


def test_interface_nodes_sorted(duct_mesh):
    minus, plus, x = interface_nodes(duct_mesh)
    assert np.all(np.diff(x) > 0)
    np.testing.assert_allclose(duct_mesh.nodes[minus, 0], x)
    np.testing.assert_allclose(duct_mesh.nodes[plus, 0], x)


def test_degenerate_duct_rejected():
    with pytest.raises(GeometryError):
        WaveguideGeometry(l_io=0.0)


def test_node_count_scaling():
    geom = WaveguideGeometry()
    n1 = generate_waveguide_mesh(geom, 0.025).num_nodes
    n2 = generate_waveguide_mesh(geom, 0.0125).num_nodes
    ratio = n2 / n1
    assert 3.0 < ratio < 5.0


@pytest.mark.parametrize("resolution", [-0.0125, 0.0, float("nan"), float("inf"), -1.0])
def test_resolution_must_be_positive(resolution):
    with pytest.raises(GeometryError, match="resolution must be positive and finite"):
        generate_waveguide_mesh(WaveguideGeometry(), resolution)


def test_mesh_is_connected_through_interface_pairs(duct_mesh):
    # gluing the pairs reconnects the two halves (used by the flow solve)
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph
    m = duct_mesh
    rows, cols = [], []
    for cell in m.cells:
        for a in range(3):
            rows.append(cell[a])
            cols.append(cell[(a + 1) % 3])
    pairs = m.periodic_pairs["iface"]
    rows += pairs[:, 0].tolist()
    cols += pairs[:, 1].tolist()
    g = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                      shape=(m.num_nodes, m.num_nodes))
    n, _ = csgraph.connected_components(g, directed=False)
    assert n == 1
