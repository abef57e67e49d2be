from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from perfoplate.cell_mesh import generate_unit_cell_mesh
from perfoplate.duct_mesh import generate_waveguide_mesh
from perfoplate.fem import FluidProperties
from perfoplate.geometry import CellGeometry, WaveguideGeometry
from perfoplate.mesh import Mesh


@pytest.fixture(scope="session")
def props():
    return FluidProperties()


@pytest.fixture(scope="session")
def empty_cell_mesh():
    return generate_unit_cell_mesh(CellGeometry(plate_thickness=0.0), 0.15)


@pytest.fixture(scope="session")
def straight_cell_mesh():
    return generate_unit_cell_mesh(CellGeometry(), 0.1)


@pytest.fixture(scope="session")
def slant_cell_mesh():
    return generate_unit_cell_mesh(CellGeometry(hole_slope_deg=30.0), 0.1)


@pytest.fixture(scope="session")
def duct_mesh():
    return generate_waveguide_mesh(WaveguideGeometry(), 0.02)


def structured_square_mesh(n, groups=True):
    """Uniform triangulation of the unit square, for FEM unit tests."""
    xs = np.linspace(0.0, 1.0, n + 1)
    ids = np.arange((n + 1) * (n + 1)).reshape(n + 1, n + 1)
    nodes = np.array([(x, y) for x in xs for y in xs])
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = ids[i, j], ids[i + 1, j]
            c, d = ids[i + 1, j + 1], ids[i, j + 1]
            tris.append((a, b, c))
            tris.append((a, c, d))
    fg = {}
    if groups:
        fg = {
            "left": [(ids[0, j], ids[0, j + 1]) for j in range(n)],
            "right": [(ids[n, j], ids[n, j + 1]) for j in range(n)],
            "bottom": [(ids[i, 0], ids[i + 1, 0]) for i in range(n)],
            "top": [(ids[i, n], ids[i + 1, n]) for i in range(n)],
        }
    return Mesh(2, nodes, np.array(tris), {k: np.array(v) for k, v in fg.items()})


class SpluCall(NamedTuple):
    """One call of scipy's splu: the matrix shape, the column ordering
    (``permc_spec``, "COLAMD" by default) and the other keyword options it
    was given (``relax``, ``panel_size``, ``diag_pivot_thresh``, ``options``;
    empty for SuperLU's defaults)."""

    shape: tuple
    ordering: str
    options: dict


@pytest.fixture
def splu_calls(monkeypatch):
    """A ``SpluCall`` for each matrix factored by scipy's splu while the test
    runs."""
    calls = []
    real = spla.splu

    def counting(A, permc_spec=None, diag_pivot_thresh=None, relax=None,
                 panel_size=None, options=None):
        given = {"relax": relax, "panel_size": panel_size,
                 "diag_pivot_thresh": diag_pivot_thresh, "options": options}
        calls.append(SpluCall(A.shape, permc_spec or "COLAMD",
                              {k: v for k, v in given.items() if v is not None}))
        return real(A, permc_spec=permc_spec, diag_pivot_thresh=diag_pivot_thresh,
                    relax=relax, panel_size=panel_size, options=options)
    monkeypatch.setattr(spla, "splu", counting)
    return calls


@pytest.fixture
def coo_to_csr_calls(monkeypatch):
    """Shape of each COO matrix converted to CSR while the test runs."""
    calls = []
    real = sp.coo_matrix.tocsr

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return real(self, *args, **kwargs)
    monkeypatch.setattr(sp.coo_matrix, "tocsr", counting)
    return calls


@pytest.fixture
def sparse_builds(monkeypatch):
    """Class name of each CSR or CSC matrix built while the test runs, by
    any route: arithmetic, conversion, transposition or a constructor."""
    builds = []

    def counting(real):
        def init(self, *args, **kwargs):
            builds.append(type(self).__name__)
            real(self, *args, **kwargs)
        return init
    for cls in (sp.csr_matrix, sp.csc_matrix):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    return builds
