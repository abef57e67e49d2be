"""Two-scale FEM solver for acoustic transmission through perforated
plates immersed in a steady potential flow."""

from .geometry import CellGeometry, WaveguideGeometry, GeometryError
from .fem import FluidProperties
from .mesh import Mesh, load_mesh, save_mesh
from .cell_mesh import generate_unit_cell_mesh
from .duct_mesh import generate_waveguide_mesh
from .flow import (FlowField, MacroFlowField, solve_cell_potential_flow,
                   solve_macro_potential_flow)
from .cell_problems import (CellOperator, CellSolutionSet, MachBoundError,
                            assemble_Aw, solve_cell_problems)
from .coefficients import (HomogenizedCoefficients, compute_coefficients,
                           sweep_coefficients, verify_symmetries)
from .waveguide import (MacroProblem, MacroSolution, assemble_coupled_system,
                        frequency_sweep, solve_frequency, transmission_loss)
from .pipeline import setup_waveguide_run, tl_curve

__version__ = "0.1.0"
