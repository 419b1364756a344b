"""Fourth-order ghost-point finite differences on unfitted level-set domains."""

from .analysis import (
    ConvergenceSeries,
    ErrorReport,
    compute_errors,
    fit_order,
    reconstruct_gradient,
    stencil_diagnostics,
)
from .assembly import (
    GhostRows,
    ProblemCoefficients,
    SolveReport,
    SparseSystem,
    assemble,
    build_ghost_rows,
    export_matrix_market,
    solve,
)
from .basis import RobinData, enumerate_basis
from .benchmarks import (
    Benchmark,
    annulus_homogeneous,
    annulus_quartic,
    by_name,
    complex_domain,
    convection_diffusion,
    peclet_numbers,
)
from .boundary_ops import GhostOperatorSolver
from .cli import PAPER13, RunConfig, execute_level, run_single, run_sweep
from .geometry import (
    Collars,
    Grid,
    LevelSet,
    NodeClassification,
    axis_projection,
    classify_nodes,
    collars_for_ghosts,
)
from .stencils import StencilStrategy, extend_classification, triangle_stencils

__version__ = "0.1.0"
