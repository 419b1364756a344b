"""Global sparse system: interior finite-difference rows plus ghost rows.

Interior nodes get the fourth-order centred discretization of
``-k*Laplace(phi) + U . grad(phi)`` (two width-5 crosses sharing the
centre); ghost nodes get the boundary-operator rows built by the stencil
strategies.  Active-node numbering (interior first, ghosts after) indexes
both rows and columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import RobinData
from .boundary_ops import GhostOperatorSolver
from .errors import MissingNeighbor, NotAdmissible, SingularMatrix, SolveFailed
from .geometry import Collars, NodeClassification, collars_for_ghosts
from .stencils import TRIANGLE_KINDS, StencilStrategy, cone_rows, triangle_stencils

#: Fourth-order centred weights for the second derivative (offsets -2..2), * 1/h^2.
LAPLACE_WEIGHTS = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])

#: Fourth-order centred weights for the first derivative (offsets -2..2), * 1/h.
DERIVATIVE_WEIGHTS = np.array([1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0])

#: Relative residual every solve must reach.
SOLVE_TOLERANCE = 1e-10

#: Iterative refinement steps a solve may take to reach ``SOLVE_TOLERANCE``.
MAX_REFINEMENTS = 3


@dataclass(frozen=True)
class ProblemCoefficients:
    """PDE data: diffusion, velocity field, source, and Robin boundary rule.

    All three callables take arrays: ``velocity(x, y)`` and ``source(x, y)``
    coordinate arrays, ``robin(points, normals)`` K collar points and their
    unit outward normals, (K, 2) each, for the ``RobinData`` enforced there.
    An array call must equal per-point calls bit for bit, as for
    ``LevelSet``: a level's right-hand sides come from one call.
    """

    diffusion: float
    velocity: Callable
    source: Callable
    robin: Callable[[np.ndarray, np.ndarray], RobinData]

    def __post_init__(self) -> None:
        if not self.diffusion > 0.0:
            raise ValueError(f"diffusion coefficient must be positive, got {self.diffusion}")


@dataclass
class SparseSystem:
    """Assembled N x N system over the active nodes; the classification holds the counts."""

    matrix: sp.csr_matrix
    rhs: np.ndarray


@dataclass
class GhostRows:
    """Every ghost row of a level, one column per per-ghost fact.

    Row k is the equation of ghost ``collars.ghost_ij[k]`` (classification
    order): ``sizes[k]`` members, the ghost itself first, stored row after
    row in ``member_ij`` with their coefficients at the same positions of
    ``coeffs``, and the datum ``rhs[k]`` enforced at ``collars[k]``.
    ``chi`` is the condition number of the row's constraint matrix and
    ``r_ratio`` the largest ratio of another ghost member's coefficient to
    the ghost's own.  ``swaps`` counts the accepted S4.2 swaps and
    ``aperture`` is the final cone aperture in degrees; both are 0 for the
    triangle strategies.  The source column of ``collars`` tells an S4.3
    row adopted from a rebuild on an axis-projected collar from a row whose
    closest-point projection fell back to the axis.
    """

    sizes: np.ndarray  # (G,)
    member_ij: np.ndarray  # (sizes.sum(), 2)
    coeffs: np.ndarray  # (sizes.sum(),)
    rhs: np.ndarray
    chi: np.ndarray
    r_ratio: np.ndarray
    collars: Collars
    swaps: np.ndarray
    aperture: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass
class SolveReport:
    """Solution vector with the residual actually achieved."""

    solution: np.ndarray
    residual: float
    refinements: int
    factor_seconds: float


def _interior_block(coeffs: ProblemCoefficients, classification: NodeClassification):
    """COO triplets and right-hand side for the interior rows of ``classification``.

    A row holds the ten slots of its node's ``cross()``; the centre appears
    in both crosses, and the CSR conversion sums its two entries.
    """
    interior_ij = classification.interior_ij
    grid = classification.grid
    n_rows = len(interior_ij)
    h = grid.h
    x, y = grid.coords(interior_ij[:, 0], interior_ij[:, 1])
    u, v = coeffs.velocity(x, y)
    u = np.broadcast_to(np.asarray(u, dtype=float), (n_rows,))
    v = np.broadcast_to(np.asarray(v, dtype=float), (n_rows,))
    rhs = np.broadcast_to(np.asarray(coeffs.source(x, y), dtype=float), (n_rows,)).copy()

    cross = classification.cross()
    vals = np.empty(cross.shape)
    diffusion = -coeffs.diffusion / h**2 * LAPLACE_WEIGHTS
    for axis, vel in ((0, u), (1, v)):
        for slot in range(cross.shape[2]):
            vals[:, axis, slot] = diffusion[slot] + vel * (DERIVATIVE_WEIGHTS[slot] / h)
    rows = np.repeat(np.arange(n_rows), cross[0].size)  # interior nodes are numbered first
    return rows, cross.ravel(), vals.ravel(), rhs


def _ghost_ratios(
    classification: NodeClassification, sizes: np.ndarray, member_ij: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """``GhostRows.r_ratio``: 0 without other ghost members, ``inf`` for a vanishing centre."""
    starts = np.cumsum(sizes) - sizes
    ghost = classification.index_at(*member_ij.T) >= classification.n_interior
    ghost[starts] = False
    largest = np.maximum.reduceat(np.where(ghost, np.abs(coeffs), -np.inf), starts)
    center = np.abs(coeffs[starts])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(center <= 1e-14, np.inf, largest / center)
    return np.where(largest == -np.inf, 0.0, ratio)


def build_ghost_rows(
    classification: NodeClassification,
    strategy: StencilStrategy,
    coeffs: ProblemCoefficients,
    collars: Collars | None = None,
) -> GhostRows:
    """Collar, stencil and minimum-norm coefficients for every ghost node.

    The ghosts' collars are ``collars`` (one per ghost, in ghost order, as
    ``extend_classification`` returns them) or else projected here.  A
    triangle strategy's level is one stacked solve of the ``triangle_stencils``
    triangles, the first failing ghost's triangle error or inadmissible
    solve raised in ghost order; the cone strategies run in the two phases
    of ``cone_rows``.  The rows are exact to ``strategy.order``.
    """
    solver = GhostOperatorSolver(classification.grid, coeffs.robin, order=strategy.order)
    if collars is None:
        collars = collars_for_ghosts(classification.ghost_ij, classification.grid, classification.level_set)
    if strategy.kind in TRIANGLE_KINDS:
        member_ij, errors = triangle_stencils(strategy.kind, collars, strategy.triangle_size, classification)
        solves = solver.solve(member_ij, solver.rhs(collars))
        for k, (error, admissible, residual) in enumerate(zip(errors, solves.admissible, solves.residual)):
            if error is not None:
                raise error
            if not admissible:
                raise NotAdmissible(
                    f"{strategy.kind} stencil of ghost {tuple(collars.ghost_ij[k].tolist())} is rank-deficient or "
                    f"misses its constraints (relative residual {residual:.3e})"
                )
        sizes, row_coeffs, chi = np.full(len(collars), member_ij.shape[1]), solves.coeffs, solves.chi
        swaps, aperture = np.zeros_like(sizes), np.zeros(len(collars))
    else:
        (member_ij, sizes, row_coeffs, chi, swaps, aperture), collars = cone_rows(
            collars, strategy, classification, solver
        )
    kept = np.arange(member_ij.shape[1]) < sizes[:, None]
    member_ij, row_coeffs = member_ij[kept], row_coeffs[kept]
    return GhostRows(
        sizes=sizes,
        member_ij=member_ij,
        coeffs=row_coeffs,
        rhs=np.asarray(coeffs.robin(collars.point, collars.normal).value, dtype=float),
        chi=chi,
        r_ratio=_ghost_ratios(classification, sizes, member_ij, row_coeffs),
        collars=collars,
        swaps=swaps,
        aperture=aperture,
    )


def assemble(
    classification: NodeClassification,
    coeffs: ProblemCoefficients,
    ghost_rows: GhostRows,
) -> tuple[SparseSystem, GhostRows]:
    """Assemble the global system from the interior discretization and ``ghost_rows``.

    Rows 0 .. N_I-1 are the interior discretization, the rest the ghost
    equations, in classification order.  Returns the system with the ghost
    rows it was given.
    """
    rows_i, cols_i, vals_i, rhs_i = _interior_block(coeffs, classification)

    owner = np.repeat(np.arange(len(ghost_rows), dtype=np.int64), ghost_rows.sizes)
    cols_g = classification.index_at(*ghost_rows.member_ij.T)
    if (cols_g < 0).any():
        bad = tuple(int(v) for v in ghost_rows.collars.ghost_ij[owner[np.argmax(cols_g < 0)]])
        raise MissingNeighbor(f"ghost row {bad} references an inactive node")

    n = classification.n_active
    matrix = sp.coo_matrix(
        (
            np.concatenate([vals_i, ghost_rows.coeffs]),
            (
                np.concatenate([rows_i, classification.n_interior + owner]),
                np.concatenate([cols_i, cols_g]),
            ),
        ),
        shape=(n, n),
    ).tocsr()
    matrix.sum_duplicates()
    matrix.sort_indices()
    rhs = np.concatenate([rhs_i, ghost_rows.rhs])
    return SparseSystem(matrix, rhs), ghost_rows


def solve(system: SparseSystem) -> SolveReport:
    """Direct sparse solve with iterative refinement to the residual contract.

    Raises:
        SingularMatrix: LU factorization broke down.
        SolveFailed: refinement could not reach the tolerance.
    """
    a = system.matrix.tocsc()
    t0 = time.perf_counter()
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:
        raise SingularMatrix(f"sparse factorization failed: {exc}") from exc
    factor_seconds = time.perf_counter() - t0

    rhs = system.rhs
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularMatrix("factorization produced non-finite solution")
    scale = np.linalg.norm(rhs)
    scale = scale if scale > 0.0 else 1.0
    refinements = 0
    residual = np.linalg.norm(system.matrix @ x - rhs) / scale
    while residual > SOLVE_TOLERANCE and refinements < MAX_REFINEMENTS:
        x = x + lu.solve(rhs - system.matrix @ x)
        refinements += 1
        residual = np.linalg.norm(system.matrix @ x - rhs) / scale
    if residual > SOLVE_TOLERANCE:
        raise SolveFailed(
            f"relative residual {residual:.3e} above {SOLVE_TOLERANCE:.0e} after {refinements} refinements"
        )
    return SolveReport(x, float(residual), refinements, factor_seconds)


def export_matrix_market(system: SparseSystem, path) -> None:
    """Write the assembled matrix in Matrix Market coordinate format."""
    import scipy.io  # only this export needs it; a run that does not export skips its import

    scipy.io.mmwrite(str(path), system.matrix.tocoo())
