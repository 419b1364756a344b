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

from .basis import DEFAULT_ORDER, RobinData
from .boundary_ops import GhostOperatorSolver
from .errors import MissingNeighbor, NotAdmissible, SingularMatrix, SolveFailed
from .geometry import CollarPoint, NodeClassification, collars_for_ghosts
from .stencils import TRIANGLE_KINDS, StencilStrategy, cone_rows, triangle_stencils

#: Fourth-order centred weights for the second derivative (offsets -2..2), * 1/h^2.
LAPLACE_WEIGHTS = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])

#: Fourth-order centred weights for the first derivative (offsets -2..2), * 1/h.
DERIVATIVE_WEIGHTS = np.array([1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0])

OFFSETS = np.array([-2, -1, 0, 1, 2])

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
    """Assembled N x N system over the active nodes."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_interior: int
    n_ghost: int

    @property
    def n(self) -> int:
        return self.n_interior + self.n_ghost


@dataclass
class GhostRows:
    """Every ghost row of a level, one column per per-ghost fact.

    Row k is the equation of ghost ``ghost_ij[k]`` (classification order):
    ``sizes[k]`` members, the ghost itself first, stored row after row in
    ``member_ij`` with their coefficients at the same positions of
    ``coeffs``, and the datum ``rhs[k]`` enforced at ``collars[k]``.
    ``chi`` is the condition number of the row's constraint matrix and
    ``r_ratio`` the largest ratio of another ghost member's coefficient to
    the ghost's own.  ``swaps`` counts the accepted S4.2 swaps and
    ``aperture`` is the final cone aperture in degrees; both are 0 for the
    triangle strategies.  ``rebuilt`` flags the S4.3 rows adopted from a
    rebuild on an axis-projected collar; a row whose closest-point
    projection fell back to the axis has collar mode ``axis`` too, but is
    not flagged.
    """

    ghost_ij: np.ndarray  # (G, 2)
    sizes: np.ndarray  # (G,)
    member_ij: np.ndarray  # (sizes.sum(), 2)
    coeffs: np.ndarray  # (sizes.sum(),)
    rhs: np.ndarray
    chi: np.ndarray
    r_ratio: np.ndarray
    collars: list[CollarPoint]
    swaps: np.ndarray
    aperture: np.ndarray
    rebuilt: np.ndarray

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
    """COO triplets and right-hand side for the interior rows of ``classification``."""
    interior_ij = classification.interior_ij
    grid = classification.grid
    n_rows = len(interior_ij)
    h = grid.h
    x, y = grid.coords(interior_ij[:, 0], interior_ij[:, 1])
    u, v = coeffs.velocity(x, y)
    u = np.broadcast_to(np.asarray(u, dtype=float), (n_rows,))
    v = np.broadcast_to(np.asarray(v, dtype=float), (n_rows,))
    rhs = np.broadcast_to(np.asarray(coeffs.source(x, y), dtype=float), (n_rows,)).copy()

    rows = np.repeat(np.arange(n_rows), 9)  # interior nodes are numbered first
    cols = np.empty((n_rows, 9), dtype=np.int64)
    vals = np.empty((n_rows, 9), dtype=float)
    diffusion = -coeffs.diffusion / h**2 * LAPLACE_WEIGHTS

    slot = 0
    for axis, vel in ((0, u), (1, v)):
        for pos, off in enumerate(OFFSETS):
            if off == 0 and axis == 1:
                continue  # centre slot shared between the two crosses
            ii = interior_ij[:, 0] + (off if axis == 0 else 0)
            jj = interior_ij[:, 1] + (off if axis == 1 else 0)
            idx = classification.index_at(ii, jj)
            if idx.min() < 0:
                bad = np.argmin(idx)
                raise MissingNeighbor(
                    f"interior row at {tuple(interior_ij[bad])} references inactive or off-lattice node "
                    f"({ii[bad]}, {jj[bad]})"
                )
            cols[:, slot] = idx
            value = diffusion[pos] + vel * (DERIVATIVE_WEIGHTS[pos] / h)
            if off == 0 and axis == 0:
                value = value + diffusion[2]  # y-cross centre weight
            vals[:, slot] = value
            slot += 1
    return rows, cols.ravel(), vals.ravel(), rhs


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
    order: int = DEFAULT_ORDER,
    collars: list[CollarPoint] | None = None,
) -> GhostRows:
    """Collar, stencil and minimum-norm coefficients for every ghost node.

    The ghosts' collars are ``collars`` (one per ghost, in ghost order, as
    ``extend_classification`` returns them) or else projected here.  A
    triangle strategy's level is one stacked solve of the ``triangle_stencils``
    triangles, the first failing ghost's triangle error or inadmissible
    solve raised in ghost order; the cone strategies run in the two phases
    of ``cone_rows``.
    """
    solver = GhostOperatorSolver(classification.grid, coeffs.robin, order=order)
    if collars is None:
        collars = collars_for_ghosts(classification.ghost_ij, classification.grid, classification.level_set)
    if strategy.kind in TRIANGLE_KINDS:
        member_ij, errors = triangle_stencils(strategy.kind, collars, strategy.triangle_size, classification)
        solves = solver.solve(member_ij, solver.rhs(collars))
        for collar, error, admissible, residual in zip(collars, errors, solves.admissible, solves.residual):
            if error is not None:
                raise error
            if not admissible:
                raise NotAdmissible(
                    f"{strategy.kind} stencil of ghost {collar.ghost_ij} is rank-deficient or misses its "
                    f"constraints (relative residual {residual:.3e})"
                )
        sizes, row_coeffs, chi = np.full(len(collars), member_ij.shape[1]), solves.coeffs, solves.chi
        swaps, aperture, rebuilt = np.zeros_like(sizes), np.zeros(len(collars)), np.zeros(len(collars), dtype=bool)
    else:
        (member_ij, sizes, row_coeffs, chi, swaps, aperture), collars, rebuilt = cone_rows(
            collars, strategy, classification, solver
        )
    kept = np.arange(member_ij.shape[1]) < sizes[:, None]
    member_ij, row_coeffs = member_ij[kept], row_coeffs[kept]
    points, normals = (np.array([getattr(c, name) for c in collars]).reshape(-1, 2) for name in ("point", "normal"))
    return GhostRows(
        ghost_ij=classification.ghost_ij,
        sizes=sizes,
        member_ij=member_ij,
        coeffs=row_coeffs,
        rhs=np.asarray(coeffs.robin(points, normals).value, dtype=float),
        chi=chi,
        r_ratio=_ghost_ratios(classification, sizes, member_ij, row_coeffs),
        collars=list(collars),
        swaps=swaps,
        aperture=aperture,
        rebuilt=rebuilt,
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
        bad = tuple(int(v) for v in ghost_rows.ghost_ij[owner[np.argmax(cols_g < 0)]])
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
    system = SparseSystem(matrix, rhs, classification.n_interior, classification.n_ghost)
    return system, ghost_rows


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
