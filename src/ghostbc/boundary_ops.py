"""Constrained minimum-norm boundary operator rows and their conditioning.

For a ghost node with stencil points ``x_l`` and collar point ``p``, the row
coefficients ``a`` solve

    minimize  ||a||^2   subject to   sum_l a_l psi(x_l) = B[psi](p)

for every basis monomial ``psi`` of total degree < ``order``.  The feasible
system is ``C a = g`` with the constraint matrix ``C`` (one row per
monomial, one column per stencil point); the minimum-norm solution is
``C^T (C C^T)^{-1} g``, computed here through one SVD that also yields the
rank check and the Gram-matrix condition number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    BasisConfig,
    DEFAULT_ORDER,
    RobinData,
    boundary_action_vector,
    enumerate_basis,
    monomial_matrix,
)
from .errors import NotAdmissible
from .geometry import CollarPoint, Grid, NodeClassification, pairwise_diameter

#: sigma_min/sigma_max below this means the stencil is rank-deficient.
RANK_TOLERANCE = 1e-13

#: Relative residual bound every admissible row must satisfy.
RESIDUAL_TOLERANCE = 1e-10


@dataclass
class ConstraintMatrix:
    """Dense exactness constraints ``C a = g`` for one ghost row."""

    matrix: np.ndarray  # (n_constraints, n_points)
    rhs: np.ndarray  # (n_constraints,)

    @property
    def n_constraints(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_points(self) -> int:
        return self.matrix.shape[1]


def assemble_constraints(
    points: np.ndarray,
    collar: CollarPoint,
    robin: RobinData,
    cfg: BasisConfig,
) -> ConstraintMatrix:
    """Constraint matrix and right-hand side for a stencil.

    Rows follow the deterministic basis order, columns the stencil order.
    """
    alphas = enumerate_basis(cfg.order)
    c = monomial_matrix(alphas, points, cfg)
    g = boundary_action_vector(alphas, collar, robin, cfg)
    return ConstraintMatrix(c, g)


@dataclass
class StencilSolve:
    """Outcome of the constrained solve for one trial stencil.

    ``residual`` is the relative constraint residual ``||C a - g|| / ||g||``
    (absolute when ``g`` vanishes), ``inf`` when no solve was attempted.
    """

    admissible: bool
    chi: float
    coeffs: np.ndarray | None
    singular_values: np.ndarray
    residual: float

    @property
    def locally_well_conditioned(self) -> bool:
        return self.admissible and np.isfinite(self.chi)


def analyze_stencil(cm: ConstraintMatrix, rank_tol: float = RANK_TOLERANCE) -> StencilSolve:
    """One SVD per trial: rank check, condition number, min-norm solve.

    A trial is admissible when the constraint matrix has full row rank and
    the solve meets the constraints to ``RESIDUAL_TOLERANCE * ||g||``;
    otherwise it reports ``chi = inf`` and no coefficients.
    """
    u, s, vt = np.linalg.svd(cm.matrix, full_matrices=False)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0 or s[-1] < rank_tol * smax or cm.n_points < cm.n_constraints:
        return StencilSolve(False, np.inf, None, s, np.inf)
    coeffs = vt.T @ ((u.T @ cm.rhs) / s)
    scale = float(np.linalg.norm(cm.rhs))
    residual = float(np.linalg.norm(cm.matrix @ coeffs - cm.rhs)) / (scale if scale > 0.0 else 1.0)
    if residual > RESIDUAL_TOLERANCE:
        return StencilSolve(False, np.inf, None, s, residual)
    return StencilSolve(True, float(smax / s[-1]), coeffs, s, residual)


def solve_min_norm(cm: ConstraintMatrix, rank_tol: float = RANK_TOLERANCE) -> np.ndarray:
    """Minimum-norm coefficients satisfying the exactness constraints.

    For a square invertible system this reduces to the direct solve.

    Raises:
        NotAdmissible: the constraint matrix has deficient row rank, or the
            solve misses the constraints by more than the residual bound.
    """
    result = analyze_stencil(cm, rank_tol)
    if not result.admissible:
        raise NotAdmissible(
            f"constraint system not admissible ({cm.n_constraints} constraints, "
            f"{cm.n_points} points, relative residual {result.residual:.3e})"
        )
    return result.coeffs


def local_condition(cm: ConstraintMatrix) -> float:
    """2-norm condition number ``s_max/s_min`` of the constraint matrix.

    The Gram matrix ``C C^T`` has exactly the square of this condition
    number; the growth loops compare this value (not its square) against
    the local tolerance, which is what keeps the stencil sizes small and
    matches the reported conditioning distributions.  A rank-deficient
    matrix reports ``inf``.
    """
    s = np.linalg.svd(cm.matrix, compute_uv=False)
    if len(s) == 0 or s[-1] == 0.0 or cm.n_points < cm.n_constraints:
        return float("inf")
    return float(s[0] / s[-1])


@dataclass
class BoundaryOperatorRow:
    """One assembled ghost equation: coefficients over a stencil plus datum."""

    ghost_ij: tuple[int, int]
    member_ij: np.ndarray  # (n_points, 2) lattice indices, ghost itself first
    coeffs: np.ndarray
    rhs: float
    collar: CollarPoint
    chi: float
    r_ratio: float

    @property
    def size(self) -> int:
        return len(self.coeffs)

    def diameter(self) -> float:
        """Maximum pairwise member distance in units of the grid spacing."""
        return pairwise_diameter(self.member_ij)


def coefficient_amplification(coeffs: np.ndarray) -> float:
    """Largest member-to-centre coefficient ratio, over all members.

    This is the factor by which a ghost row amplifies the errors of the
    other stencil values when solved for the ghost unknown; the cone
    strategies drive it below the global tolerance.  A vanishing centre
    coefficient reports ``inf``.
    """
    if len(coeffs) < 2:
        return 0.0
    center = abs(float(coeffs[0]))
    others = float(np.abs(coeffs[1:]).max())
    if center <= 1e-14:
        return float("inf")
    return others / center


def global_ratio(coeffs: np.ndarray, member_ij: np.ndarray, classification: NodeClassification) -> float:
    """Largest ghost-to-centre coefficient ratio of a row.

    The centre value is ``coeffs[0]`` (the stencil always lists the ghost
    node first).  Rows without other ghost members get 0; a vanishing centre
    coefficient reports ``inf``.
    """
    center = abs(float(coeffs[0]))
    i, j = np.asarray(member_ij[1:]).T
    n = classification.grid.n
    inside = (i >= 0) & (i <= n) & (j >= 0) & (j <= n)
    ghost = np.zeros(len(i), dtype=bool)
    ghost[inside] = classification.ghost_mask[i[inside], j[inside]]
    if not ghost.any():
        return 0.0
    if center <= 1e-14:
        return float("inf")
    return float(np.abs(coeffs[1:][ghost]).max()) / center


class GhostOperatorSolver:
    """Re-entrant conditioning oracle shared by the stencil strategies.

    Bundles the grid spacing, the basis order and the benchmark's Robin data
    provider so stencil construction can ask for (admissibility, chi,
    coefficients) of any trial stencil against any collar point.
    """

    def __init__(
        self,
        grid: Grid,
        robin_at: Callable[[CollarPoint], RobinData],
        order: int = DEFAULT_ORDER,
    ):
        self.grid = grid
        self.robin_at = robin_at
        self.order = order
        self._alphas = enumerate_basis(order)
        self._collar: CollarPoint | None = None
        self._collar_data: tuple[BasisConfig, np.ndarray] | None = None

    @property
    def n_constraints(self) -> int:
        return len(self._alphas)

    def config_for(self, ghost_xy: np.ndarray) -> BasisConfig:
        return BasisConfig(self.grid.h, np.asarray(ghost_xy, dtype=float), self.order)

    def _basis_and_rhs(self, collar: CollarPoint) -> tuple[BasisConfig, np.ndarray]:
        """Basis configuration and constraint right-hand side of a collar.

        Growth, swaps and S4.2 pass the same collar object for every trial
        (an S4.3 rebuild brings a new one), so both are kept for the last
        collar seen.
        """
        if collar is not self._collar:
            cfg = self.config_for(collar.ghost_xy)
            rhs = boundary_action_vector(self._alphas, collar, self.robin_at(collar), cfg)
            self._collar, self._collar_data = collar, (cfg, rhs)
        return self._collar_data

    def constraints_for(self, member_ij: np.ndarray, collar: CollarPoint) -> ConstraintMatrix:
        cfg, rhs = self._basis_and_rhs(collar)
        x, y = self.grid.coords(member_ij[:, 0], member_ij[:, 1])
        points = np.column_stack([x, y])
        return ConstraintMatrix(monomial_matrix(self._alphas, points, cfg), rhs)

    def solve_for(self, member_ij: np.ndarray, collar: CollarPoint) -> StencilSolve:
        return analyze_stencil(self.constraints_for(member_ij, collar))
