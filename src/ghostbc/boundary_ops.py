"""Constrained minimum-norm boundary operator rows and their conditioning.

For a ghost node with stencil points ``x_l`` and collar point ``p``, the row
coefficients ``a`` solve

    minimize  ||a||^2   subject to   sum_l a_l psi(x_l) = B[psi](p)

for every basis monomial ``psi`` of total degree < ``order``.  The feasible
system is ``C a = g`` with the constraint matrix ``C`` (one row per
monomial, one column per stencil point); the minimum-norm solution is
``C^T (C C^T)^{-1} g``, computed here through one SVD that also gives the
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
    boundary_actions,
    enumerate_basis,
    monomial_matrix,
)
from .geometry import CollarPoint, Grid

#: sigma_min/sigma_max below this means the stencil is rank-deficient.
RANK_TOLERANCE = 1e-13

#: sigma_min/sigma_max of a stencil's integer-offset monomial matrix below
#: this means the stencil is rank-deficient by construction.  Rank-deficient
#: cone stencils read at most ~3e-17 here and full-rank ones at least ~1e-6,
#: so a threshold well under ``RANK_TOLERANCE`` only ever skips trials that
#: ``solve_constraints`` would reject.
STRUCTURAL_RANK_TOLERANCE = 1e-15

#: Relative residual bound every admissible row must satisfy.
RESIDUAL_TOLERANCE = 1e-10


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


def solve_constraints(matrix: np.ndarray, rhs: np.ndarray) -> list[StencilSolve]:
    """One stacked SVD for a stack of trials: rank, condition, min-norm solve.

    ``matrix`` (G, n_constraints, n_points) and ``rhs`` (G, n_constraints)
    hold G systems ``C a = g`` of one shape.  A
    trial is admissible when its matrix has full row rank and the solve
    meets the constraints to ``RESIDUAL_TOLERANCE * ||g||``; otherwise it
    reports ``chi = inf`` and no coefficients.  ``chi = s_max/s_min`` of C,
    not of the Gram matrix ``C C^T`` (its square), is what the growth loops
    compare with the local tolerance.  The coefficients
    ``V (U^T g / s)`` and the residuals are stacked ``np.matmul``, one BLAS
    matrix-vector product per trial, so a trial gets the bits it would get
    alone; ``einsum`` or ``vecdot`` would round differently.
    """
    c, g = matrix, rhs[..., None]
    u, s, vt = np.linalg.svd(c, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = np.matmul(vt.transpose(0, 2, 1), np.matmul(u.transpose(0, 2, 1), g) / s[..., None])
        residual_vector = (np.matmul(c, coeffs) - g)[..., 0]
        chi = s[:, 0] / s[:, -1]
    scale = np.sqrt(np.vecdot(g[..., 0], g[..., 0]))
    residual = np.sqrt(np.vecdot(residual_vector, residual_vector)) / np.where(scale > 0.0, scale, 1.0)
    full_rank = (s[:, 0] > 0.0) & (s[:, -1] >= RANK_TOLERANCE * s[:, 0]) & (c.shape[-1] >= c.shape[-2])
    residual = np.where(full_rank, residual, np.inf)
    return [
        StencilSolve(True, float(chi[k]), coeffs[k, :, 0], s[k], float(residual[k]))
        if residual[k] <= RESIDUAL_TOLERANCE
        else StencilSolve(False, np.inf, None, s[k], float(residual[k]))
        for k in range(len(s))
    ]


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


class GhostOperatorSolver:
    """Conditioning oracle shared by the stencil strategies.

    Bundles the grid spacing, the basis order and the benchmark's Robin data
    provider.  ``solve`` solves a stack of same-size trial stencils, and
    ``deficient`` tells the trials that are rank-deficient by construction,
    which the cone strategies grow past without solving them.
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
        # id(collar) -> (collar, right-hand side); holding a collar keeps its id unique
        self._rhs: dict[int, tuple[CollarPoint, np.ndarray]] = {}
        # member offsets from the first member -> rank-deficient by construction
        self._structural: dict[bytes, bool] = {}
        self._exponents = np.array(self._alphas).T

    @property
    def n_constraints(self) -> int:
        return len(self._alphas)

    def config_for(self, ghost_xy: np.ndarray) -> BasisConfig:
        return BasisConfig(self.grid.h, np.asarray(ghost_xy, dtype=float))

    def solve(self, member_ij: np.ndarray, collars) -> list[StencilSolve]:
        """Solve G trial stencils of one size: ``member_ij`` (G, M, 2), one collar each.

        Builds the constraints of the stack and runs ``solve_constraints``
        on it.  The right-hand sides of collars this solver has not seen
        come from one vectorized call; a collar's right-hand side is built
        once, however many trials use it.
        """
        new = {id(c): c for c in collars if id(c) not in self._rhs}
        if new:
            fresh = list(new.values())
            points = np.array([c.point for c in fresh])
            centers = np.array([c.ghost_xy for c in fresh])
            rhs = boundary_actions(self._alphas, points, [self.robin_at(c) for c in fresh], self.config_for(centers))
            self._rhs.update(zip(new, zip(fresh, rhs)))
        x, y = self.grid.coords(member_ij[..., 0], member_ij[..., 1])
        centers = np.array([c.ghost_xy for c in collars])
        matrix = monomial_matrix(self._alphas, np.stack([x, y], axis=-1), self.config_for(centers))
        return solve_constraints(matrix, np.array([self._rhs[id(c)][1] for c in collars]))

    def deficient(self, member_ij: np.ndarray) -> bool:
        """Whether a stencil is rank-deficient by construction.

        The rank of a stencil's constraint matrix depends only on the
        members' integer offsets: translating or scaling a lattice point
        set leaves the polynomial space, hence the matrix's rank, unchanged.
        So the verdict is one SVD per distinct offset set, memoized, of the
        monomial matrix of the integer offsets: the constraint matrix of the
        stencil with the ghost first, free of the rounding of the members'
        coordinates.  ``solve_constraints`` rejects every deficient stencil.
        """
        offsets = member_ij - member_ij[0]
        key = offsets.tobytes()
        if key not in self._structural:
            # powers by repeated products, so the entries are exact integers (below 2**53)
            px, py = (np.vander(v, self.order, increasing=True) for v in offsets.T.astype(float))
            ax, ay = self._exponents
            s = np.linalg.svd(px[:, ax] * py[:, ay], compute_uv=False)
            self._structural[key] = bool(s[-1] < STRUCTURAL_RANK_TOLERANCE * s[0])
        return self._structural[key]
