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

from .basis import DEFAULT_ORDER, RobinData, boundary_actions, enumerate_basis, monomial_matrix
from .geometry import CollarPoint, Grid

#: sigma_min/sigma_max below this means the stencil is rank-deficient.
RANK_TOLERANCE = 1e-13

#: Relative residual bound every admissible row must satisfy.
RESIDUAL_TOLERANCE = 1e-10


@dataclass
class StencilSolves:
    """Outcome of the constrained solve for a stack of G trial stencils.

    ``coeffs`` (G, M) holds each admissible trial's coefficients and zeros
    for the others, whose ``chi`` (G,) is ``inf``.  ``residual`` (G,) is
    the relative constraint residual ``||C a - g|| / ||g||`` (absolute when
    ``g`` vanishes), ``inf`` for a trial without full row rank.
    """

    coeffs: np.ndarray
    chi: np.ndarray
    residual: np.ndarray

    @property
    def admissible(self) -> np.ndarray:
        return self.residual <= RESIDUAL_TOLERANCE


def solve_constraints(matrix: np.ndarray, rhs: np.ndarray) -> StencilSolves:
    """One stacked SVD for a stack of trials: rank, condition, min-norm solve.

    ``matrix`` (G, n_constraints, n_points) and ``rhs`` (G, n_constraints)
    hold G systems ``C a = g`` of one shape.  A
    trial is admissible when its matrix has full row rank and the solve
    meets the constraints to ``RESIDUAL_TOLERANCE * ||g||``; otherwise it
    reports ``chi = inf`` and zero coefficients.  ``chi = s_max/s_min`` of C,
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
    ok = residual <= RESIDUAL_TOLERANCE
    return StencilSolves(np.where(ok[:, None], coeffs[..., 0], 0.0), np.where(ok, chi, np.inf), residual)


def coefficient_amplification(coeffs: np.ndarray) -> np.ndarray:
    """Largest member-to-centre coefficient ratio, over all members.

    This is the factor by which a ghost row amplifies the errors of the
    other stencil values when solved for the ghost unknown; the cone
    strategies drive it below the global tolerance.  A vanishing centre
    coefficient reports ``inf``.  ``coeffs`` is one row (M,) or a stack
    (G, M) of rows padded with zeros, for which it gives one ratio each.
    """
    center = np.abs(coeffs[..., 0])
    if coeffs.shape[-1] < 2:
        return np.zeros_like(center)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(center <= 1e-14, np.inf, np.abs(coeffs[..., 1:]).max(axis=-1) / center)


class GhostOperatorSolver:
    """Conditioning oracle shared by the stencil strategies.

    Bundles the grid spacing, the basis order and the benchmark's Robin
    rule.  ``solve`` solves a stack of same-size trial stencils on the
    right-hand sides ``rhs`` builds for their collars, and ``deficient``
    tells which of such a stack are rank-deficient by construction, which
    the cone strategies grow past without solving them.
    """

    def __init__(
        self,
        grid: Grid,
        robin: Callable[[np.ndarray, np.ndarray], RobinData],
        order: int = DEFAULT_ORDER,
    ):
        self.grid = grid
        self.robin = robin
        self._alphas = enumerate_basis(order)
        # member offsets from the first member -> rank-deficient by construction
        self._structural: dict[bytes, bool] = {}

    @property
    def n_constraints(self) -> int:
        return len(self._alphas)

    def rhs(self, collars: list[CollarPoint]) -> np.ndarray:
        """Constraint right-hand sides (K, n_constraints) of K collars: one call of the rule, one of the action."""
        points, normals, centers = (
            np.array([getattr(c, name) for c in collars]).reshape(-1, 2) for name in ("point", "normal", "ghost_xy")
        )
        return boundary_actions(self._alphas, points, normals, self.robin(points, normals), centers, self.grid.h)

    def solve(self, member_ij: np.ndarray, rhs: np.ndarray) -> StencilSolves:
        """Solve G trial stencils of one size: ``member_ij`` (G, M, 2), ``rhs`` (G, n_constraints).

        Row k of ``rhs`` is the right-hand side of the collar trial k
        closes.  Builds the stack's constraints, each stencil's basis
        centred at its first member, the ghost, for ``solve_constraints``.
        """
        x, y = self.grid.coords(member_ij[..., 0], member_ij[..., 1])
        points = np.stack([x, y], axis=-1)
        return solve_constraints(monomial_matrix(self._alphas, points, points[:, 0], self.grid.h), rhs)

    def deficient(self, member_ij: np.ndarray) -> np.ndarray:
        """Which of G stencils of one size, ``member_ij`` (G, M, 2), are rank-deficient by construction.

        The rank of a stencil's constraint matrix depends only on the
        members' integer offsets: translating or scaling a lattice point
        set leaves the polynomial space, hence the matrix's rank, unchanged.
        So the verdict is one SVD per distinct offset set, memoized, of the
        monomial matrix of the integer offsets (spacing 1, centre 0): the
        constraint matrix of the stencil with the ghost first, free of the
        rounding of the members' coordinates, whose powers of small integers
        are exact.  The distinct offset sets the memo lacks get one stacked
        SVD and the rank test of ``solve_constraints``, ``RANK_TOLERANCE``:
        deficient sets read at most ~3e-17 there and full-rank ones at least
        ~1e-6, so ``solve_constraints`` rejects every deficient stencil.
        """
        offsets = member_ij - member_ij[:, :1]
        keys = offsets.reshape(len(offsets), -1).view(np.dtype((np.void, offsets[0].nbytes)))[:, 0].tolist()
        missing = {key: p for p, key in enumerate(keys) if key not in self._structural}
        if missing:
            matrix = monomial_matrix(self._alphas, offsets[list(missing.values())], np.zeros(2), 1.0)
            s = np.linalg.svd(matrix, compute_uv=False)
            for key, (s_max, s_min) in zip(missing, s[:, [0, -1]].tolist()):
                self._structural[key] = s_min < RANK_TOLERANCE * s_max
        return np.array([self._structural[key] for key in keys], dtype=bool)
