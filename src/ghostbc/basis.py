"""Shifted-scaled monomial basis and its boundary action.

The boundary operator is made exact on all bivariate polynomials of total
degree ``order - 1``.  The basis monomials are centred at the ghost node and
scaled by the grid spacing, ``((x - x_k)/h)^ax * ((y - y_k)/h)^ay``: scaling
keeps the constraint Gram matrices well conditioned (raw monomials blow up
like h^(-2(order-1))) while leaving the minimum-norm coefficient vector
unchanged in exact arithmetic, since it only rescales the constraint rows.

The monomial matrix and the boundary action work on whole batches.  numpy
rounds ``x**k`` on arrays with a SIMD ``pow`` and on numpy scalars with libm
``pow``; they differ in the last bit for about 2% of arguments, and each
rounds an argument the same wherever it sits in a batch.  The monomial
matrix takes ``np.power``.  The boundary action takes ``np.float_power``,
which rounds like libm ``pow``, so each entry equals, bit for bit, the
scalar formula ``a_D*psi(p) + a_N*(grad(psi)(p) @ n)`` evaluated one
monomial at a time on numpy scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Alpha = tuple[int, int]

#: Default polynomial order: P^4 gives fourth-order accuracy for the
#: solution and its gradient under mixed boundary conditions.
DEFAULT_ORDER = 5


def space_dimension(order: int) -> int:
    """Number of bivariate monomials of total degree < ``order``."""
    return order * (order + 1) // 2


def enumerate_basis(order: int) -> list[Alpha]:
    """Multi-indices of the polynomial space, in a fixed deterministic order.

    Sorted by total degree, then by x-exponent descending, e.g. for
    ``order=2``: (0,0), (1,0), (0,1).
    """
    if order < 2:
        raise ValueError(f"polynomial order must be >= 2, got {order}")
    alphas: list[Alpha] = []
    for total in range(order):
        for ax in range(total, -1, -1):
            alphas.append((ax, total - ax))
    return alphas


@dataclass(frozen=True)
class BasisConfig:
    """Centre (2,) or stack of centres (..., 2) and scaling length of the basis."""

    spacing: float
    center: np.ndarray

    def __post_init__(self) -> None:
        if not self.spacing > 0.0:
            raise ValueError(f"basis scaling length must be positive, got {self.spacing}")


@dataclass(frozen=True)
class RobinData:
    """Robin boundary data at one collar point: a_D*phi + a_N*dphi/dn = g."""

    dirichlet: float
    neumann: float
    normal: np.ndarray
    value: float

    def __post_init__(self) -> None:
        if self.dirichlet == 0.0 and self.neumann == 0.0:
            raise ValueError("Robin coefficients (a_D, a_N) must not both vanish")


def monomial_matrix(alphas: list[Alpha], points: np.ndarray, cfg: BasisConfig) -> np.ndarray:
    """All basis monomials at all points: shape (..., len(alphas), n_points).

    ``points`` is (..., n_points, 2) and ``cfg.center`` (2,) or a matching
    stack (..., 2), so one call fills the constraint matrices of a whole
    stack of trial stencils; each slice equals the matrix of that stencil
    alone, bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    center = np.asarray(cfg.center, dtype=float)[..., None, :]
    xi = (pts[..., 0] - center[..., 0]) / cfg.spacing
    eta = (pts[..., 1] - center[..., 1]) / cfg.spacing
    ax, ay = np.array(alphas).T
    # each distinct power once; np.power rounds the same in any layout
    k = np.arange(max(ax.max(), ay.max()) + 1)[:, None]
    return np.power(xi[..., None, :], k)[..., ax, :] * np.power(eta[..., None, :], k)[..., ay, :]


def boundary_actions(
    alphas: list[Alpha], points: np.ndarray, robins: list[RobinData], cfg: BasisConfig
) -> np.ndarray:
    """Boundary operator on every basis monomial at a batch of collar points.

    Row k is ``a_D * psi(p_k) + a_N * grad(psi)(p_k) . n_k`` over the basis
    centred at ``cfg.center[k]`` (the constraint right-hand side of collar
    k); ``points`` is (K, 2), ``cfg.center`` (2,) or (K, 2).  The powers are
    ``np.float_power``, for the reason in the module docstring.
    """
    p = np.asarray(points, dtype=float)
    center = np.asarray(cfg.center, dtype=float)
    xi = ((p[:, 0] - center[..., 0]) / cfg.spacing)[:, None]
    eta = ((p[:, 1] - center[..., 1]) / cfg.spacing)[:, None]
    ax, ay = np.array(alphas, dtype=float).T

    def monomial(ex, ey):
        return np.float_power(xi, ex) * np.float_power(eta, ey)

    gx = np.where(ax > 0, ax / cfg.spacing * monomial(np.maximum(ax - 1, 0), ay), 0.0)
    gy = np.where(ay > 0, ay / cfg.spacing * monomial(ax, np.maximum(ay - 1, 0)), 0.0)
    normal = np.array([r.normal for r in robins], dtype=float)[:, None, :]
    normal_derivative = np.vecdot(np.stack([gx, gy], axis=-1), normal)
    dirichlet = np.array([r.dirichlet for r in robins], dtype=float)[:, None]
    neumann = np.array([r.neumann for r in robins], dtype=float)[:, None]
    value = dirichlet * monomial(ax, ay)
    return np.where(neumann != 0.0, value + neumann * normal_derivative, value)
