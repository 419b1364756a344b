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
class RobinData:
    """Robin data at K collar points, a_D*phi + a_N*dphi/dn = g: ``dirichlet``, ``neumann``, ``value``, (K,) each."""

    dirichlet: np.ndarray
    neumann: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        shapes = [np.shape(field) for field in (self.dirichlet, self.neumann, self.value)]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"Robin data must be three (K,) arrays of one length, got shapes {shapes}")
        if np.any((np.asarray(self.dirichlet) == 0.0) & (np.asarray(self.neumann) == 0.0)):
            raise ValueError("Robin coefficients (a_D, a_N) must not both vanish")


def monomial_matrix(alphas: list[Alpha], points: np.ndarray, center: np.ndarray, spacing: float) -> np.ndarray:
    """All basis monomials at all points: shape (..., len(alphas), n_points).

    ``points`` is (..., n_points, 2) and ``center`` (2,) or a matching
    stack (..., 2), so one call fills the constraint matrices of a whole
    stack of trial stencils; each slice equals the matrix of that stencil
    alone, bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    center = np.asarray(center, dtype=float)[..., None, :]
    xi = (pts[..., 0] - center[..., 0]) / spacing
    eta = (pts[..., 1] - center[..., 1]) / spacing
    ax, ay = np.array(alphas).T
    # each distinct power once; np.power rounds the same in any layout
    k = np.arange(max(ax.max(), ay.max()) + 1)[:, None]
    return np.power(xi[..., None, :], k)[..., ax, :] * np.power(eta[..., None, :], k)[..., ay, :]


def boundary_actions(
    alphas: list[Alpha], points: np.ndarray, normals: np.ndarray, robin: RobinData, center: np.ndarray, spacing: float
) -> np.ndarray:
    """Boundary operator on every basis monomial at a batch of collar points.

    Row k is ``a_D[k] * psi(p_k) + a_N[k] * grad(psi)(p_k) . n_k`` over the
    basis centred at ``center[k]`` (the constraint right-hand side of
    collar k); ``points`` and ``normals`` are (K, 2), ``center`` (2,) or
    (K, 2), and ``robin`` holds the K points' data.  The powers are
    ``np.float_power``, for the reason in the module docstring.
    """
    p = np.asarray(points, dtype=float)
    center = np.asarray(center, dtype=float)
    xi = ((p[:, 0] - center[..., 0]) / spacing)[:, None]
    eta = ((p[:, 1] - center[..., 1]) / spacing)[:, None]
    ax, ay = np.array(alphas, dtype=float).T

    def monomial(ex, ey):
        return np.float_power(xi, ex) * np.float_power(eta, ey)

    gx = np.where(ax > 0, ax / spacing * monomial(np.maximum(ax - 1, 0), ay), 0.0)
    gy = np.where(ay > 0, ay / spacing * monomial(ax, np.maximum(ay - 1, 0)), 0.0)
    normal = np.asarray(normals, dtype=float).reshape(-1, 1, 2)
    normal_derivative = np.vecdot(np.stack([gx, gy], axis=-1), normal)
    dirichlet = np.asarray(robin.dirichlet, dtype=float)[:, None]
    neumann = np.asarray(robin.neumann, dtype=float)[:, None]
    value = dirichlet * monomial(ax, ay)
    return np.where(neumann != 0.0, value + neumann * normal_derivative, value)
