from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

import ghostbc as g
from ghostbc.basis import DEFAULT_ORDER, boundary_actions, enumerate_basis, monomial_matrix
from ghostbc.geometry import Collars, LevelSet


@pytest.fixture(scope="session")
def annulus_bench():
    return g.annulus_homogeneous()


@pytest.fixture(scope="session")
def annulus_160(annulus_bench):
    grid = g.Grid(160)
    classification = g.classify_nodes(grid, annulus_bench.level_set)
    return grid, classification


@pytest.fixture(scope="session")
def annulus_160_rows(annulus_bench, annulus_160):
    """S4.3 boundary rows for the annulus at N=160 (reused by many tests)."""
    grid, classification = annulus_160
    strategy = g.StencilStrategy(kind="S4.3")
    rows = g.build_ghost_rows(classification, strategy, annulus_bench.coefficients)
    return rows


@pytest.fixture(scope="session")
def annulus_160_solved(annulus_bench, annulus_160, annulus_160_rows):
    grid, classification = annulus_160
    system, rows = g.assemble(classification, annulus_bench.coefficients, annulus_160_rows)
    report = g.solve(system)
    return system, rows, report


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@dataclass
class Row:
    """One ghost row read off a ``GhostRows`` table."""

    ghost_ij: tuple[int, int]
    member_ij: np.ndarray
    coeffs: np.ndarray
    rhs: float
    chi: float
    r_ratio: float
    collar: Collars  # a record of one row
    swaps: int
    aperture: float


def per_row(rows, column):
    """``rows.member_ij`` or ``rows.coeffs`` cut into one array per row."""
    return np.split(column, np.cumsum(rows.sizes)[:-1])


def rows_of(rows):
    """The rows of a table one at a time, for per-row checks."""
    return [
        Row(tuple(int(v) for v in ij), *fields)
        for ij, *fields in zip(
            rows.collars.ghost_ij, per_row(rows, rows.member_ij), per_row(rows, rows.coeffs), rows.rhs,
            rows.chi, rows.r_ratio, collar_rows(rows.collars), rows.swaps, rows.aperture,
        )
    ]


def one_collar(ghost_xy, point, normal, ghost_ij=(-1, -1), source=Collars.CLOSEST):
    """A ``Collars`` record of one row."""
    return Collars(
        np.array([ghost_ij], dtype=np.int64), np.array([ghost_xy], dtype=float), np.array([point], dtype=float),
        np.array([normal], dtype=float), np.array([source], dtype=np.int8),
    )


def collar_rows(collars):
    """The rows of a ``Collars`` one at a time, each a record of one row, for per-ghost checks."""
    return [collars.take([k]) for k in range(len(collars))]


def ghost_layers(classification):
    """Each ghost's layer, in ghost order: 1 next to an interior node along an axis, else 2."""
    padded = np.pad(classification.interior_mask, 1)
    i, j = classification.ghost_ij.T + 1
    adjacent = padded[i - 1, j] | padded[i + 1, j] | padded[i, j - 1] | padded[i, j + 1]
    return np.where(adjacent, 1, 2)


class Solve(NamedTuple):
    """One trial of a ``StencilSolves`` stack."""

    coeffs: np.ndarray
    chi: float
    residual: float
    admissible: bool


def trial(solves, k=0):
    """Trial k of the stack ``solves``."""
    return Solve(solves.coeffs[k], float(solves.chi[k]), float(solves.residual[k]), bool(solves.admissible[k]))


def solve_alone(solver, member_ij, collar):
    """Solve of one trial stencil: a stack of one through ``solve``."""
    return trial(solver.solve(member_ij[None], solver.rhs(collar)))


def pairwise_diameter(member_ij):
    """Maximum pairwise distance of one stencil's lattice nodes, in grid spacings (the per-row reference)."""
    ij = np.asarray(member_ij)
    if len(ij) < 2:
        return 0.0
    d2 = ((ij[:, None, :] - ij[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.max()))


def node_xy(grid, i, j):
    """Coordinates of the one node (i, j) as a (2,) array."""
    x, y = grid.coords(i, j)
    return np.array([float(x), float(y)])


def robin_of(rule, collar):
    """The Robin data ``rule`` gives a collar record of one row: a batch of one."""
    return rule(collar.point, collar.normal)


def dirichlet_rule(value=0.0):
    """A Robin rule with Dirichlet data ``value`` at every point."""
    return lambda points, normals: g.RobinData(np.ones(len(points)), np.zeros(len(points)), np.full(len(points), value))


def assemble_constraints(points, collar, robin, center, spacing, order=DEFAULT_ORDER):
    """Constraint matrix (n_constraints, n_points) and right-hand side of one stencil.

    Rows follow the basis of ``order`` centred at ``center`` and scaled by
    ``spacing``, columns the order of ``points``; ``collar`` is a record of
    one row and ``robin`` its data, a batch of one.  Built without
    ``GhostOperatorSolver``, as an independent check of its stacks.
    """
    alphas = enumerate_basis(order)
    center = np.reshape(center, 2)  # a collar's ghost_xy is (1, 2)
    c = monomial_matrix(alphas, points, center, spacing)
    g = boundary_actions(alphas, collar.point, collar.normal, robin, center, spacing)[0]
    return c, g


def circle_level_set(radius, center=(0.0, 0.0)):
    cx, cy = center

    def evaluate(x, y):
        return np.hypot(x - cx, y - cy) - radius

    def gradient(x, y):
        dx, dy = x - cx, y - cy
        r = np.hypot(dx, dy)
        r = np.where(r > 0.0, r, 1.0)
        return dx / r, dy / r

    return LevelSet(f"circle(r={radius})", evaluate, gradient)


def square_level_set(half_width=0.5):
    """Axis-aligned square, handy for enumeration tests."""

    def evaluate(x, y):
        return np.maximum(np.abs(x), np.abs(y)) - half_width

    def gradient(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        use_x = np.abs(x) >= np.abs(y)
        gx = np.where(use_x, np.sign(x), 0.0)
        gy = np.where(use_x, 0.0, np.sign(y))
        return gx, gy

    return LevelSet(f"square(a={half_width})", evaluate, gradient)
