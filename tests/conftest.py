from dataclasses import dataclass

import numpy as np
import pytest

import ghostbc as g
from ghostbc.basis import DEFAULT_ORDER, boundary_actions, enumerate_basis, monomial_matrix
from ghostbc.geometry import CollarPoint, LevelSet


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
    collar: CollarPoint
    swaps: int
    aperture: float


def rows_of(rows):
    """The rows of a table one at a time, for per-row checks."""
    return [
        Row(tuple(int(v) for v in ij), *fields)
        for ij, *fields in zip(
            rows.ghost_ij, rows.per_row(rows.member_ij), rows.per_row(rows.coeffs), rows.rhs,
            rows.chi, rows.r_ratio, rows.collars, rows.swaps, rows.aperture,
        )
    ]


def node_xy(grid, i, j):
    """Coordinates of the one node (i, j) as a (2,) array."""
    x, y = grid.coords(i, j)
    return np.array([float(x), float(y)])


def assemble_constraints(points, collar, robin, cfg, order=DEFAULT_ORDER):
    """Constraint matrix (n_constraints, n_points) and right-hand side of one stencil.

    Rows follow the basis of ``order``, columns the order of ``points``;
    built without ``GhostOperatorSolver``, as an independent check of its
    stacks.
    """
    alphas = enumerate_basis(order)
    c = monomial_matrix(alphas, points, cfg)
    g = boundary_actions(alphas, collar.point[None, :], [robin], cfg)[0]
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
