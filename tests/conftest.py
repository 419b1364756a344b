from dataclasses import dataclass

import numpy as np
import pytest

import ghostbc as g
from ghostbc.geometry import CollarPoint


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
    rows = g.build_ghost_rows(classification, strategy, annulus_bench.coefficients, grid)
    return rows


@pytest.fixture(scope="session")
def annulus_160_solved(annulus_bench, annulus_160, annulus_160_rows):
    grid, classification = annulus_160
    system, rows = g.assemble(classification, annulus_bench.coefficients, grid, annulus_160_rows)
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
