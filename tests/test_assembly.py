import numpy as np
import pytest
import scipy.sparse as sp

import ghostbc as g
from conftest import dirichlet_rule, node_xy, square_level_set
from ghostbc.assembly import (
    ProblemCoefficients,
    SparseSystem,
    export_matrix_market,
)
from ghostbc.benchmarks import R_INNER, R_OUTER, annulus_level_set
from ghostbc.errors import MissingNeighbor, SingularMatrix, SolveFailed


def _zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def laplace_coefficients(k=1.0, u=0.0, v=0.0):
    return ProblemCoefficients(
        diffusion=k,
        velocity=lambda x, y: (np.full_like(np.asarray(x, dtype=float), u),
                               np.full_like(np.asarray(y, dtype=float), v)),
        source=_zero,
        robin=dirichlet_rule(),
    )


def identity_ghost_rows(classification, rows=None):
    """One trivial row per ghost (coefficient 1 on itself), some replaced.

    ``rows`` maps a ghost's position to its ``(member_ij, coeffs, rhs)``.
    """
    rows = rows or {}
    ghost_ij = classification.ghost_ij
    pieces = [rows.get(k, (ij[None], np.ones(1), 0.0)) for k, ij in enumerate(ghost_ij)]
    count = len(pieces)
    # the rows enforce no boundary datum: the collars carry the ghosts, with no points or normals
    nowhere = np.full(ghost_ij.shape, np.nan)
    ghost_xy = np.column_stack(classification.grid.coords(*ghost_ij.T))
    return g.GhostRows(
        sizes=np.array([len(members) for members, _, _ in pieces]),
        member_ij=np.concatenate([members for members, _, _ in pieces]),
        coeffs=np.concatenate([coeffs for _, coeffs, _ in pieces]),
        rhs=np.array([rhs for _, _, rhs in pieces]),
        chi=np.ones(count),
        r_ratio=np.zeros(count),
        collars=g.Collars(ghost_ij, ghost_xy, nowhere, nowhere, np.full(count, g.Collars.CLOSEST, dtype=np.int8)),
        swaps=np.zeros(count, dtype=int),
        aperture=np.zeros(count),
    )


def assemble_with_rows(classification, strategy, coeffs, grid):
    """Build the level's ghost rows with ``strategy``, then assemble."""
    rows = g.build_ghost_rows(classification, strategy, coeffs)
    return g.assemble(classification, coeffs, rows)


def interior_row(k, coeffs, grid, classification):
    """(columns, values, rhs) of interior row k, read off the assembled system."""
    system, _ = g.assemble(classification, coeffs, identity_ghost_rows(classification))
    row = system.matrix[k]
    return row.indices, row.data, float(system.rhs[k])


@pytest.fixture(scope="module")
def square_setup():
    grid = g.Grid(16)
    classification = g.classify_nodes(grid, square_level_set(0.77))
    return grid, classification


class TestInteriorRow:
    def test_exact_on_quadratic(self, square_setup):
        grid, classification = square_setup
        # pick a node with all 8 cross neighbors well inside
        k = None
        for idx, (i, j) in enumerate(classification.interior_ij):
            if abs(node_xy(grid, i, j)).max() < 0.4:
                k = idx
                break
        cols, vals, rhs = interior_row(k, laplace_coefficients(), grid, classification)
        coords = classification.active_coords()
        phi = coords[:, 0] ** 2
        assert float(vals @ phi[cols]) == pytest.approx(-2.0, abs=1e-11)
        assert rhs == 0.0

    def test_diffusion_must_be_positive(self):
        with pytest.raises(ValueError):
            laplace_coefficients(k=0.0)
        with pytest.raises(ValueError):
            laplace_coefficients(k=-1.0)

    def test_quartic_with_convection(self):
        # N=16 puts a node exactly at x = 0.5
        grid = g.Grid(16)
        classification = g.classify_nodes(grid, square_level_set(0.77))
        target = None
        for idx, (i, j) in enumerate(classification.interior_ij):
            x, y = node_xy(grid, i, j)
            if abs(x - 0.5) < 1e-12 and abs(y) < 1e-12:
                target = idx
                break
        assert target is not None
        cols, vals, rhs = interior_row(target, laplace_coefficients(u=1.0), grid, classification)
        coords = classification.active_coords()
        phi = coords[:, 0] ** 4
        # -k*Lap(x^4) + u*d/dx(x^4) at x=0.5: -12*0.25 + 4*0.125 = -2.5
        assert float(vals @ phi[cols]) == pytest.approx(-2.5, abs=1e-10)

    def test_nine_nonzeros(self, square_setup):
        grid, classification = square_setup
        cols, vals, _ = interior_row(0, laplace_coefficients(), grid, classification)
        assert len(cols) == 9
        assert len(np.unique(cols)) == 9


class TestGhostRow:
    def test_trivial_row_entries(self, annulus_160):
        grid, classification = annulus_160
        members = np.vstack([classification.ghost_ij[0], classification.interior_ij[:2]])
        row = (members, np.array([0.5, 0.5, 0.0]), 0.25)
        system, _ = g.assemble(classification, laplace_coefficients(), identity_ghost_rows(classification, {0: row}))
        ni = classification.n_interior
        assert system.rhs[ni] == 0.25
        entries = system.matrix[ni]
        expected = {ni: 0.5, classification.active_index[tuple(members[1])]: 0.5,
                    classification.active_index[tuple(members[2])]: 0.0}
        assert dict(zip(entries.indices.tolist(), entries.data.tolist())) == expected
        assert system.matrix[ni + 1].indices.tolist() == [ni + 1]

    def test_inactive_member_raises_for_first_bad_row(self, annulus_160):
        grid, classification = annulus_160
        outside = np.argwhere(classification.active_index < 0)[0]

        def bad(k):
            return np.vstack([classification.ghost_ij[k], outside]), np.ones(2), 0.0

        rows = identity_ghost_rows(classification, {5: bad(5), 2: bad(2)})
        i, j = rows.collars.ghost_ij[2]
        with pytest.raises(MissingNeighbor, match=rf"ghost row \({i}, {j}\) references an inactive node"):
            g.assemble(classification, laplace_coefficients(), rows)

    def test_off_lattice_member_raises(self, square_setup):
        # a member (i, -1) one node past the bottom edge, next to the edge
        # ghost (i, 0); read without its lower bound, its flat index is that
        # of the active ghost (i - 1, n) on the opposite edge
        grid, classification = square_setup
        k = int(np.flatnonzero((classification.ghost_ij[:, 1] == 0) & (classification.ghost_ij[:, 0] >= 3))[0])
        ghost = classification.ghost_ij[k]
        past = ghost - (0, 1)
        assert classification.active_index[ghost[0] - 1, grid.n] >= 0
        rows = identity_ghost_rows(classification, {k: (np.vstack([ghost, past]), np.ones(2), 0.0)})
        with pytest.raises(MissingNeighbor, match=rf"ghost row \({ghost[0]}, {ghost[1]}\) references"):
            g.assemble(classification, laplace_coefficients(), rows)

    def test_annulus_rhs_by_boundary_piece(self, annulus_160_rows):
        mid = 0.5 * (R_INNER + R_OUTER)
        r = np.hypot(*annulus_160_rows.collars.point.T)
        assert np.array_equal(annulus_160_rows.rhs, np.where(r < mid, 0.0, 1.0))


class TestAssemble:
    def test_interior_nonzero_bound_and_closure(self, annulus_160_solved, annulus_160):
        grid, classification = annulus_160
        system, rows, _ = annulus_160_solved
        csr = system.matrix
        interior_nnz = csr[: classification.n_interior].nnz
        assert interior_nnz <= 9 * classification.n_interior
        # closure: every column index is an active node by construction
        assert csr.indices.max() < classification.n_active

    def test_square_active_count(self, square_setup):
        grid, classification = square_setup
        coeffs = laplace_coefficients()
        strategy = g.StencilStrategy(kind="S4.3")
        system, _ = assemble_with_rows(classification, strategy, coeffs, grid)
        x, y = grid.meshgrid()
        inside = np.asarray(square_level_set(0.77).evaluate(x, y)) < 0
        from test_geometry import brute_force_reference_set

        expected = inside.sum() + len(brute_force_reference_set(grid, inside))
        assert system.n == expected

    def test_annulus_ghost_block_has_coupling(self, annulus_160_solved, annulus_160):
        grid, classification = annulus_160
        system, _, _ = annulus_160_solved
        ni = classification.n_interior
        gg = system.matrix[ni:, ni:]
        off_diag = gg - sp.diags(gg.diagonal())
        assert np.abs(off_diag.toarray()).max() > 0.0

    def test_constant_solution_satisfies_dirichlet_system(self):
        # Dirichlet-only data g = c: the constant vector solves the system exactly
        c = 0.7
        grid = g.Grid(64)
        classification = g.classify_nodes(grid, annulus_level_set())
        coeffs = ProblemCoefficients(
            diffusion=1.0,
            velocity=lambda x, y: (_zero(x, y), _zero(x, y)),
            source=_zero,
            robin=dirichlet_rule(c),
        )
        system, _ = assemble_with_rows(classification, g.StencilStrategy(kind="S4.3"), coeffs, grid)
        resid = system.matrix @ np.full(system.n, c) - system.rhs
        assert np.abs(resid).max() <= 1e-10

    def test_permutation_invariance(self, annulus_160_solved):
        system, _, report = annulus_160_solved
        rng = np.random.default_rng(7)
        perm = rng.permutation(system.n)
        p = sp.csr_matrix((np.ones(system.n), (np.arange(system.n), perm)), shape=(system.n,) * 2)
        permuted = SparseSystem(p @ system.matrix @ p.T, p @ system.rhs, system.n_interior, system.n_ghost)
        report_p = g.solve(permuted)
        assert np.allclose(report_p.solution, p @ report.solution, atol=1e-9)

    def test_missing_neighbor_detected(self, square_setup):
        # drop one ghost from the classification: some interior row now
        # references an inactive node, which must be caught
        grid, classification = square_setup
        ghost0 = tuple(classification.ghost_ij[0])
        hacked = g.NodeClassification(
            grid,
            classification.level_set,
            classification.interior_mask,
            classification.ghost_mask & ~_one_hot(classification.ghost_mask.shape, ghost0),
        )
        from ghostbc.assembly import _interior_block

        with pytest.raises(MissingNeighbor):
            _interior_block(laplace_coefficients(), hacked)


class TestSolve:
    def test_identity_system(self):
        n = 10
        rhs = np.arange(1.0, n + 1.0)
        system = SparseSystem(sp.identity(n, format="csr"), rhs, n, 0)
        report = g.solve(system)
        assert np.allclose(report.solution, rhs)
        assert report.residual <= 1e-10

    def test_singular_matrix(self):
        n = 4
        m = sp.csr_matrix((n, n))
        with pytest.raises((SingularMatrix, g.errors.SolveFailed)):
            g.solve(SparseSystem(m, np.ones(n), n, 0))

    def test_refinement_that_misses_the_tolerance_raises(self):
        # condition 1e12: the LU's relative residual is 5.8e-5 and stays
        # above 5e-5 through every refinement, far from the 1e-10 contract
        rng = np.random.default_rng(7)
        q1, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        q2, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        matrix = sp.csc_matrix(q1 @ np.diag(np.logspace(0, -12, 40)) @ q2.T)
        with pytest.raises(SolveFailed, match=f"after {g.assembly.MAX_REFINEMENTS} refinements"):
            g.solve(SparseSystem(matrix, q1[:, -1], 40, 0))

    def test_annulus_residual_and_accuracy(self, annulus_bench, annulus_160, annulus_160_solved):
        grid, classification = annulus_160
        _, _, report = annulus_160_solved
        assert report.residual <= 1e-10
        errors = g.compute_errors(report.solution, annulus_bench, classification)
        assert errors.linf <= 1e-4  # discretization-scale sanity bound

    def test_quartic_polynomial_exactness_small_grid(self):
        bench = g.annulus_quartic()
        cfg = g.RunConfig(benchmark="annulus-quartic", strategy="S4.3", n=80)
        result = g.execute_level(cfg, bench, 80)
        assert result.errors.linf <= 1e-8
        assert result.errors.grad_linf <= 1e-7


def test_matrix_market_export(tmp_path, annulus_160_solved):
    system, _, _ = annulus_160_solved
    path = tmp_path / "matrix.mtx"
    export_matrix_market(system, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix coordinate real general")


def _one_hot(shape, ij):
    out = np.zeros(shape, dtype=bool)
    out[ij] = True
    return out
