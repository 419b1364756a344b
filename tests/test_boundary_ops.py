import dataclasses
import re

import numpy as np
import pytest
from conftest import (
    assemble_constraints,
    circle_level_set,
    collar_rows,
    dirichlet_rule,
    ghost_layers,
    node_xy,
    one_collar,
    robin_of,
    rows_of,
    solve_alone,
    trial,
)

import ghostbc as g
from ghostbc.basis import RobinData, enumerate_basis, monomial_matrix
from ghostbc import assembly, boundary_ops
from ghostbc.assembly import _ghost_ratios
from ghostbc.boundary_ops import (
    RESIDUAL_TOLERANCE,
    GhostOperatorSolver,
    coefficient_amplification,
    solve_constraints,
)
from ghostbc import stencils
from ghostbc.errors import GhostBcError, InactiveMember, NoAxisIntersection, NotAdmissible, ProjectionDiverged
from ghostbc.stencils import TRIANGLE_KINDS
from test_geometry import scalar_axis_projection
from test_stencils import _reference_cone, _reference_cone_row, ghost_of, reference_triangle, triangle


def make_collar(center, point, normal=(1.0, 0.0)):
    return one_collar(center, point, normal)


def dirichlet(value=0.0):
    """Dirichlet data at one collar point."""
    return RobinData(np.ones(1), np.zeros(1), np.full(1, value))


def solve_one(cm):
    """The stacked solve on a stack of one system ``(matrix, rhs)``."""
    matrix, rhs = cm
    return trial(solve_constraints(matrix[None], rhs[None]))


def solve_min_norm(cm):
    solve = solve_one(cm)
    assert solve.admissible
    return solve.coeffs


def inaccurate_system():
    """Full row rank (sigma_min/sigma_max = 1e-12, above the rank cut) but so
    ill conditioned that the solve misses the constraints."""
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    c = u @ np.column_stack([np.diag([1.0, 0.5, 1e-12]), np.zeros((3, 2))]) @ v.T
    return c, rng.standard_normal(3)


def replace_solves(monkeypatch, replacements):
    """Make ``GhostOperatorSolver.solve`` hand ``replacements[ghost]`` to the trials of those ghosts.

    A trial's ghost is its first member; the replacement's coefficients
    are padded with zeros to the trial's size.
    """
    solve = GhostOperatorSolver.solve

    def replaced(self, member_ij, rhs):
        solves = solve(self, member_ij, rhs)
        for k, ghost in enumerate(map(tuple, member_ij[:, 0].tolist())):
            if ghost in replacements:
                new = replacements[ghost]
                solves.coeffs[k] = np.pad(new.coeffs, (0, solves.coeffs.shape[1] - len(new.coeffs)))
                solves.chi[k], solves.residual[k] = new.chi, new.residual
        return solves

    monkeypatch.setattr(GhostOperatorSolver, "solve", replaced)


def collar_of(ghost, grid, level_set):
    return g.collars_for_ghosts([ghost], grid, level_set)


def reference_ratio(coeffs, member_ij, classification):
    """Largest ghost-to-centre coefficient ratio of one row, one member at a time."""
    center = abs(float(coeffs[0]))
    ghost = [bool(classification.ghost_mask[i, j]) for i, j in member_ij[1:]]
    if not any(ghost):
        return 0.0
    if center <= 1e-14:
        return float("inf")
    return float(np.abs(coeffs[1:][ghost]).max()) / center


def reference_row(collar, strategy, classification, solver):
    """One ghost's cone row (S4.1-S4.3) the per-ghost way: the reference for ``cone_rows``.

    ``_reference_cone_row`` from the ghost's collar and, for an S4.3 row
    whose amplification still reaches the global tolerance, again from the
    collar of the scalar axis rule; every trial is solved alone and none is
    screened.  Returns ``(member_ij, collar, solve, swaps, aperture)``; a
    rebuilt row carries the new collar record.
    """
    members, solve, swaps, aperture, _ = _reference_cone_row(collar, strategy, classification, solver)
    if strategy.kind == "S4.3" and coefficient_amplification(solve.coeffs) >= strategy.lambda_glo:
        try:
            axis = scalar_axis_projection(collar.ghost_xy[0], classification.level_set, solver.grid.h, ghost_of(collar))
            new_members, new_solve, new_swaps, new_aperture, _ = _reference_cone_row(
                axis, strategy, classification, solver
            )
        except (NoAxisIntersection, NotAdmissible):
            pass
        else:
            return new_members, axis, new_solve, swaps + new_swaps, max(aperture, new_aperture)
    return members, collar, solve, swaps, aperture


def inject_outcomes(monkeypatch, outcomes):
    """Make the cone stage end ``outcomes[(ghost_ij, collar mode)]`` as those ghosts' outcome."""
    batch = stencils._cone_batch

    def injected(collars, *args):
        columns, errors = batch(collars, *args)
        keys = zip(map(tuple, collars.ghost_ij.tolist()), collars.mode.tolist())
        return columns, [outcomes.get(key, error) for key, error in zip(keys, errors)]

    monkeypatch.setattr(stencils, "_cone_batch", injected)


def row_constraints(solver, member_ij, collar):
    """Constraint system ``(matrix, rhs)`` of one trial stencil, built independently of ``solve``."""
    points = np.column_stack(solver.grid.coords(member_ij[:, 0], member_ij[:, 1]))
    return assemble_constraints(points, collar, robin_of(solver.robin, collar), collar.ghost_xy, solver.grid.h)


class TestAssembleConstraints:
    def test_single_point_column(self):
        center = np.array([0.2, 0.1])
        collar = make_collar(center, center + [0.05, 0.0])
        matrix, _ = assemble_constraints(center[None, :], collar, dirichlet(), center, 0.1, order=2)
        assert matrix.shape == (3, 1)
        assert np.allclose(matrix[:, 0], [1.0, 0.0, 0.0])

    def test_square_case_shape(self, rng):
        center = np.zeros(2)
        pts = rng.uniform(-0.3, 0.3, size=(15, 2))
        collar = make_collar(center, [0.05, 0.02])
        matrix, _ = assemble_constraints(pts, collar, dirichlet(), center, 0.1)
        assert matrix.shape == (15, 15)

    def test_dirichlet_rhs_at_center(self):
        center = np.array([-0.3, 0.4])
        collar = make_collar(center, center)
        _, rhs = assemble_constraints(center[None, :], collar, dirichlet(), center, 0.1)
        expected = np.zeros(15)
        expected[0] = 1.0
        assert np.allclose(rhs, expected)


class TestSolveMinNorm:
    def _three_point(self, collar_offset):
        h = 0.1
        center = np.zeros(2)
        pts = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
        collar = make_collar(center, np.asarray(collar_offset))
        cm = assemble_constraints(pts, collar, dirichlet(), center, h, order=2)
        return cm

    def test_interpolation_at_center(self):
        cm = self._three_point([0.0, 0.0])
        assert np.allclose(solve_min_norm(cm), [1.0, 0.0, 0.0], atol=1e-14)

    def test_hand_example_half_offset(self):
        cm = self._three_point([0.05, 0.0])
        assert np.allclose(solve_min_norm(cm), [0.5, 0.5, 0.0], atol=1e-13)

    def test_not_admissible_on_duplicate_points(self):
        h = 0.1
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [h, 0.0]])
        cm = assemble_constraints(pts, make_collar(np.zeros(2), [0.05, 0.0]), dirichlet(), np.zeros(2), h, order=2)
        solve = solve_one(cm)
        assert not solve.admissible and solve.chi == np.inf and not solve.coeffs.any()

    def test_underdetermined_needs_enough_points(self):
        h = 0.1
        pts = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])  # 3 points, 15 constraints
        cm = assemble_constraints(pts, make_collar(np.zeros(2), [0.05, 0.0]), dirichlet(), np.zeros(2), h)
        solve = solve_one(cm)
        assert not solve.admissible and solve.chi == np.inf and not solve.coeffs.any()

    def test_scaled_and_raw_bases_agree(self, annulus_bench):
        # recompute one real row with raw (unscaled) monomials at h = 1/80
        grid = g.Grid(160)
        classification = g.classify_nodes(grid, annulus_bench.level_set)
        solver = GhostOperatorSolver(grid, annulus_bench.coefficients.robin)
        ghost = tuple(int(v) for v in classification.ghost_ij[17])
        collar = collar_of(ghost, grid, annulus_bench.level_set)
        members = triangle("S2", collar, 4, classification)
        a_scaled = solve_alone(solver, members, collar).coeffs

        # independent raw-basis oracle
        alphas = enumerate_basis(5)
        x, y = grid.coords(members[:, 0], members[:, 1])
        cx, cy = node_xy(grid, *ghost)
        raw = np.array([(x - cx) ** ax * (y - cy) ** ay for ax, ay in alphas])
        robin = robin_of(annulus_bench.coefficients.robin, collar)
        (p,), (n,) = collar.point, collar.normal
        rhs = []
        for ax, ay in alphas:
            val = robin.dirichlet[0] * (p[0] - cx) ** ax * (p[1] - cy) ** ay
            gx = ax * (p[0] - cx) ** (ax - 1) * (p[1] - cy) ** ay if ax else 0.0
            gy = ay * (p[0] - cx) ** ax * (p[1] - cy) ** (ay - 1) if ay else 0.0
            val += robin.neumann[0] * (gx * n[0] + gy * n[1])
            rhs.append(val)
        a_raw, *_ = np.linalg.lstsq(raw, np.array(rhs), rcond=None)
        assert np.allclose(a_scaled, a_raw, atol=1e-8)


class TestConditioning:
    def test_orthonormal_rows_give_unit_condition(self):
        assert solve_one((np.eye(15), np.zeros(15))).chi == pytest.approx(1.0)

    def test_rank_deficiency_reports_infinity(self):
        h = 0.1
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [h, 0.0]])
        cm = assemble_constraints(pts, make_collar(np.zeros(2), [0.05, 0.0]), dirichlet(), np.zeros(2), h, order=2)
        assert solve_one(cm).chi == np.inf

    def test_global_ratio_examples(self, annulus_160):
        grid, classification = annulus_160
        interior = classification.interior_ij[40]
        ghost = classification.ghost_ij[3]
        members = np.array([ghost, interior, classification.interior_ij[41]])
        members_with_ghost = np.array([ghost, classification.ghost_ij[4], interior])
        ratios = _ghost_ratios(
            classification,
            np.array([3, 3, 3]),
            np.concatenate([members, members_with_ghost, members_with_ghost]),
            np.array([1.0, 5.0, -2.0, 1.0, -2.5, 0.3, 1e-15, -2.5, 0.3]),
        )
        # no other ghost member -> empty max convention; a vanishing centre -> inf
        assert ratios.tolist() == [0.0, 2.5, np.inf]
        # a ghost member with a zero coefficient still counts as a ghost member
        ratios = _ghost_ratios(classification, np.array([3, 3]), np.concatenate([members_with_ghost] * 2),
                               np.array([2.0, 0.0, 9.0, 0.0, 0.0, 9.0]))
        assert ratios.tolist() == [0.0, np.inf]

    def test_amplification(self):
        assert coefficient_amplification(np.array([2.0, -6.0, 1.0])) == 3.0
        assert coefficient_amplification(np.array([1e-15, 1.0])) == np.inf
        assert coefficient_amplification(np.array([1.0])) == 0.0


class TestRowProperties:
    def test_polynomial_exactness_on_real_rows(self, annulus_bench, annulus_160, annulus_160_rows, rng):
        grid, classification = annulus_160
        alphas = enumerate_basis(5)
        for row in rows_of(annulus_160_rows)[:: max(1, len(annulus_160_rows) // 60)]:
            coeffs = rng.standard_normal(len(alphas))
            cx, cy = node_xy(grid, *row.ghost_ij)

            def q(x, y):
                return sum(c * (x - cx) ** ax * (y - cy) ** ay for c, (ax, ay) in zip(coeffs, alphas))

            def q_grad(x, y):
                gx = sum(
                    c * ax * (x - cx) ** (ax - 1) * (y - cy) ** ay
                    for c, (ax, ay) in zip(coeffs, alphas)
                    if ax
                )
                gy = sum(
                    c * ay * (x - cx) ** ax * (y - cy) ** (ay - 1)
                    for c, (ax, ay) in zip(coeffs, alphas)
                    if ay
                )
                return gx, gy

            robin = robin_of(annulus_bench.coefficients.robin, row.collar)
            x, y = grid.coords(row.member_ij[:, 0], row.member_ij[:, 1])
            lhs = float(row.coeffs @ q(x, y))
            (p,), (n,) = row.collar.point, row.collar.normal
            gx, gy = q_grad(p[0], p[1])
            rhs = robin.dirichlet[0] * q(p[0], p[1]) + robin.neumann[0] * (gx * n[0] + gy * n[1])
            scale = max(1.0, abs(rhs))
            assert abs(lhs - rhs) <= 1e-9 * scale

    def test_min_norm_orthogonal_to_null_space(self, annulus_bench, annulus_160, annulus_160_rows):
        grid, classification = annulus_160
        solver = GhostOperatorSolver(grid, annulus_bench.coefficients.robin)
        for row in rows_of(annulus_160_rows)[:: max(1, len(annulus_160_rows) // 40)]:
            cm = row_constraints(solver, row.member_ij, row.collar)
            _, s, vt = np.linalg.svd(cm[0])
            null_basis = vt[len(cm[0]):]
            if len(null_basis) == 0:
                continue
            a = solve_min_norm(cm)
            assert np.abs(null_basis @ a).max() <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_square_case_agrees_with_direct_solve(self, annulus_bench, annulus_160, annulus_160_rows):
        grid, classification = annulus_160
        solver = GhostOperatorSolver(grid, annulus_bench.coefficients.robin)
        checked = 0
        for row in rows_of(annulus_160_rows):
            if len(row.coeffs) != solver.n_constraints:
                continue
            cm = row_constraints(solver, row.member_ij, row.collar)
            direct = np.linalg.solve(*cm)
            a = solve_min_norm(cm)
            assert np.allclose(a, direct, rtol=1e-11, atol=1e-11 * np.linalg.norm(direct))
            checked += 1
            if checked >= 25:
                break
        assert checked > 0

    def test_rotation_sanity(self):
        # rotating the whole Dirichlet configuration by 90 degrees about the
        # origin permutes the lattice exactly and maps the coefficients along
        radius = 0.47
        ls = circle_level_set(radius)
        grid = g.Grid(40)
        classification = g.classify_nodes(grid, ls)

        solver = GhostOperatorSolver(grid, dirichlet_rule())
        ghost = tuple(int(v) for v in classification.ghost_ij[ghost_layers(classification) == 1][0])
        collar = collar_of(ghost, grid, ls)
        members = triangle("S1", collar, 4, classification)
        a = solve_alone(solver, members, collar).coeffs

        # rotate (i, j) -> (n - j, i), i.e. (x, y) -> (-y, x)
        n = grid.n
        rot_ghost = (n - ghost[1], ghost[0])
        rot_members = np.array([(n - j, i) for i, j in members])
        rot_collar = one_collar(*(column[0, ::-1] * [-1.0, 1.0] for column in (
            collar.ghost_xy, collar.point, collar.normal
        )), rot_ghost)
        a_rot = solve_alone(solver, rot_members, rot_collar).coeffs
        assert np.allclose(a, a_rot, atol=1e-12)


def test_analyze_stencil_consistency(annulus_bench, annulus_160, annulus_160_rows):
    # the stacked solve of many real rows equals the per-row formulas bit
    # for bit (einsum or vecdot for the coefficients would not), and agrees
    # with an SVD-free condition number and pseudo-inverse solve
    grid, _ = annulus_160
    solver = GhostOperatorSolver(grid, annulus_bench.coefficients.robin)
    by_size = {}
    for row in rows_of(annulus_160_rows)[::3]:
        by_size.setdefault(len(row.coeffs), []).append(row_constraints(solver, row.member_ij, row.collar))
    checked = 0
    for systems in by_size.values():
        matrices, rhs = (np.array(column) for column in zip(*systems))
        solves, stacked = solve_constraints(matrices, rhs), np.linalg.svd(matrices, full_matrices=False)[1]
        for k, (c, b) in enumerate(systems):
            result = trial(solves, k)
            assert result.admissible
            u, s, vt = np.linalg.svd(c, full_matrices=False)
            assert np.array_equal(stacked[k], s)
            assert result.chi == float(s[0] / s[-1])
            assert np.array_equal(result.coeffs, vt.T @ ((u.T @ b) / s))
            residual = np.linalg.norm(c @ result.coeffs - b) / np.linalg.norm(b)
            assert result.residual == residual
            sv = np.linalg.svd(c, compute_uv=False)
            assert result.chi == pytest.approx(sv[0] / sv[-1], rel=1e-12)
            pinv_coeffs = np.linalg.pinv(c) @ b
            assert np.allclose(result.coeffs, pinv_coeffs, rtol=0.0, atol=1e-8 * np.linalg.norm(pinv_coeffs))
            checked += 1
    assert len(by_size) > 3 and checked > 300


class TestResidualContract:
    def test_admissible_solves_meet_the_residual_bound(self, annulus_bench, annulus_160, monkeypatch):
        grid, classification = annulus_160
        solves = []

        def recording(matrix, rhs):
            out = solve_constraints(matrix, rhs)
            solves.append(out)
            return out

        monkeypatch.setattr(boundary_ops, "solve_constraints", recording)
        # with the rank screen off, the rank-deficient trials are solved too
        monkeypatch.setattr(GhostOperatorSolver, "deficient", lambda self, member_ij: np.zeros(len(member_ij), bool))
        solver = GhostOperatorSolver(grid, annulus_bench.coefficients.robin)
        strategy = g.StencilStrategy(kind="S4.3")
        collars = g.collars_for_ghosts(classification.ghost_ij[::4], grid, annulus_bench.level_set)
        stencils.cone_rows(collars, strategy, classification, solver)
        admissible = np.concatenate([s.admissible for s in solves])
        assert admissible.sum() > 100
        assert np.concatenate([s.residual for s in solves])[admissible].max() <= RESIDUAL_TOLERANCE
        assert (~admissible).any()
        assert all((s.chi[~s.admissible] == np.inf).all() and not s.coeffs[~s.admissible].any() for s in solves)

    def test_rank_admissible_but_inaccurate_solve_is_rejected(self, annulus_bench, annulus_160, monkeypatch):
        system = inaccurate_system()
        result = solve_one(system)
        s = np.linalg.svd(system[0], compute_uv=False)
        assert s[-1] >= 1e-13 * s[0]
        assert not result.admissible
        assert result.chi == np.inf and not result.coeffs.any()
        assert RESIDUAL_TOLERANCE < result.residual < np.inf
        # a triangle stencil handed such a solve raises, naming the residual
        grid, classification = annulus_160
        ghost = tuple(int(v) for v in classification.ghost_ij[0])
        triangle("S2", collar_of(ghost, grid, annulus_bench.level_set), 4, classification)
        replace_solves(monkeypatch, {ghost: result})
        strategy = g.StencilStrategy(kind="S2")
        message = f"S2 stencil of ghost {ghost} is rank-deficient or misses its constraints"
        with pytest.raises(NotAdmissible, match=re.escape(f"{message} (relative residual {result.residual:.3e})")):
            g.build_ghost_rows(classification, strategy, annulus_bench.coefficients)

    def test_rank_deficient_reports_infinite_residual(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0]])
        cm = assemble_constraints(pts, make_collar(np.zeros(2), [0.05, 0.0]), dirichlet(), np.zeros(2), 0.1, order=2)
        assert solve_one(cm).residual == np.inf


def test_right_hand_sides_are_built_once_per_batch(annulus_bench, annulus_160, monkeypatch):
    # ``rhs`` gives each collar the right-hand side of its own constraint
    # system, bit for bit; a cone level builds them once per phase, and
    # calls the Robin rule once per phase and once for the rows' data
    grid, classification = annulus_160
    robin = annulus_bench.coefficients.robin
    solver = GhostOperatorSolver(grid, robin)
    collars = g.collars_for_ghosts(classification.ghost_ij, grid, annulus_bench.level_set)
    for collar, rhs in zip(collar_rows(collars), solver.rhs(collars), strict=True):
        _, expected = assemble_constraints(collar.point, collar, robin_of(robin, collar), collar.ghost_xy, grid.h)
        assert rhs.tobytes() == expected.tobytes()
        # ``solve`` centres the basis at the first member, with the collar's bits
        assert np.array(grid.coords(*collar.ghost_ij[0])).tobytes() == collar.ghost_xy.tobytes()
    # a stacked trial equals the solve of its independently built constraints
    collar = collars.take([3])
    members = np.array([ghost_of(collar)] + _reference_cone(ghost_of(collar), collar, 60.0, classification)[:16])
    stacked = trial(solver.solve(np.array([members, members]), solver.rhs(collars.take([3, 3]))), 1)
    assert np.array_equal(stacked.coeffs, solve_one(row_constraints(solver, members, collar)).coeffs)
    assert np.array_equal(stacked.coeffs, solve_alone(solver, members, collar).coeffs)
    actions, batches, seen = [], [], []
    build, batch = boundary_ops.boundary_actions, stencils._cone_batch
    monkeypatch.setattr(boundary_ops, "boundary_actions", lambda *args: actions.append(args) or build(*args))
    monkeypatch.setattr(stencils, "_cone_batch", lambda *args: batches.append(args) or batch(*args))
    coefficients = dataclasses.replace(
        annulus_bench.coefficients, robin=lambda points, normals: seen.append(len(points)) or robin(points, normals)
    )
    rows = g.build_ghost_rows(classification, g.StencilStrategy(kind="S4.3"), coefficients)
    assert len(actions) == len(batches) == 2  # one per phase
    assert seen == [len(collars), len(batches[1][0]), len(rows)]
    assert 0 < seen[1] < seen[0] == seen[2]


def _level(name, kind, n):
    from ghostbc.stencils import extend_classification

    cfg = g.RunConfig(benchmark=name, strategy=kind, n=n)
    bench = cfg.make_benchmark()
    grid = g.Grid(n)
    strategy = cfg.stencil_strategy()
    classification, _ = extend_classification(g.classify_nodes(grid, bench.level_set), strategy)
    return bench, grid, classification, strategy


class TestLockstepLevel:
    @pytest.mark.parametrize(
        "name, kind, n",
        [("annulus", "S4.3", 160), ("flower", "S4.3", 160), ("annulus", "S1", 64), ("flower", "S2", 96),
         ("conv-bl2", "S3", 96), ("annulus", "S4.1", 80), ("flower", "S4.2", 96)],
    )
    def test_level_equals_one_ghost_at_a_time(self, name, kind, n, monkeypatch):
        # flower-160 S4.3 has axis-collar fallbacks and rebuilds.  The
        # reference solves every trial; the level skips the cone trials that
        # are rank-deficient by construction, and must build the same rows.
        bench, grid, classification, strategy = _level(name, kind, n)
        level_solved = []
        stacked = boundary_ops.solve_constraints

        def counting(matrix, rhs):
            level_solved.extend(rhs)
            return stacked(matrix, rhs)

        with monkeypatch.context() as patch:
            patch.setattr(boundary_ops, "solve_constraints", counting)
            rows = g.build_ghost_rows(classification, strategy, bench.coefficients)
        solver = GhostOperatorSolver(grid, bench.coefficients.robin)
        solved = []
        stack = solver.solve

        def recording(member_ij, rhs):
            out = stack(member_ij, rhs)
            solved.extend(out.chi)
            return out

        solver.solve = recording
        collars = g.collars_for_ghosts(classification.ghost_ij, grid, bench.level_set)
        assert len(rows) == len(collars) > 100
        for k, (row, collar) in enumerate(zip(rows_of(rows), collar_rows(collars))):
            if kind in TRIANGLE_KINDS:
                members = reference_triangle(kind, collar, strategy.triangle_size, classification)
                row_collar, solve, swaps, aperture = collar, solve_alone(solver, members, collar), 0, 0.0
                assert solve.admissible
            else:
                members, row_collar, solve, swaps, aperture = reference_row(collar, strategy, classification, solver)
            assert row.ghost_ij == ghost_of(collar) == tuple(row.member_ij[0])
            assert np.array_equal(row.member_ij, members)
            assert np.array_equal(row.coeffs, solve.coeffs)
            assert row.chi == solve.chi
            assert row.r_ratio == reference_ratio(solve.coeffs, members, classification)
            assert row.rhs == robin_of(bench.coefficients.robin, row_collar).value[0]
            assert row.collar.mode.tolist() == row_collar.mode.tolist()
            assert np.array_equal(row.collar.point, row_collar.point)
            assert np.array_equal(row.collar.normal, row_collar.normal)
            assert (row.swaps, row.aperture) == (swaps, aperture)
            assert (rows.collars.source[k] == g.Collars.REBUILD) == (row_collar is not collar)
        if name == "flower" and kind == "S4.3":
            assert {"closest", "axis"} <= set(rows.collars.mode.tolist())
        if kind in TRIANGLE_KINDS:
            assert len(level_solved) == len(solved)
        else:
            # the rank screen skips about half of the trials
            assert len(level_solved) <= 0.6 * len(solved)

    @pytest.mark.parametrize(
        "name, kind, n", [("annulus", "S4.3", 160), ("flower", "S4.3", 160), ("hourglass", "S4.2", 128),
                          ("leaf", "S4.3", 160)],
    )
    def test_screen_skips_only_inadmissible_trials(self, name, kind, n, monkeypatch):
        # Every trial of the level, in both S4.3 phases, goes through the
        # screen, and exactly the ones it passes are solved; a skipped trial,
        # solved on its real constraint matrix, must be inadmissible.
        bench, grid, classification, strategy = _level(name, kind, n)
        screened, solved = [], []
        deficient, solve = GhostOperatorSolver.deficient, GhostOperatorSolver.solve

        def screening(self, member_ij):
            verdict = deficient(self, member_ij)
            screened.extend(zip(member_ij, verdict))
            return verdict

        def solving(self, member_ij, rhs):
            solved.extend(member_ij)
            return solve(self, member_ij, rhs)

        monkeypatch.setattr(GhostOperatorSolver, "deficient", screening)
        monkeypatch.setattr(GhostOperatorSolver, "solve", solving)
        g.build_ghost_rows(classification, strategy, bench.coefficients)
        monkeypatch.undo()
        skipped = [member_ij for member_ij, verdict in screened if verdict]
        passed = [member_ij for member_ij, verdict in screened if not verdict]
        assert sorted(m.tobytes() for m in passed) == sorted(m.tobytes() for m in solved)
        assert 0.3 * len(screened) < len(skipped) < 0.7 * len(screened)
        # the constraint matrix is the ghost-centred monomial matrix of the
        # members, whichever collar (closest or axis) the trial closes
        collars = g.collars_for_ghosts(classification.ghost_ij, grid, bench.level_set)
        solver = GhostOperatorSolver(grid, bench.coefficients.robin)
        by_size = {}
        for member_ij in skipped:
            by_size.setdefault(len(member_ij), []).append(member_ij)
        for group in by_size.values():
            group = np.array(group)
            ghost = classification.index_at(group[:, 0, 0], group[:, 0, 1]) - classification.n_interior
            solves = solver.solve(group, solver.rhs(collars.take(ghost)))
            assert not solves.admissible.any()
            points = np.stack(grid.coords(group[..., 0], group[..., 1]), axis=-1)
            matrix = monomial_matrix(enumerate_basis(5), points, points[:, 0], grid.h)
            s = np.linalg.svd(matrix, full_matrices=False)[1]
            assert (s[:, -1] / s[:, 0]).max() < 1e-13

    def test_first_failing_ghost_raises(self, annulus_bench, annulus_160, monkeypatch):
        # Outcomes injected into the cone stage: the level raises the error
        # of the first failing ghost in collar order, and an untyped error
        # (a defect, not a ghost's failure) propagates at once.
        grid, classification = annulus_160
        strategy = g.StencilStrategy(kind="S4.1")
        ghosts = [tuple(int(v) for v in ij) for ij in classification.ghost_ij]
        outcomes = {}
        inject_outcomes(monkeypatch, outcomes)

        def build():
            return g.build_ghost_rows(classification, strategy, annulus_bench.coefficients)

        late, early = NotAdmissible("ghost 2 failed late"), InactiveMember("ghost 3 failed early")
        outcomes.update({(ghosts[2], "closest"): late, (ghosts[3], "closest"): early})
        with pytest.raises(NotAdmissible) as error:
            build()
        assert error.value is late
        outcomes.clear()
        outcomes[ghosts[261], "closest"] = early
        with pytest.raises(InactiveMember) as error:
            build()
        assert error.value is early
        solve = GhostOperatorSolver.solve

        def defective(self, member_ij, rhs):
            if ghosts[7] in map(tuple, member_ij[:, 0].tolist()):
                raise ZeroDivisionError
            return solve(self, member_ij, rhs)

        with monkeypatch.context() as patch:
            patch.setattr(GhostOperatorSolver, "solve", defective)
            outcomes[ghosts[2], "closest"] = late
            with pytest.raises(ZeroDivisionError):
                build()
        outcomes.clear()
        rows = build()
        assert len(rows) == len(ghosts)

    def test_level_raises_the_first_ghosts_error(self):
        # no stencil gets chi below 1: every ghost grows past the cap, and the
        # level reports the first ghost with the message that ghost raises
        # alone, every trial solved and none screened
        bench, grid, classification, _ = _level("annulus", "S4.1", 48)
        strategy = g.StencilStrategy(kind="S4.1", lambda_loc=1.0)
        collar = g.collars_for_ghosts(classification.ghost_ij[:1], grid, bench.level_set)
        solver = GhostOperatorSolver(grid, bench.coefficients.robin)
        with pytest.raises(NotAdmissible) as alone:
            _reference_cone_row(collar, strategy, classification, solver)
        with pytest.raises(NotAdmissible) as level:
            g.build_ghost_rows(classification, strategy, bench.coefficients)
        assert str(level.value) == str(alone.value)
        assert f"ghost {ghost_of(collar)}" in str(level.value)

    @pytest.mark.parametrize("inadmissible_first", [True, False])
    def test_triangle_level_raises_the_first_ghosts_error(self, annulus_bench, annulus_160, monkeypatch,
                                                          inadmissible_first):
        # One ghost's solve misses its constraints and another ghost's
        # triangle has an inactive member: the level raises the error of
        # whichever ghost comes first, as one ghost at a time would.
        grid, classification = annulus_160
        early, late = (tuple(int(v) for v in classification.ghost_ij[k]) for k in (10, 500))
        bad, inactive = (early, late) if inadmissible_first else (late, early)
        replace_solves(monkeypatch, {bad: solve_one(inaccurate_system())})
        stored = InactiveMember(f"S3 stencil of ghost {inactive} references an inactive node")
        build = assembly.triangle_stencils

        def with_inactive(kind, collars, p, classification):
            members, errors = build(kind, collars, p, classification)
            return members, [stored if tuple(ij) == inactive else e for ij, e in zip(collars.ghost_ij.tolist(), errors)]

        monkeypatch.setattr(assembly, "triangle_stencils", with_inactive)
        with pytest.raises(GhostBcError) as error:
            g.build_ghost_rows(classification, g.StencilStrategy(kind="S3"), annulus_bench.coefficients)
        if inadmissible_first:
            assert type(error.value) is NotAdmissible
            assert str(error.value).startswith(f"S3 stencil of ghost {early} is rank-deficient")
        else:
            assert error.value is stored

    @pytest.mark.parametrize("late", [1, 900])
    def test_rebuild_errors_come_before_later_ghosts_errors(self, annulus_bench, annulus_160, monkeypatch, late):
        # The first ghost to be rebuilt fails its axis projection, and a later
        # ghost (the next one, or 900 on) fails its S4.1 growth: only the
        # ghosts before the later ghost are rebuilt, and the earlier ghost's
        # failure is the level's error, as one ghost at a time.
        grid, classification = annulus_160
        strategy = g.StencilStrategy(kind="S4.3")
        coeffs = annulus_bench.coefficients
        rebuilt = g.build_ghost_rows(classification, strategy, coeffs).collars.source == g.Collars.REBUILD
        early = int(np.flatnonzero(rebuilt)[0])
        late = early + late
        late_ij = tuple(int(v) for v in classification.ghost_ij[late])
        early_ij = tuple(int(v) for v in classification.ghost_ij[early])
        failed = ProjectionDiverged(f"axis projection of ghost {early_ij} failed")
        project = stencils.axis_projection

        def failing_projection(ghost_xy, level_set, h, ghost_ij=None):
            collars, failures = project(ghost_xy, level_set, h, ghost_ij)
            rows = np.flatnonzero((collars.ghost_ij == early_ij).all(axis=1)).tolist()
            return collars, {**failures, **dict.fromkeys(rows, failed)}

        inject_outcomes(monkeypatch, {(late_ij, "closest"): NotAdmissible(f"growth of ghost {late_ij} failed")})
        with pytest.raises(NotAdmissible, match=f"growth of ghost {re.escape(str(late_ij))} failed"):
            g.build_ghost_rows(classification, strategy, coeffs)
        monkeypatch.setattr(stencils, "axis_projection", failing_projection)
        with pytest.raises(ProjectionDiverged) as error:
            g.build_ghost_rows(classification, strategy, coeffs)
        assert error.value is failed and str(error.value) == f"axis projection of ghost {early_ij} failed"

    def test_failing_rebuild_is_its_ghosts_error(self, annulus_bench, annulus_160, monkeypatch):
        # a rebuild that fails other than by being inadmissible fails its ghost
        grid, classification = annulus_160
        strategy = g.StencilStrategy(kind="S4.3")
        coeffs = annulus_bench.coefficients
        rows = g.build_ghost_rows(classification, strategy, coeffs)
        rebuilt = np.flatnonzero(rows.collars.source == g.Collars.REBUILD)
        first, second, third = (tuple(int(v) for v in rows.collars.ghost_ij[k]) for k in rebuilt[:3])
        inject_outcomes(monkeypatch, {
            (first, "axis"): NotAdmissible("not adopted"),  # keeps the S4.2 row
            **{(ghost, "axis"): InactiveMember(f"rebuild of ghost {ghost} failed") for ghost in (second, third)},
        })
        with pytest.raises(InactiveMember, match=re.escape(f"rebuild of ghost {second} failed")):
            g.build_ghost_rows(classification, strategy, coeffs)
