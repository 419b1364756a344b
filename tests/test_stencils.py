import math

import numpy as np
import pytest

import ghostbc as g
from ghostbc.benchmarks import circle_level_set
from ghostbc.boundary_ops import GhostOperatorSolver
from ghostbc.errors import InactiveMember
from ghostbc.geometry import CollarPoint
from ghostbc.stencils import (
    APERTURE_STEP,
    FIRST_CONE_RADIUS,
    _CandidateStream,
    build_S4,
    cone_candidates,
    extend_classification,
)


def make_collar(ghost_xy, point):
    d = np.asarray(point, dtype=float) - np.asarray(ghost_xy, dtype=float)
    n = d / np.linalg.norm(d)
    return CollarPoint(
        ghost_xy=np.asarray(ghost_xy, dtype=float),
        point=np.asarray(point, dtype=float),
        normal=-n,
        mode="closest",
    )


@pytest.fixture(scope="module")
def circle_setup():
    grid = g.Grid(40)
    ls = circle_level_set(0.47)
    classification = g.classify_nodes(grid, ls)
    return grid, ls, classification


class TestTriangles:
    def test_s1_offsets_positive_quadrant(self, circle_setup):
        grid, ls, classification = circle_setup
        # a ghost in the lower-left exterior: the domain lies up-right of it
        ghost = None
        for ij in classification.ghost_ij:
            x, y = grid.node_xy(*ij)
            if x < -0.2 and y < -0.2:
                ghost = tuple(int(v) for v in ij)
                break
        collar = g.collar_for_ghost(ghost, grid, ls)
        assert collar.inward_signs() == (1, 1)
        stencil = g.build_S1(ghost, collar, 4, grid, classification)
        offsets = {(int(i - ghost[0]), int(j - ghost[1])) for i, j in stencil.member_ij}
        assert offsets == {(l, m) for l in range(5) for m in range(5 - l)}
        assert stencil.size == 15

    def test_s1_small_triangle_mixed_signs(self):
        grid = g.Grid(40)
        ghost_xy = grid.node_xy(30, 10)
        # boundary up-left of the ghost: inward signs (-1, +1)
        collar = make_collar(ghost_xy, ghost_xy + np.array([-0.03, 0.02]))
        classification = _all_active_stub(grid)
        stencil = g.build_S1((30, 10), collar, 2, grid, classification)
        offsets = {(int(i - 30), int(j - 10)) for i, j in stencil.member_ij}
        assert offsets == {(-l, m) for l in range(3) for m in range(3 - l)}

    def test_s1_inactive_member_on_tiny_domain(self):
        # p=4 spans half the domain; the far arm leaves the ghost band
        grid = g.Grid(16)
        ls = circle_level_set(0.18)
        classification = g.classify_nodes(grid, ls)
        with pytest.raises(InactiveMember):
            for ij in classification.ghost_ij:
                ghost = tuple(int(v) for v in ij)
                collar = g.collar_for_ghost(ghost, grid, ls)
                g.build_S1(ghost, collar, 4, grid, classification)

    def test_s2_vertex_and_members_x_branch(self):
        grid = g.Grid(40)
        ghost = (8, 20)
        ghost_xy = grid.node_xy(*ghost)
        collar = make_collar(ghost_xy, ghost_xy + np.array([0.031, 0.004]))
        classification = _all_active_stub(grid)
        stencil = g.build_S2(ghost, collar, 4, grid, classification)
        offsets = {(int(i - ghost[0]), int(j - ghost[1])) for i, j in stencil.member_ij}
        assert (4, 0) in offsets  # vertex four nodes inward along x
        assert offsets == {(a, b) for a in range(5) for b in range(a + 1)}
        assert stencil.size == 15
        assert tuple(stencil.member_ij[0]) == ghost

    def test_s2_tie_takes_x_branch(self):
        grid = g.Grid(40)
        ghost = (8, 20)
        ghost_xy = grid.node_xy(*ghost)
        collar = make_collar(ghost_xy, ghost_xy + np.array([0.02, 0.02]))
        classification = _all_active_stub(grid)
        stencil = g.build_S2(ghost, collar, 4, grid, classification)
        offsets = {(int(i - ghost[0]), int(j - ghost[1])) for i, j in stencil.member_ij}
        assert offsets == {(a, b) for a in range(5) for b in range(a + 1)}

    def test_s3_equals_s2_near_boundary(self, circle_setup):
        grid, ls, classification = circle_setup
        for ij in classification.ghost_ij:
            ghost = tuple(int(v) for v in ij)
            collar = g.collar_for_ghost(ghost, grid, ls)
            if np.linalg.norm(collar.displacement) > grid.h:
                continue
            s2 = g.build_S2(ghost, collar, 4, grid, classification)
            ghosts_in_s2 = [
                m for m in map(tuple, s2.member_ij) if m != ghost and classification.is_ghost(*m)
            ]
            if ghosts_in_s2:
                continue
            s3 = g.build_S3(ghost, collar, 4, grid, classification)
            assert {tuple(m) for m in s3.member_ij} == {tuple(m) for m in s2.member_ij}
            break
        else:
            pytest.fail("no near-boundary ghost found")

    def test_s3_ghost_exclusive_on_annulus(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        layer2_seen = 0
        for ij in classification.ghost_ij:
            ghost = tuple(int(v) for v in ij)
            collar = g.collar_for_ghost(ghost, grid, annulus_bench.level_set)
            stencil = g.build_S3(ghost, collar, 4, grid, classification)
            others = [
                m
                for m in map(tuple, stencil.member_ij)
                if m != ghost and classification.is_ghost(*m)
            ]
            assert others == []
            if classification.ghost_layer_grid[ghost] == 2:
                layer2_seen += 1
        assert layer2_seen > 0


class TestCone:
    def test_full_disc_matches_brute_force(self, circle_setup):
        grid, ls, classification = circle_setup
        ghost = tuple(int(v) for v in classification.ghost_ij[0])
        collar = g.collar_for_ghost(ghost, grid, ls)
        got = cone_candidates(ghost, collar, 360.0, grid, classification, limit=40)
        brute = _brute_force_cone(ghost, collar, 360.0, grid, classification)
        assert got == brute[:40]

    def test_aperture_sixty_half_angle(self):
        grid = g.Grid(40)
        classification = _all_active_stub(grid)
        ghost = (20, 20)
        ghost_xy = grid.node_xy(*ghost)
        collar = make_collar(ghost_xy, ghost_xy + np.array([0.1, 0.0]))
        for i, j in cone_candidates(ghost, collar, 60.0, grid, classification, limit=30)[1:]:
            v = np.array([i - ghost[0], j - ghost[1]], dtype=float)
            angle = math.degrees(math.acos(v[0] / np.linalg.norm(v)))
            assert angle <= 30.0 + 1e-9

    def test_annulus_cone_matches_brute_force(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        ghost = tuple(int(v) for v in classification.ghost_ij[37])
        collar = g.collar_for_ghost(ghost, grid, annulus_bench.level_set)
        got = cone_candidates(ghost, collar, 45.0, grid, classification, limit=25)
        brute = _brute_force_cone(ghost, collar, 45.0, grid, classification)
        assert got == brute[:25]

    def test_determinism(self, circle_setup):
        grid, ls, classification = circle_setup
        ghost = tuple(int(v) for v in classification.ghost_ij[5])
        collar = g.collar_for_ghost(ghost, grid, ls)
        a = cone_candidates(ghost, collar, 60.0, grid, classification, limit=20)
        b = cone_candidates(ghost, collar, 60.0, grid, classification, limit=20)
        assert a == b


class TestCandidateStream:
    """The offset-table stream against the brute-force oracle, past the first table."""

    def test_whole_cone_runs_past_first_radius(self, circle_setup):
        grid, ls, classification = circle_setup
        for k in (0, 9, 23):
            ghost = tuple(int(v) for v in classification.ghost_ij[k])
            collar = g.collar_for_ghost(ghost, grid, ls)
            for aperture in (360.0, 60.0):
                got = cone_candidates(ghost, collar, aperture, grid, classification)
                brute = _brute_force_cone(ghost, collar, aperture, grid, classification)
                assert got == brute
                far = max((i - ghost[0]) ** 2 + (j - ghost[1]) ** 2 for i, j in got)
                assert far > FIRST_CONE_RADIUS**2

    def test_exhausted_cone_widens_like_the_oracle(self):
        # near the lattice edge, aimed out of it: the 30-degree cone holds a
        # handful of active nodes, so the stream widens several times
        grid = g.Grid(40)
        classification = _all_active_stub(grid)
        ghost = (37, 20)
        ghost_xy = grid.node_xy(*ghost)
        collar = make_collar(ghost_xy, ghost_xy + np.array([0.1, 0.013]))
        strategy = g.StencilStrategy(kind="S4.1", aperture_deg=30.0)
        stream = _CandidateStream(ghost, collar, strategy.aperture_deg, grid, classification)
        used = {ghost}
        got = []
        for _ in range(60):
            node = stream.take(used)
            used.add(node)
            got.append((node, stream.aperture))
        assert got == _oracle_takes(ghost, collar, 30.0, grid, classification, 60)
        assert got[-1][1] > 30.0

    def test_nearest_available_after_exclusions(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        ghost = tuple(int(v) for v in classification.ghost_ij[37])
        collar = g.collar_for_ghost(ghost, grid, annulus_bench.level_set)
        brute = _brute_force_cone(ghost, collar, 60.0, grid, classification)[1:]
        stream = _CandidateStream(ghost, collar, 60.0, grid, classification)
        for _ in range(20):
            stream.take({ghost})
        # every candidate inside the first table but one near the front
        inside = [
            (i, j) for i, j in brute
            if (i - ghost[0]) ** 2 + (j - ghost[1]) ** 2 <= FIRST_CONE_RADIUS**2
        ]
        exclude = {ghost} | set(inside) - {inside[7]}
        assert stream.nearest_available(exclude) == inside[7]
        exclude.add(inside[7])
        expected = next(node for node in brute if node not in exclude)
        assert stream.nearest_available(exclude) == expected
        assert (expected[0] - ghost[0]) ** 2 + (expected[1] - ghost[1]) ** 2 > FIRST_CONE_RADIUS**2
        # the growth frontier is unaffected by the rescans
        assert stream.take({ghost}) == brute[20]


class TestConeStrategies:
    def _solver(self, bench, grid):
        return GhostOperatorSolver(grid, bench.coefficients.robin)

    def test_no_op_branch_keeps_all_stages_identical(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        solver = self._solver(annulus_bench, grid)
        strategy = g.StencilStrategy(kind="S4.3")
        found = False
        for ij in classification.ghost_ij:
            ghost = tuple(int(v) for v in ij)
            collar = g.collar_for_ghost(ghost, grid, annulus_bench.level_set)
            built = build_S4(ghost, collar, strategy, grid, classification, solver)
            if built.stage_members["S4.1"].shape[0] == 15 and not built.swaps:
                sets = [set(map(tuple, built.stage_members[k])) for k in ("S4.1", "S4.2", "S4.3")]
                assert sets[0] == sets[1] == sets[2]
                found = True
                break
        assert found

    def test_swap_instrumentation(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        solver = self._solver(annulus_bench, grid)
        strategy = g.StencilStrategy(kind="S4.2")
        swapped = 0
        for ij in classification.ghost_ij:
            ghost = tuple(int(v) for v in ij)
            collar = g.collar_for_ghost(ghost, grid, annulus_bench.level_set)
            built = build_S4(ghost, collar, strategy, grid, classification, solver)
            amp1 = built.stage_ratios["S4.1"]
            if amp1 < strategy.global_tol:
                assert not built.swaps
                continue
            assert len(built.swaps) <= strategy.max_swaps
            s1 = set(map(tuple, built.stage_members["S4.1"]))
            s2 = set(map(tuple, built.stage_members["S4.2"]))
            victims = {v for v, _ in built.swaps}
            # every member that vanished was a swap victim (a victim may also
            # be a later-removed replacement, so the sets need not be equal)
            assert (s1 - s2) <= victims
            if built.swaps:
                assert built.stage_ratios["S4.2"] < amp1
                swapped += 1
            for victim, _ in built.swaps:
                assert victim != ghost
        assert swapped > 0

    def test_sizes_within_hard_bound(self, annulus_160_rows):
        sizes = np.array([row.size for row in annulus_160_rows])
        assert sizes.min() >= 15
        assert sizes.max() <= 25

    def test_cone_membership_for_final_aperture(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        solver = self._solver(annulus_bench, grid)
        strategy = g.StencilStrategy(kind="S4.1")
        ghost = tuple(int(v) for v in classification.ghost_ij[11])
        collar = g.collar_for_ghost(ghost, grid, annulus_bench.level_set)
        built = build_S4(ghost, collar, strategy, grid, classification, solver)
        w = collar.toward_boundary()
        cos_half = math.cos(math.radians(built.aperture_used / 2.0))
        for i, j in built.stencil.member_ij[1:]:
            v = np.array([i - ghost[0], j - ghost[1]], dtype=float)
            cosang = float(v @ w) / (np.linalg.norm(v) * np.linalg.norm(w))
            assert cosang >= cos_half - 1e-9


class TestStrategyValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            g.StencilStrategy(kind="S9")

    def test_bad_aperture(self):
        with pytest.raises(ValueError):
            g.StencilStrategy(kind="S4.1", aperture_deg=0.0)

    def test_bad_triangle_size(self):
        with pytest.raises(ValueError):
            g.StencilStrategy(kind="S1", triangle_size=0)


class TestExtension:
    def test_s1_band_extension_closes_annulus(self, annulus_bench):
        grid = g.Grid(194)
        classification = g.classify_nodes(grid, annulus_bench.level_set)
        strategy = g.StencilStrategy(kind="S1")
        extended = extend_classification(classification, strategy, grid)
        assert extended.n_ghost > classification.n_ghost
        assert extended.n_interior == classification.n_interior
        # every triangle is now fully active
        for ij in extended.ghost_ij:
            ghost = tuple(int(v) for v in ij)
            collar = g.collar_for_ghost(ghost, grid, annulus_bench.level_set)
            g.build_S1(ghost, collar, strategy.triangle_size, grid, extended)

    def test_cone_strategies_do_not_extend(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        strategy = g.StencilStrategy(kind="S4.3")
        assert extend_classification(classification, strategy, grid) is classification


def _all_active_stub(grid):
    """Classification treating every node as interior (for pure-offset tests)."""
    level_set = g.LevelSet(
        "everything",
        evaluate=lambda x, y: np.where(
            (np.abs(x) < 0.9) & (np.abs(y) < 0.9), -1.0, 1.0
        ),
        gradient=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)), np.zeros_like(np.asarray(y, dtype=float))),
    )
    return g.classify_nodes(grid, level_set)


def _brute_force_cone(ghost, collar, aperture, grid, classification):
    """Independent oracle: filter and sort every active node."""
    w = collar.toward_boundary()
    wn = np.linalg.norm(w)
    cos_half = math.cos(math.radians(aperture / 2.0))
    out = []
    side = grid.nodes_per_side
    for i in range(side):
        for j in range(side):
            if (i, j) == ghost or not classification.is_active(i, j):
                continue
            v = np.array([i - ghost[0], j - ghost[1]], dtype=float)
            if aperture < 360.0:
                cosang = float(v @ w) / (np.linalg.norm(v) * wn)
                if cosang < cos_half - 1e-12:
                    continue
            d2 = int((i - ghost[0]) ** 2 + (j - ghost[1]) ** 2)
            out.append((d2, i, j))
    out.sort()
    return [tuple(ghost)] + [(i, j) for _, i, j in out]


def _oracle_takes(ghost, collar, aperture, grid, classification, count):
    """(node, aperture) of successive growth takes, widening on exhaustion."""
    used = {tuple(ghost)}
    out = []
    cone = _brute_force_cone(ghost, collar, aperture, grid, classification)[1:]
    while len(out) < count:
        fresh = [n for n in cone if n not in used]
        if not fresh:
            aperture = min(360.0, aperture + APERTURE_STEP)
            cone = _brute_force_cone(ghost, collar, aperture, grid, classification)[1:]
            continue
        used.add(fresh[0])
        out.append((fresh[0], aperture))
    return out
