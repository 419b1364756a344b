import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghostbc as g
from conftest import circle_level_set, collar_rows, ghost_layers, node_xy, one_collar, per_row, solve_alone
from ghostbc import benchmarks, cli, geometry, stencils
from ghostbc.benchmarks import flower_level_set, hourglass_level_set
from ghostbc.boundary_ops import GhostOperatorSolver, coefficient_amplification
from ghostbc.errors import GhostBcError, InactiveMember, NoAxisIntersection, NotAdmissible
from ghostbc.stencils import (
    APERTURE_STEP,
    CONE_KINDS,
    FIRST_CONE_RADIUS,
    MAX_S3_SHIFT,
    MAX_STENCIL_SIZE,
    TRIANGLE_KINDS,
    _Cones,
    _cone_batch,
    extend_classification,
    triangle_stencils,
)
from test_geometry import moved, same_bits, same_collars


def make_collar(ghost_xy, point, ghost_ij):
    """A closest-point collar of one row whose normal points from ``point`` away from the ghost's side."""
    d = np.asarray(point, dtype=float) - np.asarray(ghost_xy, dtype=float)
    return one_collar(ghost_xy, point, -d / np.linalg.norm(d), ghost_ij)


# One collar row's ghost and directions, the per-ghost rules on (2,) arrays:
# the references for the array expressions of the level-wide readers.


def ghost_of(collar):
    return tuple(collar.ghost_ij[0].tolist())


def displacement(collar):
    """Ghost minus collar point (points away from the domain)."""
    return collar.ghost_xy[0] - collar.point[0]


def toward_boundary(collar):
    """Toward the collar point, or along the inward normal where the ghost sits on the boundary."""
    d = collar.point[0] - collar.ghost_xy[0]
    return d if float(np.linalg.norm(d)) > 1e-12 else -collar.normal[0]


def inward_signs(collar):
    """Per-axis lattice direction from the ghost toward the boundary; a zero component counts as +1."""
    d = toward_boundary(collar)
    return (1 if d[0] >= 0.0 else -1, 1 if d[1] >= 0.0 else -1)


def triangle(kind, collar, p, classification):
    """One ghost's triangle through the level-wide builder; raises its error."""
    (members,), (error,) = triangle_stencils(kind, collar, p, classification)
    if error is not None:
        raise error
    return members


# The per-ghost S1/S2/S3 rule, one node at a time: the reference the
# level-wide ``triangle_stencils`` must equal member for member and error for
# error.


def _reference_active(classification, i, j):
    n = classification.grid.n
    return 0 <= i <= n and 0 <= j <= n and classification.active_index[i, j] >= 0


def _reference_ghost(classification, i, j):
    n = classification.grid.n
    return 0 <= i <= n and 0 <= j <= n and bool(classification.ghost_mask[i, j])


def _reference_checked(members, ghost, classification, kind):
    for i, j in members:
        if (i, j) != ghost and not _reference_active(classification, i, j):
            raise InactiveMember(f"{kind} stencil of ghost {ghost} references inactive node ({i}, {j})")
    return np.array(members, dtype=np.int64)


def _reference_s2_offsets(p, x_branch):
    if x_branch:
        return [(a, b) for a in range(p + 1) for b in range(a + 1)]
    return [(a, b) for b in range(p + 1) for a in range(b + 1)]


def reference_members(kind, collar, p):
    """Members of one ghost's S1 or S2 triangle, without any activity check."""
    i0, j0 = ghost_of(collar)
    sx, sy = inward_signs(collar)
    if kind == "S1":
        return [(i0 + l * sx, j0 + m * sy) for l in range(p + 1) for m in range(p + 1 - l)]
    d = displacement(collar)
    return [(i0 + a * sx, j0 + b * sy) for a, b in _reference_s2_offsets(p, abs(d[0]) >= abs(d[1]))]


def reference_triangle(kind, collar, p, classification):
    """Members of one ghost's triangle, or the ``InactiveMember`` it raises."""
    ghost = ghost_of(collar)
    if kind != "S3":
        return _reference_checked(reference_members(kind, collar, p), ghost, classification, kind)
    i0, j0 = ghost
    sx, sy = inward_signs(collar)
    d = displacement(collar)
    x_branch = abs(d[0]) >= abs(d[1])
    last_error = None
    start = 0 if float(np.linalg.norm(d)) <= classification.grid.h else 1
    for shift in range(start, MAX_S3_SHIFT + 1):
        members = [
            (i0, j0) if (a, b) == (0, 0)
            else (i0 + (a + shift) * sx, j0 + b * sy) if x_branch
            else (i0 + a * sx, j0 + (b + shift) * sy)
            for a, b in _reference_s2_offsets(p, x_branch)
        ]
        try:
            checked = _reference_checked(members, ghost, classification, kind)
        except InactiveMember as exc:
            last_error = exc
            continue
        if not any(m != ghost and _reference_ghost(classification, *m) for m in members):
            return checked
    if last_error is not None:
        raise last_error
    raise InactiveMember(f"S3 stencil of ghost {ghost} cannot exclude other ghosts within shift {MAX_S3_SHIFT}")


def assert_level_matches_reference(kind, collars, p, classification):
    """Level-wide members and errors equal the per-ghost rule; returns the failing count.

    A failing S1/S2 ghost keeps its unchecked triangle, which the band
    closure reads.
    """
    members, errors = triangle_stencils(kind, collars, p, classification)
    assert members.shape == (len(collars), (p + 1) * (p + 2) // 2, 2)
    assert len(errors) == len(collars)
    failed = 0
    for collar, row, error in zip(collar_rows(collars), members, errors):
        try:
            expected = reference_triangle(kind, collar, p, classification)
        except InactiveMember as exc:
            assert type(error) is InactiveMember and str(error) == str(exc)
            failed += 1
            if kind != "S3":
                assert np.array_equal(row, reference_members(kind, collar, p))
        else:
            assert error is None
            assert row.dtype == expected.dtype and np.array_equal(row, expected)
    return failed


def collar_of(ghost, grid, level_set):
    return g.collars_for_ghosts([ghost], grid, level_set)


def takes(cones, count):
    """(node, aperture) of ``count`` successive takes of the one ghost of ``cones``; node None once exhausted."""
    out = []
    for _ in range(count):
        (k,) = cones.take(np.array([0]))
        out.append((tuple(cones.nodes[k].tolist()) if k >= 0 else None, float(cones.aperture[0])))
    return out


def cone_list(ghost, collar, aperture_deg, grid, classification, limit=None):
    """Ordered cone candidates of one ghost at one aperture, with the ghost itself first."""
    cones = _Cones(collar, aperture_deg, classification)
    out = [tuple(ghost)]
    assert tuple(cones.nodes[cones.start[0]].tolist()) == tuple(ghost)
    while limit is None or len(out) < limit:
        ((node, aperture),) = takes(cones, 1)
        if node is None or aperture != aperture_deg:
            break
        out.append(node)
    return out


@pytest.fixture(scope="module")
def annulus_160_stages(annulus_bench, annulus_160, annulus_160_rows):
    """S4.1, S4.2 and S4.3 rows of the annulus at N=160.

    Each level is the matching stage of the S4.3 construction: S4.2 swaps
    from the S4.1 stencil and S4.3 rebuilds from the S4.2 one.
    """
    grid, classification = annulus_160
    stages = {
        kind: g.build_ghost_rows(classification, g.StencilStrategy(kind=kind), annulus_bench.coefficients)
        for kind in ("S4.1", "S4.2")
    }
    return {**stages, "S4.3": annulus_160_rows}


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
            x, y = node_xy(grid, *ij)
            if x < -0.2 and y < -0.2:
                ghost = tuple(int(v) for v in ij)
                break
        collar = collar_of(ghost, grid, ls)
        assert inward_signs(collar) == (1, 1)
        members = triangle("S1", collar, 4, classification)
        offsets = {(int(i - ghost[0]), int(j - ghost[1])) for i, j in members}
        assert offsets == {(l, m) for l in range(5) for m in range(5 - l)}
        assert len(members) == 15

    def test_s1_small_triangle_mixed_signs(self):
        grid = g.Grid(40)
        ghost_xy = node_xy(grid, 30, 10)
        # boundary up-left of the ghost: inward signs (-1, +1)
        collar = make_collar(ghost_xy, ghost_xy + np.array([-0.03, 0.02]), (30, 10))
        classification = _all_active_stub(grid)
        members = triangle("S1", collar, 2, classification)
        offsets = {(int(i - 30), int(j - 10)) for i, j in members}
        assert offsets == {(-l, m) for l in range(3) for m in range(3 - l)}

    def test_s1_inactive_member_on_tiny_domain(self, annulus_bench):
        # p=4 spans half the domain; the far arm leaves the ghost band
        grid = g.Grid(16)
        ls = circle_level_set(0.18)
        classification = g.classify_nodes(grid, ls)
        collars = g.collars_for_ghosts(classification.ghost_ij, grid, ls)
        _, errors = triangle_stencils("S1", collars, 4, classification)
        failing = [error for error in errors if error is not None]
        assert failing and all(type(error) is InactiveMember for error in failing)
        # the level raises the first failing ghost's error
        with pytest.raises(InactiveMember) as raised:
            g.build_ghost_rows(classification, g.StencilStrategy(kind="S1"), annulus_bench.coefficients)
        assert type(raised.value) is InactiveMember and str(raised.value) == str(failing[0])

    def test_s2_vertex_and_members_x_branch(self):
        grid = g.Grid(40)
        ghost = (8, 20)
        ghost_xy = node_xy(grid, *ghost)
        collar = make_collar(ghost_xy, ghost_xy + np.array([0.031, 0.004]), ghost)
        classification = _all_active_stub(grid)
        members = triangle("S2", collar, 4, classification)
        offsets = {(int(i - ghost[0]), int(j - ghost[1])) for i, j in members}
        assert (4, 0) in offsets  # vertex four nodes inward along x
        assert offsets == {(a, b) for a in range(5) for b in range(a + 1)}
        assert len(members) == 15
        assert tuple(members[0]) == ghost

    def test_s2_tie_takes_x_branch(self):
        grid = g.Grid(40)
        ghost = (20, 20)  # at the origin, so the displacement is an exact tie
        ghost_xy = node_xy(grid, *ghost)
        collar = make_collar(ghost_xy, ghost_xy + np.array([0.02, 0.02]), ghost)
        assert displacement(collar)[0] == displacement(collar)[1]
        classification = _all_active_stub(grid)
        members = triangle("S2", collar, 4, classification)
        offsets = {(int(i - ghost[0]), int(j - ghost[1])) for i, j in members}
        assert offsets == {(a, b) for a in range(5) for b in range(a + 1)}

    def test_s3_equals_s2_near_boundary(self, circle_setup):
        grid, ls, classification = circle_setup
        collars = g.collars_for_ghosts(classification.ghost_ij, grid, ls)
        s2, s2_errors = triangle_stencils("S2", collars, 4, classification)
        s3, s3_errors = triangle_stencils("S3", collars, 4, classification)
        for k, collar in enumerate(collar_rows(collars)):
            if np.linalg.norm(displacement(collar)) > grid.h or s2_errors[k] is not None:
                continue
            if classification.ghost_mask[tuple(s2[k, 1:].T)].any():
                continue
            assert s3_errors[k] is None
            assert {tuple(m) for m in s3[k]} == {tuple(m) for m in s2[k]}
            break
        else:
            pytest.fail("no near-boundary ghost found")

    def test_s3_ghost_exclusive_on_annulus(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        collars = g.collars_for_ghosts(classification.ghost_ij, grid, annulus_bench.level_set)
        members, errors = triangle_stencils("S3", collars, 4, classification)
        assert errors == [None] * len(collars)
        for ghost, row in zip(collars.ghost_ij.tolist(), members):
            assert row[0].tolist() == ghost
            assert (classification.active_index[tuple(row.T)] >= 0).all()
            assert not classification.ghost_mask[tuple(row[1:].T)].any()
        assert (ghost_layers(classification) == 2).any()  # second-layer ghosts were among them


def _triangle_level(name, kind, n):
    """Collars and classification of a triangle level, band closed for S1/S2."""
    bench = g.RunConfig(benchmark=name, strategy=kind, n=n).make_benchmark()
    grid = g.Grid(n)
    strategy = g.StencilStrategy(kind=kind)
    classification, _ = extend_classification(g.classify_nodes(grid, bench.level_set), strategy)
    return g.collars_for_ghosts(classification.ghost_ij, grid, bench.level_set), classification


class TestLevelTriangles:
    """``triangle_stencils`` against the per-ghost reference rule."""

    @pytest.mark.parametrize(
        "name, kind, n, p, failing",
        [("annulus", "S1", 64, 4, 0), ("annulus", "S2", 160, 3, 0), ("annulus", "S3", 160, 4, 0),
         ("flower", "S2", 96, 4, 0), ("flower", "S3", 160, 4, 0), ("hourglass", "S1", 128, 4, 0),
         ("conv-bl2", "S3", 96, 4, 0), ("conv-bl2", "S3", 502, 4, 0), ("leaf", "S3", 128, 4, 1)],
    )
    def test_level_equals_per_ghost_reference(self, name, kind, n, p, failing):
        collars, classification = _triangle_level(name, kind, n)
        assert assert_level_matches_reference(kind, collars, p, classification) == failing

    @pytest.mark.parametrize("kind", ["S1", "S2", "S3"])
    def test_failing_ghosts_equal_reference(self, kind):
        # on the coarse hourglass, before any band closure, some triangles of
        # every kind reach inactive nodes
        grid = g.Grid(64)
        level_set = hourglass_level_set()
        classification = g.classify_nodes(grid, level_set)
        collars = g.collars_for_ghosts(classification.ghost_ij, grid, level_set)
        assert assert_level_matches_reference(kind, collars, 4, classification) > 0


def translated(level_set, dx, dy):
    """``level_set`` moved by (dx, dy), as a LevelSet of its own."""
    return g.LevelSet(
        f"{level_set.name}+({dx}, {dy})",
        evaluate=lambda x, y: level_set.evaluate(np.asarray(x) - dx, np.asarray(y) - dy),
        gradient=lambda x, y: level_set.gradient(np.asarray(x) - dx, np.asarray(y) - dy),
    )


PERTURBED_SHAPES = {
    "circle": lambda: circle_level_set(0.61),
    "flower": flower_level_set,
    "hourglass": hourglass_level_set,
}


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    shape=st.sampled_from(sorted(PERTURBED_SHAPES)),
    n=st.sampled_from([48, 64, 80, 96]),
    shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
)
def test_perturbed_geometry_triangles(annulus_bench, shape, n, shift):
    """Sub-cell translations: level-wide triangles equal the per-ghost rule,
    and a triangle level either builds its rows or raises a typed error."""
    grid = g.Grid(n)
    level_set = translated(PERTURBED_SHAPES[shape](), shift[0] * grid.h, shift[1] * grid.h)
    try:
        base = g.classify_nodes(grid, level_set)
    except GhostBcError:
        return
    collars = g.collars_for_ghosts(base.ghost_ij, grid, level_set)
    for kind in ("S1", "S2", "S3"):
        assert_level_matches_reference(kind, collars, 4, base)
        strategy = g.StencilStrategy(kind=kind)
        try:
            classification, band = extend_classification(base, strategy)
            rows = g.build_ghost_rows(classification, strategy, annulus_bench.coefficients, collars=band)
        except GhostBcError:
            continue
        members, errors = triangle_stencils(kind, rows.collars, 4, classification)
        assert errors == [None] * len(rows)
        assert np.array_equal(rows.member_ij, members.reshape(-1, 2))


def quartic_on(level_set):
    """The manufactured quartic of ``annulus-quartic`` on ``level_set``.

    Convection U = (1, 1); Dirichlet data where the collar has x >= 0,
    Neumann elsewhere.  Scheme and boundary rows are exact on quartics.
    """
    q, q_grad, q_lap = benchmarks._quartic()

    def source(x, y):
        gx, gy = q_grad(x, y)
        return -q_lap(x, y) + gx + gy

    def robin(points, normals):
        x, y = points[:, 0], points[:, 1]
        gx, gy = q_grad(x, y)
        dirichlet = x >= 0.0
        return g.RobinData(
            np.where(dirichlet, 1.0, 0.0),
            np.where(dirichlet, 0.0, 1.0),
            np.where(dirichlet, q(x, y), gx * normals[:, 0] + gy * normals[:, 1]),
        )

    def velocity(x, y):
        return np.ones_like(np.asarray(x, dtype=float)), np.ones_like(np.asarray(y, dtype=float))

    coeffs = g.ProblemCoefficients(diffusion=1.0, velocity=velocity, source=source, robin=robin)
    return benchmarks.Benchmark(f"quartic on {level_set.name}", level_set, coeffs, q, q_grad, q_lap)


MOVED_SHAPES = {
    "annulus": benchmarks.annulus_level_set,
    "flower": flower_level_set,
    "hourglass": hourglass_level_set,
    "leaf": benchmarks.leaf_level_set,
}


@settings(derandomize=True, max_examples=24, deadline=None)
@given(
    shape=st.sampled_from(sorted(MOVED_SHAPES)),
    n=st.sampled_from([64, 80, 96]),
    kind=st.sampled_from(TRIANGLE_KINDS + CONE_KINDS),
    angle=st.floats(-math.pi, math.pi),
    shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
)
# S4.1 keeps its badly weighted rows: here its 1-norm condition estimate is
# ~7e9 (S4.2 1.2e7, S4.3 5.3e6), and the same ~1e-12 residual becomes an
# L-inf error of 1.5e-8 (S4.2/S4.3: 7e-12)
@example(shape="leaf", n=96, kind="S4.1", angle=0.046875, shift=(0.5, 0.0))
def test_moved_domains_keep_every_strategy_exact(shape, n, kind, angle, shift):
    """Rotated and shifted domains: a level of any strategy raises a typed
    error or its system holds the quartic to rounding; S4.2 and S4.3, whose
    swaps bound the conditioning, also reproduce it to 1e-8.  S1-S4.1 get
    no L-inf bound (S1 reads up to ~4e-7), and gradients are not bounded
    (S4.1 reads up to ~3e-7)."""
    h = g.Grid(n).h
    bench = quartic_on(moved(MOVED_SHAPES[shape](), angle, shift[0] * h, shift[1] * h))
    try:
        result = g.execute_level(g.RunConfig(strategy=kind, n=n), bench, n)
    except GhostBcError:
        return
    xy = result.classification.active_coords()
    truncation = result.system.matrix @ bench.solution(xy[:, 0], xy[:, 1]) - result.system.rhs
    assert np.abs(truncation).max() <= 1e-10 * np.abs(result.system.rhs).max()
    if kind in ("S4.2", "S4.3"):
        assert result.errors.linf <= 1e-8


class TestCone:
    def test_full_disc_matches_brute_force(self, circle_setup):
        grid, ls, classification = circle_setup
        ghost = tuple(int(v) for v in classification.ghost_ij[0])
        collar = collar_of(ghost, grid, ls)
        got = cone_list(ghost, collar, 360.0, grid, classification, limit=40)
        brute = _brute_force_cone(ghost, collar, 360.0, grid, classification)
        assert got == brute[:40]

    def test_aperture_sixty_half_angle(self):
        grid = g.Grid(40)
        classification = _all_active_stub(grid)
        ghost = (20, 20)
        ghost_xy = node_xy(grid, *ghost)
        collar = make_collar(ghost_xy, ghost_xy + np.array([0.1, 0.0]), ghost)
        for i, j in cone_list(ghost, collar, 60.0, grid, classification, limit=30)[1:]:
            v = np.array([i - ghost[0], j - ghost[1]], dtype=float)
            angle = math.degrees(math.acos(v[0] / np.linalg.norm(v)))
            assert angle <= 30.0 + 1e-9

    def test_annulus_cone_matches_brute_force(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        ghost = tuple(int(v) for v in classification.ghost_ij[37])
        collar = collar_of(ghost, grid, annulus_bench.level_set)
        got = cone_list(ghost, collar, 45.0, grid, classification, limit=25)
        brute = _brute_force_cone(ghost, collar, 45.0, grid, classification)
        assert got == brute[:25]

    def test_determinism(self, circle_setup):
        grid, ls, classification = circle_setup
        ghost = tuple(int(v) for v in classification.ghost_ij[5])
        collar = collar_of(ghost, grid, ls)
        a = cone_list(ghost, collar, 60.0, grid, classification, limit=20)
        b = cone_list(ghost, collar, 60.0, grid, classification, limit=20)
        assert a == b


class TestCandidateStream:
    """The offset-table stream against the brute-force oracle, past the first table."""

    def test_whole_cone_runs_past_first_radius(self, circle_setup):
        grid, ls, classification = circle_setup
        for k in (0, 9, 23):
            ghost = tuple(int(v) for v in classification.ghost_ij[k])
            collar = collar_of(ghost, grid, ls)
            for aperture in (360.0, 60.0):
                got = cone_list(ghost, collar, aperture, grid, classification)
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
        ghost_xy = node_xy(grid, *ghost)
        collar = make_collar(ghost_xy, ghost_xy + np.array([0.1, 0.013]), ghost)
        strategy = g.StencilStrategy(kind="S4.1", theta=30.0)
        got = takes(_Cones(collar, strategy.theta, classification), 60)
        assert got == _oracle_takes(ghost, collar, 30.0, grid, classification, 60)
        assert got[-1][1] > 30.0

    def test_exhausted_cone_hands_out_every_active_node_once(self):
        # a small disc: the cone widens to 360 degrees, hands out every
        # active node once, and is then exhausted for good
        grid, ls = g.Grid(40), circle_level_set(0.2)
        classification = g.classify_nodes(grid, ls)
        ghost = tuple(int(v) for v in classification.ghost_ij[0])
        collar = collar_of(ghost, grid, ls)
        others = int((classification.active_index >= 0).sum()) - 1
        got = takes(_Cones(collar, 60.0, classification), others + 2)
        assert got[:others] == _oracle_takes(ghost, collar, 60.0, grid, classification, others)
        assert got[others:] == [(None, 360.0)] * 2


class TestConeStrategies:
    @pytest.mark.parametrize("kind", CONE_KINDS)
    def test_dry_cone_is_not_admissible(self, kind):
        # one interior node and its eight ghosts: every cone runs dry at
        # 360 degrees below the 15 members of an order-5 row, which is the
        # same NotAdmissible as a cone that runs dry later in the growth
        grid = g.Grid(16)
        classification = g.classify_nodes(grid, circle_level_set(0.1))
        assert classification.n_active == 9
        first = tuple(classification.ghost_ij[0].tolist())
        with pytest.raises(NotAdmissible, match=re.escape(f"cone candidates exhausted for ghost {first}")):
            g.build_ghost_rows(classification, g.StencilStrategy(kind), benchmarks.annulus_homogeneous().coefficients)

    def test_no_op_branch_keeps_all_stages_identical(self, annulus_160_stages):
        members = {kind: per_row(rows, rows.member_ij) for kind, rows in annulus_160_stages.items()}
        found = False
        for k in range(len(annulus_160_stages["S4.3"])):
            if annulus_160_stages["S4.1"].sizes[k] == 15 and not annulus_160_stages["S4.3"].swaps[k]:
                sets = [set(map(tuple, members[kind][k])) for kind in ("S4.1", "S4.2", "S4.3")]
                assert sets[0] == sets[1] == sets[2]
                found = True
                break
        assert found

    def test_swap_instrumentation(self, annulus_160, annulus_160_stages):
        _, classification = annulus_160
        strategy = g.StencilStrategy(kind="S4.2")
        s41, s42 = annulus_160_stages["S4.1"], annulus_160_stages["S4.2"]
        members1, coeffs1 = per_row(s41, s41.member_ij), per_row(s41, s41.coeffs)
        members2, coeffs2 = per_row(s42, s42.member_ij), per_row(s42, s42.coeffs)
        swapped = 0
        for k, ghost in enumerate(map(tuple, classification.ghost_ij)):
            amp1 = coefficient_amplification(coeffs1[k])
            swaps = s42.swaps[k]
            if amp1 < strategy.lambda_glo:
                assert swaps == 0
                continue
            assert swaps <= strategy.max_swaps
            s1 = set(map(tuple, members1[k]))
            s2 = set(map(tuple, members2[k]))
            # every member that vanished was the victim of an accepted swap,
            # one victim per swap; the ghost itself is never a victim
            assert len(s1 - s2) <= swaps
            assert tuple(members2[k][0]) == ghost
            if swaps:
                assert coefficient_amplification(coeffs2[k]) < amp1
                swapped += 1
            else:
                assert np.array_equal(members2[k], members1[k])
        assert swapped > 0

    def test_rebuild_adds_its_swaps_and_aperture(self, annulus_bench, annulus_160, annulus_160_stages):
        # on the annulus every closest-point projection converges, so an
        # axis collar in the S4.3 level is an adopted rebuild
        grid, classification = annulus_160
        s42, s43 = annulus_160_stages["S4.2"], annulus_160_stages["S4.3"]
        members42, members43 = per_row(s42, s42.member_ij), per_row(s43, s43.member_ij)
        rebuilt = np.flatnonzero(s43.collars.mode == "axis").tolist()
        assert len(rebuilt) == 131 and rebuilt == np.flatnonzero(s43.collars.source == g.Collars.REBUILD).tolist()
        solver = GhostOperatorSolver(grid, annulus_bench.coefficients.robin)
        strategy = g.StencilStrategy(kind="S4.3")
        (members, sizes, _, _, swaps, aperture), errors = _cone_batch(
            s43.collars.take(rebuilt), strategy, classification, solver
        )
        assert errors == [None] * len(rebuilt)
        for k, member_ij, size, swaps, aperture in zip(rebuilt, members, sizes, swaps, aperture, strict=True):
            assert np.array_equal(members43[k], member_ij[:size])
            assert s43.swaps[k] == s42.swaps[k] + swaps
            assert s43.aperture[k] == max(s42.aperture[k], aperture)
        for k in set(range(len(s43))) - set(rebuilt):
            assert np.array_equal(members43[k], members42[k])
            assert (s43.swaps[k], s43.aperture[k]) == (s42.swaps[k], s42.aperture[k])

    def test_rebuilt_rows_are_told_from_projection_fallbacks(self, tmp_path):
        # flower-283: 222 axis collars, of which 9 are closest-point
        # projections that fell back to the axis and 213 adopted rebuilds;
        # ghosts.csv writes both axis sources as ``axis``
        cfg = g.RunConfig(benchmark="flower", strategy="S4.3", n=283)
        bench, grid = cfg.make_benchmark(), g.Grid(283)
        classification = g.classify_nodes(grid, bench.level_set)
        rows = g.build_ghost_rows(classification, cfg.stencil_strategy(), bench.coefficients)
        source = rows.collars.source
        fallbacks = g.collars_for_ghosts(classification.ghost_ij, grid, bench.level_set).source == g.Collars.AXIS
        axis, rebuilt = source == g.Collars.AXIS, source == g.Collars.REBUILD
        assert ((axis | rebuilt).sum(), rebuilt.sum(), fallbacks.sum()) == (222, 213, 9)
        assert np.array_equal(axis, fallbacks)
        assert not (rebuilt & fallbacks).any()
        cli._write_ghost_csv(tmp_path / "ghosts.csv", rows, g.stencil_diagnostics(rows), classification.n_interior)
        modes = np.array([line.rsplit(",", 1)[1] for line in (tmp_path / "ghosts.csv").read_text().splitlines()[1:]])
        codes = (g.Collars.CLOSEST, g.Collars.AXIS, g.Collars.REBUILD)
        assert [set(modes[source == code]) for code in codes] == [{"closest"}, {"axis"}, {"axis"}]

    def test_batch_streams_equal_one_stream_at_a_time(self, annulus_bench, annulus_160):
        # the (B, T) first-radius pass of a batch against each ghost read as
        # a batch of one, and both against the every-node reference cone
        # within the first radius, over two apertures
        grid, classification = annulus_160
        collars = g.collars_for_ghosts(classification.ghost_ij[::9], grid, annulus_bench.level_set)
        for aperture in (60.0, 360.0):
            batch = _Cones(collars, aperture, classification)
            for k, collar in enumerate(collar_rows(collars)):
                alone = _Cones(collar, aperture, classification)
                segment = batch.nodes[batch.start[k]:batch.end[k]].tolist()
                assert segment == alone.nodes.tolist()
                ghost = ghost_of(collar)
                near = [
                    node for node in _reference_cone(ghost, collar, aperture, classification)
                    if (node[0] - ghost[0]) ** 2 + (node[1] - ghost[1]) ** 2 <= FIRST_CONE_RADIUS**2
                ]
                assert list(map(tuple, segment)) == [ghost] + near

    def test_direction_norms_equal_the_per_ghost_norm(self, annulus_bench, annulus_160):
        # the batch's one vecdot gives each ghost the bits of its own norm
        grid, classification = annulus_160
        collars = g.collars_for_ghosts(classification.ghost_ij, grid, annulus_bench.level_set)
        wnorm = _Cones(collars, 60.0, classification).wnorm
        assert wnorm.tobytes() == np.array([np.linalg.norm(toward_boundary(c)) for c in collar_rows(collars)]).tobytes()

    def test_phase_2_without_collars(self, monkeypatch):
        # Without collars the cone stage gives empty columns.  No stencil
        # gets chi below 1, so the first ghost fails phase 1 before any
        # ghost is to be rebuilt: phase 2 gets no collars and the level
        # raises phase 1's error.  Order 2 keeps the failing level cheap.
        bench, grid = g.RunConfig(benchmark="annulus", strategy="S4.3", n=16).make_benchmark(), g.Grid(16)
        classification = g.classify_nodes(grid, bench.level_set)
        strategy = g.StencilStrategy(kind="S4.3", lambda_loc=1.0, order=2)
        solver = GhostOperatorSolver(grid, bench.coefficients.robin, order=strategy.order)
        none = g.collars_for_ghosts(classification.ghost_ij[:0], grid, bench.level_set)
        columns, errors = _cone_batch(none, strategy, classification, solver)
        assert errors == []
        assert [(c.shape, c.dtype.kind) for c in columns] == [
            ((0, MAX_STENCIL_SIZE, 2), "i"), ((0,), "i"), ((0, MAX_STENCIL_SIZE), "f"), ((0,), "f"), ((0,), "i"),
            ((0,), "f"),
        ]
        assert solver.rhs(none).shape == (0, solver.n_constraints)
        calls = []
        batch = stencils._cone_batch
        monkeypatch.setattr(stencils, "_cone_batch", lambda collars, *args: (
            calls.append(len(collars)) or batch(collars, *args)
        ))
        message = "stencil for ghost (0, 5) grew past 60 points without becoming well conditioned"
        with pytest.raises(NotAdmissible, match=re.escape(message)):
            g.build_ghost_rows(classification, strategy, bench.coefficients)
        assert calls == [len(classification.ghost_ij), 0]

    def test_rounds_and_solved_trials_are_pinned(self, annulus_bench, annulus_160, monkeypatch):
        # The stacked solves and rank screens of annulus S4.3-160 and the
        # trials they hold: a round is one solve per member count, a
        # screening pass one screen per member count, and the screen passes
        # over about half of the screened trials, so a change that adds
        # rounds, solves trials the screen would skip or screens none moves
        # these counts.
        _, classification = annulus_160
        solved, screened = [], []
        solve, deficient = GhostOperatorSolver.solve, GhostOperatorSolver.deficient
        monkeypatch.setattr(GhostOperatorSolver, "solve", lambda self, member_ij, rhs: (
            solved.append(len(member_ij)) or solve(self, member_ij, rhs)
        ))
        monkeypatch.setattr(GhostOperatorSolver, "deficient", lambda self, member_ij: (
            screened.append(len(member_ij)) or deficient(self, member_ij)
        ))
        g.build_ghost_rows(classification, g.StencilStrategy(kind="S4.3"), annulus_bench.coefficients)
        assert (len(solved), sum(solved)) == (19, 1817)
        assert (len(screened), sum(screened)) == (28, 3409)

    def test_screen_runs_once_per_grow(self, annulus_bench, monkeypatch):
        # With lambda_loc = 1 no stencil is ever conditioned enough, so every
        # trial grows to MAX_STENCIL_SIZE, through 178 stacked solves.  A
        # trial grown from one that passed the rank screen has full rank, so
        # the screen runs only before the first round: 4 screens, not 178.
        grid = g.Grid(24)
        classification = g.classify_nodes(grid, annulus_bench.level_set)
        solved, screened = [], []
        solve, deficient = GhostOperatorSolver.solve, GhostOperatorSolver.deficient
        monkeypatch.setattr(GhostOperatorSolver, "solve", lambda self, member_ij, rhs: (
            solved.append(len(member_ij)) or solve(self, member_ij, rhs)
        ))
        monkeypatch.setattr(GhostOperatorSolver, "deficient", lambda self, member_ij: (
            screened.append(len(member_ij)) or deficient(self, member_ij)
        ))
        message = "stencil for ghost (0, 10) grew past 60 points without becoming well conditioned"
        strategy = g.StencilStrategy(kind="S4.3", lambda_loc=1.0)
        with pytest.raises(NotAdmissible, match=re.escape(message)):
            g.build_ghost_rows(classification, strategy, annulus_bench.coefficients)
        assert (len(solved), sum(solved)) == (178, 7924)
        assert (len(screened), sum(screened)) == (4, 348)

    def test_sizes_within_hard_bound(self, annulus_160_rows):
        sizes = annulus_160_rows.sizes
        assert sizes.min() >= 15
        assert sizes.max() <= 25

    def test_cone_membership_for_final_aperture(self, annulus_160, annulus_160_stages):
        _, classification = annulus_160
        rows = annulus_160_stages["S4.1"]
        ghost = tuple(int(v) for v in classification.ghost_ij[11])
        w = toward_boundary(rows.collars.take([11]))
        cos_half = math.cos(math.radians(rows.aperture[11] / 2.0))
        for i, j in per_row(rows, rows.member_ij)[11][1:]:
            v = np.array([i - ghost[0], j - ghost[1]], dtype=float)
            cosang = float(v @ w) / (np.linalg.norm(v) * np.linalg.norm(w))
            assert cosang >= cos_half - 1e-9


class TestSwapRule:
    @pytest.mark.parametrize("name, n", [("annulus", 96), ("flower", 96), ("hourglass", 128)])
    def test_level_equals_the_per_ghost_swap_rule(self, name, n):
        # The level's S4.2 rows against ``_reference_cone_row``, which keeps
        # its own used set and finds each replacement by a scan from the
        # cone start, every trial solved alone.
        cfg = g.RunConfig(benchmark=name, strategy="S4.2", n=n)
        bench, grid, strategy = cfg.make_benchmark(), g.Grid(n), cfg.stencil_strategy()
        classification = g.classify_nodes(grid, bench.level_set)
        rows = g.build_ghost_rows(classification, strategy, bench.coefficients)
        solver = GhostOperatorSolver(grid, bench.coefficients.robin)
        collars = g.collars_for_ghosts(classification.ghost_ij, grid, bench.level_set)
        members, coeffs = per_row(rows, rows.member_ij), per_row(rows, rows.coeffs)
        outcomes = []
        for k, collar in enumerate(collar_rows(collars)):
            ref_members, solve, swaps, aperture, trials = _reference_cone_row(collar, strategy, classification, solver)
            assert members[k].dtype == ref_members.dtype and np.array_equal(members[k], ref_members)
            assert coeffs[k].tobytes() == solve.coeffs.tobytes()
            assert rows.chi[k] == solve.chi
            assert (rows.swaps[k], rows.aperture[k]) == (swaps, aperture)
            outcomes += trials
        # ghosts with accepted swaps, and ghosts whose last swap was dropped
        assert {"accepted", "worse"} <= set(outcomes)


class TestStrategyValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            g.StencilStrategy(kind="S9")

    def test_bad_aperture(self):
        with pytest.raises(ValueError):
            g.StencilStrategy(kind="S4.1", theta=0.0)

    def test_bad_triangle_size(self):
        with pytest.raises(ValueError):
            g.StencilStrategy(kind="S1", triangle_size=0)

    def test_order_below_2(self):
        with pytest.raises(ValueError, match="^polynomial order must be >= 2, got 1$"):
            g.StencilStrategy(kind="S4.3", order=1)

    def test_triangle_with_fewer_members_than_constraints(self):
        # size 4 has 15 members, order 6 has 21 constraints; the cone grows past any count
        message = "S1 triangle of size 4 has 15 members, fewer than the 21 constraints of order 6"
        with pytest.raises(ValueError, match=f"^{message}$"):
            g.StencilStrategy(kind="S1", triangle_size=4, order=6)
        g.StencilStrategy(kind="S1", triangle_size=5, order=6)
        g.StencilStrategy(kind="S4.3", order=6)

    @pytest.mark.parametrize("knob", ["lambda_loc", "lambda_glo"])
    def test_nan_tolerance(self, knob):
        with pytest.raises(ValueError, match="conditioning tolerances must be positive"):
            g.StencilStrategy(kind="S4.3", **{knob: float("nan")})


class TestExtension:
    def test_s1_band_extension_closes_annulus(self, annulus_bench):
        grid = g.Grid(194)
        classification = g.classify_nodes(grid, annulus_bench.level_set)
        strategy = g.StencilStrategy(kind="S1")
        extended, band = extend_classification(classification, strategy)
        assert extended.n_ghost > classification.n_ghost
        assert extended.n_interior == classification.n_interior
        # every triangle is now fully active
        collars = g.collars_for_ghosts(extended.ghost_ij, grid, annulus_bench.level_set)
        assert same_collars(band, collars)
        members, errors = triangle_stencils("S1", collars, strategy.triangle_size, extended)
        assert errors == [None] * len(collars)
        assert (extended.active_index[tuple(members.reshape(-1, 2).T)] >= 0).all()

    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_promoted_node_without_collar_fails_the_closure(self, annulus_bench, monkeypatch, failing_call):
        # A band ghost's projection error is raised as it is; a promoted
        # node's becomes a stencil error that names the closure round.
        classification = g.classify_nodes(g.Grid(194), annulus_bench.level_set)  # its closure promotes nodes
        failure = NoAxisIntersection("no axis ray from the node crosses the boundary")
        calls = []
        project = stencils.collars_for_ghosts

        def failing(ghosts, *args):
            calls.append(len(ghosts))
            if len(calls) == failing_call:
                raise failure
            return project(ghosts, *args)

        monkeypatch.setattr(stencils, "collars_for_ghosts", failing)
        with pytest.raises(GhostBcError) as error:
            extend_classification(classification, g.StencilStrategy(kind="S1"))
        if failing_call == 1:
            assert error.value is failure
        else:
            assert type(error.value) is InactiveMember and error.value.__cause__ is failure
            assert str(error.value) == (
                "S1 band closure round 1 promoted an exterior node that has no collar point: "
                "no axis ray from the node crosses the boundary"
            )

    def test_cone_strategies_do_not_extend(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        strategy = g.StencilStrategy(kind="S4.3")
        extended, collars = extend_classification(classification, strategy)
        assert extended is classification and collars is None

    @pytest.mark.parametrize("kind", ["S1", "S2"])
    def test_band_ghosts_are_projected_once(self, kind, monkeypatch):
        # The closure hands its collars on, so building the rows does not
        # project the band's ghosts a second time; the rows stay the same.
        seen = []
        project = geometry._closest_points

        def counting(ghost_xy, *args):
            seen.extend(map(tuple, np.asarray(ghost_xy).tolist()))
            return project(ghost_xy, *args)

        monkeypatch.setattr(geometry, "_closest_points", counting)
        cfg = g.RunConfig(benchmark="annulus", strategy=kind, n=64)
        bench = cfg.make_benchmark()
        result = g.execute_level(cfg, bench, 64)
        classification = result.classification
        ghosts = classification.active_coords()[classification.n_interior:]
        assert len(seen) == len(set(seen)) == classification.n_ghost
        assert set(seen) == set(map(tuple, ghosts.tolist()))
        if kind == "S1":
            assert classification.n_ghost == 480
        again = g.build_ghost_rows(classification, cfg.stencil_strategy(), bench.coefficients)
        assert len(seen) == 2 * classification.n_ghost
        assert same_collars(result.rows.collars, again.collars)
        for column in ("sizes", "member_ij", "coeffs", "rhs", "chi", "r_ratio"):
            assert same_bits(getattr(result.rows, column), getattr(again, column)), column


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
    w = toward_boundary(collar)
    wn = np.linalg.norm(w)
    cos_half = math.cos(math.radians(aperture / 2.0))
    out = []
    side = grid.nodes_per_side
    for i in range(side):
        for j in range(side):
            if (i, j) == ghost or classification.active_index[i, j] < 0:
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


def _reference_cone(ghost, collar, aperture, classification):
    """The active cone nodes of ``ghost`` in (d^2, i, j) order, from every node at once."""
    i, j = np.nonzero(classification.active_index >= 0)
    di, dj = i - ghost[0], j - ghost[1]
    w = toward_boundary(collar)
    dist = np.sqrt(di * di + dj * dj)
    keep = dist > 0
    if aperture < 360.0:
        cos_half = math.cos(math.radians(aperture / 2.0))
        with np.errstate(invalid="ignore"):
            keep &= (di * w[0] + dj * w[1]) / (dist * np.linalg.norm(w)) >= cos_half - 1e-12
    order = np.lexsort((j[keep], i[keep], (di * di + dj * dj)[keep]))
    return list(zip(i[keep][order].tolist(), j[keep][order].tolist()))


def _reference_cone_row(collar, strategy, classification, solver):
    """One ghost's S4.1/S4.2 row by the per-ghost rule, every trial solved alone and none screened.

    Growth takes the nearest cone node not used yet (members and earlier
    swap victims), widening the cone by ``APERTURE_STEP`` when none is
    left; a swap drops the member with the largest coefficient, replaces
    it by the nearest unused node, scanning the cone from its start, and
    regrows, and is kept only if it strictly lowers the amplification.
    Returns the members, their solve, the accepted swaps, the final
    aperture and each swap trial's outcome.
    """
    ghost = ghost_of(collar)
    aperture = strategy.theta
    cone = _reference_cone(ghost, collar, aperture, classification)

    def take(used):
        nonlocal aperture, cone
        while (node := next((c for c in cone if c not in used), None)) is None:
            if aperture >= 360.0:
                raise NotAdmissible(f"cone candidates exhausted for ghost {ghost}")
            aperture = min(360.0, aperture + APERTURE_STEP)
            cone = _reference_cone(ghost, collar, aperture, classification)
        used.add(node)
        return node

    def grow(members, used):
        while True:
            solve = solve_alone(solver, np.array(members, dtype=np.int64), collar)
            if solve.admissible and solve.chi < strategy.lambda_loc:
                return solve
            if len(members) >= MAX_STENCIL_SIZE:
                raise NotAdmissible(
                    f"stencil for ghost {ghost} grew past {MAX_STENCIL_SIZE} points without becoming well conditioned"
                )
            members.append(take(used))

    used = {ghost}
    members = [ghost] + [take(used) for _ in range(solver.n_constraints - 1)]
    solve = grow(members, used)
    ratio = coefficient_amplification(solve.coeffs)
    swaps, outcomes = 0, []
    while ratio >= strategy.lambda_glo and swaps < (0 if strategy.kind == "S4.1" else strategy.max_swaps):
        victim = 1 + int(np.abs(solve.coeffs[1:]).argmax())
        trial, trial_used = members[:victim] + members[victim + 1:], set(used)
        try:
            trial.append(take(trial_used))
            trial_solve = grow(trial, trial_used)
        except NotAdmissible:
            outcomes.append("inadmissible")
            break
        trial_ratio = coefficient_amplification(trial_solve.coeffs)
        if not trial_ratio < ratio:
            outcomes.append("worse")
            break
        outcomes.append("accepted")
        members, used, solve, ratio, swaps = trial, trial_used, trial_solve, trial_ratio, swaps + 1
    return np.array(members, dtype=np.int64), solve, swaps, aperture, outcomes


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
