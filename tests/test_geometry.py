import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghostbc as g
from conftest import (
    circle_level_set,
    collar_rows,
    dirichlet_rule,
    node_xy,
    one_collar,
    pairwise_diameter,
    per_row,
    square_level_set,
)
from ghostbc import stencils
from ghostbc.benchmarks import (
    R_INNER,
    R_OUTER,
    annulus_level_set,
    flower_level_set,
    hourglass_level_set,
    leaf_level_set,
)
from ghostbc.errors import (
    EmptyInterior,
    GeometryError,
    NoAxisIntersection,
    NodeOnBoundary,
    ProjectionDiverged,
    ZeroGradient,
)
from ghostbc.geometry import (
    NODE_TOLERANCE,
    PROJECTION_MAX_ITER,
    PROJECTION_TOLERANCE,
    STENCIL_REACH,
    _closest_points,
    axis_projection,
    collars_for_ghosts,
)

CATALOG_LEVEL_SETS = {
    "circle": lambda: circle_level_set(0.5, center=(0.1, -0.05)),
    "annulus": annulus_level_set,
    "leaf": leaf_level_set,
    "flower": flower_level_set,
    "hourglass": hourglass_level_set,
    "square": lambda: square_level_set(0.51),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def same_collars(a, b) -> bool:
    """Two ``Collars`` agree bit for bit, row by row, with the same ``collar_mode`` text."""
    return (
        np.array_equal(a.mode, b.mode)
        and np.array_equal(a.ghost_ij, b.ghost_ij)
        and same_bits(a.ghost_xy, b.ghost_xy)
        and same_bits(a.point, b.point)
        and same_bits(a.normal, b.normal)
    )


def brute_force_reference_set(grid, inside):
    """Exterior nodes referenced by any interior width-5 cross, by enumeration."""
    side = grid.nodes_per_side
    referenced = set()
    for i in range(side):
        for j in range(side):
            if not inside[i, j]:
                continue
            for off in (-2, -1, 1, 2):
                referenced.add((i + off, j))
                referenced.add((i, j + off))
    return {(i, j) for (i, j) in referenced if 0 <= i < side and 0 <= j < side and not inside[i, j]}


class TestClassifyNodes:
    def test_annulus_interior_count_matches_radius_test(self, annulus_160):
        grid, classification = annulus_160
        x, y = grid.meshgrid()
        r = np.hypot(x, y)
        expected = int(((r > R_INNER) & (r < R_OUTER)).sum())
        assert classification.n_interior == expected

    def test_square_ghosts_match_brute_force_enumeration(self):
        grid = g.Grid(24)
        # half-widths off the lattice lines; at 0.87 the interior comes to
        # exactly STENCIL_REACH nodes of the box edge, so ghosts lie on it
        for half_width in (0.51, 0.87):
            level_set = square_level_set(half_width)
            classification = g.classify_nodes(grid, level_set)
            x, y = grid.meshgrid()
            inside = np.asarray(level_set.evaluate(x, y)) < 0
            expected = brute_force_reference_set(grid, inside)
            got = {tuple(ij) for ij in classification.ghost_ij}
            assert got == expected
        # the 0.87 square reaches the edge the np.roll shifts rely on
        assert not inside[:STENCIL_REACH].any() and inside[STENCIL_REACH].any()
        assert {0, grid.n} <= {int(i) for i in classification.ghost_ij[:, 0]}

    def test_node_exactly_on_boundary_rejected(self):
        # 0.5 is binary-exact and lies on the lattice at N=16, so phi == 0 there.
        grid = g.Grid(16)
        with pytest.raises(NodeOnBoundary):
            g.classify_nodes(grid, square_level_set(0.5))

    def test_empty_interior(self):
        level_set = g.LevelSet(
            "nowhere",
            evaluate=lambda x, y: np.hypot(x, y) + 10.0,
            gradient=lambda x, y: (x, y),
        )
        with pytest.raises(EmptyInterior):
            g.classify_nodes(g.Grid(16), level_set)

    def test_domain_touching_box_edge_rejected(self):
        with pytest.raises(GeometryError):
            g.classify_nodes(g.Grid(16), circle_level_set(1.01))

    def test_positive_rescaling_keeps_classification(self, annulus_160):
        grid, classification = annulus_160
        base = annulus_level_set()
        scaled = g.LevelSet(
            "annulus-x3",
            evaluate=lambda x, y: 3.0 * base.evaluate(x, y),
            gradient=lambda x, y: tuple(3.0 * c for c in base.gradient(x, y)),
        )
        other = g.classify_nodes(grid, scaled)
        assert np.array_equal(other.interior_mask, classification.interior_mask)
        assert np.array_equal(other.ghost_mask, classification.ghost_mask)

    def test_layers_and_numbering(self, annulus_160):
        grid, classification = annulus_160
        # active numbering: interior first, ghosts after, no gaps
        idx = classification.active_index
        assert idx.max() == classification.n_active - 1
        first_ghost = classification.ghost_ij[0]
        assert idx[tuple(first_ghost)] == classification.n_interior

    def test_extra_ghost_extension(self, annulus_160):
        grid, classification = annulus_160
        outside = None
        side = grid.nodes_per_side
        for i in range(side):
            for j in range(side):
                if classification.active_index[i, j] < 0 and not classification.interior_mask[i, j]:
                    outside = (i, j)
                    break
            if outside:
                break
        inside = tuple(classification.interior_ij[0])
        extended = classification.with_extra_ghosts([outside, inside])
        assert extended.n_ghost == classification.n_ghost + 1
        assert extended.ghost_mask[outside]
        assert not extended.ghost_mask[inside]  # an interior node stays interior
        assert np.array_equal(extended.interior_mask, classification.interior_mask)

    def test_index_at_reads_the_lattice_and_minus_one_off_it(self):
        grid = g.Grid(24)
        classification = g.classify_nodes(grid, square_level_set(0.87))  # ghosts on the box edge
        n = grid.n
        ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        # (G, M) and (N,) reads on the lattice equal active_index
        assert np.array_equal(classification.index_at(ii, jj), classification.active_index)
        assert np.array_equal(classification.index_at(ii.ravel(), jj.ravel()), classification.active_index.ravel())
        off = np.array([-1, -2, n + 1, n + 2])
        mid = np.full(4, n // 2)
        # a wrapped read of -1 and -2 would find the active ghosts on the far edge
        assert (classification.active_index[off[:2], mid[:2]] >= 0).all()
        assert (classification.active_index[mid[:2], off[:2]] >= 0).all()
        assert classification.index_at(off, mid).tolist() == [-1] * 4
        assert classification.index_at(mid, off).tolist() == [-1] * 4
        i = np.array([[-1, 0, n], [n + 2, mid[0], -2]])
        j = np.array([[mid[0], mid[0], mid[0]], [mid[0], n + 1, mid[0]]])
        expected = np.array([
            [-1, classification.active_index[0, n // 2], classification.active_index[n, n // 2]],
            [-1, -1, -1],
        ])
        assert (expected[0, 1:] >= 0).all()
        assert np.array_equal(classification.index_at(i, j), expected)

    def test_cross_lists_each_interior_node_s_axis_neighbours(self):
        classification = g.classify_nodes(g.Grid(32), annulus_level_set())
        active = classification.active_index
        expected = [
            [[active[i + off, j] for off in range(-2, 3)], [active[i, j + off] for off in range(-2, 3)]]
            for i, j in classification.interior_ij.tolist()
        ]
        assert classification.cross().tolist() == expected


def project_point(xy, level_set):
    """Closest-point projection of one point, which must converge: a record of one row."""
    collar, failures = _closest_points(np.array([xy], dtype=float), level_set, [(0, 0)])
    assert not failures, failures
    return collar


class TestProjection:
    def test_circle_axis_point(self):
        ls = circle_level_set(0.5)
        collar = project_point((0.7, 0.0), ls)
        assert np.allclose(collar.point, [0.5, 0.0], atol=1e-12)
        assert np.allclose(collar.normal, [1.0, 0.0], atol=1e-12)
        assert collar.source.tolist() == [g.Collars.CLOSEST] and collar.mode.tolist() == ["closest"]

    def test_circle_diagonal_point(self):
        ls = circle_level_set(0.5)
        collar = project_point((0.6, 0.6), ls)
        expected = 0.5 / math.sqrt(2.0)
        assert np.allclose(collar.point, [expected, expected], atol=1e-12)

    def test_flower_residual_and_alignment(self):
        ls = flower_level_set()
        # a point just outside the petal tip near theta = 18 degrees
        theta = np.radians(18.0)
        x0 = 0.03 * math.sqrt(3.0) + 0.74 * math.cos(theta)
        y0 = 0.04 * math.sqrt(2.0) + 0.74 * math.sin(theta)
        collar = project_point((x0, y0), ls)
        assert abs(float(ls.evaluate(*collar.point[0]))) <= 1e-12
        d = collar.ghost_xy[0] - collar.point[0]
        cosang = abs(float(d @ collar.normal[0])) / np.linalg.norm(d)
        assert math.acos(min(1.0, cosang)) < 1e-6

    def test_all_annulus_collars_meet_contracts(self, annulus_bench, annulus_160):
        grid, classification = annulus_160
        ls = annulus_bench.level_set
        worst_res = 0.0
        worst_angle = 0.0
        collars = collars_for_ghosts(classification.ghost_ij, grid, ls)
        for ghost_xy, point, normal, mode in zip(collars.ghost_xy, collars.point, collars.normal, collars.mode):
            worst_res = max(worst_res, abs(float(ls.evaluate(*point))))
            d = ghost_xy - point
            dn = np.linalg.norm(d)
            if mode == "closest" and dn > 1e-12:
                cosang = abs(float(d @ normal)) / dn
                worst_angle = max(worst_angle, math.acos(min(1.0, cosang)))
        assert worst_res <= 1e-12
        assert worst_angle < 1e-6

    def test_zero_displacement_direction_uses_normal(self):
        # A ghost on the boundary aims along the inward normal; the zero y
        # component of (-1.0, -0.0) counts as + for the triangle's orientation.
        collar = one_collar((0.5, 0.0), (0.5, 0.0), (1.0, 0.0), (12, 8))  # node (12, 8) of Grid(16)
        assert same_bits(stencils._toward_boundary(collar), [[-1.0, -0.0]])
        classification = g.classify_nodes(g.Grid(16), circle_level_set(0.45))
        members, _ = stencils.triangle_stencils("S1", collar, 1, classification)
        assert (members[0] - [12, 8]).tolist() == [[0, 0], [0, 1], [-1, 0]]


def _bisect_level(level_set, a, b, fa, tol):
    """Bisection along segment [a, b] bracketing a sign change of phi, one point at a time."""
    lo, hi = a, b
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = float(level_set.evaluate(mid[0], mid[1]))
        if abs(fm) <= tol:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            lo = mid
        else:
            hi = mid
    raise ProjectionDiverged("axis bisection could not reach the residual tolerance")


def scalar_axis_projection(ghost_xy, level_set, h, ghost_ij=None, tol=PROJECTION_TOLERANCE, reach=3.0):
    """The axis projection of one point on numpy scalars: the reference for the batch.

    Scans the four rays in one call, bisects the rays whose first sign
    change lies in the nearest bracket, keeps the nearest root (the first
    ray in the order +x, -x, +y, -y on a tie) and raises where the batch
    reports a failure.  Returns a ``Collars`` of one row.
    """
    x0 = np.array(ghost_xy, dtype=float)
    f0 = float(level_set.evaluate(x0[0], x0[1]))
    n_sub = 48
    s = reach * h * np.arange(1, n_sub + 1) / n_sub
    directions = np.array(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))
    q = x0 + s[None, :, None] * directions[:, None, :]
    fq = np.broadcast_to(np.asarray(level_set.evaluate(q[..., 0], q[..., 1]), dtype=float), q.shape[:2])
    prev_f = np.concatenate([np.full((len(directions), 1), f0), fq[:, :-1]], axis=1)
    crossing = (fq == 0.0) | ((fq > 0.0) != (prev_f > 0.0))
    hit = crossing.any(axis=1)
    if not hit.any():
        raise NoAxisIntersection(f"no axis ray from {x0} crosses the boundary within {reach} h")
    first = crossing.argmax(axis=1)
    step = first[hit].min()
    prev_s = s[step - 1] if step else 0.0
    best = None
    for k in np.flatnonzero(hit & (first == step)):
        p = _bisect_level(level_set, x0 + prev_s * directions[k], q[k, step], prev_f[k, step], tol)
        dist = float(np.linalg.norm(p - x0))
        if best is None or dist < best[0]:
            best = (dist, p)
    p = best[1]
    gx, gy = level_set.gradient(p[0], p[1])
    norm = float(np.hypot(gx, gy))
    if norm < NODE_TOLERANCE:
        raise ZeroGradient(f"level set '{level_set.name}' has zero gradient at ({p[0]}, {p[1]})")
    normal = [float(gx) / norm, float(gy) / norm]
    return one_collar(x0, p, normal, (-1, -1) if ghost_ij is None else ghost_ij, g.Collars.AXIS)


def slots(projection):
    """A projection's ``(collars, failures)`` as one slot per point: its failure, or its row."""
    collars, failures = projection
    return [failures.get(k, row) for k, row in enumerate(collar_rows(collars))]


def assert_axis_matches_scalar(xy, level_set, h, keys=None):
    """The batched axis projection of ``xy`` equals the scalar rule point by point; returns its slots."""
    batch = slots(axis_projection(xy, level_set, h, keys))
    assert len(batch) == len(xy)
    for point, key, got in zip(xy, keys or [None] * len(xy), batch):
        try:
            expected = scalar_axis_projection(point, level_set, h, ghost_ij=key)
        except GeometryError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert isinstance(got, g.Collars) and same_collars(got, expected)
    return batch


class TestAxisProjection:
    def test_horizontal_intersection(self):
        ls = circle_level_set(0.5)
        collar, failures = axis_projection([(0.52, 0.1)], ls, h=0.0125)
        (point,) = collar.point
        assert not failures
        assert abs(point[0] - 0.48989794855663562) < 1e-9
        assert abs(point[1] - 0.1) < 1e-15
        assert collar.source.tolist() == [g.Collars.AXIS] and collar.ghost_ij.tolist() == [[-1, -1]]
        assert abs(float(ls.evaluate(*point))) <= 1e-12

    def test_vertical_intersection(self):
        ls = circle_level_set(0.5)
        collar, _ = axis_projection([(0.0, 0.52)], ls, h=0.0125)
        assert np.allclose(collar.point, [[0.0, 0.5]], atol=1e-9)

    def test_no_intersection(self):
        ls = circle_level_set(0.5)
        collar, failures = axis_projection([(0.9, 0.9)], ls, h=0.0125)
        assert list(failures) == [0] and isinstance(failures[0], NoAxisIntersection)
        assert str(failures[0]) == "no axis ray from [0.9 0.9] crosses the boundary within 3.0 h"
        assert np.isnan(collar.point).all() and np.isnan(collar.normal).all()

    def test_empty_batch(self):
        ls = circle_level_set(0.5)
        empty, failures = axis_projection(np.zeros((0, 2)), ls, h=0.0125)
        assert failures == {}
        grid = g.Grid(16)
        for collars in (empty, collars_for_ghosts(np.zeros((0, 2), dtype=np.int64), grid, ls)):
            assert len(collars) == 0 and collars.source.shape == (0,)
            for column, dtype in (("ghost_ij", np.int64), ("ghost_xy", float), ("point", float), ("normal", float)):
                assert getattr(collars, column).shape == (0, 2) and getattr(collars, column).dtype == dtype
            solver = g.GhostOperatorSolver(grid, dirichlet_rule())
            assert solver.rhs(collars).shape == (0, solver.n_constraints)


class TestAxisProjectionBatch:
    """One batched axis projection equals the scalar rule on every point, bit for bit."""

    @pytest.mark.parametrize("name, n", [("flower", 283), ("hourglass", 160), ("leaf", 160)])
    def test_every_ghost_equals_the_scalar_rule(self, name, n):
        ls = CATALOG_LEVEL_SETS[name]()
        grid = g.Grid(n)
        ghost_ij = g.classify_nodes(grid, ls).ghost_ij
        keys = [tuple(int(v) for v in ij) for ij in ghost_ij]
        xy = np.column_stack(grid.coords(ghost_ij[:, 0], ghost_ij[:, 1]))
        batch = assert_axis_matches_scalar(xy, ls, grid.h, keys)
        assert len(batch) > 500
        assert all(c.ghost_ij.tolist() == [list(key)] for c, key in zip(batch, keys) if isinstance(c, g.Collars))

    def test_hits_and_misses_in_one_batch(self):
        # hits along +x, -y and +y, a miss, and a four-way tie at the origin
        ls = circle_level_set(0.3)
        xy = [(0.32, 0.01), (0.9, 0.9), (0.0, 0.0), (0.02, -0.33), (-0.8, 0.0), (0.01, 0.28)]
        batch = assert_axis_matches_scalar(xy, ls, 0.125, [(k, k) for k in range(len(xy))])
        assert [type(slot).__name__ for slot in batch] == [
            "Collars", "NoAxisIntersection", "Collars", "Collars", "NoAxisIntersection", "Collars",
        ]
        (tie,) = batch[2].point
        assert tie[1] == 0.0 and tie[0] > 0.0

    def test_typed_failures_stay_in_their_slots(self):
        # a sign jump with no zero crossing: the bisection cannot reach the
        # tolerance; a flat gradient at the root: no normal
        step = g.LevelSet(
            "step",
            evaluate=lambda x, y: np.where((np.abs(x) < 0.9) & (np.abs(y) < 0.9), -1.0, 1.0),
            gradient=lambda x, y: (np.ones_like(x), np.zeros_like(y)),
        )
        batch = assert_axis_matches_scalar([(0.85, 0.0), (0.0, 0.0), (0.85, 0.85)], step, 0.125)
        assert [type(slot) for slot in batch] == [ProjectionDiverged, NoAxisIntersection, ProjectionDiverged]
        flat = g.LevelSet(
            "flat",
            evaluate=lambda x, y: np.hypot(x, y) - 0.3,
            gradient=lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
        )
        batch = assert_axis_matches_scalar([(0.32, 0.0), (0.9, 0.9)], flat, 0.125)
        assert [type(slot) for slot in batch] == [ZeroGradient, NoAxisIntersection]

    def test_a_bracket_that_stops_changing_retires_at_once(self):
        # A sign jump at x = 0.3: the +x bracket shrinks to two adjacent
        # floats, where its midpoint is one of its ends, and |phi| stays 1.
        calls = []

        def evaluate(x, y):
            calls.append(np.size(x))
            return np.where(np.asarray(x) > 0.3, 1.0, -1.0)

        jump = g.LevelSet("jump", evaluate, lambda x, y: (np.ones_like(x), np.zeros_like(y)))
        batch = assert_axis_matches_scalar([(0.2, 0.0), (0.25, 0.01)], jump, 0.125)
        assert [str(slot) for slot in batch] == ["axis bisection could not reach the residual tolerance"] * 2
        assert all(isinstance(slot, ProjectionDiverged) for slot in batch)
        calls.clear()
        axis_projection([(0.2, 0.0), (0.25, 0.01)], jump, 0.125)
        assert len(calls) < 200


class TestLevelSetContract:
    """Array calls equal elementwise scalar calls bit for bit (see LevelSet)."""

    @pytest.mark.parametrize("name", sorted(CATALOG_LEVEL_SETS))
    def test_array_calls_match_scalar_calls(self, name):
        ls = CATALOG_LEVEL_SETS[name]()
        rng = np.random.default_rng(7)
        x, y = rng.uniform(-1.0, 1.0, size=(2, 3000))
        # points within a few spacings of the boundary, where projections run
        r = np.hypot(x, y)
        x = np.concatenate([x, 0.62 * x / r])
        y = np.concatenate([y, 0.62 * y / r])
        value = np.asarray(ls.evaluate(x, y), dtype=float)
        gx, gy = ls.gradient(x, y)
        scalar = [(ls.evaluate(a, b), *ls.gradient(a, b)) for a, b in zip(x, y)]
        assert same_bits(value, [v[0] for v in scalar])
        assert same_bits(gx, [v[1] for v in scalar])
        assert same_bits(gy, [v[2] for v in scalar])


def _trap_level_set(radius=0.3, c=0.35, eps=1e-6):
    """Circle at the origin scaled by a positive factor that nearly vanishes at (+-c, 0).

    The zero set is the circle, but |phi| has positive local minima just
    outside it on the x axis, where Newton stalls; at the origin the
    gradient vanishes exactly.
    """

    def w(x, y):
        return ((x - c) ** 2 + y**2 + eps) * ((x + c) ** 2 + y**2 + eps)

    def evaluate(x, y):
        return (np.hypot(x, y) - radius) * w(x, y)

    def gradient(x, y):
        r = np.hypot(x, y)
        safe = np.where(r > 0.0, r, 1.0)
        far, near = (x + c) ** 2 + y**2 + eps, (x - c) ** 2 + y**2 + eps
        wx = 2.0 * (x - c) * far + 2.0 * (x + c) * near
        wy = 2.0 * y * far + 2.0 * y * near
        return x / safe * w(x, y) + (r - radius) * wx, y / safe * w(x, y) + (r - radius) * wy

    return g.LevelSet("trap", evaluate, gradient)


def _brute_force_axis(x0, level_set, h, reach=3.0, tol=PROJECTION_TOLERANCE):
    """Scan and bisect all four axis directions point by point; nearest wins, first on ties."""
    x0 = np.array(x0, dtype=float)
    prev0 = float(level_set.evaluate(x0[0], x0[1]))
    best = None
    for direction in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
        d = np.array(direction)
        prev_s, prev_f = 0.0, prev0
        for step in range(1, 49):
            s = reach * h * step / 48
            q = x0 + s * d
            fq = float(level_set.evaluate(q[0], q[1]))
            if fq == 0.0 or (fq > 0.0) != (prev_f > 0.0):
                p = _bisect_level(level_set, x0 + prev_s * d, q, prev_f, tol)
                dist = float(np.linalg.norm(p - x0))
                if best is None or dist < best[0]:
                    best = (dist, p, step)
                break
            prev_s, prev_f = s, fq
    return best


def _scalar_projection(x0, level_set, tol=PROJECTION_TOLERANCE, max_iter=PROJECTION_MAX_ITER):
    """The closest-point iteration one point at a time, on Python and numpy scalars.

    Returns (point, normal), or None where the iteration fails.
    """
    x0 = np.array(x0, dtype=float)
    p = x0.copy()
    for _ in range(max_iter):
        f = float(level_set.evaluate(p[0], p[1]))
        gx, gy = level_set.gradient(p[0], p[1])
        grad = np.array([float(gx), float(gy)])
        g2 = float(grad @ grad)
        if np.sqrt(g2) < 1e-14:
            return None
        if abs(f) > tol:
            step = (f / g2) * grad
            damping = 1.0
            while True:
                trial = p - damping * step
                if abs(float(level_set.evaluate(trial[0], trial[1]))) < abs(f):
                    break
                damping *= 0.5
                if damping < 1e-12:
                    return None
            p = trial
            if np.linalg.norm(p - x0) > 1.0:
                return None
            continue
        n = grad / np.sqrt(g2)
        d = x0 - p
        t = d - (d @ n) * n
        t_norm = np.linalg.norm(t)
        if t_norm <= max(1e-13, 1e-9 * np.linalg.norm(d)):
            return p, n
        damping = 1.0
        while damping > 1e-12:
            trial = p + damping * t
            if abs(float(level_set.evaluate(trial[0], trial[1]))) <= 0.25 * damping * t_norm * np.sqrt(g2):
                break
            damping *= 0.5
        p = p + damping * t
    return None


class TestBatchedCollars:
    @pytest.mark.parametrize("name, n_axis", [("annulus", 0), ("flower", 3)])
    def test_batch_equals_one_ghost_at_a_time(self, name, n_axis):
        ls = CATALOG_LEVEL_SETS[name]()
        grid = g.Grid(160)
        classification = g.classify_nodes(grid, ls)
        batch = collars_for_ghosts(classification.ghost_ij, grid, ls)
        assert len(batch) == classification.n_ghost
        assert (batch.source == g.Collars.AXIS).sum() == n_axis
        for ij, collar in zip(classification.ghost_ij, collar_rows(batch)):
            assert same_collars(collar, collars_for_ghosts([ij], grid, ls))
            scalar = _scalar_projection(node_xy(grid, *ij), ls)
            if scalar is None:
                assert collar.source.tolist() == [g.Collars.AXIS]
            else:
                assert collar.source.tolist() == [g.Collars.CLOSEST]
                assert same_bits(collar.point[0], scalar[0]) and same_bits(collar.normal[0], scalar[1])

    def test_fixed_points_end_without_iterating_to_the_cap(self):
        # Three flower ghosts reach a bit-exact fixed point of the iteration
        # within a few passes and fall back to the axis; iterating them on to
        # PROJECTION_MAX_ITER took 4,033 level-set calls.
        ls = flower_level_set()
        calls = []

        def evaluate(x, y):
            calls.append(np.size(x))
            return ls.evaluate(x, y)

        counted = g.LevelSet("flower", evaluate, ls.gradient)
        grid = g.Grid(160)
        ghost_ij = g.classify_nodes(grid, ls).ghost_ij
        collars = collars_for_ghosts(ghost_ij, grid, counted)
        assert (collars.source == g.Collars.AXIS).sum() == 3
        assert len(calls) < 600
        _, failures = _closest_points(np.column_stack(grid.coords(ghost_ij[:, 0], ghost_ij[:, 1])), ls, ghost_ij)
        assert sorted(failures) == np.flatnonzero(collars.source == g.Collars.AXIS).tolist()
        for k, failure in failures.items():
            assert isinstance(failure, ProjectionDiverged)
            xy = np.array(node_xy(grid, *ghost_ij[k]))
            assert str(failure) == f"projection from {xy} did not converge in 100 iterations"

    def test_failures_fall_back_without_touching_the_batch(self, caplog):
        ls = _trap_level_set()
        grid = g.Grid(16)  # node (8, 8) is the origin, h = 0.125
        failing = [(8, 8), (11, 8)]
        others = [(10, 10), (8, 11), (6, 5), (11, 9)]
        ij = np.array(failing + others)
        x, y = grid.coords(ij[:, 0], ij[:, 1])
        results, failures = _closest_points(np.column_stack([x, y]), ls, ij)
        assert sorted(failures) == [0, 1]
        assert isinstance(failures[0], ZeroGradient)
        assert isinstance(failures[1], ProjectionDiverged) and "stalled" in str(failures[1])
        assert np.isnan(results.point[:2]).all() and not np.isnan(results.point[2:]).any()

        with caplog.at_level("INFO", logger="ghostbc.geometry"):
            collars = collars_for_ghosts(ij, grid, ls)
        messages = [r.getMessage() for r in caplog.records if "using axis projection" in r.message]
        assert [m.split(":")[0] for m in messages] == ["ghost (8, 8)", "ghost (11, 8)"]
        for k, node in enumerate(failing):
            collar = collars.take([k])
            assert collar.source.tolist() == [g.Collars.AXIS]
            assert same_collars(collar, scalar_axis_projection(node_xy(grid, *node), ls, grid.h, ghost_ij=node))
            assert abs(float(ls.evaluate(*collar.point[0]))) <= PROJECTION_TOLERANCE
        alone = collars_for_ghosts(others, grid, ls)
        assert (collars.source[2:] == g.Collars.CLOSEST).all()
        assert same_collars(collars.take(slice(2, None)), alone)
        assert same_collars(collars.take(slice(2, None)), results.take(slice(2, None)))


class TestAxisProjectionBrackets:
    def test_directions_sharing_the_nearest_bracket(self):
        # From the origin all four rays cross the circle in the same bracket;
        # the trap factor makes the bisected distances differ by direction.
        ls = _trap_level_set()
        h = 0.125
        oracle = _brute_force_axis((0.0, 0.0), ls, h)
        (got,) = axis_projection([(0.0, 0.0)], ls, h)[0].point
        assert same_bits(got, oracle[1])
        assert got[0] == 0.0 and got[1] > 0.0  # +y beats +x, which comes first

    def test_tie_goes_to_the_first_direction(self):
        ls = circle_level_set(0.3)
        (point,) = axis_projection([(0.0, 0.0)], ls, 0.125)[0].point
        assert same_bits(point, _brute_force_axis((0.0, 0.0), ls, 0.125)[1])
        assert point[1] == 0.0 and point[0] > 0.0

    def test_flower_ghosts_match_brute_force(self):
        ls = flower_level_set()
        grid = g.Grid(160)
        classification = g.classify_nodes(grid, ls)
        xy = [node_xy(grid, *ij) for ij in classification.ghost_ij[::6]]
        collars, failures = axis_projection(xy, ls, grid.h)
        for k, (point, got) in enumerate(zip(xy, collars.point)):
            oracle = _brute_force_axis(point, ls, grid.h)
            if oracle is None:
                assert isinstance(failures[k], NoAxisIntersection)
                continue
            assert same_bits(got, oracle[1])


class TestDiameter:
    def test_two_members(self):
        members = np.array([[3, 3], [3, 4]])
        assert pairwise_diameter(members) == 1.0
        assert pairwise_diameter(members[:1]) == 0.0
        # the run's diameters are those of each row's members
        from test_assembly import identity_ghost_rows

        classification = g.classify_nodes(g.Grid(16), square_level_set(0.77))
        ghost = classification.ghost_ij[1]
        rows = identity_ghost_rows(classification, {1: (np.vstack([ghost, ghost + [0, 1]]), np.ones(2), 0.0)})
        diameters = rows.diameters
        assert diameters[1] == 1.0 and diameters[0] == diameters[2] == 0.0

    def test_s1_triangle_diameter(self):
        members = np.array([(l, m) for l in range(5) for m in range(5 - l)])
        assert pairwise_diameter(members) == pytest.approx(math.sqrt(32.0))

    def test_level_diameters_equal_the_per_row_reference(self, annulus_160_rows):
        # the level-wide pass, one per stencil size, against one row at a time
        rows = annulus_160_rows
        assert len(set(rows.sizes.tolist())) > 1
        expected = [pairwise_diameter(m) for m in per_row(rows, rows.member_ij)]
        assert rows.diameters.tolist() == expected


def test_stencil_reach_constant():
    # interior rows use offsets up to +-2; the classification mirrors that
    assert STENCIL_REACH == 2


def moved(level_set, angle, dx, dy):
    """``level_set`` rotated by ``angle`` about the origin, then shifted by (dx, dy).

    Written as elementwise arithmetic on top of ``level_set``, so array calls
    still equal scalar calls bit for bit.
    """
    c, s = math.cos(angle), math.sin(angle)

    def frame(x, y):
        x, y = np.asarray(x) - dx, np.asarray(y) - dy
        return c * x + s * y, c * y - s * x

    def gradient(x, y):
        gx, gy = level_set.gradient(*frame(x, y))
        return c * gx - s * gy, s * gx + c * gy

    return g.LevelSet(f"{level_set.name}@{angle}+({dx}, {dy})", lambda x, y: level_set.evaluate(*frame(x, y)), gradient)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    shape=st.sampled_from(["flower", "hourglass"]),
    n=st.sampled_from([64, 80, 96]),
    angle=st.floats(-math.pi, math.pi),
    shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
)
def test_moved_collars_equal_the_iteration_run_to_its_cap(shape, n, angle, shift):
    """Rotated and shifted shapes: a collar ended at a fixed point is one the
    iteration would never have finished, and every other collar is unchanged."""
    grid = g.Grid(n)
    ls = moved(CATALOG_LEVEL_SETS[shape](), angle, shift[0] * grid.h, shift[1] * grid.h)
    x, y = np.random.default_rng(n).uniform(-0.9, 0.9, size=(2, 50))
    assert same_bits(ls.evaluate(x, y), [ls.evaluate(a, b) for a, b in zip(x, y)])
    assert same_bits(ls.gradient(x, y), np.array([ls.gradient(a, b) for a, b in zip(x, y)]).T)
    try:
        ghost_ij = g.classify_nodes(grid, ls).ghost_ij
    except GeometryError:
        return
    xy = np.column_stack(grid.coords(ghost_ij[:, 0], ghost_ij[:, 1]))
    oracle = [_scalar_projection(point, ls) for point in xy]
    results, failures = _closest_points(xy, ls, ghost_ij)
    for k, (expected, point, normal) in enumerate(zip(oracle, results.point, results.normal)):
        if expected is None:
            assert isinstance(failures[k], GeometryError)
        else:
            assert k not in failures and same_bits(point, expected[0]) and same_bits(normal, expected[1])
    try:
        collars = collars_for_ghosts(ghost_ij, grid, ls)
    except GeometryError:  # an axis fallback failed too
        assert any(expected is None for expected in oracle)
        return
    for expected, mode in zip(oracle, collars.mode):
        assert mode == ("axis" if expected is None else "closest")

