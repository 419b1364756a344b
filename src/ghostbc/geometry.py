"""Cartesian grid, level-set geometry and boundary projections.

The computational box is fixed to [-1, 1]^2.  A level set ``phi`` describes
the domain: ``phi < 0`` inside, ``phi > 0`` outside, zero on the boundary.
Nodes are classified into interior nodes (``phi < 0``) and ghost nodes (the
exterior nodes referenced by the fourth-order interior stencil of at least
one interior node).  Each ghost node carries a collar point: a point on the
boundary where the Robin condition will be enforced.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    EmptyInterior,
    GeometryError,
    MissingNeighbor,
    NoAxisIntersection,
    NodeOnBoundary,
    ProjectionDiverged,
    ZeroGradient,
)

logger = logging.getLogger(__name__)

#: Half-width of the computational box.
BOX_HALF_WIDTH = 1.0

#: Axis offsets referenced by the width-5 interior cross (per axis).
STENCIL_REACH = 2

#: A level-set gradient shorter than this counts as zero: a projection
#: cannot take a Newton step or a normal from it.
NODE_TOLERANCE = 1e-14

#: Target residual |phi(p)| for boundary projections.
PROJECTION_TOLERANCE = 1e-12

#: Iterations the closest-point projection may take per point.
PROJECTION_MAX_ITER = 100

#: How far, in grid spacings, the axis projection scans each ray.
AXIS_REACH = 3.0


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on [-1, 1]^2 with ``n`` cells per side.

    Node (i, j) sits at ``(-1 + i*h, -1 + j*h)`` with ``h = 2/n`` and
    ``i, j in {0, ..., n}``.
    """

    n: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise GeometryError(f"grid needs at least 4 cells per side, got {self.n}")

    @property
    def h(self) -> float:
        return 2.0 * BOX_HALF_WIDTH / self.n

    @property
    def nodes_per_side(self) -> int:
        return self.n + 1

    def coords(self, i, j):
        """Coordinates of node(s) (i, j); accepts scalars or arrays."""
        h = self.h
        return -BOX_HALF_WIDTH + np.asarray(i) * h, -BOX_HALF_WIDTH + np.asarray(j) * h

    def meshgrid(self):
        """All node coordinates as (n+1, n+1) arrays indexed [i, j]."""
        side = np.arange(self.nodes_per_side)
        ii, jj = np.meshgrid(side, side, indexing="ij")
        return self.coords(ii, jj)


@dataclass(frozen=True)
class LevelSet:
    """Scalar field with analytic gradient; negative inside the domain.

    ``evaluate`` and ``gradient`` must accept numpy arrays and broadcast;
    ``gradient`` returns the pair ``(d/dx, d/dy)``.  On an array they must
    equal elementwise scalar calls bit for bit: the ghosts of a level are
    projected onto the boundary in one batch, and the collars (hence every
    boundary row) must not depend on that.  Note that ``x**k`` rounds
    differently on numpy scalars (libm ``pow``) and on arrays (a SIMD
    ``pow``); ``np.float_power`` agrees with the scalar form.
    """

    name: str
    evaluate: Callable
    gradient: Callable

    def __call__(self, x, y):
        return self.evaluate(x, y)


@dataclass
class NodeClassification:
    """Interior / ghost partition of the lattice against a level set.

    Active nodes are numbered contiguously: interior nodes first (in
    (i, j)-lexicographic order), then ghosts, so column indices of the
    assembled system line up with this numbering.  ``index_at`` reads it.
    """

    grid: Grid
    level_set: LevelSet
    interior_mask: np.ndarray
    ghost_mask: np.ndarray

    def __post_init__(self) -> None:
        # np.argwhere returns (i, j) pairs in lexicographic order: numbering is deterministic.
        self.interior_ij = np.argwhere(self.interior_mask)
        self.ghost_ij = np.argwhere(self.ghost_mask)
        index = np.full(self.interior_mask.shape, -1, dtype=np.int64)
        index[tuple(self.interior_ij.T)] = np.arange(self.n_interior)
        index[tuple(self.ghost_ij.T)] = self.n_interior + np.arange(self.n_ghost)
        self.active_index = index

    @property
    def n_interior(self) -> int:
        return len(self.interior_ij)

    @property
    def n_ghost(self) -> int:
        return len(self.ghost_ij)

    @property
    def n_active(self) -> int:
        return self.n_interior + self.n_ghost

    def index_at(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Active index of the nodes (i, j), integer arrays of one shape; -1 off the lattice or inactive."""
        n = self.grid.n
        inside = (i >= 0) & (i <= n) & (j >= 0) & (j <= n)
        # One read of the flattened lattice; an off-lattice node's flat index is clipped into it, then masked.
        return np.where(inside, self.active_index.take(i * (n + 1) + j, mode="clip"), -1)

    def cross(self) -> np.ndarray:
        """Active indices (n_interior, 2, 5) of each interior node's width-5 cross: x then y, offsets -2..2.

        Raises ``MissingNeighbor`` at the first slot whose node is inactive or off the lattice.
        """
        ij = self.interior_ij
        table = np.empty((len(ij), 2, 2 * STENCIL_REACH + 1), dtype=np.int64)
        for axis, slot in np.ndindex(table.shape[1:]):
            node = ij.copy()
            node[:, axis] += slot - STENCIL_REACH
            index = table[:, axis, slot] = self.index_at(node[:, 0], node[:, 1])
            if index.min() < 0:
                bad = index.argmin()
                raise MissingNeighbor(
                    f"interior cross of node {tuple(ij[bad].tolist())} references inactive or off-lattice "
                    f"node {tuple(node[bad].tolist())}"
                )
        return table

    def active_coords(self) -> np.ndarray:
        """(n_active, 2) coordinates in active-index order."""
        ij = np.vstack([self.interior_ij, self.ghost_ij])
        x, y = self.grid.coords(ij[:, 0], ij[:, 1])
        return np.column_stack([x, y])

    def with_extra_ghosts(self, extra_ij) -> "NodeClassification":
        """A new classification with additional exterior nodes made active.

        Triangle stencils of deep ghosts can reference exterior nodes beyond
        the two finite-difference layers; promoting those nodes to ghosts
        restores closure.  Interior nodes among ``extra_ij`` stay interior.
        Ghost numbering is rebuilt, still in (i, j)-lexicographic order.
        """
        ghost = self.ghost_mask.copy()
        extra = tuple(np.asarray(extra_ij, dtype=np.int64).reshape(-1, 2).T)
        ghost[extra] = ~self.interior_mask[extra]
        return NodeClassification(self.grid, self.level_set, self.interior_mask, ghost)


def classify_nodes(grid: Grid, level_set: LevelSet) -> NodeClassification:
    """Split lattice nodes into interior and ghost sets.

    Interior nodes satisfy ``phi < 0``.  Ghosts are exactly the exterior
    nodes referenced by some interior node's width-5 finite-difference
    cross, which yields at most two layers and guarantees closure of the
    assembled system by construction.

    Raises:
        NodeOnBoundary: some node has ``phi == 0`` exactly.
        EmptyInterior: no node lies inside the domain.
        GeometryError: an interior row would reach outside the lattice.
    """
    x, y = grid.meshgrid()
    phi = np.asarray(level_set.evaluate(x, y), dtype=float)
    if phi.shape != x.shape:
        raise GeometryError("level set evaluation does not broadcast over the grid")
    # Only an exact zero is ambiguous.  Nodes within rounding noise of the
    # boundary do occur on the reference benchmarks (the annulus radii are
    # irrational but their squares are rational, so lattice points can land
    # on the inner circle to within one ulp); their sign classifies them
    # deterministically and the discretization is insensitive to the choice.
    if (phi == 0.0).any():
        i, j = np.unravel_index(np.abs(phi).argmin(), phi.shape)
        raise NodeOnBoundary(
            f"node ({i}, {j}) lies exactly on the boundary of '{level_set.name}'"
        )
    interior = phi < 0.0
    if not interior.any():
        raise EmptyInterior(f"level set '{level_set.name}' contains no grid node")

    if (
        interior[: STENCIL_REACH, :].any()
        or interior[-STENCIL_REACH:, :].any()
        or interior[:, :STENCIL_REACH].any()
        or interior[:, -STENCIL_REACH:].any()
    ):
        raise GeometryError(
            f"domain '{level_set.name}' comes within {STENCIL_REACH} nodes of the box edge; "
            "interior stencils would leave the lattice"
        )

    # No interior node lies within STENCIL_REACH of the box edge, so a
    # shift by at most that much never wraps an interior node around.
    referenced = np.zeros_like(interior)
    for axis in (0, 1):
        for off in range(-STENCIL_REACH, STENCIL_REACH + 1):
            referenced |= np.roll(interior, off, axis)
    return NodeClassification(grid, level_set, interior, referenced & ~interior)


@dataclass
class Collars:
    """Collar points of a batch of ghosts, one row per ghost: boundary points with outward normals.

    ``source`` tells how a point was found: ``CLOSEST`` (orthogonal
    projection), ``AXIS`` (the axis projection a failed orthogonal one
    falls back to) or ``REBUILD`` (the axis collar of an adopted S4.3
    rebuild).  A failed projection's row reads NaN.
    """

    CLOSEST, AXIS, REBUILD = 0, 1, 2

    ghost_ij: np.ndarray  # (G, 2) int64
    ghost_xy: np.ndarray  # (G, 2)
    point: np.ndarray  # (G, 2)
    normal: np.ndarray  # (G, 2)
    source: np.ndarray  # (G,) int8

    def __len__(self) -> int:
        return len(self.source)

    def take(self, rows) -> "Collars":
        """The rows ``rows`` (indices or a mask), in that order, as a new record."""
        return Collars(**{name: column[rows] for name, column in vars(self).items()})

    def join(self, other: "Collars") -> "Collars":
        """These rows, then those of ``other``."""
        return Collars(**{name: np.concatenate([column, getattr(other, name)]) for name, column in vars(self).items()})

    @property
    def mode(self) -> np.ndarray:
        """Each row's ``collar_mode`` text: ``closest``, or ``axis`` for both axis sources."""
        return np.where(self.source == self.CLOSEST, "closest", "axis")


def _evaluate(level_set: LevelSet, q: np.ndarray) -> np.ndarray:
    """``phi`` at the points ``q`` (N, 2), as an (N,) float array."""
    return np.broadcast_to(np.asarray(level_set.evaluate(q[:, 0], q[:, 1]), dtype=float), len(q))


def _closest_points(ghost_xy: np.ndarray, level_set: LevelSet, ghost_ij) -> tuple[Collars, dict[int, GeometryError]]:
    """Orthogonal projections of many points onto the zero level set.

    One masked iteration over all points: every point alternates a damped
    Newton step along the gradient (drives ``|phi|`` to zero) with a
    tangential slide toward the foot point (makes the displacement parallel
    to the normal), with its own damping, until its residual is below
    ``PROJECTION_TOLERANCE`` and its slide is negligible.  Each level-set
    call covers every point still iterating, which the ``LevelSet`` contract
    makes equal, bit for bit, to calling it point by point; dot products and
    norms are ``np.vecdot`` for the same reason (``einsum`` and
    ``norm(axis=1)`` round differently from the 2-vector ``@`` and ``norm``).

    A pass is a pure function of the point's iterate and start, since each
    line search starts from full damping and the level-set calls are
    pointwise.  So a point whose iterate comes back bit for bit (compared as
    integers, so that ``-0.0`` and ``0.0`` differ) without finishing would
    repeat that pass up to ``PROJECTION_MAX_ITER``: it fails at once, with
    the same "did not converge" error it would reach at the cap.

    Returns the points' ``Collars`` (source ``CLOSEST``, one row per point,
    of the ghosts ``ghost_ij``) and, by point index, the ``ZeroGradient`` /
    ``ProjectionDiverged`` that stopped a point, whose row reads NaN.
    """
    x0 = np.array(ghost_xy, dtype=float).reshape(-1, 2)
    p = x0.copy()
    point, normal = np.full_like(x0, np.nan), np.full_like(x0, np.nan)
    ij = np.asarray(ghost_ij, dtype=np.int64).reshape(-1, 2)
    collars = Collars(ij, x0, point, normal, np.full(len(x0), Collars.CLOSEST, dtype=np.int8))
    failures: dict[int, GeometryError] = {}
    live = np.arange(len(x0))

    def norm(v):
        return np.sqrt(np.vecdot(v, v))

    def unconverged(j):
        return ProjectionDiverged(f"projection from {x0[j]} did not converge in {PROJECTION_MAX_ITER} iterations")

    for _ in range(PROJECTION_MAX_ITER):
        if not live.size:
            break
        q = p[live]
        f = _evaluate(level_set, q)
        g = np.empty_like(q)
        g[:, 0], g[:, 1] = level_set.gradient(q[:, 0], q[:, 1])
        g2 = np.vecdot(g, g)
        g_norm = np.sqrt(g2)
        flat = g_norm < NODE_TOLERANCE
        for k in live[flat].tolist():
            failures[k] = ZeroGradient(f"gradient of '{level_set.name}' vanished at {p[k]} during projection")
        newton = ~flat & (np.abs(f) > PROJECTION_TOLERANCE)
        slide = ~flat & ~newton

        # Newton step, halving each point's damping until |phi| decreases.
        idx = np.flatnonzero(newton)
        step = (f[idx] / g2[idx])[:, None] * g[idx]
        damping = np.ones(idx.size)
        pending = np.arange(idx.size)
        while pending.size:
            trial = q[idx[pending]] - damping[pending, None] * step[pending]
            better = np.abs(_evaluate(level_set, trial)) < np.abs(f[idx[pending]])
            p[live[idx[pending[better]]]] = trial[better]
            pending = pending[~better]
            damping[pending] *= 0.5
            stalled = damping[pending] < 1e-12
            for k in pending[stalled].tolist():
                j = int(live[idx[k]])
                failures[j] = ProjectionDiverged(f"projection stalled at {p[j]} (|phi| = {abs(f[idx[k]]):.3e})")
            pending = pending[~stalled]
        moved = live[idx]
        for j in moved[norm(p[moved] - x0[moved]) > BOX_HALF_WIDTH].tolist():
            failures.setdefault(j, ProjectionDiverged(f"projection escaped from {x0[j]}"))

        # On the zero set: slide tangentially toward the orthogonal foot point.
        idx = np.flatnonzero(slide)
        n = g[idx] / g_norm[idx, None]
        d = x0[live[idx]] - q[idx]
        t = d - np.vecdot(d, n)[:, None] * n
        t_norm = norm(t)
        done = t_norm <= np.maximum(1e-13, 1e-9 * norm(d))
        point[live[idx[done]]], normal[live[idx[done]]] = q[idx[done]], n[done]
        # Damp the slide where the boundary curves strongly: the residual
        # after a step of length s grows like curvature * s^2 * |grad|, so
        # requiring it to stay below a fraction of s * |grad| keeps the
        # iteration contractive even in tight concave folds.
        idx, t, t_norm = idx[~done], t[~done], t_norm[~done]
        damping = np.ones(idx.size)
        pending = np.arange(idx.size)
        while pending.size:
            trial = q[idx[pending]] + damping[pending, None] * t[pending]
            budget = 0.25 * damping[pending] * t_norm[pending] * g_norm[idx[pending]]
            pending = pending[~(np.abs(_evaluate(level_set, trial)) <= budget)]
            damping[pending] *= 0.5
            pending = pending[damping[pending] > 1e-12]
        p[live[idx]] = q[idx] + damping[:, None] * t

        unfinished = np.isnan(point[live, 0]) & ~np.isin(live, list(failures))
        fixed = unfinished & (p[live].view(np.int64) == q.view(np.int64)).all(axis=1)
        for j in live[fixed].tolist():
            failures[j] = unconverged(j)
        live = live[unfinished & ~fixed]
    for j in live.tolist():
        failures[j] = unconverged(j)
    return collars, failures


def axis_projection(
    ghost_xy,
    level_set: LevelSet,
    h: float,
    ghost_ij=None,
) -> tuple[Collars, dict[int, GeometryError]]:
    """Project points onto the boundary along horizontal or vertical rays.

    From each point, each of the four axis directions is scanned up to
    ``AXIS_REACH * h`` for the first sign change of ``phi``; the closest
    intersection wins, the first direction in the order +x, -x, +y, -y on a
    tie.  The points and the scan points of all their rays are evaluated in
    one level-set call.  Only the rays whose first sign change lies in their
    point's nearest bracket are bisected, since a crossing in a later
    bracket is strictly farther away: one masked bisection runs over all
    those brackets, at most 200 halvings each (fewer for a bracket that
    stops changing).  The normal at the intersection comes from the
    level-set gradient.  The ``LevelSet`` contract makes every point's
    result equal, bit for bit, to projecting it alone.

    Returns, like ``_closest_points``, the points' ``Collars`` (source
    ``AXIS``; the ghost column reads -1 without ``ghost_ij``) and, by point
    index, the ``NoAxisIntersection`` (no ray crosses within
    ``AXIS_REACH * h``), ``ProjectionDiverged`` (a bisection missed
    ``PROJECTION_TOLERANCE``) or ``ZeroGradient`` that stopped a point.
    """
    x0 = np.array(ghost_xy, dtype=float).reshape(-1, 2)
    point, normal = np.full_like(x0, np.nan), np.full_like(x0, np.nan)
    ij = np.full(x0.shape, -1) if ghost_ij is None else np.asarray(ghost_ij, dtype=np.int64).reshape(-1, 2)
    collars = Collars(ij, x0, point, normal, np.full(len(x0), Collars.AXIS, dtype=np.int8))
    failures: dict[int, GeometryError] = {}
    if not len(x0):
        return collars, failures
    n_sub = 48
    s = AXIS_REACH * h * np.arange(1, n_sub + 1) / n_sub
    directions = np.array(((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))
    q = x0[:, None, None, :] + s[:, None] * directions[:, None, :]  # (point, ray, step, xy)
    f = _evaluate(level_set, np.concatenate([x0, q.reshape(-1, 2)]))
    fq = f[len(x0):].reshape(q.shape[:3])
    prev_f = np.concatenate([np.repeat(f[:len(x0), None, None], len(directions), axis=1), fq[..., :-1]], axis=2)
    crossing = (fq == 0.0) | ((fq > 0.0) != (prev_f > 0.0))
    hit = crossing.any(axis=2)
    first = np.where(hit, crossing.argmax(axis=2), n_sub)
    step = first.min(axis=1)
    point_of, ray = np.nonzero(hit & (first == step[:, None]))
    at = step[point_of]

    # Bisect every nearest bracket; each stops once |phi(mid)| reaches
    # PROJECTION_TOLERANCE.  A bracket that comes back bit for bit would
    # repeat its step to the limit, so it stops unresolved at once.
    lo = x0[point_of] + np.concatenate([[0.0], s])[at, None] * directions[ray]
    hi = q[point_of, ray, at]
    fa = prev_f[point_of, ray, at]
    root = np.full_like(lo, np.nan)
    live = np.arange(len(point_of))
    for _ in range(200):
        if not live.size:
            break
        before = np.hstack([lo[live], hi[live]])
        mid = 0.5 * (lo[live] + hi[live])
        fm = _evaluate(level_set, mid)
        done = np.abs(fm) <= PROJECTION_TOLERANCE
        root[live[done]] = mid[done]
        same = (fm > 0.0) == (fa[live] > 0.0)
        lo[live[same]] = mid[same]
        hi[live[~same]] = mid[~same]
        fixed = (np.hstack([lo[live], hi[live]]).view(np.int64) == before.view(np.int64)).all(axis=1)
        live = live[~done & ~fixed]

    ok = hit.any(axis=1)
    for k in np.flatnonzero(~ok).tolist():
        failures[k] = NoAxisIntersection(f"no axis ray from {x0[k]} crosses the boundary within {AXIS_REACH} h")
    unresolved = np.unique(point_of[np.isnan(root[:, 0])])
    for k in unresolved.tolist():
        failures[k] = ProjectionDiverged("axis bisection could not reach the residual tolerance")
    ok[unresolved] = False
    # The nearest root of each point; argmin takes the first ray on a tie.
    d = root - x0[point_of]
    dist = np.full(hit.shape, np.inf)
    dist[point_of, ray] = np.sqrt(np.vecdot(d, d))
    roots = np.full(q.shape[:2] + (2,), np.nan)
    roots[point_of, ray] = root
    p = roots[ok, dist[ok].argmin(axis=1)]
    g = np.empty_like(p)
    g[:, 0], g[:, 1] = level_set.gradient(p[:, 0], p[:, 1])
    g_norm = np.hypot(g[:, 0], g[:, 1])
    flat = g_norm < NODE_TOLERANCE
    for k, (x, y) in zip(np.flatnonzero(ok)[flat].tolist(), p[flat].tolist()):
        failures[k] = ZeroGradient(f"level set '{level_set.name}' has zero gradient at ({x}, {y})")
    found = np.flatnonzero(ok)[~flat]
    point[found], normal[found] = p[~flat], g[~flat] / g_norm[~flat, None]
    return collars, failures


def collars_for_ghosts(ghost_ij, grid: Grid, level_set: LevelSet) -> Collars:
    """Collar points for a batch of ghost nodes, with axis fallback.

    All ghosts are projected onto the boundary in one closest-point
    iteration.  It can stall near corners or saddle points of the level
    set; those ghosts fall back to one batched axis projection and are
    logged.  Raises the axis projection's error of the first ghost whose
    fallback fails too.
    """
    ij = np.asarray(ghost_ij, dtype=np.int64).reshape(-1, 2)
    x, y = grid.coords(ij[:, 0], ij[:, 1])
    xy = np.column_stack([x, y])
    collars, failures = _closest_points(xy, level_set, ij)
    failed = np.array(sorted(failures), dtype=np.int64)
    fallback, misses = axis_projection(xy[failed], level_set, grid.h, ij[failed])
    for p, (k, ghost) in enumerate(zip(failed.tolist(), map(tuple, ij[failed].tolist()))):
        logger.info("ghost %s: closest-point projection failed (%s); using axis projection", ghost, failures[k])
        if p in misses:
            raise misses[p]
    rows = np.arange(len(ij))
    rows[failed] = len(ij) + np.arange(len(failed))
    return collars.join(fallback).take(rows)
