"""Stencil construction strategies for ghost-node boundary rows.

Six strategies are provided.  S1-S3 are right-triangle stencils anchored at
the ghost and oriented toward the domain; S3 additionally shifts inward so
that the ghost is its only ghost member, which makes the ghost block of the
global matrix diagonal.  S4.1-S4.3 grow a compact stencil from a cone of
candidate nodes aimed at the collar point, adding nodes until the
constraint matrix is admissible and locally well conditioned, then swapping
out badly-weighted ghost members (S4.2) and, if necessary, retrying with an
axis-projected collar point (S4.3).
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .boundary_ops import Trials, coefficient_amplification
from .errors import CandidatesExhausted, InactiveMember, NoAxisIntersection, NotAdmissible
from .geometry import CollarPoint, Grid, NodeClassification, axis_projection, collars_for_ghosts

logger = logging.getLogger(__name__)

TRIANGLE_KINDS = ("S1", "S2", "S3")
CONE_KINDS = ("S4.1", "S4.2", "S4.3")

#: Aperture increment (degrees) when the candidate cone starves.
APERTURE_STEP = 15.0

#: Radius, in grid spacings, of the first offset table a cone reads.
FIRST_CONE_RADIUS = 12

#: Hard cap on stencil growth; exceeding it means the configuration is hopeless.
MAX_STENCIL_SIZE = 60

#: Rounds of ghost-band extension the S1/S2 triangles may take to close.
MAX_EXTENSION_ROUNDS = 12

#: Largest inward shift S3 tries before giving up on a ghost-exclusive triangle.
MAX_S3_SHIFT = 6


@dataclass(frozen=True)
class StencilStrategy:
    """Strategy kind plus the knobs of the construction algorithms."""

    kind: str
    triangle_size: int = 4
    aperture_deg: float = 60.0
    local_tol: float = 1e6
    global_tol: float = 10.0
    max_swaps: int = 3

    def __post_init__(self) -> None:
        if self.kind not in TRIANGLE_KINDS + CONE_KINDS:
            raise ValueError(f"unknown stencil strategy {self.kind!r}")
        if self.triangle_size < 1:
            raise ValueError("triangle size must be >= 1")
        if not 0.0 < self.aperture_deg <= 360.0:
            raise ValueError("cone aperture must be in (0, 360] degrees")
        if self.local_tol <= 0.0 or self.global_tol <= 0.0:
            raise ValueError("conditioning tolerances must be positive")
        if self.max_swaps < 0:
            raise ValueError("max_swaps must be >= 0")


def _check_members(
    members: list[tuple[int, int]],
    ghost_ij: tuple[int, int],
    classification: NodeClassification,
    kind: str,
) -> np.ndarray:
    for i, j in members:
        if (i, j) != tuple(ghost_ij) and not classification.is_active(i, j):
            raise InactiveMember(
                f"{kind} stencil of ghost {tuple(ghost_ij)} references inactive node ({i}, {j})"
            )
    return np.array(members, dtype=np.int64)


def build_S1(
    ghost_ij: tuple[int, int],
    collar: CollarPoint,
    p: int,
    grid: Grid,
    classification: NodeClassification,
) -> np.ndarray:
    """Right triangle with the right angle at the ghost, opening inward.

    Members are the lattice offsets ``(l*sx, m*sy)`` with ``l + m <= p``
    where ``(sx, sy)`` steps from the ghost toward the boundary; the ghost
    comes first.
    """
    return _check_members(triangle_members("S1", ghost_ij, collar, p), ghost_ij, classification, "S1")


def _s2_offsets(p: int, x_branch: bool) -> list[tuple[int, int]]:
    """Unsigned S2 offsets; right angle at the innermost internal point."""
    if x_branch:
        return [(a, b) for a in range(p + 1) for b in range(a + 1)]
    return [(a, b) for b in range(p + 1) for a in range(b + 1)]


def triangle_members(
    kind: str, ghost_ij: tuple[int, int], collar: CollarPoint, p: int
) -> list[tuple[int, int]]:
    """Member nodes of the S1 or S2 triangle, without any activity check."""
    i0, j0 = int(ghost_ij[0]), int(ghost_ij[1])
    sx, sy = collar.inward_signs()
    if kind == "S1":
        return [(i0 + l * sx, j0 + m * sy) for l in range(p + 1) for m in range(p + 1 - l)]
    if kind == "S2":
        d = collar.displacement
        x_branch = abs(d[0]) >= abs(d[1])
        return [(i0 + a * sx, j0 + b * sy) for a, b in _s2_offsets(p, x_branch)]
    raise ValueError(f"no plain triangle for strategy {kind!r}")


def extend_classification(
    classification: NodeClassification,
    strategy: StencilStrategy,
    grid: Grid,
) -> NodeClassification:
    """Deepen the ghost band until every triangle stencil is closed.

    The finite-difference closure yields two ghost layers, which is enough
    for the interior rows and the cone strategies, but the S1/S2 triangles
    of deep ghosts can reach exterior nodes just beyond the band (their
    along-boundary arm).  Promoting those nodes to ghosts, repeatedly, makes
    the triangle strategies well posed; each new ghost gets its own collar
    and boundary row like any other.
    """
    if strategy.kind not in ("S1", "S2"):
        return classification

    collars: dict[tuple[int, int], CollarPoint] = {}
    for _ in range(MAX_EXTENSION_ROUNDS):
        ghosts = [(int(i), int(j)) for i, j in classification.ghost_ij]
        new = [ghost for ghost in ghosts if ghost not in collars]
        collars.update(zip(new, collars_for_ghosts(new, grid, classification.level_set)))
        missing: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for ghost in ghosts:
            collar = collars[ghost]
            for node in triangle_members(strategy.kind, ghost, collar, strategy.triangle_size):
                if node in seen:
                    continue
                seen.add(node)
                if not grid.in_bounds(*node):
                    raise InactiveMember(
                        f"{strategy.kind} stencil of ghost {ghost} leaves the lattice at {node}"
                    )
                if not classification.is_active(*node):
                    missing.append(node)
        if not missing:
            return classification
        logger.info(
            "%s closure: promoting %d exterior nodes to ghosts", strategy.kind, len(missing)
        )
        classification = classification.with_extra_ghosts(missing)
    raise InactiveMember(
        f"{strategy.kind} ghost band did not close within {MAX_EXTENSION_ROUNDS} extension rounds"
    )


def build_S2(
    ghost_ij: tuple[int, int],
    collar: CollarPoint,
    p: int,
    grid: Grid,
    classification: NodeClassification,
) -> np.ndarray:
    """Right triangle whose right-angle vertex is the innermost internal point.

    The branch follows the dominant displacement component (x wins ties);
    the triangle spans from the ghost to the vertex ``p`` nodes inward.
    """
    return _check_members(triangle_members("S2", ghost_ij, collar, p), ghost_ij, classification, "S2")


def build_S3(
    ghost_ij: tuple[int, int],
    collar: CollarPoint,
    p: int,
    grid: Grid,
    classification: NodeClassification,
) -> np.ndarray:
    """S2 shifted inward until the ghost is its only ghost member.

    Ghosts within one spacing of the boundary keep the plain S2 set when it
    is already ghost-exclusive; otherwise the non-centre members are pushed
    along the dominant axis, one node at a time, replacing ghost lines with
    interior lines.  The resulting row couples to no other ghost unknown.
    """
    i0, j0 = int(ghost_ij[0]), int(ghost_ij[1])
    sx, sy = collar.inward_signs()
    d = collar.displacement
    x_branch = abs(d[0]) >= abs(d[1])
    offsets = _s2_offsets(p, x_branch)

    def signed(members_offsets, shift):
        out = []
        for a, b in members_offsets:
            if (a, b) == (0, 0):
                out.append((i0, j0))
            elif x_branch:
                out.append((i0 + (a + shift) * sx, j0 + b * sy))
            else:
                out.append((i0 + a * sx, j0 + (b + shift) * sy))
        return out

    def foreign_ghosts(members):
        return [
            (i, j)
            for i, j in members
            if (i, j) != (i0, j0) and classification.is_ghost(i, j)
        ]

    near = float(np.linalg.norm(d)) <= grid.h
    start = 0 if near else 1
    last_error: InactiveMember | None = None
    for shift in range(start, MAX_S3_SHIFT + 1):
        members = signed(offsets, shift)
        try:
            member_arr = _check_members(members, ghost_ij, classification, "S3")
        except InactiveMember as exc:
            last_error = exc
            continue
        if not foreign_ghosts(members):
            return member_arr
    if last_error is not None:
        raise last_error
    raise InactiveMember(
        f"S3 stencil of ghost {tuple(ghost_ij)} cannot exclude other ghosts within shift {MAX_S3_SHIFT}"
    )


@functools.lru_cache(maxsize=None)
def _offset_table(radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice offsets with ``0 < di^2 + dj^2 <= radius^2`` and their lengths.

    Sorted by (d^2, di, dj): for a fixed ghost this is the (d^2, i, j) order
    of the cone candidates, and the table of a smaller radius is a prefix
    of the table of a larger one.  It depends on nothing but the radius.
    """
    r = np.arange(-radius, radius + 1)
    di, dj = (a.ravel() for a in np.meshgrid(r, r, indexing="ij"))
    d2 = di * di + dj * dj
    keep = (d2 > 0) & (d2 <= radius * radius)
    di, dj, d2 = di[keep], dj[keep], d2[keep]
    order = np.lexsort((dj, di, d2))
    di, dj = di[order], dj[order]
    return di, dj, np.hypot(di, dj)


class _CandidateStream:
    """Cone candidates with automatic aperture widening on exhaustion.

    The active nodes inside the cone, nearest first with (i, j) breaking
    ties, are read off the offset table into a list; ``take`` advances a
    frontier index through it and ``nearest_available`` scans it from the
    start.  Running past the table doubles its radius until the table
    reaches every lattice node; only then is the cone exhausted.
    """

    def __init__(self, ghost_ij, collar, aperture_deg, grid, classification):
        self.ghost_ij = ghost_ij
        self.i0, self.j0 = int(ghost_ij[0]), int(ghost_ij[1])
        self.direction = np.asarray(collar.toward_boundary(), dtype=float)
        self.wnorm = float(np.linalg.norm(self.direction))
        self.grid = grid
        self.classification = classification
        n = grid.n
        # tables of radius <= margin stay on the lattice; radius^2 >= reach2 covers it
        self.margin = min(self.i0, self.j0, n - self.i0, n - self.j0)
        self.reach2 = max(self.i0, n - self.i0) ** 2 + max(self.j0, n - self.j0) ** 2
        self._open(aperture_deg)

    def _open(self, aperture_deg: float) -> None:
        """Empty candidate list for a (new) aperture, frontier at its start."""
        self.aperture = aperture_deg
        self.cos_half = np.cos(np.radians(min(aperture_deg, 360.0) / 2.0))
        self.full = aperture_deg >= 360.0 or self.wnorm == 0.0
        self.radius = 0
        self.read = 0
        self.nodes: list[tuple[int, int]] = []
        self.frontier = 0

    def _extend(self) -> None:
        """Append the cone nodes of the next radius, in table order."""
        self.radius = max(FIRST_CONE_RADIUS, 2 * self.radius)
        di, dj, dist = (a[self.read:] for a in _offset_table(self.radius))
        self.read += dist.size
        if not self.full:
            # The 1e-12 slack and this operation order decide the nodes on
            # the cone edge; any other form moves stencils by a bit.
            w = self.direction
            cone = di * w[0] + dj * w[1] >= (self.cos_half - 1e-12) * dist * self.wnorm
            di, dj = di[cone], dj[cone]
        i, j = di + self.i0, dj + self.j0
        n = self.grid.n
        if self.radius > self.margin:
            inside = (i >= 0) & (i <= n) & (j >= 0) & (j <= n)
            i, j = i[inside], j[inside]
        active = self.classification.active_index[i, j] >= 0
        self.nodes.extend(zip(i[active].tolist(), j[active].tolist()))

    def candidate(self, k: int) -> tuple[int, int] | None:
        """The k-th candidate of the current aperture; None past the last."""
        while k >= len(self.nodes):
            if self.radius * self.radius >= self.reach2:
                return None
            self._extend()
        return self.nodes[k]

    def take(self, exclude: set[tuple[int, int]]) -> tuple[int, int]:
        """Next unseen candidate in distance order (the growth frontier)."""
        while True:
            node = self.candidate(self.frontier)
            if node is None:
                if self.aperture >= 360.0:
                    raise CandidatesExhausted(
                        f"cone candidates exhausted for ghost {tuple(self.ghost_ij)}"
                    )
                self._open(min(360.0, self.aperture + APERTURE_STEP))
                continue
            self.frontier += 1
            if node not in exclude:
                return node

    def nearest_available(self, exclude: set[tuple[int, int]]) -> tuple[int, int]:
        """Closest cone candidate not excluded, scanning from the ghost again.

        Swap replacements use this rather than the growth frontier so a
        replacement can be nearer than the last grown member.
        """
        k = 0
        while (node := self.candidate(k)) is not None:
            if node not in exclude:
                return node
            k += 1
        return self.take(exclude)


def _grow_until_conditioned(
    members: list[tuple[int, int]],
    used: set[tuple[int, int]],
    collar: CollarPoint,
    stream: _CandidateStream,
    strategy: StencilStrategy,
) -> Trials:
    """Append candidates until the stencil is admissible and chi < local_tol.

    A trial generator (see ``GhostOperatorSolver.run``) returning the final
    solve.  ``used`` holds every node already consumed (members plus swap
    victims) so nothing is offered twice.
    """
    while True:
        solve = yield np.array(members, dtype=np.int64), collar
        if solve.admissible and solve.chi < strategy.local_tol:
            return solve
        if len(members) >= MAX_STENCIL_SIZE:
            raise NotAdmissible(
                f"stencil for ghost {members[0]} grew past {MAX_STENCIL_SIZE} "
                "points without becoming well conditioned"
            )
        try:
            node = stream.take(used)
        except CandidatesExhausted as exc:
            raise NotAdmissible(str(exc)) from exc
        members.append(node)
        used.add(node)


def _cone_stages(
    ghost_ij,
    collar: CollarPoint,
    strategy: StencilStrategy,
    grid: Grid,
    classification: NodeClassification,
    n_constraints: int,
) -> Trials:
    """S4.1 growth followed by the S4.2 swap loop, for one collar point.

    Returns ``(member_ij, collar, solve, swaps, aperture)`` of the final
    stencil, like ``ghost_trials``.  The swap loop is driven by the
    coefficient amplification over all members: removing whichever member
    carries the largest coefficient (typically a node shadowing the ghost
    from right next to the collar point) is what restores a usable centre
    coefficient for ghosts that sit deep in the second layer.  A swap that
    does not strictly improve the amplification is reverted and the loop
    stops; stencils the swaps cannot fix are left to the collar
    modification of S4.3.
    """
    stream = _CandidateStream(ghost_ij, collar, strategy.aperture_deg, grid, classification)
    seed = tuple(int(v) for v in ghost_ij)
    members: list[tuple[int, int]] = [seed]
    used = {seed}
    while len(members) < n_constraints:
        node = stream.take(used)
        members.append(node)
        used.add(node)
    solve = yield from _grow_until_conditioned(members, used, collar, stream, strategy)

    ratio = coefficient_amplification(solve.coeffs)
    swaps = 0
    max_swaps = 0 if strategy.kind == "S4.1" else strategy.max_swaps
    while ratio >= strategy.global_tol and swaps < max_swaps:
        victim_pos = 1 + int(np.abs(solve.coeffs[1:]).argmax())
        victim = members.pop(victim_pos)
        try:
            replacement = stream.nearest_available(used)
        except CandidatesExhausted:
            members.insert(victim_pos, victim)
            break
        trial_members = members + [replacement]
        trial_used = used | {replacement}
        try:
            trial_solve = yield from _grow_until_conditioned(
                trial_members, trial_used, collar, stream, strategy
            )
        except NotAdmissible:
            members.insert(victim_pos, victim)
            break
        trial_ratio = coefficient_amplification(trial_solve.coeffs)
        if not trial_ratio < ratio:
            members.insert(victim_pos, victim)
            break
        members = trial_members
        used = trial_used
        solve = trial_solve
        ratio = trial_ratio
        swaps += 1
    return np.array(members, dtype=np.int64), collar, solve, swaps, stream.aperture


def _axis_rebuild(ghost_ij, collar, strategy, grid, classification, n_constraints) -> Trials:
    """Re-run the cone construction with an axis-projected collar point.

    Returns the rebuilt stencil as ``_cone_stages`` does, or None when the
    axis finds no boundary or the rebuild is not admissible.
    """
    try:
        new_collar = axis_projection(
            collar.ghost_xy, classification.level_set, grid.h, ghost_ij=tuple(ghost_ij)
        )
    except NoAxisIntersection:
        logger.info("ghost %s: no axis intersection; keeping closest-point collar", tuple(ghost_ij))
        return None
    try:
        return (yield from _cone_stages(ghost_ij, new_collar, strategy, grid, classification, n_constraints))
    except NotAdmissible:
        logger.info("ghost %s: rebuild with axis collar failed; keeping S4.2 result", tuple(ghost_ij))
        return None


def ghost_trials(
    collar: CollarPoint,
    strategy: StencilStrategy,
    grid: Grid,
    classification: NodeClassification,
    n_constraints: int,
) -> Trials:
    """Trial generator of one ghost's stencil under any strategy.

    Returns ``(member_ij, collar, solve, swaps, aperture)``: the final
    members (the ghost first), the collar point their row closes, their
    solve, the accepted S4.2 swaps and the final cone aperture (0 swaps and
    aperture 0 for the triangles).  S1-S3 yield their one triangle, whose
    solve must be admissible.  S4.1 grows the candidate set until
    admissible and locally well conditioned; S4.2 additionally swaps out
    the largest-coefficient member while the row's amplification exceeds
    the global tolerance (at most ``max_swaps`` improving swaps); S4.3
    retries the whole construction with an axis-projected collar point if
    the amplification still exceeds the tolerance.
    """
    ij = collar.ghost_ij
    if strategy.kind not in CONE_KINDS:
        builder = {"S1": build_S1, "S2": build_S2, "S3": build_S3}[strategy.kind]
        members = builder(ij, collar, strategy.triangle_size, grid, classification)
        solve = yield members, collar
        if not solve.admissible:
            raise NotAdmissible(
                f"{strategy.kind} stencil of ghost {ij} is rank-deficient or misses its "
                f"constraints (relative residual {solve.residual:.3e})"
            )
        return members, collar, solve, 0, 0.0
    row = yield from _cone_stages(ij, collar, strategy, grid, classification, n_constraints)
    if strategy.kind == "S4.3" and coefficient_amplification(row[2].coeffs) >= strategy.global_tol:
        rebuilt = yield from _axis_rebuild(ij, collar, strategy, grid, classification, n_constraints)
        if rebuilt is not None:
            row = rebuilt[:3] + (row[3] + rebuilt[3], max(row[4], rebuilt[4]))
    return row
