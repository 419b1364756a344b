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
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .boundary_ops import GhostOperatorSolver, StencilSolve, coefficient_amplification
from .errors import CandidatesExhausted, GhostBcError, InactiveMember, NoAxisIntersection, NotAdmissible
from .geometry import CollarPoint, NodeClassification, axis_projection, collars_for_ghosts

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

#: Cone ghosts whose stages run together: enough to make the stacked calls
#: cheap per trial, few enough to bound the memory their candidate streams
#: and the stacks hold.
LOCKSTEP_BATCH = 128


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


def _mask_at(mask: np.ndarray, ij: np.ndarray) -> np.ndarray:
    """``mask`` at the lattice nodes ``ij`` (..., 2); False off the lattice."""
    i, j = ij[..., 0], ij[..., 1]
    n = mask.shape[0] - 1
    inside = (i >= 0) & (i <= n) & (j >= 0) & (j <= n)
    return inside & mask[np.where(inside, i, 0), np.where(inside, j, 0)]


def triangle_stencils(
    kind: str, collars: list[CollarPoint], p: int, classification: NodeClassification
) -> tuple[np.ndarray, list[InactiveMember | None]]:
    """Every ghost's S1, S2 or S3 triangle of size ``p``, as one (G, M, 2) array.

    Row k holds the members of the ghost of ``collars[k]``, the ghost first.
    S1 has its right angle at the ghost, S2 at the innermost internal point,
    ``p`` nodes inward along the dominant displacement axis (x wins ties).
    S3 pushes the S2 members but the ghost along that axis, by the first
    shift (from 0 within one spacing of the boundary, else from 1, up to
    ``MAX_S3_SHIFT``) whose members are active and hold no other ghost.
    Also returns, per ghost, None or the ``InactiveMember`` it fails with.
    """
    ghosts = np.array([c.ghost_ij for c in collars], dtype=np.int64).reshape(-1, 1, 2)
    signs = np.array([c.inward_signs() for c in collars], dtype=np.int64).reshape(-1, 1, 2)
    d = np.array([c.displacement for c in collars], dtype=float).reshape(-1, 2)
    if kind == "S1":
        offsets = np.array([(l, m) for l in range(p + 1) for m in range(p + 1 - l)])
    else:  # the x branch; the y branch swaps the two coordinates
        offsets = np.array([(a, b) for a in range(p + 1) for b in range(a + 1)])
    x_branch = (kind == "S1") | (np.abs(d[:, 0]) >= np.abs(d[:, 1]))[:, None, None]  # S1 has no branch
    push = np.zeros_like(offsets)  # one S3 shift: every member but the ghost, along the branch
    push[1:, 0] = 1
    first_shift = ((kind == "S3") & (np.sqrt(np.vecdot(d, d)) > classification.grid.h)).astype(int)
    active = classification.active_index >= 0
    unresolved = np.ones(len(collars), dtype=bool)
    had_bad = np.zeros(len(collars), dtype=bool)
    bad_node = np.zeros((len(collars), 2), dtype=np.int64)
    for shift in range(MAX_S3_SHIFT + 1 if kind == "S3" else 1):
        off = offsets + shift * push
        trial = ghosts + signs * np.where(x_branch, off, off[:, ::-1])
        if shift == 0:
            members = trial  # a failing S1/S2 ghost keeps its triangle
        bad = ~_mask_at(active, trial[:, 1:])
        trying = unresolved & (first_shift <= shift)
        inactive = trying & bad.any(axis=1)
        had_bad |= inactive
        bad_node[inactive] = trial[inactive, 1 + bad[inactive].argmax(axis=1)]
        fits = trying & ~inactive
        if kind == "S3":
            fits &= ~_mask_at(classification.ghost_mask, trial[:, 1:]).any(axis=1)
        members[fits] = trial[fits]
        unresolved &= ~fits

    errors: list[InactiveMember | None] = [None] * len(collars)
    for k in np.flatnonzero(unresolved):
        reason = (
            f"references inactive node ({bad_node[k, 0]}, {bad_node[k, 1]})" if had_bad[k]
            else f"cannot exclude other ghosts within shift {MAX_S3_SHIFT}"
        )
        errors[k] = InactiveMember(f"{kind} stencil of ghost {collars[k].ghost_ij} {reason}")
    return members, errors


def extend_classification(
    classification: NodeClassification,
    strategy: StencilStrategy,
) -> tuple[NodeClassification, list[CollarPoint] | None]:
    """Deepen the ghost band until every triangle stencil is closed.

    The finite-difference closure gives two ghost layers, which is enough
    for the interior rows and the cone strategies, but the S1/S2 triangles
    of deep ghosts can reach exterior nodes just beyond the band (their
    along-boundary arm).  Promoting those nodes to ghosts, repeatedly, makes
    the triangle strategies well posed; each new ghost gets its own collar
    and boundary row like any other.  The triangles are those of
    ``triangle_stencils``, whose activity check this closure replaces.

    Returns the closed classification and its ghosts' collars, in ghost
    order, for ``build_ghost_rows`` to reuse; the other strategies get their
    classification back unchanged, with no collars.
    """
    if strategy.kind not in ("S1", "S2"):
        return classification, None

    collars: dict[tuple[int, int], CollarPoint] = {}
    for _ in range(MAX_EXTENSION_ROUNDS):
        ghosts = [(int(i), int(j)) for i, j in classification.ghost_ij]
        new = [ghost for ghost in ghosts if ghost not in collars]
        collars.update(zip(new, collars_for_ghosts(new, classification.grid, classification.level_set)))
        band = [collars[ghost] for ghost in ghosts]
        members, _ = triangle_stencils(strategy.kind, band, strategy.triangle_size, classification)
        nodes = members.reshape(-1, 2)
        off_lattice = ((nodes < 0) | (nodes > classification.grid.n)).any(axis=1)
        if off_lattice.any():
            k = int(off_lattice.argmax())
            raise InactiveMember(
                f"{strategy.kind} stencil of ghost {ghosts[k // members.shape[1]]} "
                f"leaves the lattice at {tuple(nodes[k].tolist())}"
            )
        missing = np.unique(nodes[classification.active_index[tuple(nodes.T)] < 0], axis=0)
        if not len(missing):
            return classification, band
        logger.info(
            "%s closure: promoting %d exterior nodes to ghosts", strategy.kind, len(missing)
        )
        classification = classification.with_extra_ghosts(missing)
    raise InactiveMember(
        f"{strategy.kind} ghost band did not close within {MAX_EXTENSION_ROUNDS} extension rounds"
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


def _cone_nodes(streams: list, di: np.ndarray, dj: np.ndarray, dist: np.ndarray) -> list[list[tuple[int, int]]]:
    """Each stream's active cone nodes among the offsets ``(di, dj)``, in their order.

    One (B, T) pass for B streams and T offsets of length ``dist``: a
    cone batch reads its streams' first radius with it, and a stream
    reads each later radius, or its cone after widening, as a batch of one.
    """
    w = np.array([s.direction for s in streams])
    wnorm = np.array([s.wnorm for s in streams])[:, None]
    cos_half = np.array([s.cos_half for s in streams])[:, None]
    full = np.array([s.full for s in streams])[:, None]
    # The 1e-12 slack and this operation order decide the nodes on the
    # cone edge; any other form moves stencils by a bit.
    row, col = np.nonzero(full | (di * w[:, :1] + dj * w[:, 1:] >= (cos_half - 1e-12) * dist * wnorm))
    i = di[col] + np.array([s.i0 for s in streams])[row]
    j = dj[col] + np.array([s.j0 for s in streams])[row]
    classification = streams[0].classification
    n = classification.grid.n
    inside = (i >= 0) & (i <= n) & (j >= 0) & (j <= n)
    row, i, j = row[inside], i[inside], j[inside]
    active = classification.active_index[i, j] >= 0
    nodes = list(zip(i[active].tolist(), j[active].tolist()))
    ends = np.cumsum(np.bincount(row[active], minlength=len(streams))).tolist()
    return [nodes[a:b] for a, b in zip([0] + ends, ends)]


class _CandidateStream:
    """Cone candidates with automatic aperture widening on exhaustion.

    The active nodes inside the cone, nearest first with (i, j) breaking
    ties, are read off the offset table into a list; ``take`` advances a
    frontier index through it and hands out each node once.  Running past
    the table doubles its radius until the table reaches every lattice
    node; only then is the cone exhausted, and ``take`` widens it: the
    wider cone's list starts again from the ghost, skipping the nodes
    already handed out.  ``batch`` opens the streams of many ghosts with
    their first radius read.
    """

    def __init__(self, collar, aperture_deg, classification):
        self.ghost_ij = collar.ghost_ij
        self.i0, self.j0 = int(self.ghost_ij[0]), int(self.ghost_ij[1])
        self.direction = np.asarray(collar.toward_boundary(), dtype=float)
        self.wnorm = float(np.linalg.norm(self.direction))
        self.classification = classification
        n = classification.grid.n
        # a table radius with radius^2 >= reach2 covers the lattice
        self.reach2 = max(self.i0, n - self.i0) ** 2 + max(self.j0, n - self.j0) ** 2
        self.given: set[tuple[int, int]] = set()
        self._open(aperture_deg)

    @classmethod
    def batch(cls, collars, aperture_deg, classification) -> list["_CandidateStream"]:
        """The streams of ``collars``' ghosts, their first radius read in one pass."""
        streams = [cls(c, aperture_deg, classification) for c in collars]
        table = _offset_table(FIRST_CONE_RADIUS)
        for stream, nodes in zip(streams, _cone_nodes(streams, *table)):
            stream.radius, stream.read, stream.nodes = FIRST_CONE_RADIUS, table[2].size, nodes
        return streams

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
        self.nodes.extend(_cone_nodes([self], di, dj, dist)[0])

    def candidate(self, k: int) -> tuple[int, int] | None:
        """The k-th candidate of the current aperture; None past the last."""
        while k >= len(self.nodes):
            if self.radius * self.radius >= self.reach2:
                return None
            self._extend()
        return self.nodes[k]

    def take(self) -> tuple[int, int]:
        """Next candidate not handed out before, in distance order (the growth frontier)."""
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
            if node not in self.given:
                self.given.add(node)
                return node


def _add_candidate(members: list[tuple[int, int]], stream: _CandidateStream) -> None:
    """Append ``stream``'s next candidate; ``NotAdmissible`` when ``members`` may not grow."""
    if len(members) >= MAX_STENCIL_SIZE:
        raise NotAdmissible(
            f"stencil for ghost {members[0]} grew past {MAX_STENCIL_SIZE} "
            "points without becoming well conditioned"
        )
    try:
        members.append(stream.take())
    except CandidatesExhausted as exc:
        raise NotAdmissible(str(exc)) from exc


def _grow(
    trials: dict[int, list[tuple[int, int]]],
    collars: list[CollarPoint],
    streams: list[_CandidateStream],
    strategy: StencilStrategy,
    solver: GhostOperatorSolver,
) -> dict[int, StencilSolve | NotAdmissible]:
    """Grow every trial stencil of a batch until admissible with chi < ``local_tol``.

    ``trials[k]`` holds the members (the ghost first) of batch ghost k; it
    closes ``collars[k]`` and grows in place from ``streams[k]``.  Every
    round solves the pending trials of all ghosts, one ``solver.solve`` per
    member count; a trial that is rank-deficient by construction
    (``solver.deficient``) takes its next candidate without being solved.
    Returns per ghost its final solve, or the ``NotAdmissible`` it ended
    with: grown past ``MAX_STENCIL_SIZE`` or out of cone candidates.
    """
    outcomes: dict[int, StencilSolve | NotAdmissible] = {}

    def extend(k: int) -> bool:
        try:
            _add_candidate(trials[k], streams[k])
        except NotAdmissible as exc:
            outcomes[k] = exc
            return False
        return True

    pending = list(trials)
    while pending:
        by_size: dict[int, list[int]] = {}
        for k in pending:
            while solver.deficient(np.array(trials[k], dtype=np.int64)):
                if not extend(k):
                    break
            else:
                by_size.setdefault(len(trials[k]), []).append(k)
        pending = []
        for ks in by_size.values():
            members = np.array([trials[k] for k in ks], dtype=np.int64)
            for k, solve in zip(ks, solver.solve(members, [collars[k] for k in ks])):
                if solve.admissible and solve.chi < strategy.local_tol:
                    outcomes[k] = solve
                elif extend(k):
                    pending.append(k)
    return outcomes


def _cone_batch(
    collars: list[CollarPoint],
    strategy: StencilStrategy,
    classification: NodeClassification,
    solver: GhostOperatorSolver,
) -> list:
    """S4.1 growth and the S4.2 swap rounds of one batch of collar points.

    Opens the ghosts' candidate streams together, each cone aimed at its
    collar, and returns per ghost its row ``(member_ij, collar, solve,
    swaps, aperture)`` (the final members, the ghost first, the collar
    point their row closes, their solve, the accepted S4.2 swaps and the
    final cone aperture) or the ``GhostBcError`` it failed with.  S4.1 is
    one ``_grow`` of every ghost's first ``n_constraints`` candidates.
    S4.2 then runs up to ``max_swaps`` swap rounds, each one ``_grow`` of
    the swap trials of the ghosts whose amplification still reaches the
    global tolerance.  A swap trial drops the member with the largest
    coefficient (typically a node shadowing the ghost from right next to
    the collar point; removing it restores a usable centre coefficient for
    ghosts deep in the second layer) and adds the stream's next candidate:
    every nearer one is a member or an earlier victim, and a node leaves
    the stream once.  A swap trial that cannot be grown to an admissible
    stencil, or does not strictly lower the amplification, is dropped and
    its ghost stops swapping; stencils the swaps cannot fix are left to the
    collar modification of S4.3 (``cone_rows``).
    """
    streams = _CandidateStream.batch(collars, strategy.aperture_deg, classification)
    outcomes: list = [None] * len(collars)
    members: dict[int, list[tuple[int, int]]] = {}
    for k, stream in enumerate(streams):
        try:
            members[k] = [(stream.i0, stream.j0)] + [stream.take() for _ in range(solver.n_constraints - 1)]
        except CandidatesExhausted as exc:
            outcomes[k] = exc
    solves = _grow(members, collars, streams, strategy, solver)
    ratios = {}
    for k, solve in solves.items():
        if isinstance(solve, NotAdmissible):
            outcomes[k] = solve
        else:
            ratios[k] = coefficient_amplification(solve.coeffs)
    swaps = dict.fromkeys(ratios, 0)
    swapping = [k for k, ratio in ratios.items() if ratio >= strategy.global_tol]
    for _ in range(0 if strategy.kind == "S4.1" else strategy.max_swaps):
        trials = {}
        for k in swapping:
            victim = 1 + int(np.abs(solves[k].coeffs[1:]).argmax())
            try:
                trials[k] = members[k][:victim] + members[k][victim + 1:] + [streams[k].take()]
            except CandidatesExhausted:
                pass
        swapping = []
        for k, solve in _grow(trials, collars, streams, strategy, solver).items():
            if isinstance(solve, NotAdmissible):
                continue
            ratio = coefficient_amplification(solve.coeffs)
            if ratio < ratios[k]:
                members[k], solves[k], ratios[k] = trials[k], solve, ratio
                swaps[k] += 1
                if ratio >= strategy.global_tol:
                    swapping.append(k)
    for k in ratios:
        outcomes[k] = (np.array(members[k], dtype=np.int64), collars[k], solves[k], swaps[k], streams[k].aperture)
    return outcomes


def _cone_batches(
    collars: list[CollarPoint],
    strategy: StencilStrategy,
    classification: NodeClassification,
    solver: GhostOperatorSolver,
    tolerated: type[GhostBcError] | tuple = (),
) -> list:
    """The ``_cone_batch`` outcomes of ``collars``, ``LOCKSTEP_BATCH`` ghosts at a time.

    The batch bounds the memory the candidate streams and the stacks hold.
    No batch is opened after one in which a ghost failed with an error
    that is not ``tolerated``: the level raises that ghost's error or an
    earlier one.
    """
    outcomes: list = []
    for start in range(0, len(collars), LOCKSTEP_BATCH):
        outcomes += _cone_batch(collars[start:start + LOCKSTEP_BATCH], strategy, classification, solver)
        if any(isinstance(row, GhostBcError) and not isinstance(row, tolerated) for row in outcomes[start:]):
            break
    return outcomes


def cone_rows(
    collars: list[CollarPoint],
    strategy: StencilStrategy,
    classification: NodeClassification,
    solver: GhostOperatorSolver,
) -> tuple[list, np.ndarray]:
    """Every ghost's cone row (S4.1-S4.3), and which rows are S4.3 rebuilds.

    Rows are ``(member_ij, collar, solve, swaps, aperture)`` as
    ``_cone_batch`` returns them, one per collar.  Phase 1 runs S4.1
    growth (and S4.2 swaps) for every ghost.  For S4.3, the ghosts whose
    amplification still reaches the global tolerance get axis-projected
    collars from one batched projection, and phase 2 runs the construction
    again from those collars.  A rebuild replaces its ghost's row, with the
    swaps of both phases summed and the wider aperture; a ghost whose axis
    rays miss the boundary, or whose rebuild is not admissible, keeps its
    S4.2 row.  The second element flags the replaced rows.

    Raises the error of the first failing ghost in collar order, a failing
    axis projection or rebuild counting as its ghost's failure, as one
    ghost at a time would: only the ghosts before the first failure of
    phase 1 are rebuilt, and their failures come first.
    """
    outcomes = _cone_batches(collars, strategy, classification, solver)
    rows = list(itertools.takewhile(lambda row: not isinstance(row, GhostBcError), outcomes))
    rebuilt = np.zeros(len(collars), dtype=bool)
    if strategy.kind == "S4.3":
        retry = [k for k, row in enumerate(rows) if coefficient_amplification(row[2].coeffs) >= strategy.global_tol]
        axis = axis_projection(
            [collars[k].ghost_xy for k in retry], classification.level_set, classification.grid.h,
            [collars[k].ghost_ij for k in retry],
        )
        fresh = [collar for collar in axis if isinstance(collar, CollarPoint)]
        rebuilds = iter(_cone_batches(fresh, strategy, classification, solver, tolerated=NotAdmissible))
        for k, collar in zip(retry, axis):
            new = next(rebuilds) if isinstance(collar, CollarPoint) else collar
            if isinstance(new, (NoAxisIntersection, NotAdmissible)):
                logger.info("ghost %s: no S4.3 rebuild (%s); keeping the S4.2 row", collars[k].ghost_ij, new)
            elif isinstance(new, GhostBcError):
                raise new
            else:
                old = rows[k]
                rows[k] = new[:3] + (old[3] + new[3], max(old[4], new[4]))
                rebuilt[k] = True
    if len(rows) < len(outcomes):
        raise outcomes[len(rows)]
    return rows, rebuilt
