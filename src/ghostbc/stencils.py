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

from .boundary_ops import GhostOperatorSolver, coefficient_amplification
from .errors import CandidatesExhausted, GeometryError, GhostBcError, InactiveMember, NoAxisIntersection, NotAdmissible
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
    unresolved = np.ones(len(collars), dtype=bool)
    had_bad = np.zeros(len(collars), dtype=bool)
    bad_node = np.zeros((len(collars), 2), dtype=np.int64)
    for shift in range(MAX_S3_SHIFT + 1 if kind == "S3" else 1):
        off = offsets + shift * push
        trial = ghosts + signs * np.where(x_branch, off, off[:, ::-1])
        if shift == 0:
            members = trial  # a failing S1/S2 ghost keeps its triangle
        index = classification.index_at(trial[:, 1:, 0], trial[:, 1:, 1])
        bad = index < 0
        trying = unresolved & (first_shift <= shift)
        inactive = trying & bad.any(axis=1)
        had_bad |= inactive
        bad_node[inactive] = trial[inactive, 1 + bad[inactive].argmax(axis=1)]
        fits = trying & ~inactive
        if kind == "S3":
            fits &= ~(index >= classification.n_interior).any(axis=1)
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
    classification back unchanged, with no collars.  A promoted node that
    cannot be projected fails the closure with an ``InactiveMember``.
    """
    if strategy.kind not in ("S1", "S2"):
        return classification, None

    collars: dict[tuple[int, int], CollarPoint] = {}
    for closure_round in range(MAX_EXTENSION_ROUNDS):
        ghosts = [(int(i), int(j)) for i, j in classification.ghost_ij]
        new = [ghost for ghost in ghosts if ghost not in collars]
        try:
            collars.update(zip(new, collars_for_ghosts(new, classification.grid, classification.level_set)))
        except GeometryError as exc:
            if not closure_round:
                raise
            raise InactiveMember(
                f"{strategy.kind} band closure round {closure_round} promoted an exterior node "
                f"that has no collar point: {exc}"
            ) from exc
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
        missing = np.unique(nodes[classification.index_at(*nodes.T) < 0], axis=0)
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


def _cos_half(aperture_deg: float) -> float:
    """Cosine of a cone's half aperture; any other form moves the cone edge by a bit."""
    return np.cos(np.radians(min(aperture_deg, 360.0) / 2.0))


def _cone_nodes(cones: "_Cones", ks, di: np.ndarray, dj: np.ndarray, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The active cone nodes of the ghosts ``ks`` of ``cones`` among the offsets ``(di, dj)``.

    One (B, T) pass for B ghosts and T offsets of length ``dist``: a phase
    reads all its ghosts' first radius with it, and a ghost reads each
    later radius, or its cone after widening, as a pass of one.  Returns
    the nodes (N, 2) of the B ghosts, ghost after ghost, each in offset
    order, and how many each ghost has.
    """
    w, wnorm, cos_half = cones.w[ks], cones.wnorm[ks, None], cones.cos_half[ks, None]
    full = (cones.aperture[ks, None] >= 360.0) | (wnorm == 0.0)
    # The 1e-12 slack and this operation order decide the nodes on the
    # cone edge; any other form moves stencils by a bit.  Both float sides
    # are freed before np.nonzero, so no more than two float (B, T) arrays live.
    lhs = di * w[:, :1]
    lhs += dj * w[:, 1:]
    rhs = (cos_half - 1e-12) * dist
    rhs *= wnorm
    inside = lhs >= rhs
    del lhs, rhs
    inside |= full
    row, col = np.nonzero(inside)
    i = di[col] + cones.ghosts[ks, 0][row]
    j = dj[col] + cones.ghosts[ks, 1][row]
    keep = cones.classification.index_at(i, j) >= 0
    return np.column_stack([i[keep], j[keep]]), np.bincount(row[keep], minlength=len(w))


class _Cones:
    """The cone candidates of a phase's ghosts, as arrays.

    ``nodes`` (N, 2) holds one segment per ghost: the ghost, then the
    active nodes of its cone, nearest first with (i, j) breaking ties.
    Stencil members are indices into ``nodes``, and ``take`` hands out each
    ghost's next node by advancing its frontier index, so a node is handed
    out once.  Every cone is read to ``FIRST_CONE_RADIUS`` in one pass.
    A ghost that runs out of its segment reads, one ghost at a time, the
    next radius of its offset table into a new segment at the end of
    ``nodes`` (doubling it until the table reaches every lattice node);
    once its cone is exhausted it widens by ``APERTURE_STEP``, and the
    wider cone is read again from the ghost, less the nodes already
    handed out.
    """

    def __init__(self, collars: list[CollarPoint], aperture_deg: float, classification: NodeClassification):
        self.classification = classification
        self.ghosts = np.array([c.ghost_ij for c in collars], dtype=np.int64).reshape(-1, 2)
        self.w = np.array([c.toward_boundary() for c in collars], dtype=float).reshape(-1, 2)
        self.wnorm = np.sqrt(np.vecdot(self.w, self.w))
        n = classification.grid.n
        # a table radius with radius^2 >= reach2 covers the lattice
        self.reach2 = (np.maximum(self.ghosts, n - self.ghosts) ** 2).sum(axis=1)
        batch = len(collars)
        self.aperture = np.full(batch, float(aperture_deg))
        self.cos_half = np.full(batch, _cos_half(aperture_deg))
        table = _offset_table(FIRST_CONE_RADIUS)
        self.radius = np.full(batch, FIRST_CONE_RADIUS)
        self.read = np.full(batch, table[2].size)
        nodes, counts = _cone_nodes(self, np.arange(batch), *table)
        first = np.cumsum(counts) - counts
        self.nodes = np.insert(nodes, first, self.ghosts, axis=0)
        self.start = first + np.arange(batch)
        self.frontier = self.start + 1
        self.end = self.frontier + counts
        # where each ghost's current segment begins, and the nodes handed
        # out from the segments it has left
        self.begin = self.frontier.copy()
        self.given: dict[int, set[tuple[int, int]]] = {}

    def ghost(self, k: int) -> tuple[int, int]:
        """Ghost k's node, as error messages name it."""
        return tuple(self.ghosts[k].tolist())

    def take(self, ks: np.ndarray) -> np.ndarray:
        """Index in ``nodes`` of the next node of each ghost ``ks``; -1 where its cone is exhausted."""
        for k in ks[self.frontier[ks] == self.end[ks]].tolist():
            self._extend(k)
        out = np.where(self.frontier[ks] < self.end[ks], self.frontier[ks], -1)
        self.frontier[ks] += out >= 0
        return out

    def _extend(self, k: int) -> None:
        """A new segment for ghost k, from its next radius or its widened cone; none once exhausted at 360 degrees."""
        given = self.given.setdefault(k, set())
        given.update(map(tuple, self.nodes[self.begin[k]:self.end[k]].tolist()))
        while True:
            if self.radius[k] ** 2 >= self.reach2[k]:
                if self.aperture[k] >= 360.0:
                    return
                self.aperture[k] = min(360.0, self.aperture[k] + APERTURE_STEP)
                self.cos_half[k] = _cos_half(self.aperture[k])
                self.radius[k] = self.read[k] = 0
            self.radius[k] = max(FIRST_CONE_RADIUS, 2 * self.radius[k])
            di, dj, dist = (a[self.read[k]:] for a in _offset_table(int(self.radius[k])))
            self.read[k] += dist.size
            nodes, _ = _cone_nodes(self, [k], di, dj, dist)
            fresh = [node for node in map(tuple, nodes.tolist()) if node not in given]
            if fresh:
                self.begin[k] = self.frontier[k] = len(self.nodes)
                self.nodes = np.concatenate([self.nodes, np.array(fresh, dtype=np.int64)])
                self.end[k] = len(self.nodes)
                return


def _by_size(ks: np.ndarray, sizes: np.ndarray):
    """The ghosts ``ks`` grouped by ``sizes``: (size, ghosts) pairs."""
    ks = ks[np.argsort(sizes[ks], kind="stable")]
    values, first = np.unique(sizes[ks], return_index=True)
    return zip(values.tolist(), np.split(ks, first[1:]))


def _append(cones: _Cones, members: np.ndarray, sizes: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Append each ghost's next cone node to ``members[k, :sizes[k]]``: (grown, exhausted) ghosts."""
    new = cones.take(ks)
    grown = ks[new >= 0]
    members[grown, sizes[grown]] = new[new >= 0]
    sizes[grown] += 1
    return grown, ks[new < 0]


def _grow(
    cones: _Cones,
    members: np.ndarray,
    sizes: np.ndarray,
    pending: np.ndarray,
    rhs: np.ndarray,
    strategy: StencilStrategy,
    solver: GhostOperatorSolver,
) -> tuple[np.ndarray, np.ndarray, dict[int, NotAdmissible]]:
    """Grow the trial stencils of the ghosts ``pending`` until admissible with chi < ``local_tol``.

    Ghost k's trial, ``members[k, :sizes[k]]``, holds indices into
    ``cones.nodes`` (the ghost first); it closes the collar whose
    right-hand side is ``rhs[k]`` and grows in place from ``cones``.  Every
    round solves the pending trials of all ghosts, one ``solver.solve``
    per member count.  Before the first round, the trials that are
    rank-deficient by construction (``solver.deficient``, one call per
    member count of each screening pass) take their next candidate without
    being solved; grown from a trial that passed, a trial keeps full rank.
    Returns the finished ghosts' coefficients, zero-padded to the width of
    ``members``, and chi (zeros and ``inf`` for the others), and the
    ``NotAdmissible`` of each ghost grown past ``MAX_STENCIL_SIZE`` or out
    of candidates.
    """
    coeffs = np.zeros(members.shape)
    chi = np.full(len(sizes), np.inf)
    failed: dict[int, NotAdmissible] = {}
    ended = np.zeros(len(sizes), dtype=bool)

    def extend(ks: np.ndarray) -> np.ndarray:
        full = ks[sizes[ks] >= MAX_STENCIL_SIZE]
        for k in full.tolist():
            failed[k] = NotAdmissible(
                f"stencil for ghost {cones.ghost(k)} grew past {MAX_STENCIL_SIZE} "
                "points without becoming well conditioned"
            )
        grown, exhausted = _append(cones, members, sizes, ks[sizes[ks] < MAX_STENCIL_SIZE])
        for k in exhausted.tolist():
            failed[k] = NotAdmissible(f"cone candidates exhausted for ghost {cones.ghost(k)}")
        ended[full] = ended[exhausted] = True
        return grown

    screen = pending
    while len(screen):
        screen = extend(np.concatenate([
            ks[solver.deficient(cones.nodes[members[ks, :m]])] for m, ks in _by_size(screen, sizes)
        ]))
    while len(pending):
        grown = []
        for m, ks in _by_size(pending[~ended[pending]], sizes):
            solves = solver.solve(cones.nodes[members[ks, :m]], rhs[ks])
            done = solves.chi < strategy.local_tol  # chi is inf where not admissible
            coeffs[ks[done], :m], chi[ks[done]] = solves.coeffs[done], solves.chi[done]
            grown.append(extend(ks[~done]))
        pending = np.concatenate(grown) if grown else pending[:0]
    return coeffs, chi, failed


def _cone_batch(
    collars: list[CollarPoint],
    strategy: StencilStrategy,
    classification: NodeClassification,
    solver: GhostOperatorSolver,
) -> tuple[list[np.ndarray], list[GhostBcError | None]]:
    """S4.1 growth and the S4.2 swap rounds of all the collar points of a phase.

    Reads the ghosts' cones together (``_Cones``), each aimed at its
    collar, and returns their rows as columns ``member_ij`` (B, W, 2)
    (the final members, the ghost first), ``sizes``, ``coeffs`` (B, W),
    ``chi``, the accepted S4.2 ``swaps`` and the final cone ``aperture``,
    with per ghost None or the ``GhostBcError`` it failed with (its row
    then reads zero coefficients and chi ``inf``).  The collars' right-hand
    sides are built once for every stage; without collars the columns are
    empty.  S4.1 is one ``_grow`` of every ghost's first ``n_constraints``
    candidates.
    S4.2 then runs up to ``max_swaps`` swap rounds, each one ``_grow`` of
    the swap trials of the ghosts whose amplification still reaches the
    global tolerance.  A swap trial drops the member with the largest
    coefficient (typically a node shadowing the ghost from right next to
    the collar point; removing it restores a usable centre coefficient for
    ghosts deep in the second layer) and appends the cone's next node:
    every nearer one is a member or an earlier victim, and a node is handed
    out once.  A swap trial that cannot be grown to an admissible stencil
    (it reads zero coefficients, so its amplification is ``inf``), or does
    not strictly lower the amplification, is dropped and its ghost stops
    swapping; stencils the swaps cannot fix are left to the collar
    modification of S4.3 (``cone_rows``).
    """
    cones = _Cones(collars, strategy.aperture_deg, classification)
    rhs = solver.rhs(collars)
    errors: list[GhostBcError | None] = [None] * len(collars)
    width = max(MAX_STENCIL_SIZE, solver.n_constraints)
    members = np.zeros((len(collars), width), dtype=np.int64)
    members[:, 0] = cones.start
    sizes = np.ones(len(collars), dtype=np.int64)
    live = np.arange(len(collars))
    for _ in range(solver.n_constraints - 1):
        live, exhausted = _append(cones, members, sizes, live)
        for k in exhausted.tolist():
            errors[k] = CandidatesExhausted(f"cone candidates exhausted for ghost {cones.ghost(k)}")
    coeffs, chi, failed = _grow(cones, members, sizes, live, rhs, strategy, solver)
    errors = [failed.get(k, error) for k, error in enumerate(errors)]
    ratios = coefficient_amplification(coeffs)
    swaps = np.zeros(len(collars), dtype=np.int64)
    swapping = np.flatnonzero((chi < np.inf) & (ratios >= strategy.global_tol))
    cols = np.arange(width - 1)
    for _ in range(0 if strategy.kind == "S4.1" else strategy.max_swaps):
        if not len(swapping):
            break
        victim = 1 + np.abs(coeffs[swapping, 1:]).argmax(axis=1)
        trials, trial_sizes = members.copy(), sizes - 1
        trials[swapping, :-1] = members[swapping[:, None], cols + (cols >= victim[:, None])]
        swapping, _ = _append(cones, trials, trial_sizes, swapping)
        trial_coeffs, trial_chi, _ = _grow(cones, trials, trial_sizes, swapping, rhs, strategy, solver)
        ratio = coefficient_amplification(trial_coeffs[swapping])
        better = ratio < ratios[swapping]
        good = swapping[better]
        members[good], sizes[good], ratios[good] = trials[good], trial_sizes[good], ratio[better]
        coeffs[good], chi[good] = trial_coeffs[good], trial_chi[good]
        swaps[good] += 1
        swapping = good[ratios[good] >= strategy.global_tol]
    return [cones.nodes[members], sizes, coeffs, chi, swaps, cones.aperture], errors


def cone_rows(
    collars: list[CollarPoint],
    strategy: StencilStrategy,
    classification: NodeClassification,
    solver: GhostOperatorSolver,
) -> tuple[list[np.ndarray], list[CollarPoint], np.ndarray]:
    """Every ghost's cone row (S4.1-S4.3) as columns, their collars, and which rows are S4.3 rebuilds.

    The columns are those of ``_cone_batch``, one row per collar.  Phase 1
    is one ``_cone_batch`` of every ghost: S4.1 growth (and S4.2 swaps).
    For S4.3, the ghosts whose amplification still reaches the global
    tolerance get axis-projected collars from one batched projection, and
    phase 2 is one ``_cone_batch`` of those collars.  A rebuild overwrites
    its ghost's row and collar, with the swaps of both phases summed and
    the wider aperture; a ghost whose axis rays miss the boundary, or whose
    rebuild is not admissible, keeps its S4.2 row.  The last element flags
    the overwritten rows.

    Raises the error of the first failing ghost in collar order, a failing
    axis projection or rebuild counting as its ghost's failure, as one
    ghost at a time would: only the ghosts before the first failure of
    phase 1 are rebuilt, and their failures come first.
    """
    columns, errors = _cone_batch(collars, strategy, classification, solver)
    member_ij, sizes, coeffs, chi, swaps, aperture = columns
    failed = next((k for k, error in enumerate(errors) if error is not None), len(errors))
    collars = list(collars)
    rebuilt = np.zeros(len(collars), dtype=bool)
    if strategy.kind == "S4.3":
        retry = np.flatnonzero(coefficient_amplification(coeffs[:failed]) >= strategy.global_tol).tolist()
        axis = axis_projection(
            [collars[k].ghost_xy for k in retry], classification.level_set, classification.grid.h,
            [collars[k].ghost_ij for k in retry],
        )
        fresh = [collar for collar in axis if isinstance(collar, CollarPoint)]
        new, new_errors = _cone_batch(fresh, strategy, classification, solver)
        rebuilds = iter(enumerate(new_errors))  # ghost k's rebuild is row p of ``new``
        for k, collar in zip(retry, axis):
            p, error = next(rebuilds) if isinstance(collar, CollarPoint) else (None, collar)
            if isinstance(error, (NoAxisIntersection, NotAdmissible)):
                logger.info("ghost %s: no S4.3 rebuild (%s); keeping the S4.2 row", collars[k].ghost_ij, error)
            elif error is not None:
                raise error
            else:
                member_ij[k], sizes[k], coeffs[k], chi[k] = (column[p] for column in new[:4])
                swaps[k] += new[4][p]
                aperture[k] = max(aperture[k], new[5][p])
                collars[k], rebuilt[k] = collar, True
    if failed < len(errors):
        raise errors[failed]
    return columns, collars, rebuilt
