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

from .basis import DEFAULT_ORDER, space_dimension
from .boundary_ops import GhostOperatorSolver, coefficient_amplification
from .errors import GeometryError, GhostBcError, InactiveMember, NoAxisIntersection, NotAdmissible
from .geometry import Collars, NodeClassification, axis_projection, collars_for_ghosts

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
    """Strategy kind plus the knobs of the construction algorithms.

    ``theta`` is the cone aperture in degrees, ``lambda_loc`` the local
    (chi) and ``lambda_glo`` the global (amplification) conditioning
    tolerance, ``triangle_size`` the S1-S3 size p, ``max_swaps`` the S4.2
    swap rounds and ``order`` the polynomial order of the boundary operator.
    The record refuses every knob, or combination, no level can run with.
    """

    kind: str
    triangle_size: int = 4
    theta: float = 60.0
    lambda_loc: float = 1e6
    lambda_glo: float = 10.0
    max_swaps: int = 3
    order: int = DEFAULT_ORDER

    def __post_init__(self) -> None:
        if self.kind not in TRIANGLE_KINDS + CONE_KINDS:
            raise ValueError(f"unknown stencil strategy {self.kind!r}")
        if self.triangle_size < 1:
            raise ValueError("triangle size must be >= 1")
        if not 0.0 < self.theta <= 360.0:
            raise ValueError("cone aperture must be in (0, 360] degrees")
        if not all(0.0 < tol < np.inf for tol in (self.lambda_loc, self.lambda_glo)):  # NaN is refused too
            raise ValueError("conditioning tolerances must be positive and finite")
        if self.max_swaps < 0:
            raise ValueError("max_swaps must be >= 0")
        if self.order < 2:
            raise ValueError(f"polynomial order must be >= 2, got {self.order}")
        # a triangle with fewer members than constraints is never admissible
        members = (self.triangle_size + 1) * (self.triangle_size + 2) // 2
        if self.kind in TRIANGLE_KINDS and members < space_dimension(self.order):
            raise ValueError(
                f"{self.kind} triangle of size {self.triangle_size} has {members} members, "
                f"fewer than the {space_dimension(self.order)} constraints of order {self.order}"
            )


def _toward_boundary(collars: Collars) -> np.ndarray:
    """Each ghost's direction toward the domain, (G, 2).

    Normally the displacement toward the collar point; where the ghost sits
    on the boundary to within rounding (so the displacement is noise), the
    inward normal takes over.
    """
    d = collars.point - collars.ghost_xy
    return np.where((np.sqrt(np.vecdot(d, d)) > 1e-12)[:, None], d, -collars.normal)


def triangle_stencils(
    kind: str, collars: Collars, p: int, classification: NodeClassification
) -> tuple[np.ndarray, dict[int, InactiveMember]]:
    """Every ghost's S1, S2 or S3 triangle of size ``p``, as one (G, M, 2) array.

    Row k holds the members of the ghost of collar k, the ghost first,
    oriented per axis toward the boundary (a zero component counts as +).
    S1 has its right angle at the ghost, S2 at the innermost internal point,
    ``p`` nodes inward along the dominant displacement axis (x wins ties).
    S3 pushes the S2 members but the ghost along that axis, by the first
    shift (from 0 within one spacing of the boundary, else from 1, up to
    ``MAX_S3_SHIFT``) whose members are active and hold no other ghost.
    Also returns the ``InactiveMember`` of each failing ghost, by ghost index.
    """
    ghosts = collars.ghost_ij[:, None]
    signs = np.where(_toward_boundary(collars) >= 0.0, 1, -1)[:, None]
    d = collars.ghost_xy - collars.point
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

    errors: dict[int, InactiveMember] = {}
    for k in np.flatnonzero(unresolved).tolist():
        reason = (
            f"references inactive node ({bad_node[k, 0]}, {bad_node[k, 1]})" if had_bad[k]
            else f"cannot exclude other ghosts within shift {MAX_S3_SHIFT}"
        )
        errors[k] = InactiveMember(f"{kind} stencil of ghost {tuple(collars.ghost_ij[k].tolist())} {reason}")
    return members, errors


def extend_classification(
    classification: NodeClassification,
    strategy: StencilStrategy,
) -> tuple[NodeClassification, Collars | None]:
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

    band = None
    for closure_round in range(MAX_EXTENSION_ROUNDS):
        ghosts = classification.ghost_ij
        new = np.ones(len(ghosts), dtype=bool) if band is None else ~known[tuple(ghosts.T)]
        try:
            fresh = collars_for_ghosts(ghosts[new], classification.grid, classification.level_set)
        except GeometryError as exc:
            if not closure_round:
                raise
            raise InactiveMember(
                f"{strategy.kind} band closure round {closure_round} promoted an exterior node "
                f"that has no collar point: {exc}"
            ) from exc
        band = fresh if band is None else band.join(fresh)  # earlier rounds' ghosts keep their collars
        band = band.take(np.lexsort(band.ghost_ij.T[::-1]))  # in ghost order, (i, j)-lexicographic
        members, _ = triangle_stencils(strategy.kind, band, strategy.triangle_size, classification)
        nodes = members.reshape(-1, 2)
        off_lattice = ((nodes < 0) | (nodes > classification.grid.n)).any(axis=1)
        if off_lattice.any():
            k = int(off_lattice.argmax())
            raise InactiveMember(
                f"{strategy.kind} stencil of ghost {tuple(ghosts[k // members.shape[1]].tolist())} "
                f"leaves the lattice at {tuple(nodes[k].tolist())}"
            )
        missing = np.unique(nodes[classification.index_at(*nodes.T) < 0], axis=0)
        if not len(missing):
            return classification, band
        logger.info(
            "%s closure: promoting %d exterior nodes to ghosts", strategy.kind, len(missing)
        )
        known, classification = classification.ghost_mask, classification.with_extra_ghosts(missing)
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

    def __init__(self, collars: Collars, aperture_deg: float, classification: NodeClassification):
        self.classification = classification
        self.ghosts = collars.ghost_ij
        self.w = _toward_boundary(collars)
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
    """Grow the trial stencils of the ghosts ``pending`` until admissible with chi < ``lambda_loc``.

    Ghost k's trial, ``members[k, :sizes[k]]``, holds indices into
    ``cones.nodes`` (the ghost first); it closes the collar whose
    right-hand side is ``rhs[k]`` and grows in place from ``cones``.  Every
    round solves the pending trials of all ghosts, one ``solver.solve``
    per member count.  Before the first round, the trials that are
    rank-deficient by construction take their next candidate without being
    solved: those with fewer members than constraints by shape, the others
    by ``solver.deficient`` (one call per member count of each screening
    pass); grown from a trial that passed, a trial keeps full rank.
    Returns the finished ghosts' coefficients, zero-padded to the width of
    ``members``, and chi (zeros and ``inf`` for the others), and the
    ``NotAdmissible`` of each ghost grown to the width of ``members`` or
    out of candidates.
    """
    coeffs = np.zeros(members.shape)
    chi = np.full(len(sizes), np.inf)
    failed: dict[int, NotAdmissible] = {}
    ended = np.zeros(len(sizes), dtype=bool)
    cap = members.shape[1]

    def extend(ks: np.ndarray) -> np.ndarray:
        full = ks[sizes[ks] >= cap]
        for k in full.tolist():
            failed[k] = NotAdmissible(
                f"stencil for ghost {cones.ghost(k)} grew past {MAX_STENCIL_SIZE} "
                "points without becoming well conditioned"
            )
        grown, exhausted = _append(cones, members, sizes, ks[sizes[ks] < cap])
        for k in exhausted.tolist():
            failed[k] = NotAdmissible(f"cone candidates exhausted for ghost {cones.ghost(k)}")
        ended[full] = ended[exhausted] = True
        return grown

    screen = pending
    while len(screen):
        screen = extend(np.concatenate([
            ks if m < solver.n_constraints else ks[solver.deficient(cones.nodes[members[ks, :m]])]
            for m, ks in _by_size(screen, sizes)
        ]))
    while len(pending):
        grown = []
        for m, ks in _by_size(pending[~ended[pending]], sizes):
            solves = solver.solve(cones.nodes[members[ks, :m]], rhs[ks])
            done = solves.chi < strategy.lambda_loc  # chi is inf where not admissible
            coeffs[ks[done], :m], chi[ks[done]] = solves.coeffs[done], solves.chi[done]
            grown.append(extend(ks[~done]))
        pending = np.concatenate(grown) if grown else pending[:0]
    return coeffs, chi, failed


def _cone_batch(
    collars: Collars,
    strategy: StencilStrategy,
    classification: NodeClassification,
    solver: GhostOperatorSolver,
) -> tuple[list[np.ndarray], dict[int, NotAdmissible]]:
    """S4.1 growth and the S4.2 swap rounds of all the collar points of a phase.

    Reads the ghosts' cones together (``_Cones``), each aimed at its
    collar, and returns their rows as columns ``member_ij`` (B, W, 2)
    (the final members, the ghost first), ``sizes``, ``coeffs`` (B, W),
    ``chi``, the accepted S4.2 ``swaps`` and the final cone ``aperture``,
    with the ``NotAdmissible`` of each failing ghost, by row (its row
    then reads zero coefficients and chi ``inf``).  The collars' right-hand
    sides are built once for every stage; without collars the columns are
    empty.  S4.1 is one ``_grow`` of every ghost from the ghost alone.
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
    cones = _Cones(collars, strategy.theta, classification)
    rhs = solver.rhs(collars)
    width = max(MAX_STENCIL_SIZE, solver.n_constraints)
    members = np.zeros((len(collars), width), dtype=np.int64)
    members[:, 0] = cones.start
    sizes = np.ones(len(collars), dtype=np.int64)
    coeffs, chi, errors = _grow(cones, members, sizes, np.arange(len(collars)), rhs, strategy, solver)
    ratios = coefficient_amplification(coeffs)
    swaps = np.zeros(len(collars), dtype=np.int64)
    swapping = np.flatnonzero((chi < np.inf) & (ratios >= strategy.lambda_glo))
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
        swapping = good[ratios[good] >= strategy.lambda_glo]
    return [cones.nodes[members], sizes, coeffs, chi, swaps, cones.aperture], errors


def cone_rows(
    collars: Collars,
    strategy: StencilStrategy,
    classification: NodeClassification,
    solver: GhostOperatorSolver,
) -> tuple[list[np.ndarray], Collars, dict[int, GhostBcError]]:
    """Every ghost's cone row (S4.1-S4.3) as columns, their collars and their failures.

    The columns are those of ``_cone_batch``, one row per collar.  Phase 1
    is one ``_cone_batch`` of every ghost: S4.1 growth (and S4.2 swaps).
    For S4.3, the ghosts of phase 1 that did not fail and whose
    amplification still reaches the global tolerance get axis-projected
    collars from one batched projection, and phase 2 is one ``_cone_batch``
    of those collars.  A rebuild overwrites its ghost's row and collar
    (source ``REBUILD``), with the swaps of both phases summed and the
    wider aperture; a ghost whose axis rays miss the boundary, or whose
    rebuild is not admissible, keeps its S4.2 row.  Any other failing axis
    projection or rebuild is its ghost's failure.  Returns the error of
    each failing ghost by collar row, for ``build_ghost_rows`` to raise.
    """
    columns, errors = _cone_batch(collars, strategy, classification, solver)
    member_ij, sizes, coeffs, chi, swaps, aperture = columns
    if strategy.kind == "S4.3":
        retry = np.setdiff1d(np.flatnonzero(coefficient_amplification(coeffs) >= strategy.lambda_glo), list(errors))
        axis, misses = axis_projection(
            collars.ghost_xy[retry], classification.level_set, classification.grid.h, collars.ghost_ij[retry]
        )
        projected = np.setdiff1d(np.arange(len(retry)), list(misses))
        fresh = axis.take(projected)
        new, new_errors = _cone_batch(fresh, strategy, classification, solver)
        rebuilt = retry[projected]  # the ghost of each row of ``fresh``
        failures = {retry[r]: e for r, e in misses.items()} | {rebuilt[p]: e for p, e in new_errors.items()}
        for k, error in sorted(failures.items()):
            if isinstance(error, (NoAxisIntersection, NotAdmissible)):
                ghost = tuple(collars.ghost_ij[k].tolist())
                logger.info("ghost %s: no S4.3 rebuild (%s); keeping the S4.2 row", ghost, error)
            else:
                errors[int(k)] = error
        ps = np.setdiff1d(np.arange(len(fresh)), list(new_errors))
        ks = rebuilt[ps]
        member_ij[ks], sizes[ks], coeffs[ks], chi[ks] = (column[ps] for column in new[:4])
        swaps[ks] += new[4][ps]
        aperture[ks] = np.maximum(aperture[ks], new[5][ps])
        rows = np.arange(len(collars))
        rows[ks] = len(collars) + ps
        collars = collars.join(fresh).take(rows)
        collars.source[ks] = Collars.REBUILD
    return columns, collars, errors
