"""Print one digest line per gate configuration of the ghost-row layer.

Each line names a level (benchmark, strategy, grid size, polynomial order)
and either the SHA-256 of every ``GhostRows`` column and every collar field
of its rows, or the type and message of the error the level raises.  A
refactor that must keep the rows bit for bit keeps this output unchanged:

    PYTHONPATH=<tree>/src python3 tools/row_digests.py > digests.txt

Run it on two trees and compare the files.  The levels are built as
``ghostbc run`` builds them (band closure for S1/S2, then
``build_ghost_rows``), without assembling or solving.  Extra levels can be
given as arguments, ``benchmark:strategy:n[:order]``; they replace the
default list.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

import ghostbc as g
from ghostbc.errors import GhostBcError
from ghostbc.geometry import Collars

#: The gate levels: every strategy on every domain at a coarse grid, the
#: three S4.3 levels of the benchmark workloads' grid sizes and a failing
#: leaf S3 level.
GATE = (
    ("annulus", "S1", 64), ("annulus", "S2", 96), ("annulus", "S3", 96), ("annulus", "S4.1", 80),
    ("annulus", "S4.2", 96), ("annulus", "S4.3", 160),
    ("flower", "S1", 96), ("flower", "S2", 96), ("flower", "S4.1", 96), ("flower", "S4.2", 96),
    ("flower", "S4.3", 160),
    ("conv-bl2", "S3", 96), ("conv-bl2", "S4.3", 96),
    ("hourglass", "S4.3", 160), ("hourglass", "S4.2", 128),
    ("leaf", "S4.3", 160), ("leaf", "S3", 128),
    ("flower", "S4.3", 283), ("annulus", "S4.3", 343), ("annulus", "S4.3", 502),
)

COLUMNS = ("sizes", "member_ij", "coeffs", "rhs", "chi", "r_ratio", "swaps", "aperture")


def _feed(digest, array) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def rows_digest(rows) -> str:
    """SHA-256 of every column of ``rows`` and every column of its collars.

    The bytes keep the layout of tables that held the ghosts as their first
    column, stored the rebuild flag as a bool column after ``aperture`` and
    their collars one object per row, so digests compare across those
    changes: the collars' ghost column comes first, the flag
    (``source == REBUILD``) after the table's columns, then per row the
    ``collar_mode`` text and the ghost as ``(i, j)``, its ``ghost_xy``,
    ``point`` and ``normal``.
    """
    digest = hashlib.sha256()
    collars = rows.collars
    _feed(digest, collars.ghost_ij)
    for name in COLUMNS:
        _feed(digest, getattr(rows, name))
    _feed(digest, collars.source == Collars.REBUILD)
    for k, (mode, ghost) in enumerate(zip(collars.mode.tolist(), collars.ghost_ij.tolist())):
        digest.update(f"{mode}{tuple(ghost)}".encode())
        for column in (collars.ghost_xy, collars.point, collars.normal):
            _feed(digest, column[k])
    return digest.hexdigest()


def level_line(name: str, kind: str, n: int, order: int = 5) -> str:
    cfg = g.RunConfig(benchmark=name, strategy=kind, n=n, order=order)
    bench = cfg.make_benchmark()
    strategy = cfg.stencil_strategy()
    label = f"{name} {kind} n={n} order={order}"
    try:
        classification, collars = g.extend_classification(g.classify_nodes(g.Grid(n), bench.level_set), strategy)
        rows = g.build_ghost_rows(classification, strategy, bench.coefficients, collars)
    except GhostBcError as exc:
        return f"{label}: {type(exc).__name__}: {exc}"
    return f"{label}: {len(rows)} rows {rows_digest(rows)}"


def main(argv: list[str]) -> None:
    levels = [tuple(arg.split(":")) for arg in argv] or GATE
    for name, kind, n, *order in levels:
        print(level_line(name, kind, int(n), *map(int, order)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
