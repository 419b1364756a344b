"""The tools under ``tools/`` still match the code they read.

``tools/mutants.py`` finds each mutant by a pattern of source text, and
``tools/row_digests.py`` reads the ghost-row table; neither runs in the
test suite, so a refactor could leave them stale without failing anything.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import mutants  # noqa: E402
import row_digests  # noqa: E402


def test_every_mutant_pattern_occurs_once():
    for name, (_, path, pattern, replacement, tests) in mutants.MUTANTS.items():
        assert (ROOT / path).read_text().count(pattern) == 1, name
        assert pattern != replacement, name
        assert all((ROOT / test.split("::")[0]).is_file() for test in tests), name


def test_row_digest_lines():
    line = row_digests.level_line("annulus", "S4.1", 32)
    assert re.fullmatch(r"annulus S4\.1 n=32 order=5: 236 rows [0-9a-f]{64}", line), line
    assert row_digests.level_line("leaf", "S3", 64) == (
        "leaf S3 n=64 order=5: InactiveMember: S3 stencil of ghost (17, 47) references inactive node (27, 51)"
    )
