"""The pipeline names the benchmark's tracer hooks, pinned.

``bench/tracing.py`` wraps module attributes by name and skips a target
that no longer resolves, so a refactor that drops or renames one leaves its
metrics reading 0 without failing anything.  This test pins the set of
targets that do not resolve: a change that breaks another hook, or repairs
one, shows up as an edit here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

#: Targets the pipeline stopped calling when collars were batched, the trial
#: stencils became generators, swap replacements came from ``take`` and the
#: cone candidates became per-batch arrays; the benchmark still hooks them.
STALE_HOOKS = {
    "ghostbc.assembly:collar_for_ghost",
    "ghostbc.assembly:build_S4",
    "ghostbc.stencils:_run_cone_stages",
    "ghostbc.stencils:_stage3_rebuild",
    "ghostbc.boundary_ops:GhostOperatorSolver.constraints_for",
    "ghostbc.boundary_ops:boundary_action_vector",
    "ghostbc.boundary_ops:analyze_stencil",
    "ghostbc.stencils:_CandidateStream.nearest_available",
    "ghostbc.stencils:_CandidateStream.take",
}


def test_missing_hook_targets_are_the_known_stale_ones():
    missing = set()
    for hook in tracing.HOOKS:
        try:
            tracing._resolve(hook.target)
        except (ImportError, AttributeError):
            missing.add(hook.target)
    assert missing == STALE_HOOKS
