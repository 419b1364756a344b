"""Per-layer spans and counters for the ghostbc pipeline, from outside it.

The tracer wraps the module and class attributes the pipeline calls
through (``assembly.collar_for_ghost``, ``boundary_ops.analyze_stencil``,
``GhostOperatorSolver.constraints_for``, ...) for the duration of a
``with Tracer():`` block and puts the originals back on exit, so nothing
under ``src/`` knows it is being traced and untraced timings run the
original functions.

Each wrapped call opens a span: its duration is added to the hook's time
metric (once, even when spans with the same metric nest) and its self time,
the duration minus the spans it encloses, to its layer.  Counters are
recorded at the same boundaries.  A hook whose target no longer exists is
skipped and listed in ``Tracer.missing``, so a refactor of the program
leaves the benchmark running with that metric at zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: Layers, named after the ghostbc modules, whose self time is reported.
LAYERS = ("geometry", "basis", "boundary_ops", "stencils", "assembly", "analysis", "cli", "benchmarks")

_WRAPPED = "__bench_wrapped__"


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap.

    ``target`` is ``"module:attr.path"``; ``layer`` receives the span's self
    time (``None`` records counters without a span).  ``before`` sees the
    call's arguments and returns a state for ``after``, which sees the
    arguments, the result and that state and returns the result to hand back.
    """

    target: str
    layer: str | None
    time: str | None = None
    calls: str | None = None
    before: Callable | None = None
    after: Callable | None = None


def _resolve(target: str) -> tuple[Any, str]:
    """(owner object, attribute name) of a hook target; raises AttributeError."""
    module_name, path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)
    return owner, attr


def _count_phi_evals(tracer, args, bench, state):
    # Replace the benchmark's level set by one whose evaluate counts calls;
    # the level set travels with the benchmark, so no module attribute changes.
    evaluate = bench.level_set.evaluate

    def counted(x, y):
        tracer.counts["geometry.phi_evals"] += 1
        return evaluate(x, y)

    level_set = dataclasses.replace(bench.level_set, evaluate=counted)
    return dataclasses.replace(bench, level_set=level_set)


def _count_ghosts(tracer, args, rows, state):
    tracer.counts["geometry.ghosts"] += len(rows)
    return rows


def _aperture(tracer, args):
    return args[0].aperture


def _count_widenings(tracer, args, node, before):
    from ghostbc import stencils

    grown = args[0].aperture - before
    if grown > 0.0:
        tracer.counts["stencils.aperture_widenings"] += math.ceil(grown / stencils.APERTURE_STEP)
    return node


def _count_swaps(tracer, args, stages, state):
    tracer.counts["stencils.swaps_accepted"] += len(stages[2])
    return stages


def _count_adoptions(tracer, args, rebuilt, state):
    # _stage3_rebuild returns the input collar when it keeps the S4.2 result.
    if rebuilt[3] is not args[1]:
        tracer.counts["stencils.rebuilds_adopted"] += 1
    return rebuilt


def _count_nnz(tracer, args, assembled, state):
    tracer.counts["assembly.nnz"] += int(assembled[0].matrix.nnz)
    return assembled


def _record_solve(tracer, args, report, state):
    tracer.counts["assembly.refinements"] += report.refinements
    tracer.times["assembly.factor_s"] += report.factor_seconds
    tracer.maxima["assembly.residual"] = max(tracer.maxima["assembly.residual"], report.residual)
    return report


def _count_fill(tracer, args, lu, state):
    # SuperLU.nnz: entries stored for L and U.  Building lu.L / lu.U to count
    # them would copy the factors (hundreds of MB at n=502).
    tracer.counts["assembly.lu_fill"] += int(lu.nnz)
    return lu


_AXIS = dict(layer="geometry", time="geometry.axis_projection_s", calls="geometry.axis_projection_calls")
_EMIT = dict(layer="cli", time="cli.emit_s")

HOOKS = (
    Hook("ghostbc.cli:RunConfig.make_benchmark", "benchmarks", after=_count_phi_evals),
    Hook("ghostbc.cli:execute_level", "cli", time="cli.level_s", calls="cli.levels"),
    Hook("ghostbc.cli:classify_nodes", "geometry", time="geometry.classify_s"),
    Hook("ghostbc.assembly:build_ghost_rows", "assembly", time="assembly.ghost_rows_s", after=_count_ghosts),
    Hook("ghostbc.assembly:collar_for_ghost", "geometry", time="geometry.collar_s", calls="geometry.collar_calls"),
    Hook("ghostbc.geometry:axis_projection", **_AXIS),
    Hook("ghostbc.stencils:axis_projection", **_AXIS),
    Hook("ghostbc.assembly:build_S4", "stencils", time="stencils.build_s"),
    Hook("ghostbc.stencils:_run_cone_stages", "stencils", after=_count_swaps),
    Hook("ghostbc.stencils:_CandidateStream.take", "stencils", time="stencils.cone_s",
         calls="stencils.candidates_taken", before=_aperture, after=_count_widenings),
    Hook("ghostbc.stencils:_CandidateStream.nearest_available", "stencils", time="stencils.cone_s",
         calls="stencils.rescans"),
    Hook("ghostbc.stencils:_stage3_rebuild", "stencils", time="stencils.rebuild_s",
         calls="stencils.rebuilds", after=_count_adoptions),
    Hook("ghostbc.boundary_ops:GhostOperatorSolver.constraints_for", "boundary_ops",
         time="boundary_ops.constraints_s", calls="boundary_ops.constraints_calls"),
    Hook("ghostbc.boundary_ops:monomial_matrix", "basis", time="basis.monomial_s", calls="basis.monomial_calls"),
    Hook("ghostbc.boundary_ops:boundary_action_vector", "basis", time="basis.boundary_action_s",
         calls="basis.boundary_action_calls"),
    Hook("ghostbc.boundary_ops:analyze_stencil", "boundary_ops", time="boundary_ops.svd_s",
         calls="boundary_ops.svd_calls"),
    Hook("ghostbc.assembly:assemble", "assembly", time="assembly.assemble_s", after=_count_nnz),
    Hook("ghostbc.assembly:solve", "assembly", time="assembly.solve_s", after=_record_solve),
    Hook("ghostbc.assembly:spla.splu", None, after=_count_fill),
    Hook("ghostbc.analysis:compute_errors", "analysis", time="analysis.errors_s"),
    Hook("ghostbc.analysis:stencil_diagnostics", "analysis", time="analysis.diagnostics_s"),
    Hook("ghostbc.cli:_write_json", **_EMIT),
    Hook("ghostbc.cli:_write_ghost_csv", **_EMIT),
    Hook("ghostbc.cli:_write_atomic", **_EMIT),
)


@dataclass
class _Frame:
    layer: str | None
    time_key: str | None
    start: float
    child: float = 0.0


class Tracer:
    """Installs ``HOOKS`` on entry and restores every original on exit.

    ``times`` holds inclusive seconds per time metric, ``counts`` the
    counters, ``maxima`` the largest value seen per gauge and ``layer_self``
    the self time per layer (``None`` for the root span).
    """

    def __init__(self):
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self.layer_self: defaultdict[str | None, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._open_keys: Counter[str] = Counter()
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for hook in HOOKS:
            try:
                owner, attr = _resolve(hook.target)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(hook, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root_span(self):
        """The span around one workload unit; its self time is unattributed."""
        self._open(None, None)
        try:
            yield
        finally:
            self._close()

    def _open(self, layer, time_key) -> None:
        if time_key is not None:
            self._open_keys[time_key] += 1
        self._stack.append(_Frame(layer, time_key, time.perf_counter()))

    def _close(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        if frame.time_key is not None:
            self._open_keys[frame.time_key] -= 1
            if not self._open_keys[frame.time_key]:
                self.times[frame.time_key] += duration
        self.layer_self[frame.layer] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration

    def _wrap(self, hook: Hook, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if hook.calls is not None:
                tracer.counts[hook.calls] += 1
            state = hook.before(tracer, args) if hook.before is not None else None
            if hook.layer is None:
                result = original(*args, **kwargs)
            else:
                tracer._open(hook.layer, hook.time)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close()
            if hook.after is not None:
                result = hook.after(tracer, args, result, state)
            return result

        setattr(wrapper, _WRAPPED, True)
        return wrapper


def installed_wrappers() -> list[str]:
    """Targets that currently hold a tracing wrapper (empty when untraced)."""
    found = []
    for hook in HOOKS:
        try:
            owner, attr = _resolve(hook.target)
        except (ImportError, AttributeError):
            continue
        if getattr(getattr(owner, attr), _WRAPPED, False):
            found.append(hook.target)
    return found
