"""Workload runner, output checks and metrics of the ghostbc benchmark.

A workload unit is one call of a public entry point, ``cli.run_sweep`` or
``cli.run_single``, including its artifact writing.  A run repeats units
until its time is used up, checks every unit's artifacts against the
reference stored in ``workloads.json``, and reports medians.

Untraced units give the end-to-end metrics.  Their time is reported as
``wall_rel``, unit wall seconds over the wall seconds of a fixed reference
computation timed on both sides of the unit: on a shared host the machine
speed drifts by tens of percent within minutes, and the ratio cancels that
drift while moving exactly as the unit's own time moves.  The raw seconds
are printed with every run and reported by the traced run.  In a traced
run, traced and untraced units alternate and the traced ones give the
per-layer metrics.  Set-up time is measured in fresh processes
(``probe.py``) spread over the run.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import LAYERS, Tracer, installed_wrappers

HERE = Path(__file__).resolve().parent
WORKLOADS_FILE = HERE / "workloads.json"
PROBE = HERE / "probe.py"

#: Relative tolerance on error norms against the reference.
ERROR_RTOL = 1e-6

#: Residual every solve must reach (the program's own contract).
RESIDUAL_LIMIT = 1e-10

PROBE_TIMEOUT_S = 120

#: Fresh-process set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

REFERENCE_SEED = 20261017
REFERENCE_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    reference: dict

    @property
    def is_sweep(self) -> bool:
        return bool(self.config.get("sweep"))


def load_workloads() -> dict[str, Workload]:
    data = json.loads(WORKLOADS_FILE.read_text())
    return {
        name: Workload(name, spec["config"], spec.get("reference", {}))
        for name, spec in data.items()
    }


@dataclass
class Unit:
    wall_s: float
    traced: bool
    failures: list[str]
    observed: dict | None = None
    drift: list[str] | None = None
    tracer: Tracer | None = None
    ref_s: float = math.nan


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _histogram(ghosts_csv: Path) -> tuple[int, dict[str, int]]:
    lines = ghosts_csv.read_text().splitlines()
    size_col = lines[0].split(",").index("size")
    sizes: dict[str, int] = {}
    for line in lines[1:]:
        size = line.split(",")[size_col]
        sizes[size] = sizes.get(size, 0) + 1
    return len(lines) - 1, dict(sorted(sizes.items(), key=lambda kv: int(kv[0])))


def observe(wl: Workload, out: Path) -> dict:
    """Reference-shaped facts read back from a unit's artifacts.

    ``levels`` maps each grid size to its ghost count, stencil-size
    histogram and error norms; ``digests`` holds the byte digests of the
    deterministic artifacts; ``failures`` lists failed sweep levels and
    ``residual`` the single run's solve residual.
    """
    levels: dict[str, dict] = {}
    if wl.is_sweep:
        orders = json.loads((out / "orders.json").read_text())
        lines = (out / "convergence.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            ghosts, sizes = _histogram(out / f"ghosts_n{row['n']}.csv")
            levels[row["n"]] = {
                "ghosts": ghosts,
                "sizes": sizes,
                "errors": {k: float(row[k]) for k in ("l1", "linf", "grad_l1", "grad_linf")},
            }
        digested = ["orders.json", "convergence.csv"] + [f"ghosts_n{n}.csv" for n in levels]
        extra = {"failures": orders["failures"]}
    else:
        run = json.loads((out / "run.json").read_text())
        ghosts, sizes = _histogram(out / "ghosts.csv")
        levels[str(run["n"])] = {"ghosts": ghosts, "sizes": sizes, "errors": run["errors"]}
        digested = ["run.json", "ghosts.csv"]
        extra = {"failures": [], "residual": run["residual"]}
    return {"levels": levels, "digests": {f: _sha256(out / f) for f in digested}, **extra}


def compare(wl: Workload, observed: dict) -> tuple[list[str], list[str]]:
    """(failures, drifted digests) of observed facts against the reference."""
    failures = [f"level n={f['n']} failed: {f['error']}" for f in observed["failures"]]
    if observed.get("residual", 0.0) > RESIDUAL_LIMIT:
        failures.append(f"solve residual {observed['residual']:.3e} above {RESIDUAL_LIMIT:.0e}")
    ref_levels = wl.reference.get("levels", {})
    if sorted(observed["levels"]) != sorted(ref_levels):
        failures.append(f"levels {sorted(observed['levels'])} != reference {sorted(ref_levels)}")
    for n, ref in ref_levels.items():
        got = observed["levels"].get(n)
        if got is None:
            continue
        if got["ghosts"] != ref["ghosts"]:
            failures.append(f"n={n}: {got['ghosts']} ghosts, reference {ref['ghosts']}")
        if got["sizes"] != ref["sizes"]:
            failures.append(f"n={n}: size histogram {got['sizes']} != reference {ref['sizes']}")
        for norm, value in ref["errors"].items():
            if not math.isclose(got["errors"][norm], value, rel_tol=ERROR_RTOL, abs_tol=0.0):
                failures.append(f"n={n}: {norm} {got['errors'][norm]!r} != reference {value!r}")
    ref_digests = wl.reference.get("digests", {})
    drift = [f for f, d in observed["digests"].items() if ref_digests.get(f) != d]
    return failures, drift


# ---------------------------------------------------------------------------
# Reference computation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _reference_inputs():
    import numpy as np
    import scipy.sparse as sp

    dense = np.random.default_rng(REFERENCE_SEED).standard_normal((15, 18))
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(120, 120))
    eye = sp.identity(120)
    laplacian = (sp.kron(line, eye) + sp.kron(eye, line)).tocsc()
    return dense, laplacian


def reference_seconds() -> float:
    """Wall seconds of a fixed computation that uses no ghostbc code.

    It mixes what the pipeline spends its time on: interpreted loops over
    small tuples and dicts, small dense SVDs and a sparse LU.  Timed around
    every unit, it tracks how fast the machine runs at that moment, so
    ``wall_rel`` (unit seconds over reference seconds) does not drift with
    the load other tenants put on a shared host, while a change to ghostbc
    moves it exactly as it moves the unit's wall time.
    """
    import numpy as np
    import scipy.sparse.linalg as spla

    dense, laplacian = _reference_inputs()
    t0 = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for _ in range(REFERENCE_ROUNDS):
        for k in range(1500):
            np.linalg.svd(dense, full_matrices=False)
            for i in range(100):
                key = (i, k % 13)
                counts[key] = counts.get(key, 0) + 1
        spla.splu(laplacian)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Units and set-up probes
# ---------------------------------------------------------------------------

def run_unit(wl: Workload, out: Path, traced: bool) -> Unit:
    """Time one call of the entry point, then check its artifacts in ``out``.

    ``out`` is relative to the working directory the caller has set.
    """
    from ghostbc import cli
    from ghostbc.errors import GhostBcError

    cfg = cli.RunConfig(**wl.config, out=str(out))
    entry = cli.run_sweep if wl.is_sweep else cli.run_single
    tracer = None
    try:
        if traced:
            with Tracer() as tracer:
                with tracer.root_span():
                    t0 = time.perf_counter()
                    entry(cfg)
                    wall = time.perf_counter() - t0
        else:
            wrapped = installed_wrappers()
            if wrapped:
                raise RuntimeError(f"tracing wrappers still installed before an untraced unit: {wrapped}")
            t0 = time.perf_counter()
            entry(cfg)
            wall = time.perf_counter() - t0
    except GhostBcError as exc:
        wall = time.perf_counter() - t0
        return Unit(wall, traced, [f"{type(exc).__name__}: {exc}"], tracer=tracer)
    observed = observe(wl, out)
    failures, drift = compare(wl, observed)
    return Unit(wall, traced, failures, observed, drift, tracer)


def probe_setup(wl: Workload, src: Path) -> dict:
    """Set-up of a fresh process: start, imports, ``RunConfig.make_benchmark``.

    ``setup_s`` runs from just before the process is started to the line it
    prints once the benchmark is built; interpreter shutdown is excluded.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PROBE), str(src), json.dumps(wl.config)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe for {wl.name} exited with code {proc.returncode}")
    return {"setup_s": setup, **json.loads(line)}


@contextlib.contextmanager
def _working_dir(path: Path):
    # Artifacts go to a relative directory so their bytes (run.json echoes
    # the output path) do not depend on where the checkout lives.
    path.mkdir(parents=True, exist_ok=True)
    previous = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


# ---------------------------------------------------------------------------
# A run and its metrics
# ---------------------------------------------------------------------------

def run_benchmark(
    wl: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    src: Path,
    work_dir: Path,
) -> dict:
    """Run units of ``wl`` for ``seconds`` and return the result object.

    The seed only orders the repetitions: whether a set-up probe runs
    before the first unit and, when tracing, whether the first unit is
    traced.  Returns ``{"correct", "attempted", "failed", "metrics",
    "info"}``; ``info`` carries what is not a metric.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    traced_next = trace and rng.random() < 0.5
    setups: list[dict] = []
    probe_walls: list[float] = []
    core_walls: list[float] = []
    units: list[Unit] = []

    def probe() -> None:
        t0 = time.perf_counter()
        setups.append(probe_setup(wl, src))
        probe_walls.append(time.perf_counter() - t0)

    with _working_dir(work_dir):
        reference_seconds()  # warm-up: lazy imports and first-call costs
        refs = [reference_seconds()]
        if rng.random() < 0.5:
            probe()
        while True:
            t0 = time.perf_counter()
            gc.collect()
            unit = run_unit(wl, Path(wl.name), traced_next)
            # Bracket every unit by reference timings, so the ratio sees
            # the machine speed on both sides of it.
            refs.append(reference_seconds())
            unit.ref_s = (refs[-2] + refs[-1]) / 2.0
            units.append(unit)
            core_walls.append(time.perf_counter() - t0)
            traced_next = trace and not traced_next
            # Set-up probes are spread over the run, so their median sees
            # the same spread of machine load as the units.
            if len(setups) < SETUP_PROBES:
                probe()
            # Stop before an iteration that would likely end past the time
            # budget, counting the probes still to run after the loop.
            remaining = statistics.median(core_walls)
            remaining += (SETUP_PROBES - len(setups)) * statistics.median(probe_walls)
            done = time.perf_counter() - start + remaining > seconds
            if done and (not trace or len({u.traced for u in units}) == 2):
                break
    while len(setups) < SETUP_PROBES:
        probe()

    untraced = [u for u in units if not u.traced]
    traced = [u for u in units if u.traced]
    _check_counters(traced)
    failed = sum(1 for u in units if u.failures)
    if trace:
        metrics = layer_metrics(traced, untraced, setups)
        metrics["calib.ref_s"] = _metric(statistics.median(refs), "s")
    else:
        metrics = end_to_end_metrics(untraced, setups, failed)
    drift = sorted({f for u in units for f in (u.drift or [])})
    info = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "untraced_walls_s": [u.wall_s for u in untraced],
        "traced_walls_s": [u.wall_s for u in traced],
        "reference_s": refs,
        "setups_s": [s["setup_s"] for s in setups],
        "failures": [f for u in units for f in u.failures],
        "digest_drift": drift,
    }
    if trace:
        info["hooks_missing"] = traced[0].tracer.missing
    return {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def _finest_errors(units: list[Unit]) -> dict:
    for unit in units:
        if unit.observed and unit.observed["levels"]:
            levels = unit.observed["levels"]
            return levels[max(levels, key=int)]["errors"]
    return {"linf": 0.0, "grad_linf": 0.0}


def end_to_end_metrics(untraced: list[Unit], setups: list[dict], failed: int) -> dict:
    attempted = len(untraced)
    errors = _finest_errors(untraced)
    return {
        "wall_rel": _metric(statistics.median(u.wall_s / u.ref_s for u in untraced), "1"),
        "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "linf_err": _metric(errors["linf"], "1"),
        "grad_linf_err": _metric(errors["grad_linf"], "1"),
        "ok_frac": _metric((attempted - failed) / attempted, "1"),
    }


#: Per-layer time metrics (seconds) and counters read from the tracer.
TIME_METRICS = (
    "geometry.classify_s", "geometry.collar_s", "geometry.axis_projection_s",
    "basis.monomial_s", "basis.boundary_action_s",
    "boundary_ops.constraints_s", "boundary_ops.svd_s",
    "stencils.build_s", "stencils.cone_s", "stencils.rebuild_s",
    "assembly.ghost_rows_s", "assembly.assemble_s", "assembly.solve_s", "assembly.factor_s",
    "cli.level_s", "cli.emit_s",
    "analysis.errors_s", "analysis.diagnostics_s",
)
COUNT_METRICS = (
    "geometry.ghosts", "geometry.collar_calls", "geometry.axis_projection_calls", "geometry.phi_evals",
    "basis.monomial_calls", "basis.boundary_action_calls",
    "boundary_ops.constraints_calls", "boundary_ops.svd_calls",
    "stencils.candidates_taken", "stencils.rescans", "stencils.aperture_widenings",
    "stencils.swaps_accepted", "stencils.rebuilds", "stencils.rebuilds_adopted",
    "assembly.nnz", "assembly.lu_fill", "assembly.refinements",
    "cli.levels",
)


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def _check_counters(traced: list[Unit]) -> None:
    """Fail every traced unit whose counters differ from the first one's.

    Only units without failures are compared: a unit that raised stopped
    part-way and left partial counters.
    """
    clean = [u for u in traced if not u.failures]
    for unit in clean[1:]:
        if unit.tracer.counts != clean[0].tracer.counts:
            unit.failures.append("counters differ from the first traced unit")


def layer_metrics(traced: list[Unit], untraced: list[Unit], setups: list[dict]) -> dict:
    """Per-layer metrics: medians over traced units, counters of the first.

    Units that failed are left out unless all of them failed.
    """
    tracers = [u.tracer for u in ([u for u in traced if not u.failures] or traced)]
    first = tracers[0]

    def med(values) -> float:
        return statistics.median(list(values))

    counts = first.counts
    out = {name: _metric(med(t.times[name] for t in tracers), "s") for name in TIME_METRICS}
    out.update({name: _metric(counts[name], "count") for name in COUNT_METRICS})
    out["boundary_ops.svd_per_ghost"] = _metric(
        _ratio(counts["boundary_ops.svd_calls"], counts["geometry.ghosts"]), "ratio")
    out["stencils.swap_accept_ratio"] = _metric(
        _ratio(counts["stencils.swaps_accepted"], counts["stencils.rescans"]), "ratio")
    out["stencils.rebuild_adopt_ratio"] = _metric(
        _ratio(counts["stencils.rebuilds_adopted"], counts["stencils.rebuilds"]), "ratio")
    out["assembly.residual"] = _metric(first.maxima["assembly.residual"], "1")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _metric(med(t.layer_self[layer] for t in tracers), "s")
    out["benchmarks.build_s"] = _metric(med(s["build_s"] for s in setups), "s")
    out["setup.import_s"] = _metric(med(s["import_s"] for s in setups), "s")
    traced_wall = med(u.wall_s for u in traced)
    untraced_wall = med(u.wall_s for u in untraced)
    out["trace.wall_s"] = _metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
    out["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    out["trace.unattributed_s"] = _metric(med(t.layer_self[None] for t in tracers), "s")
    out["trace.units"] = _metric(len(traced), "count")
    out["trace.hooks_missing"] = _metric(len(first.missing), "count")
    out["check.digest_drift"] = _metric(
        sum(1 for u in traced + untraced if u.drift), "count")
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def write_reference(wl: Workload, work_dir: Path) -> dict:
    """Run one untraced unit of ``wl`` and store its facts as the reference."""
    with _working_dir(work_dir):
        unit = run_unit(wl, Path(wl.name), traced=False)
        if unit.observed is None:
            raise RuntimeError(f"{wl.name}: unit failed: {unit.failures}")
        observed = unit.observed
    data = json.loads(WORKLOADS_FILE.read_text())
    data[wl.name]["reference"] = {"levels": observed["levels"], "digests": observed["digests"]}
    WORKLOADS_FILE.write_text(json.dumps(data, indent=2) + "\n")
    return data[wl.name]["reference"]
