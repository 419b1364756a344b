"""Command-line entry point: single runs and convergence sweeps.

``ghostbc run`` executes classify -> stencils -> boundary operators ->
assemble -> solve -> analyze for one grid or a list of grids, and writes
machine-readable artifacts (run.json, ghosts.csv, convergence.csv,
orders.json, optional Matrix Market export).  All outputs are byte-stable
across reruns with the same configuration; wall-clock timings go to a
separate sidecar so they cannot break that contract.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import numbers
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, assembly, benchmarks, stencils
from .analysis import NORM_NAMES, ConvergenceSeries, ErrorReport
from .errors import ConfigError, DegenerateFit, GhostBcError, UnknownDomain
from .geometry import Grid, NodeClassification, classify_nodes
from .stencils import StencilStrategy

logger = logging.getLogger(__name__)

#: The full grid list used for the reference convergence studies.
PAPER13 = (160, 176, 194, 213, 234, 258, 283, 312, 343, 377, 415, 456, 502)

SWEEP_PRESETS = {"paper13": PAPER13}

MIN_GRID = 16


@dataclass
class RunConfig:
    """Everything a run needs; JSON-serializable for the config echo."""

    benchmark: str = "annulus"
    kappa: float | None = None
    u0: float | None = None
    strategy: str = "S4.3"
    triangle_size: int = StencilStrategy.triangle_size
    theta: float = StencilStrategy.theta
    lambda_loc: float = StencilStrategy.lambda_loc
    lambda_glo: float = StencilStrategy.lambda_glo
    max_swaps: int = StencilStrategy.max_swaps
    order: int = StencilStrategy.order
    n: int | None = None
    sweep: list[int] | None = None
    out: str | None = None
    export_matrix: bool = False
    export_diagnostics: bool = False
    inject_exact: bool = False

    def __post_init__(self) -> None:
        # a config file's values arrive untyped: each must have its field's
        # type, and a JSON boolean is no number although bool is an Integral
        kinds = {"str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool, "list[int]": (list, tuple)}
        for f in dataclasses.fields(self):
            kind = f.type.split(" | ")[0]
            value = getattr(self, f.name)
            wrong = not isinstance(value, kinds[kind]) or (isinstance(value, bool) and kind != "bool")
            if value is not None and wrong:
                raise ConfigError(f"config key {f.name!r} must be {kind}, got {value!r}")
        if self.benchmark != "convection" and (self.kappa, self.u0) != (None, None):
            raise ConfigError(f"kappa and u0 set the 'convection' benchmark only, not {self.benchmark!r}")
        self.strategy = self.strategy.upper().replace("_", ".")
        if self.n is None and not self.sweep:
            self.n = 160
        if self.n is not None and self.n < MIN_GRID:
            raise ConfigError(f"grid size must be >= {MIN_GRID}, got {self.n}")
        if self.sweep:
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in self.sweep):
                raise ConfigError(f"config key 'sweep' must be list[int], got {self.sweep!r}")
            self.sweep = [int(v) for v in self.sweep]
            if any(v < MIN_GRID for v in self.sweep):
                raise ConfigError(f"sweep grid sizes must be >= {MIN_GRID}")
            if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
                raise ConfigError("sweep grid list must be strictly increasing")
            if self.export_matrix:
                raise ConfigError("a sweep writes no matrix; --export-matrix needs a single run (--n)")
            if self.n is not None:
                raise ConfigError("a sweep runs its own grid sizes; --n needs a single run (no --sweep)")
        self.stencil_strategy()  # every strategy knob is checked before any level runs

    def stencil_strategy(self) -> StencilStrategy:
        try:
            return StencilStrategy(
                kind=self.strategy,
                triangle_size=self.triangle_size,
                theta=self.theta,
                lambda_loc=self.lambda_loc,
                lambda_glo=self.lambda_glo,
                max_swaps=self.max_swaps,
                order=self.order,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def make_benchmark(self) -> benchmarks.Benchmark:
        try:
            return benchmarks.by_name(self.benchmark, kappa=self.kappa, u0=self.u0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class LevelResult:
    """Outcome of the pipeline on one grid level.

    A sweep's level drops its system and classification, and keeps its
    rows only when the sweep exports them.
    """

    n: int
    errors: ErrorReport
    residual: float
    #: Active nodes numbered before the ghosts, which ``rows`` follow.
    n_interior: int
    rows: assembly.GhostRows | None = field(repr=False)
    system: assembly.SparseSystem | None
    #: The classification whose active numbering indexes ``system``.
    classification: NodeClassification | None = field(repr=False)
    timings: dict[str, float] = field(default_factory=dict)


def execute_level(cfg: RunConfig, bench: benchmarks.Benchmark, n: int) -> LevelResult:
    """Run the whole pipeline on one grid."""
    strategy = cfg.stencil_strategy()
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    grid = Grid(n)
    classification = classify_nodes(grid, bench.level_set)
    classification, collars = stencils.extend_classification(classification, strategy)
    timings["classify"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows = assembly.build_ghost_rows(classification, strategy, bench.coefficients, collars)
    timings["ghost_rows"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    system, rows = assembly.assemble(classification, bench.coefficients, rows)
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if cfg.inject_exact:
        coords = classification.active_coords()
        solution = np.asarray(bench.solution(coords[:, 0], coords[:, 1]), dtype=float)
        residual = 0.0
    else:
        report = assembly.solve(system)
        solution = report.solution
        residual = report.residual
        timings["factor"] = report.factor_seconds
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    errors = analysis.compute_errors(solution, bench, classification)
    timings["analyze"] = time.perf_counter() - t0

    return LevelResult(
        n=n,
        errors=errors,
        residual=residual,
        n_interior=classification.n_interior,
        rows=rows,
        system=system,
        classification=classification,
        timings=timings,
    )


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json_default(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value)}")


def _write_json(path: Path, payload: dict) -> None:
    # a NaN or an infinity is not JSON, so it raises instead of reaching a file
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default, allow_nan=False)
    _write_atomic(path, text + "\n")


def _write_ghost_csv(path: Path, rows: assembly.GhostRows, n_interior: int) -> None:
    collars = rows.collars
    columns = zip(collars.ghost_ij.tolist(), rows.sizes, rows.diameters, rows.chi, rows.r_ratio, collars.mode)
    lines = ["k,i,j,size,diameter,chi,r_ratio,collar_mode"] + [
        f"{n_interior + k},{i},{j},{size},{_fmt(diameter)},{_fmt(chi)},{_fmt(ratio)},{mode}"
        for k, ((i, j), size, diameter, chi, ratio, mode) in enumerate(columns)
    ]
    _write_atomic(path, "\n".join(lines) + "\n")


def _run_payload(cfg: RunConfig, bench: benchmarks.Benchmark, result: LevelResult) -> dict:
    classification = result.classification
    payload = {
        "config": cfg.echo(),
        "benchmark": bench.name,
        "n": result.n,
        "h": classification.grid.h,
        "n_interior": result.n_interior,
        "n_ghost": classification.n_ghost,
        "residual": result.residual,
        "errors": result.errors.values(),
        "l1_absolute": result.errors.l1_absolute,
        "diagnostics": analysis.stencil_diagnostics(result.rows),
    }
    if "u0" in bench.info:
        pe, pe_loc = benchmarks.peclet_numbers(bench, classification.grid)
        payload["peclet"] = {"global": pe, "cell": pe_loc, "nominal": bench.info.get("nominal_pe")}
    return payload


def run_single(cfg: RunConfig) -> LevelResult:
    """Execute one grid level and emit run.json / ghosts.csv / optional .mtx."""
    bench = cfg.make_benchmark()
    result = execute_level(cfg, bench, cfg.n)
    if cfg.out:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "run.json", _run_payload(cfg, bench, result))
        _write_ghost_csv(out / "ghosts.csv", result.rows, result.n_interior)
        _write_json(out / "timings.json", {"seconds": result.timings})
        if cfg.export_matrix:
            assembly.export_matrix_market(result.system, out / "matrix.mtx")
    return result


def _sweep_level(cfg: RunConfig, n: int) -> LevelResult | GhostBcError:
    """Run one sweep level; its ``GhostBcError`` comes back as the value."""
    try:
        result = execute_level(cfg, cfg.make_benchmark(), n)
    except GhostBcError as exc:
        return exc
    rows = result.rows if cfg.export_diagnostics else None
    return dataclasses.replace(result, system=None, classification=None, rows=rows)


def _sweep_levels(cfg: RunConfig) -> list[LevelResult | GhostBcError]:
    """Every sweep level's outcome, in sweep order.

    The levels are independent, so they run largest first in up to two
    forked worker processes, no more than the CPUs this process may use.
    With one worker, or when this process runs other threads (a fork could
    copy a lock one of them holds), they run in this process.  A worker
    takes the benchmark (which holds closures) from the memo of
    ``benchmarks.by_name``, which ``run_sweep`` filled before the fork,
    and sends back a ``LevelResult``, or the level's ``GhostBcError``; any
    other exception propagates.  The workers are joined before this returns.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    level = functools.partial(_sweep_level, cfg)
    largest_first = cfg.sweep[::-1]  # a sweep is strictly increasing
    if min(2, cpus, len(cfg.sweep)) == 1 or threading.active_count() > 1:
        outcomes = list(map(level, largest_first))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # forked workers start with this process's imports and logging set-up;
        # a forkserver or spawned worker would import the pipeline again
        # (Python 3.11's forkserver drops a sys.path added at run time)
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            outcomes = list(pool.map(level, largest_first))
    return outcomes[::-1]


def run_sweep(cfg: RunConfig) -> ConvergenceSeries:
    """Execute all sweep levels; failures are recorded and skipped in the fit."""
    bench = cfg.make_benchmark()
    failures: list[dict] = []
    levels: list[LevelResult] = []
    for n, outcome in zip(cfg.sweep, _sweep_levels(cfg)):
        if isinstance(outcome, GhostBcError):
            logger.warning("level n=%d failed: %s", n, outcome)
            failures.append({"n": n, "error": type(outcome).__name__, "message": str(outcome)})
        else:
            levels.append(outcome)
    series = ConvergenceSeries([level.errors for level in levels])

    orders: dict[str, float] | None = None
    fit_warning = None
    try:
        orders = series.fitted_orders()
    except DegenerateFit as exc:
        fit_warning = str(exc)
        logger.warning("order fit skipped: %s", fit_warning)

    if cfg.out:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["n,h,l1,linf,grad_l1,grad_linf"]
        for rep in series.levels:
            lines.append(
                ",".join([str(rep.n), _fmt(rep.h)] + [_fmt(getattr(rep, norm)) for norm in NORM_NAMES])
            )
        _write_atomic(out / "convergence.csv", "\n".join(lines) + "\n")

        payload = {
            "config": cfg.echo(),
            "benchmark": bench.name,
            "levels_used": [rep.n for rep in series.levels],
            "failures": failures,
            "orders": orders,
            "fit_warning": fit_warning,
        }
        if orders is not None:
            payload["pairwise_orders"] = {
                norm: list(series.pairwise_orders(norm)) for norm in NORM_NAMES
            }
        _write_json(out / "orders.json", payload)
        _write_json(out / "timings.json", {"seconds": {str(level.n): level.timings for level in levels}})

        for norm in NORM_NAMES:
            rows = [
                f"{_fmt(np.log10(rep.h))} {_fmt(np.log10(getattr(rep, norm)))}"
                for rep in series.levels
                if getattr(rep, norm) > 0.0
            ]
            _write_atomic(out / f"plot_{norm}.dat", "\n".join(rows) + "\n")

        if cfg.export_diagnostics:
            for level in levels:
                _write_ghost_csv(out / f"ghosts_n{level.n}.csv", level.rows, level.n_interior)
    return series


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghostbc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a single run or a convergence sweep")
    run.add_argument("--config", type=Path, help="JSON file with RunConfig fields")
    run.add_argument("--benchmark", help=f"one of {benchmarks.catalog_names()}")
    run.add_argument("--kappa", type=float, help="diffusion coefficient for 'convection'")
    run.add_argument("--u0", type=float, help="velocity amplitude for 'convection'")
    run.add_argument("--strategy", help="S1, S2, S3, S4.1, S4.2 or S4.3")
    run.add_argument("--p", dest="triangle_size", type=int, help="triangle size for S1-S3")
    run.add_argument("--theta", type=float, help="cone aperture in degrees")
    run.add_argument("--lambda-loc", dest="lambda_loc", type=float, help="local conditioning tolerance")
    run.add_argument("--lambda-glo", dest="lambda_glo", type=float, help="global conditioning tolerance")
    run.add_argument("--max-swaps", dest="max_swaps", type=int, help="S4.2 replacement iterations")
    run.add_argument("--order", type=int, help="polynomial order of the boundary operator")
    run.add_argument("--n", type=int, help="grid cells per side for a single run")
    run.add_argument("--sweep", help="'paper13' or a comma-separated grid list")
    run.add_argument("--out", help="output directory")
    run.add_argument("--export-matrix", action="store_true", default=None)
    run.add_argument("--export-diagnostics", action="store_true", default=None,
                     help="write each sweep level's ghost table to ghosts_n<n>.csv")
    run.add_argument("--inject-exact", action="store_true", default=None,
                     help="skip the solve and inject the analytic solution")
    run.add_argument("--log-level", default="WARNING")
    return parser


def _parse_sweep(text: str) -> list[int]:
    if text in SWEEP_PRESETS:
        return list(SWEEP_PRESETS[text])
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep spec {text!r}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values with command-line overrides."""
    data: dict = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    known = [f.name for f in dataclasses.fields(RunConfig)]
    for key in known:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = _parse_sweep(value) if key == "sweep" else value
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return RunConfig(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    try:
        cfg = build_config(args)
        if cfg.sweep:
            series = run_sweep(cfg)
            if not series.levels:
                raise GhostBcError("every sweep level failed")
            summary = {
                "levels": [rep.n for rep in series.levels],
                "last_errors": series.levels[-1].values(),
            }
            print(json.dumps(summary, sort_keys=True))
        else:
            result = run_single(cfg)
            print(json.dumps(
                {"n": result.n, "residual": result.residual, "errors": result.errors.values()},
                sort_keys=True,
            ))
    except (ConfigError, UnknownDomain) as exc:
        _report_error(exc, args.out)
        return 2
    except GhostBcError as exc:
        _report_error(exc, args.out)
        return 1
    return 0


def _report_error(exc: GhostBcError, out: str | None) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if out:
        try:
            path = Path(out)
            path.mkdir(parents=True, exist_ok=True)
            _write_json(path / "error.json", record)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
