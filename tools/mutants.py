"""Check that the tests notice each production contract being lost.

Each mutant is one textual change to a file under ``src/`` that switches a
contract off, and a named subset of the tests that should catch it.  For
every mutant the tool copies ``src/``, ``tests/`` and ``pyproject.toml`` to
a temporary directory, applies the change there, runs the subset with
pytest and prints one line:

    M1 caught: tests/test_assembly.py::TestSolve::test_refinement_that_misses_the_tolerance_raises

``caught`` names the tests that failed or errored; ``survived`` means the
subset passed with the contract gone; ``stale`` means the mutant's pattern is not
found exactly once, so the mutant no longer matches the code.  The
working tree is never changed.  Run from the repository root:

    python3 tools/mutants.py [M1 M2 ...]

Without arguments every mutant runs.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: name -> (what is switched off, file, pattern, replacement, test subset)
MUTANTS = {
    "M1": (
        "the solve's residual contract raises nothing",
        "src/ghostbc/assembly.py",
        "    if residual > SOLVE_TOLERANCE:\n        raise SolveFailed(",
        "    if False:\n        raise SolveFailed(",
        ["tests/test_assembly.py::TestSolve"],
    ),
    "M2": (
        "a row's constraint residual is not checked",
        "src/ghostbc/boundary_ops.py",
        "ok = residual <= RESIDUAL_TOLERANCE",
        "ok = np.isfinite(residual)",
        ["tests/test_boundary_ops.py"],
    ),
    "M3": (
        "a ghost row may reference an inactive node",
        "src/ghostbc/assembly.py",
        "    if (cols_g < 0).any():",
        "    if False:",
        ["tests/test_assembly.py"],
    ),
    "M4": (
        "no S1/S2 band closure",
        "src/ghostbc/stencils.py",
        'if strategy.kind not in ("S1", "S2"):',
        "if True:",
        ["tests/test_stencils.py"],
    ),
    "M5": (
        "no rank test in the constrained solve",
        "src/ghostbc/boundary_ops.py",
        "(s[:, -1] >= RANK_TOLERANCE * s[:, 0]) & ",
        "",
        ["tests/test_boundary_ops.py"],
    ),
    "M6": (
        "the solve never refines",
        "src/ghostbc/assembly.py",
        "MAX_REFINEMENTS = 3",
        "MAX_REFINEMENTS = 0",
        ["tests/test_acceptance.py::test_criterion_2_annulus_convergence"],
    ),
    "M7": (
        "the rank screen passes every trial to the solve",
        "src/ghostbc/boundary_ops.py",
        "return np.array([self._structural[key] for key in keys], dtype=bool)",
        "return np.zeros(len(keys), dtype=bool)",
        ["tests/test_stencils.py", "tests/test_boundary_ops.py"],
    ),
    "M8": (
        "a triangle with fewer members than constraints is not refused",
        "src/ghostbc/stencils.py",
        "if self.kind in TRIANGLE_KINDS and members < space_dimension(self.order):",
        "if False:",
        ["tests/test_cli.py::TestMain::test_triangle_with_too_few_members_exits_2"],
    ),
    "M9": (
        "a cone level raises its last failing ghost's error, not its first",
        "src/ghostbc/stencils.py",
        "failed = next((k for k, error in enumerate(errors) if error is not None), len(errors))",
        "failed = max((k for k, error in enumerate(errors) if error is not None), default=len(errors))",
        ["tests/test_boundary_ops.py::TestLockstepLevel::test_first_failing_ghost_raises"],
    ),
    "M10": (
        "a sweep that asks for a matrix is not refused",
        "src/ghostbc/cli.py",
        "            if self.export_matrix:\n                raise ConfigError(",
        "            if False:\n                raise ConfigError(",
        ["tests/test_cli.py::TestMain::test_export_matrix_refuses_a_sweep"],
    ),
    "M11": (
        "a negative lattice index wraps to the far edge",
        "src/ghostbc/geometry.py",
        "inside = (i >= 0) & (i <= n) & (j >= 0) & (j <= n)",
        "inside = (i <= n) & (j <= n)",
        ["tests/test_geometry.py::TestClassifyNodes", "tests/test_assembly.py::TestGhostRow"],
    ),
    "M12": (
        "RobinData accepts a point where both coefficients vanish, unless every point's do",
        "src/ghostbc/basis.py",
        "if np.any((np.asarray(self.dirichlet) == 0.0) & (np.asarray(self.neumann) == 0.0)):",
        "if np.all((np.asarray(self.dirichlet) == 0.0) & (np.asarray(self.neumann) == 0.0)):",
        ["tests/test_basis.py::TestBoundaryAction::test_robin_coefficients_must_not_vanish"],
    ),
    "M13": (
        "a ghost on the boundary aims along its outward normal",
        "src/ghostbc/stencils.py",
        "return np.where((np.sqrt(np.vecdot(d, d)) > 1e-12)[:, None], d, -collars.normal)",
        "return np.where((np.sqrt(np.vecdot(d, d)) > 1e-12)[:, None], d, collars.normal)",
        ["tests/test_geometry.py::TestProjection::test_zero_displacement_direction_uses_normal"],
    ),
    "M14": (
        "the complex domains' Neumann datum has the wrong sign",
        "src/ghostbc/benchmarks.py",
        "np.where(dirichlet, solution(x, y), gx * normals[:, 0] + gy * normals[:, 1])",
        "np.where(dirichlet, solution(x, y), -(gx * normals[:, 0] + gy * normals[:, 1]))",
        ["tests/test_benchmarks.py::test_self_check_refuses_data_off_the_solution"],
    ),
    "M15": (
        "the complex domains' analytic x-derivative is off by 10%",
        "src/ghostbc/benchmarks.py",
        "return (2.0 * np.cos(2.0 * x) * np.sin(5.0 * y),",
        "return (2.2 * np.cos(2.0 * x) * np.sin(5.0 * y),",
        ["tests/test_benchmarks.py"],
    ),
    "M16": (
        "an interior cross may reference an inactive node",
        "src/ghostbc/geometry.py",
        "            if index.min() < 0:",
        "            if False:",
        ["tests/test_assembly.py::TestAssemble::test_missing_neighbor_detected"],
    ),
    "M17": (
        "a NaN conditioning tolerance is accepted",
        "src/ghostbc/stencils.py",
        "if not (self.lambda_loc > 0.0 and self.lambda_glo > 0.0):",
        "if self.lambda_loc <= 0.0 or self.lambda_glo <= 0.0:",
        ["tests/test_stencils.py::TestStrategyValidation", "tests/test_cli.py::TestMain::test_nan_tolerance_exits_2"],
    ),
    "M18": (
        "a JSON boolean passes for a number",
        "src/ghostbc/cli.py",
        ' or (isinstance(value, bool) and kind != "bool")',
        "",
        ["tests/test_cli.py::TestMain::test_mistyped_config_value_exits_2"],
    ),
}


def run(name: str) -> str:
    """Apply mutant ``name`` to a copy of the tree, run its tests and return the outcome line."""
    _, path, pattern, replacement, tests = MUTANTS[name]
    source = (ROOT / path).read_text()
    if source.count(pattern) != 1:
        return f"{name} stale: {path} holds its pattern {source.count(pattern)} times"
    with tempfile.TemporaryDirectory(prefix="ghostbc-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / path).write_text(source.replace(pattern, replacement))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if result.returncode == 0:
        return f"{name} survived"
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", result.stdout, flags=re.MULTILINE)
    if result.returncode != 1 or not failed:
        return f"{name} stale: pytest exited {result.returncode} without failing tests"
    return f"{name} caught: {' '.join(failed)}"


def main(argv: list[str]) -> None:
    for name in argv or MUTANTS:
        print(f"{run(name)}  ({MUTANTS[name][0]})", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
