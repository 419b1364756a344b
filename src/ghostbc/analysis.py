"""Error norms, gradient reconstruction, convergence fits and stencil stats."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import DERIVATIVE_WEIGHTS, GhostRows
from .errors import DegenerateFit
from .geometry import NodeClassification

NORM_NAMES = ("l1", "linf", "grad_l1", "grad_linf")


@dataclass
class ErrorReport:
    """Solution and gradient errors over the interior nodes.

    L1 norms are relative (normalized by the analytic magnitudes), L-infinity
    norms absolute.  ``l1_absolute`` flags a vanishing normalization, in
    which case ``l1`` holds the plain sum instead.
    """

    l1: float
    linf: float
    grad_l1: float
    grad_linf: float
    n: int
    h: float
    l1_absolute: bool = False

    def values(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in NORM_NAMES}


def reconstruct_gradient(solution: np.ndarray, classification: NodeClassification) -> np.ndarray:
    """Fourth-order centred gradient of the discrete solution.

    Returns an (n_interior, 2) array.  Ghost values participate through the
    active-node numbering, which is what makes the reconstruction fourth
    order up to the boundary.
    """
    cross = classification.cross()
    return np.column_stack([  # the centre's weight is zero
        sum(DERIVATIVE_WEIGHTS[slot] * solution[cross[:, axis, slot]] for slot in (0, 1, 3, 4)) / classification.grid.h
        for axis in (0, 1)
    ])


def compute_errors(
    solution: np.ndarray,
    benchmark,
    classification: NodeClassification,
) -> ErrorReport:
    """Error norms of a discrete solution against the benchmark's analytic one."""
    grid = classification.grid
    interior = classification.interior_ij
    x, y = grid.coords(interior[:, 0], interior[:, 1])
    exact = np.asarray(benchmark.solution(x, y), dtype=float)
    numeric = solution[: classification.n_interior]
    diff = np.abs(numeric - exact)

    norm = np.abs(exact).sum()
    l1_absolute = bool(norm == 0.0)
    l1 = diff.sum() / (norm if norm > 0.0 else 1.0)

    gx, gy = benchmark.solution_gradient(x, y)
    grad_exact = np.column_stack([np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)])
    grad_numeric = reconstruct_gradient(solution, classification)
    grad_diff = np.linalg.norm(grad_numeric - grad_exact, axis=1)
    grad_norm = np.linalg.norm(grad_exact, axis=1).sum()
    grad_l1 = grad_diff.sum() / (grad_norm if grad_norm > 0.0 else 1.0)

    return ErrorReport(
        l1=float(l1),
        linf=float(diff.max()),
        grad_l1=float(grad_l1),
        grad_linf=float(grad_diff.max()),
        n=grid.n,
        h=grid.h,
        l1_absolute=l1_absolute,
    )


@dataclass
class ConvergenceSeries:
    """Errors across grid levels plus fitted convergence orders; each report carries its n and h."""

    levels: list[ErrorReport] = field(default_factory=list)

    def errors(self, norm: str) -> np.ndarray:
        return np.array([getattr(rep, norm) for rep in self.levels])

    @property
    def spacings(self) -> np.ndarray:
        return np.array([rep.h for rep in self.levels])

    def fitted_orders(self) -> dict[str, float]:
        return {norm: fit_order(self.spacings, self.errors(norm)) for norm in NORM_NAMES}

    def pairwise_orders(self, norm: str) -> np.ndarray:
        h = self.spacings
        e = self.errors(norm)
        return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])


def fit_order(spacings, errors) -> float:
    """Least-squares slope of log(error) against log(h).

    Raises:
        DegenerateFit: fewer than 3 levels, non-positive errors, or
            coincident spacings.
    """
    h = np.asarray(spacings, dtype=float)
    e = np.asarray(errors, dtype=float)
    if len(h) < 3:
        raise DegenerateFit(f"need at least 3 levels for a fit, got {len(h)}")
    if np.any(e <= 0.0):
        raise DegenerateFit("errors must be positive for a log-log fit")
    if len(np.unique(h)) != len(h):
        raise DegenerateFit("grid spacings must be distinct")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)


@dataclass
class StencilDiagnostics:
    """Aggregated per-ghost stencil statistics for one run."""

    sizes: np.ndarray
    diameters: np.ndarray
    log10_chi: np.ndarray
    log10_ratio: np.ndarray  # finite entries only; zero ratios counted separately
    n_zero_ratio: int

    @property
    def n_ghosts(self) -> int:
        return len(self.sizes)

    def size_histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.sizes, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    @staticmethod
    def _box(values: np.ndarray) -> dict[str, float]:
        if len(values) == 0:
            return {k: float("nan") for k in ("min", "q1", "median", "q3", "max")}
        q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
        return {
            "min": float(values.min()),
            "q1": float(q1),
            "median": float(med),
            "q3": float(q3),
            "max": float(values.max()),
        }

    def summary(self) -> dict:
        return {
            "n_ghosts": self.n_ghosts,
            "sizes": self.size_histogram(),
            "diameter": self._box(self.diameters),
            "log10_chi": self._box(self.log10_chi),
            "log10_ratio": self._box(self.log10_ratio),
            "n_zero_ratio": self.n_zero_ratio,
        }


def _diameters(rows: GhostRows) -> np.ndarray:
    """Each row's largest distance between two members, in grid spacings.

    One integer pass over the rows of each stencil size; the squared
    distances are exact integers, so each diameter is one rounding of a
    square root.
    """
    diameters = np.zeros(len(rows))
    starts = np.cumsum(rows.sizes) - rows.sizes
    for size in np.unique(rows.sizes).tolist():
        ks = np.flatnonzero(rows.sizes == size)
        ij = rows.member_ij[starts[ks, None] + np.arange(size)]
        d2 = sum((c[:, :, None] - c[:, None, :]) ** 2 for c in ij.transpose(2, 0, 1))
        diameters[ks] = np.sqrt(d2.max(axis=(1, 2)))
    return diameters


def stencil_diagnostics(rows: GhostRows) -> StencilDiagnostics:
    """Collect size, diameter and conditioning statistics from ghost rows."""
    chi, ratios = rows.chi, rows.r_ratio
    positive = ratios > 0.0
    return StencilDiagnostics(
        sizes=rows.sizes,
        diameters=_diameters(rows),
        log10_chi=np.log10(chi[np.isfinite(chi) & (chi > 0.0)]),
        log10_ratio=np.log10(ratios[positive & np.isfinite(ratios)]),
        n_zero_ratio=int((~positive).sum()),
    )
