"""Benchmark catalog: level sets, coefficients and analytic solutions.

Each benchmark bundles a level set, the PDE coefficients (including the
Robin boundary rule) and the closed-form solution with its gradient and
Laplacian, so convergence studies can measure true errors and every
instance can self-check that its analytic solution actually satisfies the
PDE and the boundary conditions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import ProblemCoefficients
from .basis import RobinData
from .errors import UnknownDomain
from .geometry import Grid, LevelSet, axis_projection, classify_nodes

#: Annulus radii shared by several benchmarks.
R_INNER = math.sqrt(5.0) / 5.0
R_OUTER = math.sqrt(3.0) / 2.0

_SELF_CHECK_SEED = 20260810
_SELF_CHECK_SAMPLES = 100
_SELF_CHECK_TOL = 1e-8
_SELF_CHECK_GRID = 16
_SELF_CHECK_STEP = 1e-4


@dataclass(frozen=True)
class Benchmark:
    """A fully specified problem with known analytic solution."""

    name: str
    level_set: LevelSet
    coefficients: ProblemCoefficients
    solution: Callable
    solution_gradient: Callable
    solution_laplacian: Callable
    info: dict = field(default_factory=dict)

    def pde_residual(self, x, y):
        """Pointwise residual of the analytic solution in the PDE."""
        lap = self.solution_laplacian(x, y)
        gx, gy = self.solution_gradient(x, y)
        u, v = self.coefficients.velocity(x, y)
        f = self.coefficients.source(x, y)
        return -self.coefficients.diffusion * lap + u * gx + v * gy - f

    def self_check(self) -> None:
        """Check the analytic solution against its gradient and the PDE inside, and the Robin data on the boundary.

        The interior checks take the first ``_SELF_CHECK_SAMPLES`` of uniform
        draws from [-1, 1]^2 that fall inside the domain (the smallest
        catalog domain holds 21% of the box, so ten times as many draws
        suffice).  There ``solution_gradient`` is compared, relative to
        ``max(1, |grad u|)``, with fourth-order central differences of
        ``solution`` (the complex domains' PDE residual and Neumann datum
        cannot tell a wrong gradient), then the PDE residual is taken.  The
        Robin residual ``a_D u + a_N du/dn - g``, relative to
        ``max(1, |g|)``, is taken at the axis projections of the ghosts of a
        ``Grid(_SELF_CHECK_GRID)`` level: points on the boundary to
        ``PROJECTION_TOLERANCE``, with their outward normals.  Raises
        ``ValueError`` where a residual exceeds ``_SELF_CHECK_TOL`` or is not
        a number.
        """
        xy = np.random.default_rng(_SELF_CHECK_SEED).uniform(-1.0, 1.0, size=(10 * _SELF_CHECK_SAMPLES, 2))
        xy = xy[np.asarray(self.level_set.evaluate(xy[:, 0], xy[:, 1])) < 0.0][:_SELF_CHECK_SAMPLES]
        if len(xy) < _SELF_CHECK_SAMPLES:
            raise RuntimeError(f"could not sample interior points of '{self.name}'")
        x, y = xy[:, 0], xy[:, 1]

        def central(dx, dy):  # of the solution along (dx, dy)
            u = [self.solution(x + s * dx, y + s * dy) for s in (-2, -1, 1, 2)]
            return (u[0] - 8.0 * u[1] + 8.0 * u[2] - u[3]) / (12.0 * _SELF_CHECK_STEP)

        gx, gy = self.solution_gradient(x, y)
        error = np.hypot(central(_SELF_CHECK_STEP, 0.0) - gx, central(0.0, _SELF_CHECK_STEP) - gy)
        self._refuse("gradient", error / np.maximum(1.0, np.hypot(gx, gy)), xy)
        self._refuse("PDE", self.pde_residual(x, y), xy)

        grid = Grid(_SELF_CHECK_GRID)
        ghost_ij = classify_nodes(grid, self.level_set).ghost_ij
        collars, failures = axis_projection(np.column_stack(grid.coords(*ghost_ij.T)), self.level_set, grid.h)
        if failures:
            raise next(iter(failures.values()))
        p, n = collars.point, collars.normal
        robin = self.coefficients.robin(p, n)
        gx, gy = self.solution_gradient(p[:, 0], p[:, 1])
        value = robin.dirichlet * self.solution(p[:, 0], p[:, 1]) + robin.neumann * (gx * n[:, 0] + gy * n[:, 1])
        self._refuse("Robin", (value - robin.value) / np.maximum(1.0, np.abs(robin.value)), p)

    def _refuse(self, what: str, residual, points: np.ndarray) -> None:
        """``ValueError`` naming the first of ``points`` whose ``residual`` exceeds the tolerance or is NaN."""
        bad = np.flatnonzero(~(np.abs(residual) <= _SELF_CHECK_TOL))
        if len(bad):
            k = bad[0]
            x, y = points[k]
            raise ValueError(f"benchmark '{self.name}': {what} residual {residual[k]:.3e} at ({x:.4f}, {y:.4f})")


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------

def annulus_level_set(r_inner: float = R_INNER, r_outer: float = R_OUTER) -> LevelSet:
    """Single field covering both annulus boundaries: max(R1 - r, r - R2)."""

    def evaluate(x, y):
        r = np.hypot(x, y)
        return np.maximum(r_inner - r, r - r_outer)

    def gradient(x, y):
        r = np.hypot(x, y)
        safe = np.where(r > 0.0, r, 1.0)
        sign = np.where(r <= 0.5 * (r_inner + r_outer), -1.0, 1.0)
        return sign * x / safe, sign * y / safe

    return LevelSet("annulus", evaluate, gradient)


def leaf_level_set() -> LevelSet:
    """Intersection of two discs of radius 0.7, rotated by 45 degrees."""
    offset = 0.25 * math.cos(math.pi / 4.0)
    centers = ((-offset, -offset), (offset, offset))
    r0 = 0.7

    def evaluate(x, y):
        d1 = np.hypot(x - centers[0][0], y - centers[0][1]) - r0
        d2 = np.hypot(x - centers[1][0], y - centers[1][1]) - r0
        return np.maximum(d1, d2)

    def gradient(x, y):
        d1 = np.hypot(x - centers[0][0], y - centers[0][1])
        d2 = np.hypot(x - centers[1][0], y - centers[1][1])
        use_first = (d1 - r0) >= (d2 - r0)
        cx = np.where(use_first, centers[0][0], centers[1][0])
        cy = np.where(use_first, centers[0][1], centers[1][1])
        dx, dy = x - cx, y - cy
        r = np.hypot(dx, dy)
        r = np.where(r > 0.0, r, 1.0)
        return dx / r, dy / r

    return LevelSet("leaf", evaluate, gradient)


def flower_level_set() -> LevelSet:
    """Five-petal flower: R - 0.5 - (Y^5 + 5X^4Y - 10X^2Y^3) / (5R^5)."""
    x0 = 0.03 * math.sqrt(3.0)
    y0 = 0.04 * math.sqrt(2.0)

    # Powers of X and Y are np.float_power: on a numpy scalar ``X**k`` is
    # libm pow, on an array a SIMD pow that rounds differently in a few
    # percent of values, and the LevelSet contract needs the two to agree.
    # ``r`` and ``safe`` are arrays either way (np.where), so their ``**``
    # already takes the same path for scalars and arrays.
    pw = np.float_power

    def evaluate(x, y):
        X, Y = np.asarray(x) - x0, np.asarray(y) - y0
        r = np.hypot(X, Y)
        safe = np.where(r > 0.0, r, 1.0)
        t = pw(Y, 5) + 5.0 * pw(X, 4) * Y - 10.0 * pw(X, 2) * pw(Y, 3)
        value = r - 0.5 - t / (5.0 * safe**5)
        return np.where(r > 0.0, value, -0.5)

    def gradient(x, y):
        X, Y = np.asarray(x) - x0, np.asarray(y) - y0
        r = np.hypot(X, Y)
        r = np.where(r > 0.0, r, 1.0)
        t = pw(Y, 5) + 5.0 * pw(X, 4) * Y - 10.0 * pw(X, 2) * pw(Y, 3)
        tx = 20.0 * pw(X, 3) * Y - 20.0 * X * pw(Y, 3)
        ty = 5.0 * pw(Y, 4) + 5.0 * pw(X, 4) - 30.0 * pw(X, 2) * pw(Y, 2)
        gx = X / r - tx / (5.0 * r**5) + t * X / r**7
        gy = Y / r - ty / (5.0 * r**5) + t * Y / r**7
        return gx, gy

    return LevelSet("flower", evaluate, gradient)


def hourglass_level_set() -> LevelSet:
    """Quartic with a saddle point on the boundary: two lobes joined at a pinch."""
    x0 = 0.03 * math.sqrt(3.0)
    y0 = 0.04 * math.sqrt(2.0)

    pw = np.float_power  # scalar and array calls must agree; see flower_level_set

    def evaluate(x, y):
        X, Y = np.asarray(x) - x0, np.asarray(y) - y0
        return 256.0 * pw(Y, 4) - 16.0 * pw(X, 4) - 128.0 * pw(Y, 2) + 36.0 * pw(X, 2)

    def gradient(x, y):
        X, Y = np.asarray(x) - x0, np.asarray(y) - y0
        return -64.0 * pw(X, 3) + 72.0 * X, 1024.0 * pw(Y, 3) - 256.0 * Y

    return LevelSet("hourglass", evaluate, gradient)


# ---------------------------------------------------------------------------
# Annulus benchmarks
# ---------------------------------------------------------------------------

def _annulus_robin(inner: Callable, outer: Callable):
    """Robin rule taking ``inner`` on the inner circle and ``outer`` on the outer one, by radius.

    Each maps collar points and normals, (K, 2) each, to (a_D, a_N, g) as
    scalars or (K,) arrays.
    """
    mid = 0.5 * (R_INNER + R_OUTER)

    def robin(points: np.ndarray, normals: np.ndarray) -> RobinData:
        on_inner = np.hypot(points[:, 0], points[:, 1]) < mid
        return RobinData(*(np.where(on_inner, a, b) for a, b in zip(inner(points, normals), outer(points, normals))))

    return robin


def annulus_homogeneous() -> Benchmark:
    """Laplace problem on the annulus: phi = 0 inside, dphi/dn = 1 outside.

    Exact solution ``R2 * log(r / R1)``.
    """

    def solution(x, y):
        r = np.hypot(x, y)
        return R_OUTER * np.log(r / R_INNER)

    def solution_gradient(x, y):
        r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        return R_OUTER * x / r2, R_OUTER * y / r2

    def solution_laplacian(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    robin = _annulus_robin(inner=lambda p, n: (1.0, 0.0, 0.0), outer=lambda p, n: (0.0, 1.0, 1.0))
    coeffs = ProblemCoefficients(
        diffusion=1.0,
        velocity=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),
                               np.zeros_like(np.asarray(y, dtype=float))),
        source=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        robin=robin,
    )
    bench = Benchmark(
        "annulus", annulus_level_set(), coeffs,
        solution, solution_gradient, solution_laplacian,
    )
    bench.self_check()
    return bench


def _quartic():
    """A fixed generic quartic with all total degrees represented."""

    def q(x, y):
        return (x**4 + 2.0 * x**3 * y - 3.0 * x**2 * y**2 + x * y**3 + y**4
                + x**2 - x * y + y + 1.0)

    def grad(x, y):
        gx = 4.0 * x**3 + 6.0 * x**2 * y - 6.0 * x * y**2 + y**3 + 2.0 * x - y
        gy = 2.0 * x**3 - 6.0 * x**2 * y + 3.0 * x * y**2 + 4.0 * y**3 - x + 1.0
        return gx, gy

    def lap(x, y):
        return 6.0 * x**2 + 18.0 * x * y + 6.0 * y**2 + 2.0

    return q, grad, lap


def annulus_quartic() -> Benchmark:
    """Manufactured quartic on the annulus with convection U = (1, 1).

    Dirichlet data on the inner circle, Neumann on the outer one.  The
    interior scheme and the boundary operator are both exact on quartics,
    so the discrete solution reproduces the polynomial to solver precision.
    """
    q, q_grad, q_lap = _quartic()

    def source(x, y):
        gx, gy = q_grad(x, y)
        return -q_lap(x, y) + gx + gy

    def inner(p, n):
        return 1.0, 0.0, q(p[:, 0], p[:, 1])

    def outer(p, n):
        gx, gy = q_grad(p[:, 0], p[:, 1])
        return 0.0, 1.0, gx * n[:, 0] + gy * n[:, 1]

    coeffs = ProblemCoefficients(
        diffusion=1.0,
        velocity=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                               np.ones_like(np.asarray(y, dtype=float))),
        source=source,
        robin=_annulus_robin(inner, outer),
    )
    bench = Benchmark(
        "annulus-quartic", annulus_level_set(), coeffs, q, q_grad, q_lap,
    )
    bench.self_check()
    return bench


# ---------------------------------------------------------------------------
# Complex domains with the manufactured sine solution
# ---------------------------------------------------------------------------

_COMPLEX_DOMAINS = {
    "leaf": leaf_level_set,
    "flower": flower_level_set,
    "hourglass": hourglass_level_set,
}


def complex_domain(name: str) -> Benchmark:
    """Poisson problem with solution sin(2x) sin(5y) on a complex domain.

    Dirichlet data where the collar has x >= 0, Neumann elsewhere.
    """
    if name not in _COMPLEX_DOMAINS:
        raise UnknownDomain(f"unknown complex domain {name!r}; pick one of {sorted(_COMPLEX_DOMAINS)}")
    level_set = _COMPLEX_DOMAINS[name]()

    def solution(x, y):
        return np.sin(2.0 * x) * np.sin(5.0 * y)

    def solution_gradient(x, y):
        return (2.0 * np.cos(2.0 * x) * np.sin(5.0 * y),
                5.0 * np.sin(2.0 * x) * np.cos(5.0 * y))

    def solution_laplacian(x, y):
        return -29.0 * solution(x, y)

    def robin(points: np.ndarray, normals: np.ndarray) -> RobinData:
        x, y = points[:, 0], points[:, 1]
        gx, gy = solution_gradient(x, y)
        dirichlet = x >= 0.0
        return RobinData(
            np.where(dirichlet, 1.0, 0.0),
            np.where(dirichlet, 0.0, 1.0),
            np.where(dirichlet, solution(x, y), gx * normals[:, 0] + gy * normals[:, 1]),
        )

    coeffs = ProblemCoefficients(
        diffusion=1.0,
        velocity=lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),
                               np.zeros_like(np.asarray(y, dtype=float))),
        source=lambda x, y: 29.0 * solution(x, y),
        robin=robin,
    )
    bench = Benchmark(name, level_set, coeffs, solution, solution_gradient, solution_laplacian)
    bench.self_check()
    return bench


# ---------------------------------------------------------------------------
# Convection-diffusion on the annulus
# ---------------------------------------------------------------------------

def _radial_solution(kappa: float, u0: float):
    """Closed-form radial solution of -kappa*Lap(phi) + U.grad(phi) = 1/r.

    Homogeneous Dirichlet conditions on both circles select the constants.
    Returns (phi, dphi/dr, d2phi/dr2) as functions of the radius.
    """
    r1, r2 = R_INNER, R_OUTER
    if u0 == 0.0:
        r0 = -(r2 - r1) / (math.log(r2) - math.log(r1))
        c = (r1 + r0 * math.log(r1)) / kappa

        def phi(r):
            return -(r + r0 * np.log(r)) / kappa + c

        def dphi(r):
            return -(1.0 + r0 / r) / kappa

        def d2phi(r):
            return r0 / (kappa * r**2)

        case = 2
    elif u0 == kappa:
        r0 = -r1 * r2 * (math.log(r2) - math.log(r1)) / (r2 - r1)
        c = (r2 * math.log(r2) - r1 * math.log(r1)) / (kappa * (r2 - r1))

        def phi(r):
            return -(r * np.log(r) - r0) / kappa + c * r

        def dphi(r):
            return -(np.log(r) + 1.0) / kappa + c

        def d2phi(r):
            return -1.0 / (kappa * r)

        case = 3
    else:
        beta = u0 / kappa
        try:
            p1, p2 = r1**beta, r2**beta
        except OverflowError as exc:
            raise ValueError(f"no closed form for u0/kappa = {beta:g}: r**beta overflows") from exc
        denom = p2 - p1
        if denom == 0.0:
            raise ValueError(f"no closed form for u0/kappa = {beta:g}: r2**beta - r1**beta is zero")
        r0 = u0 / (kappa - u0) * (r1 * p2 - r2 * p1) / denom
        c = (r2 - r1) / ((kappa - u0) * denom)
        for name, value in (("r0", r0), ("c", c)):
            if not math.isfinite(value):
                raise ValueError(
                    f"no closed form for u0/kappa = {beta:g}: its constant {name} = {value:g} is not finite"
                )

        def phi(r):
            return r / (u0 - kappa) + r0 / u0 + c * np.power(r, beta)

        def dphi(r):
            return 1.0 / (u0 - kappa) + c * beta * np.power(r, beta - 1.0)

        def d2phi(r):
            return c * beta * (beta - 1.0) * np.power(r, beta - 2.0)

        case = 1
    return phi, dphi, d2phi, case


def convection_diffusion(kappa: float, u0: float) -> Benchmark:
    """Radial convection-diffusion on the annulus with source 1/r.

    Velocity ``(u0/r^2) * (x, y)`` and homogeneous Dirichlet conditions on
    both circles; the closed form depends on whether ``u0`` is zero, equal
    to ``kappa``, or neither.
    """
    if kappa <= 0.0:
        raise ValueError(f"diffusion coefficient must be positive, got {kappa}")
    phi_r, dphi_r, d2phi_r, case = _radial_solution(kappa, u0)

    def solution(x, y):
        return phi_r(np.hypot(x, y))

    def solution_gradient(x, y):
        r = np.hypot(x, y)
        d = dphi_r(r) / r
        return d * x, d * y

    def solution_laplacian(x, y):
        r = np.hypot(x, y)
        return d2phi_r(r) + dphi_r(r) / r

    def velocity(x, y):
        r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        return u0 * x / r2, u0 * y / r2

    def source(x, y):
        return 1.0 / np.hypot(x, y)

    coeffs = ProblemCoefficients(
        diffusion=kappa,
        velocity=velocity,
        source=source,
        robin=_annulus_robin(inner=lambda p, n: (1.0, 0.0, 0.0), outer=lambda p, n: (1.0, 0.0, 0.0)),
    )
    nominal = {(1.0, 10.0): 8.0, (1.0, 25.0): 20.0}.get((kappa, u0))
    bench = Benchmark(
        f"convection(kappa={kappa:g},u0={u0:g})",
        annulus_level_set(), coeffs, solution, solution_gradient, solution_laplacian,
        info={"kappa": kappa, "u0": u0, "case": case, "nominal_pe": nominal},
    )
    bench.self_check()
    return bench


def peclet_numbers(benchmark: Benchmark, grid: Grid) -> tuple[float, float]:
    """Global and cell Peclet numbers of a convection-diffusion benchmark."""
    if "u0" not in benchmark.info:
        raise ValueError(f"benchmark '{benchmark.name}' is not a convection-diffusion instance")
    u0 = benchmark.info["u0"]
    kappa = benchmark.info["kappa"]
    return u0 * R_OUTER / kappa, u0 * grid.h / kappa


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

_CASE_PRESETS = {
    "conv-case1": (2.0, 1.0),
    "conv-case2": (1.0, 0.0),
    "conv-case3": (1.0, 1.0),
    "conv-bl1": (1.0, 10.0),
    "conv-bl2": (1.0, 25.0),
}


@functools.cache
def by_name(name: str, kappa: float | None = None, u0: float | None = None) -> Benchmark:
    """Benchmark lookup used by the CLI.

    Each benchmark is built and self-checked once per process and
    arguments; later calls return the same frozen ``Benchmark``, so a
    sweep's forked workers use the build their parent made before the fork.
    A refused build is not remembered: it raises again on every call.

    Raises:
        UnknownDomain: the name is not in the catalog.
    """
    if name == "annulus":
        return annulus_homogeneous()
    if name == "annulus-quartic":
        return annulus_quartic()
    if name in _COMPLEX_DOMAINS:
        return complex_domain(name)
    if name in _CASE_PRESETS:
        return convection_diffusion(*_CASE_PRESETS[name])
    if name == "convection":
        if kappa is None or u0 is None:
            raise UnknownDomain("benchmark 'convection' needs kappa and u0")
        return convection_diffusion(kappa, u0)
    raise UnknownDomain(f"unknown benchmark {name!r}")


def catalog_names() -> list[str]:
    return ["annulus", "annulus-quartic", *sorted(_COMPLEX_DOMAINS), *sorted(_CASE_PRESETS), "convection"]
