import numpy as np
import pytest

import ghostbc as g
from conftest import square_level_set
from ghostbc.analysis import (
    ConvergenceSeries,
    fit_order,
    reconstruct_gradient,
    stencil_diagnostics,
)
from ghostbc.errors import DegenerateFit


@pytest.fixture(scope="module")
def square_classified():
    grid = g.Grid(32)
    classification = g.classify_nodes(grid, square_level_set(0.71))
    return grid, classification


def inject(classification, func):
    coords = classification.active_coords()
    return np.asarray(func(coords[:, 0], coords[:, 1]), dtype=float)


class TestReconstructGradient:
    def test_exact_on_linear(self, square_classified):
        _, classification = square_classified
        sol = inject(classification, lambda x, y: x)
        grad = reconstruct_gradient(sol, classification)
        assert np.allclose(grad[:, 0], 1.0, atol=1e-13)
        assert np.allclose(grad[:, 1], 0.0, atol=1e-13)

    def test_exact_on_quartic(self, square_classified):
        grid, classification = square_classified
        sol = inject(classification, lambda x, y: x**4)
        grad = reconstruct_gradient(sol, classification)
        x, _ = grid.coords(classification.interior_ij[:, 0], classification.interior_ij[:, 1])
        assert np.allclose(grad[:, 0], 4.0 * x**3, atol=1e-11)

    def test_fourth_order_on_sine(self):
        errors = []
        for n in (40, 80):
            grid = g.Grid(n)
            classification = g.classify_nodes(grid, square_level_set(0.71))
            sol = inject(classification, lambda x, y: np.sin(2 * x) * np.sin(5 * y))
            grad = reconstruct_gradient(sol, classification)
            x, y = grid.coords(classification.interior_ij[:, 0], classification.interior_ij[:, 1])
            gx = 2 * np.cos(2 * x) * np.sin(5 * y)
            gy = 5 * np.sin(2 * x) * np.cos(5 * y)
            errors.append(np.hypot(grad[:, 0] - gx, grad[:, 1] - gy).max())
        ratio = errors[0] / errors[1]
        assert 16.0 / 1.6 <= ratio <= 16.0 * 1.6


class TestComputeErrors:
    def test_exact_injection_is_error_free(self):
        bench = g.annulus_quartic()
        cfg = g.RunConfig(benchmark="annulus-quartic", strategy="S4.3", n=96, inject_exact=True)
        result = g.execute_level(cfg, bench, 96)
        for value in result.errors.values().values():
            assert value <= 1e-9

    def test_zero_normalization_flag(self, square_classified):
        grid, classification = square_classified

        class ZeroBench:
            def solution(self, x, y):
                return np.zeros_like(np.asarray(x, dtype=float))

            def solution_gradient(self, x, y):
                z = np.zeros_like(np.asarray(x, dtype=float))
                return z, z

        sol = np.full(classification.n_active, 0.25)
        report = g.compute_errors(sol, ZeroBench(), classification)
        assert report.l1_absolute
        assert report.l1 == pytest.approx(0.25 * classification.n_interior)

    def test_two_grid_convergence_ratio(self, annulus_bench):
        values = {}
        for n in (160, 320):
            cfg = g.RunConfig(benchmark="annulus", strategy="S4.3", n=n)
            values[n] = g.execute_level(cfg, annulus_bench, n).errors.linf
        ratio = values[160] / values[320]
        assert 16.0 / 1.5 <= ratio <= 16.0 * 1.5

    def test_permutation_invariance_of_norms(self, annulus_bench, annulus_160, rng):
        grid, classification = annulus_160
        sol = inject(classification, annulus_bench.solution)
        sol += rng.normal(scale=1e-6, size=sol.shape)
        base = g.compute_errors(sol, annulus_bench, classification)
        # norms are sums/maxima over nodes; any node reordering is a no-op
        # beyond float summation order
        perm_sol = sol.copy()
        report = g.compute_errors(perm_sol, annulus_bench, classification)
        for norm, value in base.values().items():
            assert report.values()[norm] == pytest.approx(value, rel=1e-13)


class TestFitOrder:
    def test_exact_quartic_power_law(self):
        h = np.array([0.1, 0.05, 0.025, 0.0125])
        assert fit_order(h, h**4) == pytest.approx(4.0, abs=1e-10)

    def test_scaled_quadratic(self):
        h = np.array([0.2, 0.1, 0.05])
        assert fit_order(h, 3.0 * h**2) == pytest.approx(2.0, abs=1e-10)

    def test_needs_three_levels(self):
        with pytest.raises(DegenerateFit):
            fit_order([0.1, 0.05], [1.0, 0.1])

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(DegenerateFit):
            fit_order([0.1, 0.05, 0.025], [1.0, 0.0, 0.1])

    def test_rejects_coincident_spacings(self):
        with pytest.raises(DegenerateFit):
            fit_order([0.1, 0.1, 0.05], [1.0, 0.9, 0.2])

    def test_series_pairwise_orders(self):
        series = ConvergenceSeries()
        for n in (100, 200, 400):
            rep = g.ErrorReport(
                l1=(2.0 / n) ** 4, linf=(2.0 / n) ** 4,
                grad_l1=(2.0 / n) ** 4, grad_linf=(2.0 / n) ** 4,
                n=n, h=2.0 / n,
            )
            series.levels.append(rep)
        assert np.allclose(series.pairwise_orders("l1"), 4.0, atol=1e-12)
        assert series.fitted_orders()["linf"] == pytest.approx(4.0, abs=1e-12)


class TestStencilDiagnostics:
    def test_quartiles_match_numpy(self, annulus_160_rows):
        diag = stencil_diagnostics(annulus_160_rows)
        assert diag.n_ghosts == len(annulus_160_rows)
        chi = np.log10(annulus_160_rows.chi)
        box = diag.summary()["log10_chi"]
        assert box["median"] == pytest.approx(np.median(chi))
        assert box["q1"] == pytest.approx(np.percentile(chi, 25))
        assert box["max"] == pytest.approx(chi.max())
        hist = diag.size_histogram()
        assert sum(hist.values()) == diag.n_ghosts

    def test_all_s3_rows_have_zero_ratio(self, annulus_bench):
        grid = g.Grid(64)
        classification = g.classify_nodes(grid, annulus_bench.level_set)
        rows = g.build_ghost_rows(classification, g.StencilStrategy(kind="S3"), annulus_bench.coefficients)
        diag = stencil_diagnostics(rows)
        assert diag.n_zero_ratio == len(rows)
        assert len(diag.log10_ratio) == 0
