import dataclasses
import math
import re

import numpy as np
import pytest

import ghostbc as g
from ghostbc.benchmarks import (
    R_INNER,
    R_OUTER,
    by_name,
    catalog_names,
    peclet_numbers,
)
from ghostbc.errors import UnknownDomain

# frozen with 30-digit evaluation of R2*log(r/R1) at r = 0.6
SOLP_AT_06 = 0.254519091905483073
# frozen with 30-digit evaluation of -(R2-R1)/(log R2 - log R1)
CASE2_R0 = -0.633720382563368089


class TestAnnulusHomogeneous:
    def setup_method(self):
        self.bench = g.annulus_homogeneous()

    def test_zero_on_inner_circle(self):
        assert abs(float(self.bench.solution(R_INNER, 0.0))) <= 1e-15

    def test_value_at_r06(self):
        assert float(self.bench.solution(0.6, 0.0)) == pytest.approx(SOLP_AT_06, abs=1e-14)

    def test_unit_radial_derivative_on_outer_circle(self):
        gx, gy = self.bench.solution_gradient(R_OUTER, 0.0)
        assert float(gx) == pytest.approx(1.0, abs=1e-14)
        assert float(gy) == pytest.approx(0.0, abs=1e-14)

    def test_robin_dispatch_by_radius(self):
        # one batch holding a point of each circle, with its outward normal
        direction = np.array([math.cos(0.3), math.sin(0.3)])
        robin = self.bench.coefficients.robin(
            np.array([R_INNER * direction, R_OUTER * direction]), np.array([-direction, direction])
        )
        assert robin.dirichlet.tolist() == [1.0, 0.0]
        assert robin.neumann.tolist() == [0.0, 1.0]
        assert robin.value.tolist() == [0.0, 1.0]


class TestComplexDomains:
    def test_source_at_reference_point(self):
        bench = g.complex_domain("flower")
        got = float(bench.coefficients.source(math.pi / 4.0, math.pi / 10.0))
        assert got == pytest.approx(29.0, rel=1e-14)

    def test_leaf_level_set_at_first_center(self):
        bench = g.complex_domain("leaf")
        c = 0.25 * math.cos(math.pi / 4.0)
        d_centers = math.hypot(2 * c, 2 * c)
        expected = max(-0.7, d_centers - 0.7)
        assert float(bench.level_set.evaluate(-c, -c)) == pytest.approx(expected, abs=1e-14)

    def test_hourglass_saddle_point(self):
        bench = g.complex_domain("hourglass")
        x0, y0 = 0.03 * math.sqrt(3.0), 0.04 * math.sqrt(2.0)
        assert float(bench.level_set.evaluate(x0, y0)) == 0.0

    def test_dirichlet_neumann_split(self):
        bench = g.complex_domain("leaf")
        points = np.array([[0.3, 0.57], [-0.3, 0.57]])
        normals = np.array([[0.6, 0.8], [0.6, 0.8]])
        robin = bench.coefficients.robin(points, normals)
        assert robin.dirichlet.tolist() == [1.0, 0.0] and robin.neumann.tolist() == [0.0, 1.0]

    def test_level_set_gradients_match_finite_differences(self, rng):
        eps = 1e-6
        for name in ("leaf", "flower", "hourglass"):
            ls = g.complex_domain(name).level_set
            for _ in range(40):
                x, y = rng.uniform(-0.8, 0.8, size=2)
                gx, gy = ls.gradient(x, y)
                fx = (float(ls.evaluate(x + eps, y)) - float(ls.evaluate(x - eps, y))) / (2 * eps)
                fy = (float(ls.evaluate(x, y + eps)) - float(ls.evaluate(x, y - eps))) / (2 * eps)
                scale = max(1.0, abs(fx), abs(fy))
                # max() level sets are non-smooth on a measure-zero set; skip near switches
                if name == "leaf":
                    d1 = math.hypot(x + 0.1767766953, y + 0.1767766953)
                    d2 = math.hypot(x - 0.1767766953, y - 0.1767766953)
                    if abs(d1 - d2) < 1e-3:
                        continue
                assert abs(float(gx) - fx) <= 2e-7 * scale
                assert abs(float(gy) - fy) <= 2e-7 * scale

    def test_unknown_domain(self):
        with pytest.raises(UnknownDomain):
            g.complex_domain("pretzel")
        with pytest.raises(UnknownDomain):
            by_name("no-such-benchmark")


class TestConvectionDiffusion:
    def test_case2_constant(self):
        bench = g.convection_diffusion(1.0, 0.0)
        assert bench.info["case"] == 2
        # recover r0 from the solution: phi(r) = -(r + r0 log r)/kappa + C
        r1, r2 = 0.5, 0.7
        phi1, phi2 = float(bench.solution(r1, 0.0)), float(bench.solution(r2, 0.0))
        r0 = -((phi1 - phi2) + (r1 - r2)) / (math.log(r1) - math.log(r2))
        assert r0 == pytest.approx(CASE2_R0, abs=1e-12)

    def test_case3_boundary_zeros(self):
        bench = g.convection_diffusion(1.0, 1.0)
        assert bench.info["case"] == 3
        assert abs(float(bench.solution(R_INNER, 0.0))) <= 1e-12
        assert abs(float(bench.solution(0.0, R_OUTER))) <= 1e-12

    def test_case1_boundary_zeros(self):
        bench = g.convection_diffusion(2.0, 1.0)
        assert bench.info["case"] == 1
        assert abs(float(bench.solution(R_INNER, 0.0))) <= 1e-12
        assert abs(float(bench.solution(R_OUTER, 0.0))) <= 1e-12

    def test_case1_pde_residual_with_fd_oracle(self, rng):
        # independent check: radial FD Laplacian of the analytic solution
        bench = g.convection_diffusion(2.0, 1.0)
        kappa, u0 = 2.0, 1.0
        eps = 1e-3  # fourth-order differences: truncation and round-off balance near here
        for r in rng.uniform(R_INNER + 0.02, R_OUTER - 0.02, size=100):
            phi = lambda s: float(bench.solution(s, 0.0))
            d1 = (phi(r - 2 * eps) - 8 * phi(r - eps) + 8 * phi(r + eps) - phi(r + 2 * eps)) / (12 * eps)
            d2 = (-phi(r - 2 * eps) + 16 * phi(r - eps) - 30 * phi(r) + 16 * phi(r + eps) - phi(r + 2 * eps)) / (
                12 * eps**2
            )
            residual = -kappa * (d2 + d1 / r) + u0 * d1 / r - 1.0 / r
            assert abs(residual) <= 1e-8

    def test_velocity_field(self):
        bench = g.convection_diffusion(1.0, 10.0)
        u, v = bench.coefficients.velocity(0.5, 0.0)
        assert float(u) == pytest.approx(10.0 / 0.5, rel=1e-14)
        assert float(v) == 0.0

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            g.convection_diffusion(0.0, 1.0)


class TestPeclet:
    def test_benchmark_one(self):
        bench = g.convection_diffusion(1.0, 10.0)
        pe, pe_loc = peclet_numbers(bench, g.Grid(160))
        assert pe == pytest.approx(8.6602540378443865, rel=1e-12)
        assert pe_loc == pytest.approx(10.0 * (2.0 / 160.0), rel=1e-14)
        assert bench.info["nominal_pe"] == 8.0

    def test_benchmark_two_nominal(self):
        bench = g.convection_diffusion(1.0, 25.0)
        pe, _ = peclet_numbers(bench, g.Grid(160))
        assert pe == pytest.approx(21.650635094610966, rel=1e-12)
        assert bench.info["nominal_pe"] == 20.0

    def test_pure_diffusion_gives_zero(self):
        bench = g.convection_diffusion(1.0, 0.0)
        pe, pe_loc = peclet_numbers(bench, g.Grid(160))
        assert pe == 0.0 and pe_loc == 0.0

    def test_non_convection_benchmark_rejected(self):
        with pytest.raises(ValueError):
            peclet_numbers(g.annulus_homogeneous(), g.Grid(160))


def test_catalog_self_checks():
    for name in catalog_names():
        if name == "convection":
            bench = by_name(name, kappa=1.5, u0=3.0)
        else:
            bench = by_name(name)
        bench.self_check()


def test_builds_are_remembered_and_refusals_are_not():
    cfg = g.RunConfig(benchmark="flower")
    assert cfg.make_benchmark() is cfg.make_benchmark()
    for _ in range(2):
        with pytest.raises(UnknownDomain, match="needs kappa and u0"):
            by_name("convection")
        with pytest.raises(ValueError, match="diffusion coefficient must be positive"):
            by_name("convection", kappa=0.0, u0=1.0)


@pytest.mark.parametrize("name", catalog_names())
def test_self_check_refuses_data_off_the_solution(name):
    # construction checks every catalog problem, so a wrong datum in a
    # factory (a flipped Neumann sign, say) raises here before the wrapping
    bench = by_name(name, kappa=1.5, u0=3.0)
    coeffs = bench.coefficients

    def robin(points, normals):
        data = coeffs.robin(points, normals)
        return g.RobinData(data.dirichlet, data.neumann, data.value + 1e-6)

    def source(x, y):
        return coeffs.source(x, y) + 1e-6

    def gradient(x, y):
        gx, gy = bench.solution_gradient(x, y)
        return gx, gy + 1e-6

    for off, what in (
        (dataclasses.replace(bench, coefficients=dataclasses.replace(coeffs, robin=robin)), "Robin"),
        (dataclasses.replace(bench, coefficients=dataclasses.replace(coeffs, source=source)), "PDE"),
        (dataclasses.replace(bench, solution_gradient=gradient), "gradient"),
    ):
        with pytest.raises(ValueError, match=rf"benchmark '{re.escape(bench.name)}': {what} residual"):
            off.self_check()


def test_robin_data_normal_is_unit(annulus_bench, annulus_160):
    # the Robin data is enforced along the collars' normals
    grid, classification = annulus_160
    normals = g.collars_for_ghosts(classification.ghost_ij[::97], grid, annulus_bench.level_set).normal
    assert np.hypot(*normals.T) == pytest.approx(np.ones(len(normals)), abs=1e-12)


@pytest.mark.parametrize("name", catalog_names())
def test_robin_rule_on_a_level_equals_the_rule_per_row(name):
    # a phase's right-hand sides and a level's row data come from one call
    # of the rule, so each row must get the bits of a call of its own
    bench = by_name(name, kappa=1.5, u0=3.0)
    grid = g.Grid(64)
    collars = g.collars_for_ghosts(g.classify_nodes(grid, bench.level_set).ghost_ij, grid, bench.level_set)
    points, normals = collars.point, collars.normal
    level = bench.coefficients.robin(points, normals)
    assert len(collars) > 100 and level.value.shape == (len(collars),)
    for field in ("dirichlet", "neumann", "value"):
        alone = [getattr(bench.coefficients.robin(points[k:k + 1], normals[k:k + 1]), field)
                 for k in range(len(collars))]
        assert np.concatenate(alone).tobytes() == np.asarray(getattr(level, field), dtype=float).tobytes()
