import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostbc.basis import (
    RobinData,
    boundary_actions,
    enumerate_basis,
    monomial_matrix,
    space_dimension,
)


# Scalar reference of the basis: one monomial at one point, with numpy
# scalar powers (libm pow), exactly as the library computed it term by term.
def eval_monomial(alpha, xy, center, spacing):
    xi = (xy[0] - center[0]) / spacing
    eta = (xy[1] - center[1]) / spacing
    return float(xi ** alpha[0] * eta ** alpha[1])


def monomial_gradient(alpha, xy, center, spacing):
    ax, ay = alpha
    gx = ax / spacing * eval_monomial((ax - 1, ay), xy, center, spacing) if ax > 0 else 0.0
    gy = ay / spacing * eval_monomial((ax, ay - 1), xy, center, spacing) if ay > 0 else 0.0
    return np.array([gx, gy])


def boundary_action(alpha, point, normal, a_d, a_n, center, spacing):
    value = a_d * eval_monomial(alpha, point, center, spacing)
    if a_n != 0.0:
        value += a_n * float(monomial_gradient(alpha, point, center, spacing) @ normal)
    return value


def monomial(alpha, xy, center, spacing):
    return float(monomial_matrix([alpha], np.asarray(xy, dtype=float)[None, :], center, spacing)[0, 0])


def action(alphas, point, normal, a_d, a_n, center, spacing):
    """The boundary action at one collar point, a batch of one."""
    robin = RobinData(np.array([a_d]), np.array([a_n]), np.zeros(1))
    points, normals = (np.asarray(v, dtype=float)[None, :] for v in (point, normal))
    return boundary_actions(alphas, points, normals, robin, center, spacing)[0]


class TestEnumerateBasis:
    def test_order_two(self):
        assert enumerate_basis(2) == [(0, 0), (1, 0), (0, 1)]

    def test_order_five_has_fifteen(self):
        alphas = enumerate_basis(5)
        assert len(alphas) == 15 == space_dimension(5)
        assert len(set(alphas)) == 15
        assert max(a + b for a, b in alphas) == 4

    def test_order_three(self):
        alphas = enumerate_basis(3)
        assert len(alphas) == 6
        assert max(a + b for a, b in alphas) == 2

    def test_degree_then_x_descending(self):
        assert enumerate_basis(3) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            enumerate_basis(1)


class TestEvalMonomial:
    def setup_method(self):
        self.h = 0.1
        self.center = np.array([0.3, -0.2])

    def test_constant(self):
        assert monomial((0, 0), (1.7, 2.9), self.center, self.h) == 1.0

    def test_unit_offset(self):
        x = self.center + np.array([self.h, 0.0])
        assert monomial((1, 0), x, self.center, self.h) == pytest.approx(1.0, abs=1e-14)

    def test_mixed(self):
        x = self.center + np.array([2 * self.h, -self.h])
        assert monomial((2, 1), x, self.center, self.h) == pytest.approx(-4.0, abs=1e-12)

    def test_matrix_matches_scalar(self, rng):
        alphas = enumerate_basis(4)
        pts = rng.uniform(-1, 1, size=(7, 2))
        m = monomial_matrix(alphas, pts, self.center, self.h)
        for a, alpha in enumerate(alphas):
            for p, pt in enumerate(pts):
                assert m[a, p] == pytest.approx(eval_monomial(alpha, pt, self.center, self.h), rel=1e-13)

    def test_stack_equals_its_slices(self, rng):
        # one call for a stack of stencils, each with its own centre, gives
        # every stencil's matrix bit for bit
        alphas = enumerate_basis(5)
        centers = rng.uniform(-1, 1, size=(40, 2))
        pts = centers[:, None, :] + rng.uniform(-0.3, 0.3, size=(40, 17, 2))
        stacked = monomial_matrix(alphas, pts, centers, 0.05)
        assert stacked.shape == (40, 15, 17)
        for k in range(40):
            alone = monomial_matrix(alphas, pts[k], centers[k], 0.05)
            assert np.array_equal(stacked[k], alone)


class TestBoundaryAction:
    def setup_method(self):
        self.h = 0.05
        self.center = np.array([0.1, 0.2])

    def test_dirichlet_on_constant(self):
        assert action([(0, 0)], self.center + [0.01, 0.02], (1.0, 0.0), 1.0, 0.0, self.center, self.h)[0] == 1.0

    def test_neumann_on_linear(self):
        value = action([(1, 0)], self.center + [0.01, 0.0], (1.0, 0.0), 0.0, 1.0, self.center, self.h)[0]
        assert value == pytest.approx(1.0 / self.h)

    def test_mixed_on_quadratic(self):
        delta = 0.013
        normal = np.array([0.6, 0.8])
        expected = (delta / self.h) ** 2 + 2.0 * normal[0] * delta / self.h**2
        value = action([(2, 0)], self.center + [delta, 0.0], normal, 1.0, 1.0, self.center, self.h)[0]
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin"])
    def test_batch_equals_scalar_reference_bit_for_bit(self, kind, rng):
        # thousands of collars in one call against the scalar formula, one
        # monomial at a time; np.power in place of np.float_power breaks it
        k = 2000
        centers = rng.uniform(-1.0, 1.0, size=(k, 2))
        points = centers + rng.uniform(-2.0, 2.0, size=(k, 2)) * self.h
        angle = rng.uniform(0.0, 2.0 * np.pi, size=k)
        normals = np.column_stack([np.cos(angle), np.sin(angle)])
        a_d = {"dirichlet": 1.0, "neumann": 0.0, "robin": 1.0}[kind]
        a_n = {"dirichlet": 0.0, "neumann": 1.0, "robin": 0.37}[kind]
        robin = RobinData(np.full(k, a_d), np.full(k, a_n), np.zeros(k))
        alphas = enumerate_basis(5)
        batch = boundary_actions(alphas, points, normals, robin, centers, self.h)
        reference = np.array([
            [boundary_action(alpha, p, nrm, a_d, a_n, c, self.h) for alpha in alphas]
            for p, nrm, c in zip(points, normals, centers)
        ])
        assert batch.shape == (k, 15)
        assert np.array_equal(batch.view(np.int64), reference.view(np.int64))

    def test_robin_coefficients_must_not_vanish(self):
        for a_d, a_n in (
            ([0.0], [0.0]),
            ([1.0, 0.0, 0.5, 0.0], [0.0, 0.0, 1.0, 1.0]),  # one point of a batch
        ):
            with pytest.raises(ValueError, match="must not both vanish"):
                RobinData(np.array(a_d), np.array(a_n), np.zeros(len(a_d)))

    @pytest.mark.parametrize("a_d, a_n, g", [
        (1.0, 0.0, 0.0),  # scalars
        (np.ones(3), np.zeros(3), 0.0),  # a scalar value
        (np.ones(3), np.zeros(2), np.zeros(3)),
    ])
    def test_robin_data_must_be_arrays_of_one_length(self, a_d, a_n, g):
        with pytest.raises(ValueError, match=r"must be three \(K,\) arrays of one length"):
            RobinData(a_d, a_n, g)


class TestProperties:
    def test_gradient_matches_central_differences(self, rng):
        h, center = 0.07, np.array([0.4, -0.1])
        eps = 1e-6
        for alpha in enumerate_basis(5):
            for _ in range(3):
                x = center + rng.uniform(-0.3, 0.3, size=2)
                # the gradient is the pure-Neumann action along each axis
                gx, gy = (
                    action([alpha], x, nrm, 0.0, 1.0, center, h)[0]
                    for nrm in ((1.0, 0.0), (0.0, 1.0))
                )
                fd_x = (
                    monomial(alpha, x + [eps, 0.0], center, h)
                    - monomial(alpha, x - [eps, 0.0], center, h)
                ) / (2 * eps)
                fd_y = (
                    monomial(alpha, x + [0.0, eps], center, h)
                    - monomial(alpha, x - [0.0, eps], center, h)
                ) / (2 * eps)
                scale = max(1.0, abs(gx), abs(gy))
                assert abs(gx - fd_x) <= 1e-7 * scale
                assert abs(gy - fd_y) <= 1e-7 * scale

    def test_polynomial_reproduction(self, rng):
        # any quartic is reproduced exactly by its expansion in the scaled basis
        h, center = 0.05, np.array([-0.2, 0.3])
        alphas = enumerate_basis(5)
        coeffs = rng.standard_normal(len(alphas))

        def poly(x, y):
            return sum(
                c * (x - center[0]) ** ax * (y - center[1]) ** ay
                for c, (ax, ay) in zip(coeffs, alphas)
            )

        scaled_coeffs = np.array(
            [c * h ** (ax + ay) for c, (ax, ay) in zip(coeffs, alphas)]
        )
        pts = rng.uniform(-0.5, 0.5, size=(20, 2)) + center
        m = monomial_matrix(alphas, pts, center, h)
        reproduced = scaled_coeffs @ m
        expected = np.array([poly(x, y) for x, y in pts])
        assert np.allclose(reproduced, expected, rtol=1e-13, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(
        dx=st.floats(-3.0, 3.0, allow_nan=False),
        dy=st.floats(-3.0, 3.0, allow_nan=False),
        ax=st.integers(0, 4),
        ay=st.integers(0, 4),
    )
    def test_scaling_covariance(self, dx, dy, ax, ay):
        center = np.array([0.05, -0.35])
        h = 0.01
        offset = np.array([dx, dy]) * h
        v1 = monomial((ax, ay), center + offset, center, h)
        v2 = monomial((ax, ay), center + 2 * offset, center, 2 * h)
        assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)
