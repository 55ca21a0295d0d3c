import numpy as np
import pytest
import scipy.integrate

from sobnat.errors import DegenerateGram, DimensionMismatch, UnsupportedOrder
from sobnat.kernel import (
    EXACT_CONSTANT,
    KernelSpec,
    dimension_constant,
    gram,
    point_kernel,
)

SPEC_1D = KernelSpec(input_dim=1, constant_mode=EXACT_CONSTANT)


def fourier_kernel_1d(r):
    """Adaptive-quadrature inverse Fourier transform of (1 + xi^2)^-2."""
    val, _ = scipy.integrate.quad(
        lambda xi: np.cos(r * xi) / (1.0 + xi * xi) ** 2, -200.0, 200.0, limit=400
    )
    return val / (2.0 * np.pi)


class TestPointKernel:
    def test_d0_is_one_quarter(self):
        assert point_kernel(0.0, SPEC_1D) == 0.25

    def test_r_one(self):
        np.testing.assert_allclose(point_kernel(1.0, SPEC_1D), 2.0 * np.exp(-1.0) / 4.0)

    def test_monotone_decay_to_zero(self):
        rs = np.linspace(0.0, 40.0, 200)
        vals = point_kernel(rs, SPEC_1D)
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-12

    def test_odd_dimension_constant(self):
        assert dimension_constant(3) == pytest.approx(1.0 / (64.0 * np.pi**2), rel=1e-15)
        spec3 = KernelSpec(input_dim=3, constant_mode=EXACT_CONSTANT)
        assert point_kernel(0.0, spec3) == pytest.approx(1.0 / (64.0 * np.pi**2))

    def test_even_dimension_constant_positive(self):
        for n in (2, 4, 6):
            assert dimension_constant(n) > 0

    def test_unit_mode_default(self):
        spec = KernelSpec(input_dim=1)
        assert point_kernel(0.0, spec) == 1.0

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            KernelSpec(input_dim=1, sobolev_order=6, constant_mode=EXACT_CONSTANT)
        with pytest.raises(UnsupportedOrder):
            KernelSpec(input_dim=2, sobolev_order=4)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            point_kernel(-0.1, SPEC_1D)

    def test_matches_fourier_quadrature(self):
        for r in (0.0, 0.5, 1.0, 2.0, 5.0):
            assert abs(point_kernel(r, SPEC_1D) - fourier_kernel_1d(r)) <= 1e-6


class TestGram:
    def test_single_point(self):
        g = gram(np.array([[0.3]]), SPEC_1D)
        np.testing.assert_allclose(g.values, [[0.25]])

    def test_duplicate_points_zero_jitter(self):
        spec = KernelSpec(input_dim=1, jitter=0.0)
        with pytest.raises(DegenerateGram):
            gram(np.array([[1.0], [1.0]]), spec)

    def test_duplicate_points_rescued_by_escalation(self):
        # Nearly identical points: the initial jitter fails but escalation
        # succeeds, and the stored kernel values stay jitter-free.
        spec = KernelSpec(input_dim=1, jitter=1e-16)
        g = gram(np.array([[1.0], [1.0 + 1e-13]]), spec)
        assert g.jitter > spec.jitter
        np.testing.assert_allclose(np.diag(g.values), g.d0)

    def test_three_collinear_points_match_scalar_evaluation(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        g = gram(pts, SPEC_1D)
        expected = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                r = abs(pts[a, 0] - pts[b, 0])
                expected[a, b] = np.exp(-r) * (1.0 + r) / 4.0
        np.testing.assert_allclose(g.values, expected, atol=1e-15)
        # SPD via the characteristic polynomial of the 3x3: det(K - t I)
        # = -t^3 + c2 t^2 + c1 t + c0, roots all positive.
        k = g.values
        c2 = np.trace(k)
        c1 = -0.5 * (np.trace(k) ** 2 - np.trace(k @ k))
        c0 = (
            k[0, 0] * (k[1, 1] * k[2, 2] - k[1, 2] * k[2, 1])
            - k[0, 1] * (k[1, 0] * k[2, 2] - k[1, 2] * k[2, 0])
            + k[0, 2] * (k[1, 0] * k[2, 1] - k[1, 1] * k[2, 0])
        )
        roots = np.roots([-1.0, c2, c1, c0])
        assert np.all(np.abs(roots.imag) < 1e-12)
        assert np.all(roots.real > 0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(6, 2))
        spec = KernelSpec(input_dim=2)
        g = gram(pts, spec)
        perm = rng.permutation(6)
        g_perm = gram(pts[perm], spec)
        np.testing.assert_allclose(g_perm.values, g.values[np.ix_(perm, perm)], atol=1e-14)

    def test_spd_for_distinct_points(self):
        rng = np.random.default_rng(9)
        for batch in range(2, 9):
            pts = rng.normal(size=(batch, 3)) / 20.0
            g = gram(pts, KernelSpec(input_dim=3))
            assert np.min(np.linalg.eigvalsh(g.values)) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gram(np.ones((3, 2)), SPEC_1D)

    def test_scaled(self):
        rng = np.random.default_rng(1)
        g = gram(rng.normal(size=(4, 1)), SPEC_1D)
        g2 = g.scaled(3.0)
        np.testing.assert_allclose(g2.values, 3.0 * g.values)
        kinv = np.linalg.inv(g.values + g.jitter * g.d0 * np.eye(4))
        w = g2.whiten(np.eye(4))
        np.testing.assert_allclose(w.T @ w, kinv / 3.0, atol=1e-14)

    def test_whiten_gram_product_is_inverse_weighted(self):
        # whiten(b)^T whiten(c) == b^T (K + jitter d(0) I)^-1 c, the solve
        # done independently of the cached factor.
        rng = np.random.default_rng(4)
        g = gram(rng.normal(size=(7, 2)), KernelSpec(input_dim=2))
        b, c = rng.normal(size=(7, 3)), rng.normal(size=(7, 5))
        expected = b.T @ np.linalg.solve(g.values + g.jitter * g.d0 * np.eye(7), c)
        np.testing.assert_allclose(g.whiten(b).T @ g.whiten(c), expected, rtol=1e-10, atol=1e-12)
        # Vectors and Fortran-ordered matrices whiten like the columns of b.
        lower = np.linalg.cholesky(g.values + g.jitter * g.d0 * np.eye(7))
        for arr in (b[:, 1], np.asfortranarray(b)):
            np.testing.assert_allclose(lower @ g.whiten(arr), arr, rtol=1e-12, atol=1e-14)
