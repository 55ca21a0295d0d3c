import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sobnat.errors import DimensionMismatch, NotPositiveDefinite
from sobnat.linalg import FactorBuffers, cholesky_factor, cholesky_solve


def laplace_det(m):
    """Brute-force determinant by recursive cofactor expansion."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * laplace_det(minor)
    return total


def adjugate_inverse(m):
    """Explicit inverse via the adjugate, independent of any solver."""
    n = m.shape[0]
    cof = np.zeros_like(m)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1.0) ** (i + j) * laplace_det(minor)
    return cof.T / laplace_det(m)


def random_spd(rng, n, cond=100.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.logspace(0, -np.log10(cond), n)
    return q @ np.diag(eigs) @ q.T


class TestCholeskySolve:
    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(cholesky_solve(np.eye(3), b), b)

    def test_diagonal_scaling(self):
        x = cholesky_solve(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [0.5, 0.5])

    def test_matches_adjugate_inverse(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a = random_spd(rng, 6)
            b = rng.normal(size=(6, 2))
            expected = adjugate_inverse(a) @ b
            np.testing.assert_allclose(cholesky_solve(a, b), expected, atol=1e-9)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite, match="row 1"):
            cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_nan_pivot_raises_with_its_row(self):
        # LAPACK's potrf passes a NaN pivot through without an error code.
        a = np.eye(3)
        a[1, 1] = np.nan
        with pytest.raises(NotPositiveDefinite, match="row 1"):
            cholesky_factor(a)

    def test_rhs_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cholesky_solve(np.eye(3), np.ones(4))

    def test_roundtrip_conditioned(self):
        # Recover x from a x at condition numbers up to 1e6.
        rng = np.random.default_rng(7)
        for cond in (1e2, 1e4, 1e6):
            a = random_spd(rng, 8, cond=cond)
            x = rng.normal(size=8)
            got = cholesky_solve(a, a @ x)
            assert np.linalg.norm(got - x) / np.linalg.norm(x) <= 1e-9

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 10, cond=1e4)
        b = rng.normal(size=(10, 3))
        x = cholesky_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


class TestCholeskyFactor:
    @staticmethod
    def gram_of(rng, n):
        m = rng.normal(size=(n, n + 3))
        return m @ m.T  # a syrk product: bitwise symmetric

    @pytest.mark.parametrize("n", [1, 3, 17, 354, 500])
    def test_shift_factors_the_shifted_copy(self, n):
        # The factor of a + s*I equals LAPACK's factor of that matrix, formed
        # apart, bit for bit, and a is left as it was.
        a = self.gram_of(np.random.default_rng(n), n)
        before = a.copy()
        for s in (0.0, 0.03, 1e-8):
            shifted = a.copy()
            shifted[np.diag_indices(n)] += s
            expected, info = scipy.linalg.lapack.dpotrf(shifted, lower=1, clean=0)
            assert info == 0
            got = cholesky_factor(a, s)
            np.testing.assert_array_equal(np.tril(got), np.tril(expected))
            np.testing.assert_array_equal(a, before)

    def test_bad_pivot_names_the_row_of_the_shifted_matrix(self):
        a = self.gram_of(np.random.default_rng(0), 17)
        a[9, 9] = -1.0
        shifted = a.copy()
        shifted[np.diag_indices(17)] += 0.5
        info = scipy.linalg.lapack.dpotrf(shifted, lower=1)[1]
        assert info > 0
        with pytest.raises(NotPositiveDefinite, match=f"row {info - 1} "):
            cholesky_factor(a, 0.5)
        # A shift large enough makes the same matrix positive definite.
        assert np.all(np.diagonal(cholesky_factor(a, 1e3)) > 0)

    def test_factors_in_one_copy(self):
        a = self.gram_of(np.random.default_rng(1), 500)
        tracemalloc.start()
        try:
            factor = cholesky_factor(a, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One 500 x 500 array plus small bookkeeping; no second, transposed copy.
        assert factor.nbytes <= peak <= a.nbytes + 65536


    @pytest.mark.parametrize("n", [1, 17, 500])
    def test_out_holds_the_same_factor(self, n):
        # Factored into a given buffer, the factor is the fresh copy's bit
        # for bit, lives in that buffer, and a is left as it was.
        a = self.gram_of(np.random.default_rng(n), n)
        before = a.copy()
        buf = np.full((n, n), np.nan)
        for s in (0.0, 0.03):
            got = cholesky_factor(a, s, out=buf)
            assert np.shares_memory(got, buf)
            np.testing.assert_array_equal(got, cholesky_factor(a, s))
            np.testing.assert_array_equal(a, before)

    @pytest.mark.parametrize("n", [1, 17, 100])
    @pytest.mark.parametrize("use_out", [False, True])
    def test_reads_only_the_upper_triangle(self, n, use_out):
        # Callers may pass a matrix that is symmetric only to rounding (the
        # kernel-space S): finite junk in the strict lower triangle changes
        # no bit of the factor of the matrix a's upper triangle defines.
        rng = np.random.default_rng(n)
        upper = np.triu(self.gram_of(rng, n))
        symmetric = upper + np.triu(upper, 1).T
        a = upper + np.tril(rng.normal(scale=1e3, size=(n, n)), -1)
        out = np.empty((n, n)) if use_out else None
        for s in (0.0, 0.03):
            got = cholesky_factor(a, s, out=out)
            np.testing.assert_array_equal(np.tril(got), np.tril(cholesky_factor(symmetric, s)))

    def test_out_of_another_shape_or_layout_is_refused(self):
        a = self.gram_of(np.random.default_rng(2), 4)
        for buf in (np.empty((5, 5)), np.empty((4, 4), order="F"), np.empty((4, 4), np.float32)):
            with pytest.raises(DimensionMismatch):
                cholesky_factor(a, out=buf)


class TestFactorBuffers:
    def test_kept_per_key_and_remade_when_the_order_changes(self):
        buffers = FactorBuffers()
        first = buffers.get("gram", 5)
        assert first.shape == (5, 5) and first.flags.c_contiguous
        assert buffers.get("gram", 5) is first
        assert buffers.get("metric", 5) is not first
        assert buffers.get("gram", 3).shape == (3, 3)
        assert buffers.get("gram", 5) is not first

