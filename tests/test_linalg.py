import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sobnat.errors import DimensionMismatch, NotPositiveDefinite
from sobnat.linalg import cholesky_factor, cholesky_solve


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
        # LAPACK's potrf passes a NaN pivot through without an error code,
        # in a copy or in place.
        for in_place in (False, True):
            a = np.eye(3)
            a[1, 1] = np.nan
            with pytest.raises(NotPositiveDefinite, match="row 1"):
                cholesky_factor(a, 0.1, overwrite_a=in_place)

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


    @pytest.mark.parametrize("n", [1, 17, 100])
    def test_reads_only_the_upper_triangle(self, n):
        # Callers may pass a matrix that is symmetric only to rounding (the
        # kernel-space S): finite junk in the strict lower triangle changes
        # no bit of the factor of the matrix a's upper triangle defines.
        rng = np.random.default_rng(n)
        upper = np.triu(self.gram_of(rng, n))
        symmetric = upper + np.triu(upper, 1).T
        a = upper + np.tril(rng.normal(scale=1e3, size=(n, n)), -1)
        for s in (0.0, 0.03):
            got = cholesky_factor(a, s)
            np.testing.assert_array_equal(np.tril(got), np.tril(cholesky_factor(symmetric, s)))

    @pytest.mark.parametrize("n", [1, 2, 17, 64, 65, 500])
    def test_in_place_matches_the_copy_and_keeps_the_lower_triangle(self, n):
        # overwrite_a: the factor is the copying form's bit for bit, in a's own
        # buffer, and a's strict lower (C-order) triangle is never written,
        # here holding finite junk the factor must not read either.
        rng = np.random.default_rng(n)
        a = self.gram_of(rng, n)
        a[np.tril_indices(n, -1)] = rng.normal(scale=1e3, size=n * (n - 1) // 2)
        for s in (0.0, 0.03):
            copy = a.copy()
            expected = cholesky_factor(copy, s)
            lower = np.tril(copy, -1)
            got = cholesky_factor(copy, s, overwrite_a=True)
            assert np.shares_memory(got, copy)
            np.testing.assert_array_equal(np.tril(got), np.tril(expected))
            np.testing.assert_array_equal(np.tril(copy, -1), lower)

    def test_overwrite_a_copies_what_it_cannot_factor_in_place(self):
        # A Fortran-ordered or float32 a is factored in a C-ordered float64
        # copy, as without overwrite_a, and left as it was.
        a = self.gram_of(np.random.default_rng(2), 4)
        for other in (np.asfortranarray(a), a.astype(np.float32)):
            before = other.copy()
            got = cholesky_factor(other, 0.03, overwrite_a=True)
            assert not np.shares_memory(got, other)
            np.testing.assert_array_equal(got, cholesky_factor(other, 0.03))
            np.testing.assert_array_equal(other, before)
