import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.spatial.distance import cdist

from sobnat import linalg
from sobnat.data import gen_two_moons, normalize
from sobnat.errors import DegenerateGram, DimensionMismatch, NotPositiveDefinite, UnsupportedOrder
from sobnat.kernel import (
    EXACT_CONSTANT,
    SOLVE_BLOCK,
    KernelSpec,
    _profile_in_place,
    dimension_constant,
    gram,
    kernel_matrix,
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

    @pytest.mark.parametrize("spec", [SPEC_1D, KernelSpec(input_dim=2)])
    def test_in_place_table_is_point_kernel_of_a_copy(self, spec):
        # kernel_matrix evaluates the profile in its own cdist table;
        # point_kernel leaves the caller's distances alone.  Both keep the
        # bits of (C e^{-r}) (1 + r).
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(7, spec.input_dim)), rng.normal(size=(5, spec.input_dim))
        r = cdist(x, y)
        before = r.copy()
        values = point_kernel(r, spec)
        assert np.array_equal(r, before)
        assert np.array_equal(values, spec.constant * np.exp(-r) * (1.0 + r))
        assert np.array_equal(kernel_matrix(x, y, spec), values)

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("input_scale", 0.0),
            ("input_scale", -1.0),
            ("input_scale", np.inf),
            ("input_scale", np.nan),
            ("jitter", -1e-8),
            ("jitter", np.inf),
            ("jitter", np.nan),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            KernelSpec(input_dim=1, **{field: value})

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

    @pytest.mark.parametrize("jitter, tried", [(1e-8, [1e-8, 1e-7, 1e-6, 1e-5]), (0.0, [0.0])])
    def test_failed_escalation_names_the_last_jitter_tried(self, monkeypatch, jitter, tried):
        # A factor that always fails: the error names the last shift tried,
        # and a zero jitter, which tenfold stays zero, is tried only once.
        shifts = []

        def always_fails(a, shift=0.0, out=None):
            shifts.append(shift)
            raise NotPositiveDefinite("pivot in row 0 is not positive")

        monkeypatch.setattr(linalg, "cholesky_factor", always_fails)
        with pytest.raises(DegenerateGram, match=rf"\(final jitter {tried[-1]:.3g}\)$"):
            gram(np.array([[0.0], [1.0]]), KernelSpec(input_dim=1, jitter=jitter))
        np.testing.assert_allclose(shifts, tried, rtol=1e-12, atol=0)

    def test_duplicate_points_rescued_by_escalation(self):
        # Nearly identical points: the initial jitter fails but escalation
        # succeeds, and the stored kernel values stay jitter-free.
        spec = KernelSpec(input_dim=1, jitter=1e-16)
        g = gram(np.array([[1.0], [1.0 + 1e-13]]), spec)
        assert g.jitter > spec.jitter
        assert np.all(np.diag(g.values) == g.d0)

    @pytest.mark.parametrize("batch, dim", [(500, 2), (7, 3)])
    def test_values_bitwise_symmetric_with_exact_diagonal(self, batch, dim):
        pts = np.random.default_rng(batch).normal(size=(batch, dim)) / 20.0
        g = gram(pts, KernelSpec(input_dim=dim))
        assert np.array_equal(g.values, g.values.T)
        assert np.all(np.diag(g.values) == g.d0)

    @pytest.mark.parametrize("mode", ["unit_constant", EXACT_CONSTANT])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_d0_is_the_profile_at_zero(self, mode, dim):
        spec = KernelSpec(input_dim=dim, constant_mode=mode)
        g = gram(np.zeros((1, dim)), spec)
        assert g.d0 == point_kernel(0.0, spec) == g.values[0, 0]

    def test_non_finite_point_raises_without_jitter_escalation(self, factor_orders):
        pts = np.random.default_rng(2).normal(size=(6, 2)) / 20.0
        pts[4, 0] = np.nan
        with pytest.raises(DegenerateGram, match="row 4"):
            gram(pts, KernelSpec(input_dim=2))
        assert factor_orders == []

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

    def test_factor_twenty_makes_gram_nontrivial(self):
        # Normalized two-moons divided by 20 collapse to tiny distances, so
        # the Gram acquires large off-diagonal mass instead of reducing to
        # the identity.
        x = normalize(gen_two_moons(64, 0.1, seed=3)).features[:16]
        spec = KernelSpec(input_dim=2)
        g = gram(x / 20.0, spec)
        off = g.values - np.diag(np.diag(g.values))
        assert np.max(np.abs(off)) / g.d0 > 0.5
        # Unscaled, the same batch is much closer to a diagonal Gram.
        g_raw = gram(x, spec)
        off_raw = g_raw.values - np.diag(np.diag(g_raw.values))
        assert np.max(np.abs(off_raw)) < np.max(np.abs(off))

    def test_huge_factor_collapses_to_all_ones(self):
        x = normalize(gen_two_moons(32, 0.1, seed=4)).features[:8]
        g = gram(x / 1e9, KernelSpec(input_dim=2))
        np.testing.assert_allclose(g.values, g.d0 * np.ones((8, 8)), atol=1e-6)


def test_kernel_matrix_rows_do_not_depend_on_the_batch():
    # Each entry is d of its own distance, so a one-point table is bitwise a
    # row of the batch table: every caller sees the same kernel values.
    rng = np.random.default_rng(6)
    xs, ys = rng.normal(size=(9, 2)), rng.normal(size=(5, 2))
    spec = KernelSpec(input_dim=2)
    table = kernel_matrix(xs, ys, spec)
    for i in range(9):
        assert np.array_equal(kernel_matrix(xs[i : i + 1], ys, spec)[0], table[i])
    expected = [[point_kernel(float(np.linalg.norm(x - y)), spec) for y in ys] for x in xs]
    np.testing.assert_allclose(table, expected, rtol=1e-15)


@pytest.mark.parametrize("shape", [(1, 20000), (3, 20000), (1, 50), (200, 200), (500, 500), (333, 70)])
def test_kernel_matrix_in_row_blocks_is_the_whole_table_profile(shape):
    # Below, at and above one PROFILE_BLOCK of entries (a single row wider
    # than a block is one block), and 333 rows, not a multiple of the 234
    # rows per block of a 70-column table: the same bits as one profile
    # evaluation over the whole distance table.
    rng = np.random.default_rng(shape[0])
    spec = KernelSpec(input_dim=2)
    x, y = rng.normal(size=(shape[0], 2)), rng.normal(size=(shape[1], 2))
    assert np.array_equal(kernel_matrix(x, y, spec), _profile_in_place(cdist(x, y), spec.constant))


class TestBlockedSolve:
    @staticmethod
    def batch_gram(batch, seed=0):
        # Unscaled points keep K well conditioned, so a 1e-12 bound checks
        # the order of the solve, not cond(K).
        return gram(np.random.default_rng(seed).normal(size=(batch, 2)), KernelSpec(input_dim=2))

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 130, 192, 193, 500])
    @pytest.mark.parametrize("columns", [1, 7, 300])
    def test_whiten_and_solve_match_scipy(self, batch, columns, monkeypatch):
        # whiten is one TRSM per SOLVE_BLOCK-point block of the factor, and
        # solve is K_j^-1 from the same factor; neither writes to b.
        g = self.batch_gram(batch)
        lower = g._factor[0]
        b = np.random.default_rng(batch + columns).normal(size=(batch, columns))
        before = b.copy()
        trsm, calls = scipy.linalg.blas.dtrsm, []

        def counting(*args, **kwargs):
            calls.append(1)
            return trsm(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(scipy.linalg.blas, "dtrsm", counting)
            got = g.whiten(b)
        assert len(calls) == -(-batch // SOLVE_BLOCK)
        expected = scipy.linalg.solve_triangular(lower, b, lower=True)
        assert np.array_equal(b, before) and not np.shares_memory(got, b)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
        # In place: the same values, written over b's own buffer.
        over = b.copy()
        in_place = g.whiten(over, overwrite_b=True)
        assert np.shares_memory(in_place, over) and np.array_equal(over, got)
        expected = scipy.linalg.cho_solve((lower, True), b)
        got = g.solve(b)
        assert np.array_equal(b, before) and not np.shares_memory(got, b)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("batch", [1, 50, SOLVE_BLOCK])
    def test_one_block_is_one_trsm(self, batch):
        g = self.batch_gram(batch, seed=2)
        b = np.random.default_rng(3).normal(size=(batch, 11))
        direct = scipy.linalg.blas.dtrsm(1.0, g._factor[0], b.T, side=1, lower=1, trans_a=1).T
        assert np.array_equal(g.whiten(b), direct)

    def test_in_place_over_a_fortran_b_solves_in_a_copy(self):
        # Only a C-ordered b can be solved in its own buffer; any other
        # layout is solved in a copy, and the result is still the solve.
        g = self.batch_gram(130, seed=4)
        b = np.asfortranarray(np.random.default_rng(5).normal(size=(130, 9)))
        expected = g.whiten(np.ascontiguousarray(b))
        np.testing.assert_allclose(g.whiten(b, overwrite_b=True), expected, rtol=0, atol=1e-12)
