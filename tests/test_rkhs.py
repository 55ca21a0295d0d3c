import numpy as np
import pytest

from sobnat import rkhs
from sobnat.errors import DimensionMismatch, SingularProbeSet
from sobnat.kernel import EXACT_CONSTANT, PROFILE_BLOCK, KernelSpec, point_kernel
from sobnat.losses import SOFTMAX_CE, SQUARED, loss_grad_z
from sobnat.rkhs import (
    KernelExpansion,
    check_basis_orthonormality,
    evaluate_batch,
    functional_gd,
)

EXACT_1D = KernelSpec(input_dim=1, constant_mode=EXACT_CONSTANT)
UNIT_1D = KernelSpec(input_dim=1)


class TestEvaluate:
    def test_empty_expansion_is_zero(self):
        f = KernelExpansion(UNIT_1D, np.zeros((0, 1)), np.zeros((0, 3)))
        np.testing.assert_array_equal(evaluate_batch(f, [0.7]), np.zeros((1, 3)))

    def test_single_center_at_itself(self):
        v = np.array([2.0, -1.0])
        f = KernelExpansion(EXACT_1D, np.array([[0.4]]), v.reshape(1, -1))
        np.testing.assert_allclose(evaluate_batch(f, [0.4]), [v / 4.0])

    def test_two_centers_hand_sum(self):
        centers = np.array([[0.0], [1.5]])
        coeffs = np.array([[1.0], [-2.0]])
        f = KernelExpansion(EXACT_1D, centers, coeffs)
        x = np.array([0.6])
        expected = 0.0
        for t in range(2):
            r = abs(centers[t, 0] - x[0])
            expected += np.exp(-r) * (1 + r) / 4.0 * coeffs[t, 0]
        np.testing.assert_allclose(evaluate_batch(f, x), [[expected]])

    def test_batch_rows_match_single_point_evaluation(self):
        # Both take their kernel rows from kernel_matrix; they differ only in
        # BLAS rounding the matrix-matrix and the vector-matrix product.
        rng = np.random.default_rng(3)
        spec = KernelSpec(input_dim=2)
        f = KernelExpansion(spec, rng.normal(size=(12, 2)), rng.normal(size=(12, 2)))
        xs = rng.normal(size=(8, 2))
        batch = evaluate_batch(f, xs)
        assert batch.shape == (8, 2)
        for i in range(8):
            np.testing.assert_allclose(batch[i], evaluate_batch(f, xs[i])[0], rtol=0, atol=1e-14)
        # A point or a batch of the wrong width is named rather than failing
        # inside cdist.
        with pytest.raises(DimensionMismatch, match="dimension 3, spec.input_dim is 2"):
            evaluate_batch(f, np.ones(3))
        with pytest.raises(DimensionMismatch, match="dimension 1, spec.input_dim is 2"):
            evaluate_batch(f, np.ones((3, 1)))

    @pytest.mark.parametrize("n_centers", [3, 700, PROFILE_BLOCK + 5])
    def test_batch_tables_are_row_blocks_of_bounded_size(self, monkeypatch, n_centers):
        # Each kernel table holds at most max(PROFILE_BLOCK, T) entries, the
        # blocks cover every row once, and the values match one whole table.
        rng = np.random.default_rng(n_centers)
        f = KernelExpansion(UNIT_1D, rng.normal(size=(n_centers, 1)), rng.normal(size=(n_centers, 2)))
        xs = rng.normal(size=(100, 1))
        whole = rkhs.kernel_matrix(xs, f.centers, f.spec) @ f.coeffs
        shapes, table = [], rkhs.kernel_matrix

        def recording(x, y, spec):
            shapes.append((len(x), len(y)))
            return table(x, y, spec)

        monkeypatch.setattr(rkhs, "kernel_matrix", recording)
        got = evaluate_batch(f, xs)
        assert sum(rows for rows, _ in shapes) == len(xs)
        assert all(rows * t <= max(PROFILE_BLOCK, n_centers) for rows, t in shapes)
        assert np.max(np.abs(got - whole)) <= 1e-12 * np.max(np.abs(whole))


class TestFunctionalGD:
    def test_zero_steps(self):
        f = functional_gd(np.array([[0.0]]), np.array([1.0]), SQUARED, 0, 0.1, UNIT_1D)
        assert f.centers.shape[0] == 0
        np.testing.assert_array_equal(evaluate_batch(f, [0.0]), [[0.0]])

    def test_single_step_squared_loss(self):
        # From f0 = 0 the loss gradient at (x1, y1) is -y1, so one step gives
        # f1(x) = eta * d(|x1 - x|) * y1.
        x1, y1, eta = 0.5, 3.0, 0.05
        f = functional_gd(np.array([[x1]]), np.array([y1]), SQUARED, 1, eta, EXACT_1D)
        for x in (-1.0, 0.5, 2.0):
            r = abs(x - x1)
            np.testing.assert_allclose(
                evaluate_batch(f, [x]), [[eta * np.exp(-r) * (1 + r) / 4.0 * y1]]
            )

    def test_centers_are_visited_points(self):
        xs = np.linspace(0.0, 4.0, 5).reshape(-1, 1)
        ys = np.sin(xs[:, 0])
        f = functional_gd(xs, ys, SQUARED, 12, 0.1, UNIT_1D)
        assert f.centers.shape[0] == 12
        np.testing.assert_array_equal(f.centers[:5], xs)
        np.testing.assert_array_equal(f.centers[5:10], xs)

    def test_residual_nonincreasing_across_passes(self):
        xs = np.linspace(0.0, 4.0, 5).reshape(-1, 1)
        ys = np.array([0.0, 1.0, 0.5, -1.0, 2.0])
        residuals = []
        for passes in range(1, 11):
            f = functional_gd(xs, ys, SQUARED, 5 * passes, 0.2, UNIT_1D)
            preds = evaluate_batch(f, xs)[:, 0]
            residuals.append(float(np.sum((preds - ys) ** 2)))
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_full_batch_mode(self):
        xs = np.array([[0.0], [1.0]])
        ys = np.array([1.0, -1.0])
        f = functional_gd(xs, ys, SQUARED, 3, 0.1, UNIT_1D, mode="full_batch")
        assert f.centers.shape[0] == 6  # every step appends the whole batch

    def test_full_batch_centers_in_visit_order_2d(self):
        rng = np.random.default_rng(5)
        xs, ys = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        f = functional_gd(xs, ys, SQUARED, 3, 0.1, KernelSpec(input_dim=2), mode="full_batch")
        assert np.array_equal(f.centers, np.tile(xs, (3, 1)))
        assert f.coeffs.shape == (12, 2)
        # The first step starts from f_0 = 0: coefficients -eta * (0 - y).
        np.testing.assert_array_equal(f.coeffs[:4], 0.1 * ys)

    @pytest.mark.parametrize(
        "n_xs, width, n_ys, steps, label, error, match",
        [
            (40, 1, 30, 100, None, DimensionMismatch, "40 points but 30 targets"),
            (40, 1, 30, 10, None, DimensionMismatch, "40 points but 30 targets"),
            (40, 1, 50, 10, None, DimensionMismatch, "40 points but 50 targets"),
            (40, 2, 40, 10, None, DimensionMismatch, "dimension 2, spec.input_dim is 1"),
            (0, 1, 0, 3, None, DimensionMismatch, "3 steps over an empty set"),
            (40, 1, 40, -1, None, ValueError, "steps must be non-negative, got -1"),
            # A softmax-CE label must be a class index: -1 would pick the
            # last class and 1.5 be truncated to 1.
            (3, 1, 3, 6, -1.0, ValueError, "label -1 in row 1 is not a non-negative integer"),
            (3, 1, 3, 6, 1.5, ValueError, "label 1.5 in row 1 is not a non-negative integer"),
            (3, 1, 3, 6, np.nan, ValueError, "label nan in row 1 is not a non-negative integer"),
        ],
    )
    def test_malformed_input_rejected_before_any_step(self, n_xs, width, n_ys, steps, label, error, match):
        xs, ys = np.zeros((n_xs, width)), np.zeros(n_ys)
        loss = SQUARED
        if label is not None:
            ys[1], loss = label, SOFTMAX_CE
        with pytest.raises(error, match=match):
            functional_gd(xs, ys, loss, steps, 0.1, UNIT_1D)

    @pytest.mark.parametrize("steps", [5, 13, 130])  # steps < n, = n and >> n
    @pytest.mark.parametrize(
        "loss, m, mode, lr",
        [
            (SQUARED, 1, "cyclic", 0.3),
            (SQUARED, 2, "cyclic", lambda t: 0.5 / (1.0 + 0.1 * t)),
            (SOFTMAX_CE, 3, "cyclic", 0.4),
            (SQUARED, 1, "full_batch", lambda t: 0.05 / (1.0 + t)),
            (SQUARED, 2, "full_batch", 0.02),
            (SOFTMAX_CE, 3, "full_batch", 0.05),
        ],
    )
    def test_each_step_is_the_recursion_on_the_expansion_so_far(self, loss, m, mode, lr, steps):
        # c_t = -eta_t dL/dz(f_{t-1}(x_t), y_t), with f_{t-1} evaluated from
        # its own centers rather than from the cached rows of the data points.
        rng = np.random.default_rng(11)
        n, spec = 13, KernelSpec(input_dim=2)
        xs = rng.normal(size=(n, 2))
        ys = rng.integers(0, m, size=n) if loss == SOFTMAX_CE else rng.normal(size=(n, m))
        f = functional_gd(xs, ys, loss, steps, lr, spec, mode=mode)
        eta = lr if callable(lr) else (lambda t: lr)
        visits = 1 if mode == "cyclic" else n
        for t in range(steps):
            done, start = t * visits, (t * visits) % n
            before = KernelExpansion(spec, f.centers[:done], f.coeffs[:done])
            z = evaluate_batch(before, xs[start : start + visits])
            want = -eta(t) * loss_grad_z(z, ys[start : start + visits], loss)
            got = f.coeffs[done : done + visits]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def _record_tables(monkeypatch):
        shapes, kernel_matrix = [], rkhs.kernel_matrix

        def recording(x, y, spec):
            shapes.append((len(x), len(y)))
            return kernel_matrix(x, y, spec)

        monkeypatch.setattr(rkhs, "kernel_matrix", recording)
        return shapes

    def test_benchmark_inputs_take_one_table(self, monkeypatch):
        # 40 points, 800 cyclic steps: one 40 x 40 table, not one row per step.
        shapes = self._record_tables(monkeypatch)
        xs = np.linspace(-2.0, 2.0, 40).reshape(-1, 1)
        functional_gd(xs, np.sin(2.0 * xs), SQUARED, 800, 0.5, UNIT_1D)
        assert shapes == [(40, 40)]

    def test_no_table_exceeds_a_profile_block(self, monkeypatch):
        shapes = self._record_tables(monkeypatch)
        xs = np.linspace(-2.0, 2.0, 300).reshape(-1, 1)
        functional_gd(xs, np.sin(2.0 * xs), SQUARED, 1000, 0.5, UNIT_1D)
        assert shapes and max(rows * cols for rows, cols in shapes) <= PROFILE_BLOCK

    def test_first_pass_takes_only_the_points_seen(self, monkeypatch):
        # A step against every center so far takes sum_t t entries; all n
        # columns on every step would take 50 * 5000.
        shapes = self._record_tables(monkeypatch)
        xs = np.linspace(-2.0, 2.0, 5000).reshape(-1, 1)
        functional_gd(xs, np.sin(2.0 * xs), SQUARED, 50, 0.5, UNIT_1D)
        assert sum(rows * cols for rows, cols in shapes) <= 2 * sum(range(50))


class TestBasisOrthonormality:
    def test_single_constant_function(self):
        basis = [lambda x: np.array([3.7])]
        probes = np.array([[-1.0], [0.5], [2.0]])
        g = check_basis_orthonormality(basis, probes)
        np.testing.assert_allclose(g, [[1.0]], atol=1e-10)

    def test_linear_and_constant(self):
        basis = [lambda x: np.array([x[0]]), lambda x: np.array([1.0])]
        probes = np.array([[-1.0], [0.0], [1.0]])
        g = check_basis_orthonormality(basis, probes)
        np.testing.assert_allclose(g, np.eye(2), atol=1e-8)

    def test_invertible_recombination_stays_orthonormal(self):
        rng = np.random.default_rng(4)
        mix = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        funcs = [
            lambda x: np.array([1.0]),
            lambda x: np.array([x[0]]),
            lambda x: np.array([x[0] ** 2]),
        ]
        basis = [
            (lambda row: lambda x: sum(row[k] * funcs[k](x) for k in range(3)))(mix[i])
            for i in range(3)
        ]
        probes = np.linspace(-1.5, 1.5, 7).reshape(-1, 1)
        g = check_basis_orthonormality(basis, probes)
        np.testing.assert_allclose(g, np.eye(3), atol=1e-8)

    def test_singular_probe_set(self):
        basis = [lambda x: np.array([x[0]]), lambda x: np.array([1.0])]
        with pytest.raises(SingularProbeSet):
            check_basis_orthonormality(basis, np.array([[2.0]]))
        dependent = [lambda x: np.array([x[0]]), lambda x: np.array([2.0 * x[0]])]
        with pytest.raises(SingularProbeSet):
            check_basis_orthonormality(dependent, np.array([[-1.0], [0.0], [1.0]]))


def test_point_kernel_radial_symmetry():
    rng = np.random.default_rng(8)
    spec = KernelSpec(input_dim=3)
    for _ in range(10):
        x, y = rng.normal(size=3), rng.normal(size=3)
        r = np.linalg.norm(x - y)
        assert point_kernel(r, spec) == point_kernel(np.linalg.norm(y - x), spec)
