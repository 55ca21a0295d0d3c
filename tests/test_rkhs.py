import numpy as np
import pytest
import scipy.linalg

from sobnat import rkhs
from sobnat.errors import DimensionMismatch, Diverged, SingularProbeSet
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_named_by_row(self, bad):
        f = KernelExpansion(UNIT_1D, np.array([[0.0], [1.0]]), np.ones((2, 1)))
        with pytest.raises(ValueError, match="^point in row 0 is not finite$"):
            evaluate_batch(f, [[bad]])
        xs = np.zeros((4, 2))
        xs[2, 1] = bad
        f = KernelExpansion(KernelSpec(input_dim=2), np.zeros((1, 2)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="^point in row 2 is not finite$"):
            evaluate_batch(f, xs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("what", ["center", "coefficient"])
    def test_non_finite_expansion_is_named_by_row(self, bad, what):
        centers, coeffs = np.zeros((3, 2)), np.ones((3, 2))
        (centers if what == "center" else coeffs)[1, 0] = bad
        with pytest.raises(ValueError, match=f"^{what} in row 1 is not finite$"):
            KernelExpansion(KernelSpec(input_dim=2), centers, coeffs)
        args = ([[bad]], [[1.0]]) if what == "center" else ([[0.0]], [[bad]])
        with pytest.raises(ValueError, match=f"^{what} in row 0 is not finite$"):
            evaluate_batch(KernelExpansion(UNIT_1D, *args), [[0.5]])

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


def per_visit_coeffs(xs, ys, loss, steps, lr, spec, mode):
    """Functional GD's coefficients computed one step at a time, one row per
    visit, reading the iterate values from the same cached kernel-table
    blocks as functional_gd, so a step that takes the same arithmetic gives
    the same bits."""
    ys = np.asarray(ys, dtype=np.float64)
    if loss == SQUARED and ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    output_dim = ys.shape[1] if loss == SQUARED else int(np.max(ys)) + 1
    eta = lr if callable(lr) else (lambda t: lr)
    n = len(xs)
    visits = 1 if mode == "cyclic" else n
    block = n if mode == "full_batch" else max(1, PROFILE_BLOCK // n)
    coeffs = np.empty((steps * visits, output_dim))
    w = np.zeros((min(n, steps * visits), output_dim))
    table, first, last, seen = None, 0, 0, w
    for t in range(steps):
        done = t * visits
        start = done % n
        stop = start + visits
        if not first <= start < last:
            first = start - start % block
            last = min(len(w), first + block)
            seen = w[:last] if done < n else w
            table = rkhs.kernel_matrix(xs[first:last], xs[: len(seen)], spec)
        z = table[start - first : stop - first] @ seen
        step = -eta(t) * loss_grad_z(z, ys[start:stop], loss)
        coeffs[done : done + visits] = step
        w[start:stop] += step
    return coeffs


def per_point_sums(coeffs, n):
    """Per-visit coefficients of a run over n points summed per point, each
    point's in visit order: the coefficients of functional GD's result."""
    sums = np.zeros((min(n, len(coeffs)), coeffs.shape[1]))
    np.add.at(sums, np.arange(len(coeffs)) % n, coeffs)
    return sums


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

    @pytest.mark.parametrize("steps, visited", [(3, 3), (5, 5), (12, 5)])
    def test_centers_are_visited_points(self, steps, visited):
        # One center per visited point, in first-visit order: the first
        # steps points while a pass is not complete, all n after.
        xs = np.linspace(0.0, 4.0, 5).reshape(-1, 1)
        ys = np.sin(xs[:, 0])
        f = functional_gd(xs, ys, SQUARED, steps, 0.1, UNIT_1D)
        np.testing.assert_array_equal(f.centers, xs[:visited])
        assert f.coeffs.shape == (visited, 1)

    @pytest.mark.parametrize("steps", [3, 12])
    def test_centers_are_a_copy_of_the_points(self, steps):
        xs = np.linspace(0.0, 4.0, 5).reshape(-1, 1)
        f = functional_gd(xs, np.sin(xs), SQUARED, steps, 0.1, UNIT_1D)
        probes = np.linspace(-1.0, 5.0, 7).reshape(-1, 1)
        before = evaluate_batch(f, probes)
        xs += 1.0
        np.testing.assert_array_equal(evaluate_batch(f, probes), before)

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
        # Every step visits the whole batch; each point is one center.
        np.testing.assert_array_equal(f.centers, xs)

    def test_full_batch_centers_in_visit_order_2d(self):
        rng = np.random.default_rng(5)
        xs, ys = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        spec = KernelSpec(input_dim=2)
        f = functional_gd(xs, ys, SQUARED, 3, 0.1, spec, mode="full_batch")
        assert np.array_equal(f.centers, xs)
        assert f.coeffs.shape == (4, 2)
        # The first step starts from f_0 = 0: coefficients -eta * (0 - y).
        first = functional_gd(xs, ys, SQUARED, 1, 0.1, spec, mode="full_batch")
        np.testing.assert_array_equal(first.coeffs, 0.1 * ys)

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

    @pytest.mark.parametrize(
        "ys, steps",
        [
            (np.sin(np.linspace(0.0, 4.0, 5)), 10),  # read as class labels, not integral
            (np.array([0.0, 1.0, 2.0, 1.0, 0.0]), 10),  # valid class labels
            (np.array([np.nan, 1.0, 2.0]), -1),  # and every other check would fail
        ],
    )
    def test_unknown_loss_rejected_first(self, monkeypatch, ys, steps):
        shapes = self._record_tables(monkeypatch)
        xs = np.linspace(0.0, 4.0, 5).reshape(-1, 1)
        match = r"unknown loss 'squared_loss'; choose from \['squared', 'softmax_ce'\]"
        with pytest.raises(ValueError, match=match):
            functional_gd(xs, ys, "squared_loss", steps, 0.1, UNIT_1D)
        assert shapes == []

    @pytest.mark.parametrize(
        "loss, point, target, lr, match",
        [
            (SQUARED, np.nan, 0.0, 0.1, "point in row 2 is not finite"),
            (SQUARED, -np.inf, 0.0, 0.1, "point in row 2 is not finite"),
            (SOFTMAX_CE, np.inf, 0.0, 0.1, "point in row 2 is not finite"),
            (SQUARED, 0.0, np.nan, 0.1, "target in row 2 is not finite"),
            (SQUARED, 0.0, np.inf, 0.1, "target in row 2 is not finite"),
            (SQUARED, 0.0, 0.0, np.nan, "lr nan is not finite"),
            (SQUARED, 0.0, 0.0, np.inf, "lr inf is not finite"),
            (SOFTMAX_CE, 0.0, 0.0, np.nan, "lr nan is not finite"),
        ],
    )
    def test_non_finite_input_rejected_before_any_step(self, monkeypatch, loss, point, target, lr, match):
        # Unchecked, each of these gives NaN coefficients without an error.
        shapes = self._record_tables(monkeypatch)
        xs = np.zeros((5, 2))
        xs[2, 1] = point
        ys = np.zeros((5, 2)) if loss == SQUARED else np.zeros(5)
        if loss == SQUARED:
            ys[2, 1] = target
        with pytest.raises(ValueError, match=match):
            functional_gd(xs, ys, loss, 10, lr, KernelSpec(input_dim=2))
        assert shapes == []

    @pytest.mark.parametrize("mode", ["cyclic", "full_batch"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_callable_lr_non_finite_names_the_step(self, mode, bad):
        xs = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
        lr = lambda t: bad if t == 7 else 0.1
        with pytest.raises(ValueError, match=f"lr returned {bad} at step 7"):
            functional_gd(xs, np.sin(xs), SQUARED, 10, lr, UNIT_1D, mode=mode)

    @pytest.mark.parametrize("mode", ["cyclic", "full_batch"])
    def test_diverging_run_raises_instead_of_returning_non_finite_coefficients(self, mode):
        # Steps of lr 50 on 10 points overflow within 400 steps.  Diverged
        # names the first step whose coefficient is not finite: a run of that
        # many steps returns finite coefficients, one step more names it.
        xs = np.linspace(-2.0, 2.0, 10).reshape(-1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(Diverged, match=r"^non-finite coefficient at step \d+$") as info:
                functional_gd(xs, np.sin(xs), SQUARED, 400, 50.0, UNIT_1D, mode=mode)
            step = info.value.step
            assert 0 < step < 400 and info.value.loss is None
            f = functional_gd(xs, np.sin(xs), SQUARED, step, 50.0, UNIT_1D, mode=mode)
            assert np.isfinite(f.coeffs).all()
            with pytest.raises(Diverged) as info:
                functional_gd(xs, np.sin(xs), SQUARED, step + 1, 50.0, UNIT_1D, mode=mode)
            assert info.value.step == step

    @staticmethod
    def _assert_recursion(f, xs, ys, loss, steps, lr, mode):
        # c_t = -eta_t dL/dz(f_{t-1}(x_t), y_t), with f_{t-1} the reference's
        # own expansion so far, one center per visit, rather than cached rows
        # of the data points; f's coefficient at each point is its c_t summed.
        eta = lr if callable(lr) else (lambda t: lr)
        n = len(xs)
        visits = 1 if mode == "cyclic" else n
        output_dim = np.reshape(ys, (n, -1)).shape[1] if loss == SQUARED else int(np.max(ys)) + 1
        centers = xs[np.arange(steps * visits) % n]
        coeffs = np.empty((steps * visits, output_dim))
        for t in range(steps):
            done, start = t * visits, (t * visits) % n
            before = KernelExpansion(f.spec, centers[:done], coeffs[:done])
            z = evaluate_batch(before, xs[start : start + visits])
            coeffs[done : done + visits] = -eta(t) * loss_grad_z(z, ys[start : start + visits], loss)
        want = per_point_sums(coeffs, n)
        np.testing.assert_array_equal(f.centers, xs[: len(want)])
        assert f.coeffs.shape == want.shape
        assert np.max(np.abs(f.coeffs - want)) <= 1e-12 * np.max(np.abs(want))

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
        rng = np.random.default_rng(11)
        n, spec = 13, KernelSpec(input_dim=2)
        xs = rng.normal(size=(n, 2))
        ys = rng.integers(0, m, size=n) if loss == SOFTMAX_CE else rng.normal(size=(n, m))
        f = functional_gd(xs, ys, loss, steps, lr, spec, mode=mode)
        self._assert_recursion(f, xs, ys, loss, steps, lr, mode)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("lr", [0.3, lambda t: 0.5 / (1.0 + 0.01 * t)])
    def test_multi_block_run_is_the_recursion(self, m, lr):
        # 300 points take 54-row table blocks: segments end at block edges,
        # the first pass sees a growing set of points, and the second pass
        # stops part way through its third block.
        rng = np.random.default_rng(12)
        n, steps, spec = 300, 450, KernelSpec(input_dim=2)
        assert PROFILE_BLOCK // n == 54
        xs, ys = rng.normal(size=(n, 2)), rng.normal(size=(n, m))
        f = functional_gd(xs, ys, SQUARED, steps, lr, spec)
        self._assert_recursion(f, xs, ys, SQUARED, steps, lr, "cyclic")

    def test_benchmark_inputs_take_one_solve_per_pass(self, monkeypatch):
        # 40 points in one 40-row block, 800 steps: 20 passes of 40 visits.
        solves = self._record_solves(monkeypatch)
        xs = np.linspace(-2.0, 2.0, 40).reshape(-1, 1)
        functional_gd(xs, np.sin(2.0 * xs), SQUARED, 800, 0.5, UNIT_1D)
        assert solves == [40] * 20

    @pytest.mark.parametrize(
        "loss, mode, lr",
        [
            (SOFTMAX_CE, "cyclic", 0.4),
            (SOFTMAX_CE, "cyclic", lambda t: 0.5 / (1.0 + 0.1 * t)),
            (SOFTMAX_CE, "full_batch", 0.05),
            (SQUARED, "full_batch", lambda t: 0.05 / (1.0 + t)),
            (SQUARED, "full_batch", 1),
        ],
    )
    @pytest.mark.parametrize("n, steps", [(13, 30), (300, 450)])
    def test_step_at_a_time_paths_are_bitwise_the_per_visit_loop(self, loss, mode, lr, n, steps):
        rng = np.random.default_rng(n)
        spec = KernelSpec(input_dim=2)
        xs = rng.normal(size=(n, 2))
        ys = rng.integers(0, 3, size=n) if loss == SOFTMAX_CE else rng.normal(size=(n, 2))
        if mode == "full_batch":
            steps = 4
        f = functional_gd(xs, ys, loss, steps, lr, spec, mode=mode)
        want = per_point_sums(per_visit_coeffs(xs, ys, loss, steps, lr, spec, mode), n)
        assert np.array_equal(f.coeffs, want)

    @staticmethod
    def _record_tables(monkeypatch):
        shapes, kernel_matrix = [], rkhs.kernel_matrix

        def recording(x, y, spec):
            shapes.append((len(x), len(y)))
            return kernel_matrix(x, y, spec)

        monkeypatch.setattr(rkhs, "kernel_matrix", recording)
        return shapes

    @staticmethod
    def _record_solves(monkeypatch):
        orders, dtrtrs = [], scipy.linalg.lapack.dtrtrs

        def recording(a, b, **kwargs):
            orders.append(len(a))
            return dtrtrs(a, b, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dtrtrs", recording)
        return orders

    def test_benchmark_inputs_take_one_table(self, monkeypatch):
        # 40 points, 800 cyclic steps: one 40 x 40 table, not one row per step.
        shapes = self._record_tables(monkeypatch)
        xs = np.linspace(-2.0, 2.0, 40).reshape(-1, 1)
        functional_gd(xs, np.sin(2.0 * xs), SQUARED, 800, 0.5, UNIT_1D)
        assert shapes == [(40, 40)]

    def test_benchmark_predictions_take_one_table(self, monkeypatch):
        # The 800 visits' coefficients sit on the 40 points: predictions at
        # those points are one 40 x 40 table, not tables against 800 centers.
        xs = np.linspace(-2.0, 2.0, 40).reshape(-1, 1)
        f = functional_gd(xs, np.sin(2.0 * xs), SQUARED, 800, 0.5, UNIT_1D)
        shapes = self._record_tables(monkeypatch)
        evaluate_batch(f, xs)
        assert shapes == [(40, 40)]

    def test_no_table_exceeds_a_profile_block(self, monkeypatch):
        shapes = self._record_tables(monkeypatch)
        solves = self._record_solves(monkeypatch)
        xs = np.linspace(-2.0, 2.0, 300).reshape(-1, 1)
        functional_gd(xs, np.sin(2.0 * xs), SQUARED, 1000, 0.5, UNIT_1D)
        assert shapes and max(rows * cols for rows, cols in shapes) <= PROFILE_BLOCK
        assert solves and max(solves) ** 2 <= PROFILE_BLOCK

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
