import contextlib
import tracemalloc

import numpy as np
import pytest

from sobnat import linalg
from sobnat.errors import BudgetExceeded, DimensionMismatch, NotPositiveDefinite
from sobnat.kernel import GramMatrix, KernelSpec, gram
from sobnat.losses import SQUARED, loss_grad_z
from sobnat.metric import (
    PullbackMetric,
    damped_natural_gradient,
    estimate_metric,
    exact_pullback_quadrature,
    natural_gradient,
    ntk_surrogate_gradient,
)
from sobnat.network import LayerSpec, MlpNetwork, Tangents, backward_loss, forward, param_jacobian


def jitterless_gram(points, dim):
    return gram(points, KernelSpec(input_dim=dim, jitter=0.0))


def random_net(seed, dims=(2, 3, 2), activation="tanh"):
    return MlpNetwork.create(list(dims), [activation] * (len(dims) - 2) + ["identity"],
                             np.random.default_rng(seed))


def flat(arrays):
    """Per-layer arrays as one length-P vector, in the order of params_vector."""
    return np.concatenate([a.reshape(-1) for a in arrays])


def layered(tangents, vec):
    """A length-P vector laid out as params_vector, as the tangents' per-layer arrays."""
    parts = np.split(vec, np.cumsum([p * q for p, q in tangents.shapes])[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, tangents.shapes)]


def component_major(batch, m):
    """perm[c*B + b] = b*m + c: kernel space's (c, b) order in J's (b, c) columns."""
    return np.arange(batch * m).reshape(batch, m).T.reshape(-1)


class TestEstimateMetric:
    def test_identity_kernel_is_gauss_newton(self):
        # K = I sums J J^T over J's columns in component-major (c, b) order;
        # with one output that is J's own order.
        rng = np.random.default_rng(0)
        j = rng.normal(size=(5, 8))
        assert np.array_equal(estimate_metric(j, 1, None).values, j @ j.T)
        jc = j[:, component_major(4, 2)]
        assert np.array_equal(estimate_metric(j, 2, None).values, jc @ jc.T)

    def test_kernel_machine_exactness(self):
        # Model phi(theta)(x) = sum_a theta_a d(|x_a - x|): the jacobian over
        # the centers is K itself, so the estimate collapses to K exactly.
        rng = np.random.default_rng(1)
        for trial in range(5):
            pts = rng.normal(size=(rng.integers(3, 9), 2)) / 20.0
            g = jitterless_gram(pts, 2)
            est = estimate_metric(g.values, 1, g)
            assert np.max(np.abs(est.values - g.values)) <= 1e-10

    def test_single_parameter_single_point(self):
        g = jitterless_gram(np.array([[0.1]]), 1)
        j = np.array([[1.7]])
        est = estimate_metric(j, 1, g)
        np.testing.assert_allclose(est.values, [[1.7**2 / g.values[0, 0]]])

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            net = random_net(rng.integers(1000))
            x = rng.normal(size=(6, 2))
            j = param_jacobian(net, x)
            g = jitterless_gram(x / 20.0, 2)
            est = estimate_metric(j, net.output_dim, g)
            np.testing.assert_allclose(est.values, est.values.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(est.values)) >= -1e-10

    def test_sobolev_metric_exactly_symmetric(self):
        rng = np.random.default_rng(12)
        net = random_net(12)  # m = 2
        x = rng.normal(size=(9, 2))
        g = gram(x / 20.0, KernelSpec(input_dim=2))
        j = param_jacobian(net, x)
        j_before = j.copy()
        est = estimate_metric(j, net.output_dim, g)
        assert np.array_equal(est.values, est.values.T)
        assert np.array_equal(j, j_before)  # whitened in a buffer of its own

    def test_batch_mismatch(self):
        g = jitterless_gram(np.zeros((3, 1)) + np.arange(3).reshape(-1, 1), 1)
        with pytest.raises(DimensionMismatch):
            estimate_metric(np.ones((2, 8)), 2, g)

    def test_output_width_below_one(self):
        # Not a modulo by zero or a negative reshape: the width is named.
        with pytest.raises(DimensionMismatch, match="output_dim must be at least 1, got 0"):
            estimate_metric(np.ones((3, 4)), 0)
        with pytest.raises(DimensionMismatch, match="output_dim must be at least 1, got -2"):
            Tangents.of_matrix(np.ones((3, 4)), -2)


class TestNaturalGradient:
    def test_identity_metric(self):
        v = np.array([1.0, -2.0, 3.0])
        out = natural_gradient(PullbackMetric(np.eye(3)), v)
        np.testing.assert_allclose(out, v)

    def test_diagonal_metric(self):
        out = natural_gradient(PullbackMetric(np.diag([4.0, 1.0])), np.array([4.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6))
        g = m @ m.T + 0.1 * np.eye(6)
        v = rng.normal(size=6)
        out = natural_gradient(PullbackMetric(g), v)
        assert np.max(np.abs(g @ out - v)) <= 1e-9

    def test_damping_enters_solve(self):
        g = PullbackMetric(np.zeros((2, 2)), damping=0.5)
        np.testing.assert_allclose(natural_gradient(g, np.array([1.0, 2.0])), [2.0, 4.0])


class TestDampedNaturalGradient:
    def instance(self, dims, batch, seed, copies=1, decay=0.003):
        # copies > 1 repeats each of batch / copies points that many times.
        # grad = J r + decay * theta is the right side the oracle solves with.
        rng = np.random.default_rng(seed)
        net = random_net(seed, dims=dims)
        x = np.tile(rng.normal(size=(batch // copies, dims[0])), (copies, 1))
        j = param_jacobian(net, x)
        resid = rng.normal(size=(batch, dims[-1]))
        grad = j @ resid.reshape(-1) + decay * net.params_vector()
        return net, x, j, resid, grad

    @pytest.mark.parametrize("dims,batch,copies", [((2, 16, 16, 1), 1, 1), ((2, 16, 16, 1), 50, 1),
                                                   ((2, 16, 16, 2), 1, 1), ((2, 16, 16, 2), 50, 1),
                                                   ((2, 16, 16, 2), 50, 2)])
    @pytest.mark.parametrize("kernel", ["identity", "sobolev"])
    @pytest.mark.parametrize("source", ["matrix", "layers"])
    @pytest.mark.parametrize("decay", [0.0, 0.003])
    def test_kernel_space_solve_matches_metric_oracle(self, factor_orders, dims, batch, copies, kernel, source,
                                                      decay):
        # P > B*m: the kernel-space solve, from a dense J or from the
        # network's layer factors, against the P x P oracle; copies = 2
        # gives the Gram of duplicate points, singular but for its jitter.
        net, x, j, resid, grad = self.instance(dims, batch, seed=batch + dims[-1], copies=copies, decay=decay)
        assert net.num_params > batch * net.output_dim
        g = None if kernel == "identity" else gram(x / 20.0, KernelSpec(input_dim=2))
        oracle = natural_gradient(estimate_metric(j, net.output_dim, g, damping=0.03), grad)
        if source == "matrix":
            tangents = Tangents.of_matrix(j, net.output_dim)
        else:
            tangents = Tangents.of_network(net, forward(net, x))
        factor_orders.clear()
        weights = layered(tangents, net.params_vector())
        got = flat(damped_natural_gradient(tangents, g, 0.03, resid, decay, weights))
        assert factor_orders == [batch * net.output_dim]
        assert np.max(np.abs(got - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("dims,seeds,scales", [((2, 16, 16, 1), range(4), (20.0, 2.0, 0.5)),
                                                   ((2, 16, 16, 2), range(4), (20.0, 2.0, 0.5)),
                                                   ((2, 64, 64, 2), range(1), (20.0,))])
    def test_kernel_space_solve_over_input_scales(self, dims, seeds, scales):
        # B = 50 at the input scales of the runs, both kernels and both
        # decays: at scale 20 K_j has condition number 1e9-1e10, and the
        # Sobolev step is within the threshold only after its refinement.
        for seed in seeds:
            net, x, j, resid, _ = self.instance(dims, 50, seed=seed)
            tangents, params = Tangents.of_network(net, forward(net, x)), net.params_vector()
            kernels = [None] + [gram(x / scale, KernelSpec(input_dim=2)) for scale in scales]
            for g in kernels:
                factor = linalg.cholesky_factor(estimate_metric(j, dims[-1], g).values, 0.03)
                for decay in (0.0, 0.003):
                    oracle = linalg.solve_from_factor(factor, j @ resid.reshape(-1) + decay * params)
                    got = flat(damped_natural_gradient(tangents, g, 0.03, resid, decay, net.weights))
                    assert np.max(np.abs(got - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("kernel", ["identity", "sobolev"])
    def test_kernel_space_solve_product_counts(self, monkeypatch, kernel):
        # J^T theta comes from the forward pass's pre-activations: K = I
        # takes one J product, and the Sobolev refinement one J and one J^T more.
        net, x, j, resid, _ = self.instance((2, 16, 16, 2), 50, seed=3)
        g = None if kernel == "identity" else gram(x / 20.0, KernelSpec(input_dim=2))
        calls = []
        for name in ("matvec", "rmatvec"):

            def counting(self, z, _name=name, _product=getattr(Tangents, name)):
                calls.append(_name)
                return _product(self, z)

            monkeypatch.setattr(Tangents, name, counting)
        damped_natural_gradient(Tangents.of_network(net, forward(net, x)), g, 0.03, resid, 0.003, net.weights)
        expected = {"identity": ["matvec"], "sobolev": ["matvec", "matvec", "rmatvec"]}[kernel]
        assert sorted(calls) == expected

    @pytest.mark.parametrize("dims", [(2, 16, 16, 1), (2, 16, 16, 2)])
    def test_sobolev_kernel_space_solve_whitens_only_kernel_space_vectors(self, monkeypatch, factor_orders, dims):
        # The Sobolev P > B*m solve factors Theta + damping (K_j (x) I_m)
        # itself: one B*m factor, and Gram solves on (B, m) arrays only.
        net, x, j, resid, grad = self.instance(dims, 50, seed=3)
        g = gram(x / 20.0, KernelSpec(input_dim=2))
        shapes = []
        for name in ("whiten", "solve"):

            def recording(self, b, *args, _solve=getattr(GramMatrix, name), **kwargs):
                shapes.append(np.shape(b))
                return _solve(self, b, *args, **kwargs)

            monkeypatch.setattr(GramMatrix, name, recording)
        factor_orders.clear()
        damped_natural_gradient(Tangents.of_network(net, forward(net, x)), g, 0.03, resid, 0.003, net.weights)
        assert factor_orders == [50 * dims[-1]]
        assert shapes and set(shapes) == {(50, dims[-1])}

    @pytest.mark.parametrize("kernel", ["identity", "sobolev"])
    def test_parameter_space_solve_is_the_oracle(self, kernel):
        # P = 17 <= B*m = 100 factors the P x P metric, bit for bit, from a
        # dense J or from the network's layer factors.
        net, x, j, resid, _ = self.instance((2, 3, 2), 50, seed=13)
        g = None if kernel == "identity" else gram(x / 20.0, KernelSpec(input_dim=2))
        for tangents in (Tangents.of_matrix(j, 2), Tangents.of_network(net, forward(net, x))):
            grad = flat(tangents.matvec(resid.T))
            grad += 0.003 * net.params_vector()
            oracle = natural_gradient(estimate_metric(j, 2, g, damping=0.03), grad)
            weights = layered(tangents, net.params_vector())
            got = flat(damped_natural_gradient(tangents, g, 0.03, resid, 0.003, weights))
            assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("kernel", ["identity", "sobolev"])
    @pytest.mark.parametrize("damping", [0.0, 0.03])
    def test_parameter_space_branch_is_natural_gradient(self, monkeypatch, kernel, damping):
        # P = 17 <= B*m = 100, damped and at damping 0: the branch is one
        # call of natural_gradient(estimate_metric(J, m, gram, damping),
        # J r + decay w), and its layers are views of that call's solution.
        net, x, j, resid, _ = self.instance((2, 3, 2), 50, seed=13)
        g = None if kernel == "identity" else gram(x / 20.0, KernelSpec(input_dim=2))
        tangents = Tangents.of_network(net, forward(net, x))
        grad = flat(tangents.matvec(resid.T))
        grad += 0.003 * net.params_vector()
        oracle_metric = estimate_metric(j, 2, g, damping)
        calls, solve = [], natural_gradient

        def recording(metric, euclid_grad):
            calls.append((metric, euclid_grad, solve(metric, euclid_grad)))
            return calls[-1][2]

        monkeypatch.setattr("sobnat.metric.natural_gradient", recording)
        got = damped_natural_gradient(tangents, g, damping, resid, 0.003, net.weights)
        (metric, euclid_grad, v), = calls
        assert metric.damping == damping and np.array_equal(metric.values, oracle_metric.values)
        assert np.array_equal(euclid_grad, grad)
        assert all(np.shares_memory(layer, v) for layer in got)
        assert np.array_equal(flat(got), solve(oracle_metric, grad))

    @pytest.mark.parametrize("dims, batch", [((2, 16, 16, 2), 500), ((2, 8, 8, 3), 60)])
    def test_identity_kernel_metric_is_component_major(self, monkeypatch, dims, batch):
        # P <= B*m with K = I: the step's metric is J J^T summed over J's
        # columns in component-major order, bit for bit.
        net, x, j, resid, _ = self.instance(dims, batch, seed=batch)
        assert net.num_params <= batch * dims[-1]
        metrics, solve = [], natural_gradient

        def recording(metric, euclid_grad):
            metrics.append(metric)
            return solve(metric, euclid_grad)

        monkeypatch.setattr("sobnat.metric.natural_gradient", recording)
        damped_natural_gradient(Tangents.of_network(net, forward(net, x)), None, 0.03, resid)
        jc = j[:, component_major(batch, dims[-1])]
        (metric,) = metrics
        assert np.array_equal(metric.values, jc @ jc.T)

    @pytest.mark.parametrize("kernel, calls", [("identity", 0), ("sobolev", 1)])
    def test_parameter_space_step_forms_the_sample_major_j_only_to_whiten_it(self, monkeypatch, kernel, calls):
        # P = 123 <= B*m = 180: the K = I metric builds its own
        # component-major J, and only the Sobolev one needs Tangents.matrix.
        net, x, _, resid, _ = self.instance((2, 8, 8, 3), 60, seed=7)
        g = None if kernel == "identity" else gram(x / 20.0, KernelSpec(input_dim=2))
        made = []

        def counting(self, _matrix=Tangents.matrix):
            made.append(self)
            return _matrix(self)

        monkeypatch.setattr(Tangents, "matrix", counting)
        damped_natural_gradient(Tangents.of_network(net, forward(net, x)), g, 0.03, resid, 0.003, net.weights)
        assert len(made) == calls

    def test_parameter_space_solve_whitens_j_in_its_own_buffer(self):
        # A large_batch-shaped Sobolev step, [2,16,16,2] at B = 500 (P = 354
        # <= B*m = 1000), whitens the J it forms in place: it never holds
        # two P x B*m arrays at once, and it is still the oracle bit for bit.
        rng = np.random.default_rng(5)
        net = random_net(5, dims=(2, 16, 16, 2))
        x = rng.normal(size=(500, 2))
        g = gram(x / 20.0, KernelSpec(input_dim=2))
        tangents = Tangents.of_network(net, forward(net, x))
        resid, params = rng.normal(size=(500, 2)), net.params_vector()
        j_bytes = net.num_params * 500 * 2 * 8
        tracemalloc.start()
        try:
            got = flat(damped_natural_gradient(tangents, g, 0.03, resid, 0.003, net.weights))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert j_bytes <= peak < 2 * j_bytes
        grad = flat(tangents.matvec(resid.T))  # J r + decay * theta, formed as a train step forms it
        grad += 0.003 * params
        oracle = natural_gradient(estimate_metric(tangents.matrix(), 2, g, damping=0.03), grad)
        assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("kernel", ["identity", "sobolev"])
    @pytest.mark.parametrize("decay", [0.0, 0.003])
    def test_large_batch_solve_is_the_oracle_of_the_formed_gradient(self, kernel, decay):
        # [2,16,16,2] at B = 500 (P = 354 <= B*m = 1000) forms g = J r, adds
        # decay * theta, and is the P x P oracle of that g bit for bit.
        rng = np.random.default_rng(6)
        net = random_net(6, dims=(2, 16, 16, 2))
        x = rng.normal(size=(500, 2))
        g = None if kernel == "identity" else gram(x / 20.0, KernelSpec(input_dim=2))
        tangents = Tangents.of_network(net, forward(net, x))
        resid, params = rng.normal(size=(500, 2)), net.params_vector()
        grad = flat(tangents.matvec(resid.T))
        grad += decay * params
        oracle = natural_gradient(estimate_metric(tangents.matrix(), 2, g, damping=0.03), grad)
        assert np.array_equal(flat(damped_natural_gradient(tangents, g, 0.03, resid, decay, net.weights)), oracle)

    def test_zero_damping_is_the_oracle(self, factor_orders):
        # Damping 0 always solves in parameter space, as the exactness
        # oracles need: P = 9 <= B*m = 12 gives the oracle bit for bit ...
        net, x, j, resid, _ = self.instance((2, 2, 1), 12, seed=15)
        g = gram(x / 20.0, KernelSpec(input_dim=2))
        tangents = Tangents.of_matrix(j, 1)
        grad = flat(tangents.matvec(resid.T))
        grad += 0.003 * net.params_vector()
        for k in (None, g):
            oracle = natural_gradient(estimate_metric(j, 1, k), grad)
            got = flat(damped_natural_gradient(tangents, k, 0.0, resid, 0.003, [net.params_vector()[:, None]]))
            assert np.array_equal(got, oracle)
        # ... and P = 13 > B*m = 12 factors the 13 x 13 metric of rank <= 12,
        # whose last pivot is 0 up to a rounding error of either sign.
        net, x, j, resid, _ = self.instance((2, 3, 1), 12, seed=14)
        factor_orders.clear()
        with contextlib.suppress(NotPositiveDefinite):
            damped_natural_gradient(Tangents.of_matrix(j, 1), None, 0.0, resid, 0.003, [net.params_vector()[:, None]])
        assert factor_orders == [13]

    @pytest.mark.parametrize("resid_shape,params_len", [((2, 1), 3), ((4,), 3), ((2, 2), 4), ((2, 2), 2)])
    def test_residual_and_params_shape_mismatch(self, resid_shape, params_len):
        # B = 2, m = 2 and P = 3: r must be (2, 2) and the dense J's one
        # layer of weights (3, 1).
        with pytest.raises(DimensionMismatch):
            damped_natural_gradient(Tangents.of_matrix(np.ones((3, 4)), 2), None, 0.1,
                                    np.ones(resid_shape), 0.003, [np.ones((params_len, 1))])

    @pytest.mark.parametrize("change", ["one_layer_short", "one_layer_extra", "transposed", "flattened",
                                        "dense_flat"])
    def test_weights_of_the_wrong_count_or_shape(self, change):
        # The weights must be one array per layer, each shaped like Wbar_l:
        # (4, 3) and (2, 5) for [2, 4, 2]; a dense J's are one (P, 1) array.
        net, x, j, resid, _ = self.instance((2, 4, 2), 3, seed=2)
        tangents, weights = Tangents.of_network(net, forward(net, x)), net.weights
        if change == "one_layer_short":
            weights = weights[:1]
        elif change == "one_layer_extra":
            weights = weights + [np.ones((2, 3))]
        elif change == "transposed":
            weights = [w.T for w in weights]
        elif change == "flattened":
            weights = [net.params_vector()]
        else:
            tangents, weights = Tangents.of_matrix(j, 2), [net.params_vector()]
        with pytest.raises(DimensionMismatch, match="weights of shapes"):
            damped_natural_gradient(tangents, None, 0.03, resid, 0.003, weights)

    def test_decay_needs_the_params(self):
        with pytest.raises(ValueError, match="weight decay needs the params"):
            damped_natural_gradient(Tangents.of_matrix(np.ones((3, 4)), 2), None, 0.1, np.ones((2, 2)), 0.003)

    def test_gram_size_mismatch(self):
        g = jitterless_gram(np.arange(3.0).reshape(-1, 1), 1)
        with pytest.raises(DimensionMismatch):
            damped_natural_gradient(Tangents.of_matrix(np.ones((9, 4)), 2), g, 0.1, np.ones((2, 2)))


class TestProjectEmpiricalGradient:
    """The projected empirical-loss gradient: the damped natural gradient of
    J r for the (B, m) residuals r."""

    def test_zero_residuals(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(4, 1))
        g = jitterless_gram(pts, 1)
        j = rng.normal(size=(3, 4))
        out = flat(damped_natural_gradient(Tangents.of_matrix(j, 1), g, 0.0, np.zeros((4, 1))))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_single_parameter_linear_model(self):
        # phi(theta)(x) = theta x, squared loss: coefficient is
        # sum_i (f(x_i) - y_i) x_i / gtilde with gtilde = x^T Kinv x.
        xs = np.array([0.5, 1.0, -1.5])
        theta, ys = 0.8, np.array([1.0, -1.0, 0.5])
        g = jitterless_gram(xs.reshape(-1, 1), 1)
        j = xs.reshape(1, -1)
        resid = (theta * xs - ys).reshape(-1, 1)
        gtilde = float(xs @ np.linalg.solve(g.values, xs))
        got = flat(damped_natural_gradient(Tangents.of_matrix(j, 1), g, 0.0, resid))
        expected = float(xs @ resid[:, 0]) / gtilde
        np.testing.assert_allclose(got, [expected], atol=1e-12)

    def test_two_path_agreement(self):
        # Projected coefficients == natural gradient of the pulled-back sum
        # loss, computed through backprop -- two independent code paths.
        rng = np.random.default_rng(5)
        for trial in range(10):
            net = random_net(rng.integers(10_000), dims=(2, 3, 1))
            x = rng.normal(size=(9, 2))
            y = rng.normal(size=(9, 1))
            cache = forward(net, x)
            resid = loss_grad_z(cache.outputs, y, SQUARED)
            g = jitterless_gram(x / 20.0, 2)
            j = param_jacobian(net, x)
            path1 = flat(damped_natural_gradient(Tangents.of_matrix(j, 1), g, 1e-3, resid))
            grads = backward_loss(net, cache, y, SQUARED, reduction="sum")
            grad_vec = np.concatenate([v.reshape(-1) for v in grads])
            est = estimate_metric(j, 1, g, damping=1e-3)
            path2 = natural_gradient(est, grad_vec)
            assert np.max(np.abs(path1 - path2)) <= 1e-9

    def test_argmin_characterization(self):
        # The projected coefficients minimize the RKHS distance between the
        # empirical-loss gradient and the tangent span; checked against a
        # Cholesky-weighted dense least-squares oracle.
        rng = np.random.default_rng(6)
        net = random_net(77, dims=(1, 2, 2))  # 10 parameters
        x = np.linspace(-2.0, 2.0, 8).reshape(-1, 1)
        resid = rng.normal(size=(8, 2))
        g = jitterless_gram(x / 5.0, 1)
        j = param_jacobian(net, x)
        got = flat(damped_natural_gradient(Tangents.of_matrix(j, 2), g, 0.0, resid))

        chol = np.linalg.cholesky(g.values)
        j3 = j.reshape(net.num_params, 8, 2)
        design_blocks, target_blocks = [], []
        for c in range(2):
            alpha = np.linalg.solve(g.values, j3[:, :, c].T)  # (B, P) representer coefficients
            design_blocks.append(chol.T @ alpha)
            target_blocks.append(chol.T @ resid[:, c])
        design = np.vstack(design_blocks)
        target = np.concatenate(target_blocks)
        oracle, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert np.max(np.abs(got - oracle)) <= 1e-9


class TestNtk:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("dims,batch", [((2, 3, 2), 7), ((2, 16, 16, 2), 50), ((3, 4, 5, 3), 1)])
    def test_params_product_reads_the_pre_activations(self, dims, batch, activation):
        # J^T theta from the forward pass's s_l is rmatvec(theta) bit for
        # bit; a dense J, which has no pre-activations, runs rmatvec.
        net = random_net(batch, dims=dims, activation=activation)
        x = np.random.default_rng(batch).normal(size=(batch, dims[0]))
        tangents, params = Tangents.of_network(net, forward(net, x)), net.weights
        assert tangents.pre_acts is not None
        assert np.array_equal(tangents.rmatvec_params(params), tangents.rmatvec(params))
        dense = Tangents.of_matrix(tangents.matrix(), dims[-1])
        params = layered(dense, net.params_vector())
        assert np.array_equal(dense.rmatvec_params(params), dense.rmatvec(params))

    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("dims,batch", [((2, 3, 2), 7), ((2, 16, 16, 1), 5), ((3, 4, 5, 3), 1),
                                            ((2, 16, 16, 2), 50), ((2, 64, 64, 2), 50)])
    def test_blocks_assemble_to_gram_of_columns(self, dims, batch, activation):
        # The layerwise Theta against J^T J with rows and columns in (c, b)
        # order; block (c, e) is the kernel of output components c and e.
        # Its Gram products are plain GEMMs, so Theta is symmetric to
        # rounding only, within the same bound.
        net = random_net(batch, dims=dims, activation=activation)
        x = np.random.default_rng(batch).normal(size=(batch, dims[0]))
        tangents = Tangents.of_network(net, forward(net, x))
        j = tangents.matrix()
        perm = component_major(batch, dims[-1])
        big = (j.T @ j)[np.ix_(perm, perm)]
        bound = 1e-14 * np.max(np.abs(big))
        for t in (tangents, Tangents.of_matrix(j, dims[-1])):
            theta = t.ntk()
            assert np.max(np.abs(theta - big)) <= bound
            assert np.max(np.abs(theta - theta.T)) <= bound

    def test_layerwise_products_are_the_jacobian_products(self):
        rng = np.random.default_rng(8)
        net = random_net(8, dims=(2, 5, 4, 3))
        x = rng.normal(size=(6, 2))
        j = param_jacobian(net, x)
        tangents = Tangents.of_network(net, forward(net, x))
        z, v = rng.normal(size=(6, 3)), rng.normal(size=net.num_params)
        np.testing.assert_allclose(flat(tangents.matvec(z.T)), j @ z.reshape(-1), rtol=0, atol=1e-14)
        np.testing.assert_allclose(tangents.rmatvec(layered(tangents, v)), (j.T @ v).reshape(6, 3).T, rtol=0,
                                   atol=1e-14)
        assert np.array_equal(tangents.matrix(), j)

    def test_rmatvec_takes_one_array_per_layer(self):
        # A list one layer short is refused, not contracted over the layers it has.
        net = random_net(8, dims=(2, 5, 4, 3))
        tangents = Tangents.of_network(net, forward(net, np.ones((2, 2))))
        assert tangents.rmatvec(net.weights).shape == (3, 2)
        with pytest.raises(ValueError):
            tangents.rmatvec(net.weights[:-1])

    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("dims,batch", [((2, 3, 2), 7), ((2, 16, 16, 1), 5), ((3, 4, 5, 3), 1)])
    def test_matvec_and_rmatvec_are_adjoint(self, dims, batch, activation):
        # <J z, v> = <z, J^T v> for (m, B) arrays z, C-ordered or the
        # transposed view of a (B, m) residual array.
        rng = np.random.default_rng(batch)
        net = random_net(batch + 1, dims=dims, activation=activation)
        tangents = Tangents.of_network(net, forward(net, rng.normal(size=(batch, dims[0]))))
        v = rng.normal(size=net.num_params)
        for z in (rng.normal(size=(dims[-1], batch)), rng.normal(size=(batch, dims[-1])).T):
            left, right = flat(tangents.matvec(z)) @ v, np.sum(z * tangents.rmatvec(layered(tangents, v)))
            assert abs(left - right) <= 1e-13 * max(1.0, abs(left))

    def test_single_parameter(self):
        j = np.array([[0.7, -2.0]])  # one parameter, two scalar samples
        theta = Tangents.of_matrix(j, 1).ntk()
        np.testing.assert_allclose(theta[0:1, 1:2], [[0.7 * -2.0]])

    def test_diagonal_blocks_psd(self):
        rng = np.random.default_rng(7)
        j = rng.normal(size=(6, 4 * 2))
        theta = Tangents.of_matrix(j, 2).ntk()
        for a in range(4):
            block = theta[a::4, a::4]  # the m x m kernel Theta(x_a, x_a)
            assert np.min(np.linalg.eigvalsh(block)) >= -1e-12

    def test_surrogate_zero_residuals(self):
        j = np.random.default_rng(9).normal(size=(4, 6))
        np.testing.assert_array_equal(
            flat(ntk_surrogate_gradient(Tangents.of_matrix(j, 2), np.zeros((3, 2)))), np.zeros(4)
        )

    def test_surrogate_equals_projection_for_orthonormal_tangents(self):
        # With J J^T = I the Gauss-Newton metric is the identity and the
        # surrogate coincides with the projected gradient.
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        j = q.T  # rows orthonormal
        resid = rng.normal(size=(6, 1))
        surr = flat(ntk_surrogate_gradient(Tangents.of_matrix(j, 1), resid))
        est = estimate_metric(j, 1, None)
        proj = natural_gradient(est, j @ resid.reshape(-1))
        np.testing.assert_allclose(surr, proj, atol=1e-12)

    def test_surrogate_differs_from_projection(self):
        # Two-parameter toy with a non-identity tangent Gram.
        xs = np.array([0.5, 1.0, 2.0])
        j = np.vstack([xs, xs**2])
        resid = np.array([[1.0], [0.5], [-1.0]])
        surr = flat(ntk_surrogate_gradient(Tangents.of_matrix(j, 1), resid))
        proj = natural_gradient(estimate_metric(j, 1, None), j @ resid.reshape(-1))
        assert np.max(np.abs(surr - proj)) > 1e-3

    def test_surrogate_is_projection_under_self_induced_kernel(self):
        # The tangent basis of any net is orthonormal in the RKHS its own
        # empirical tangent kernel induces, so in that inner product the
        # metric is the identity and the surrogate IS the projection.
        from sobnat.rkhs import check_basis_orthonormality

        net = random_net(99, dims=(1, 1, 1))
        probes = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)

        def tangent(i):
            return lambda x: param_jacobian(net, np.atleast_2d(x))[i].reshape(-1)

        basis = [tangent(i) for i in range(net.num_params)]
        tangent_gram = check_basis_orthonormality(basis, probes)
        np.testing.assert_allclose(tangent_gram, np.eye(net.num_params), atol=1e-8)
        j = param_jacobian(net, probes)
        resid = np.random.default_rng(0).normal(size=(9, 1))
        surr = flat(ntk_surrogate_gradient(Tangents.of_matrix(j, 1), resid))
        proj = natural_gradient(PullbackMetric(tangent_gram), j @ resid.reshape(-1))
        np.testing.assert_allclose(surr, proj, atol=1e-7)


class TestExactQuadrature:
    def test_linear_chain_closed_form(self):
        w1, w2 = 0.8, -1.3
        net = MlpNetwork(
            [LayerSpec(1, 1, "identity"), LayerSpec(1, 1, "identity")],
            [np.array([[w1, 0.0]]), np.array([[w2, 0.0]])],
        )
        got = exact_pullback_quadrature(net, "gaussian", nodes_per_dim=40).values
        # theta = (w1, b1, w2, b2); with standard normal inputs E[x] = 0,
        # E[x^2] = 1 every entry is available in closed form.
        expected = np.array(
            [
                [w2**2, 0.0, w1 * w2, 0.0],
                [0.0, w2**2, 0.0, w2],
                [w1 * w2, 0.0, w1**2, 0.0],
                [0.0, w2, 0.0, 1.0],
            ]
        )
        assert np.max(np.abs(got - expected)) <= 1e-8
        assert abs(got[0, 2]) > 1e-6  # the cross term is not zero

    def test_zero_second_layer_weight_degenerates(self):
        net = MlpNetwork(
            [LayerSpec(1, 1, "identity"), LayerSpec(1, 1, "identity")],
            [np.array([[0.8, 0.0]]), np.array([[0.0, 0.0]])],
        )
        got = exact_pullback_quadrature(net, "gaussian", nodes_per_dim=20).values
        assert got[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_tanh_net_matches_monte_carlo(self):
        net = MlpNetwork.create([1, 2, 1], ["tanh", "identity"], np.random.default_rng(20))
        quad = exact_pullback_quadrature(net, "gaussian", nodes_per_dim=60).values
        rng = np.random.default_rng(21)
        total = np.zeros_like(quad)
        total_sq = np.zeros_like(quad)
        n, chunk = 1_000_000, 50_000
        for _ in range(n // chunk):
            xs = rng.normal(size=(chunk, 1))
            j = param_jacobian(net, xs)
            j3 = j.reshape(net.num_params, chunk, 1)
            prods = np.einsum("ibc,jbc->bij", j3, j3)
            total += prods.sum(axis=0)
            total_sq += (prods**2).sum(axis=0)
        mc_mean = total / n
        mc_se = np.sqrt(np.maximum(total_sq / n - mc_mean**2, 0.0) / n)
        assert np.all(np.abs(quad - mc_mean) <= 3.0 * mc_se + 1e-12)

    def test_box_measure(self):
        # Uniform measure on [-1, 1]: E[x^2] = 1/3 for the linear model.
        net = MlpNetwork([LayerSpec(1, 1, "identity")], [np.array([[1.0, 0.0]])])
        got = exact_pullback_quadrature(net, "box", nodes_per_dim=30, box=([-1.0], [1.0])).values
        np.testing.assert_allclose(got, [[1.0 / 3.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_budget(self):
        net = random_net(0, dims=(2, 3, 2))  # 17 parameters
        with pytest.raises(BudgetExceeded):
            exact_pullback_quadrature(net, "gaussian")


class TestKernelScaleHomogeneity:
    def test_metric_and_step_scale(self):
        # K -> cK divides the metric estimate by c and multiplies the
        # natural-gradient step by c, preserving its direction.
        rng = np.random.default_rng(11)
        net = random_net(12, dims=(2, 2, 1))  # 9 parameters, so use 12 samples
        x = rng.normal(size=(12, 2))
        g = jitterless_gram(x / 20.0, 2)
        j = param_jacobian(net, x)
        grad = rng.normal(size=net.num_params)
        c = 3.7
        est = estimate_metric(j, 1, g)
        est_scaled = estimate_metric(j, 1, g.scaled(c))
        np.testing.assert_allclose(est_scaled.values, est.values / c, atol=1e-10)
        step = natural_gradient(est, grad)
        step_scaled = natural_gradient(est_scaled, grad)
        np.testing.assert_allclose(step_scaled, c * step, rtol=1e-8)
