import numpy as np
import pytest

from sobnat import network
from sobnat.errors import DimensionMismatch, TooLarge
from sobnat.losses import SOFTMAX_CE, SQUARED, loss_value
from sobnat.network import (
    LayerSpec,
    MlpNetwork,
    Tangents,
    backward_loss,
    forward,
    output_jacobians,
    param_jacobian,
)


def tiny_net(dims, activations, seed=0):
    return MlpNetwork.create(dims, activations, np.random.default_rng(seed))


def linear_chain(w1, w2):
    """1-1-1 identity-activation net with zero biases."""
    return MlpNetwork(
        [LayerSpec(1, 1, "identity"), LayerSpec(1, 1, "identity")],
        [np.array([[w1, 0.0]]), np.array([[w2, 0.0]])],
    )


def with_params(net, theta):
    """A copy of net with the parameter vector theta, laid out as params_vector."""
    parts = np.split(theta, np.cumsum([w.size for w in net.weights])[:-1])
    return MlpNetwork(net.layers, [part.reshape(w.shape).copy() for part, w in zip(parts, net.weights)])


def finite_diff_outputs(net, x, h=1e-5):
    theta = net.params_vector()
    cols = []
    for i in range(net.num_params):
        e = np.zeros_like(theta)
        e[i] = h
        up = forward(with_params(net, theta + e), x).outputs
        dn = forward(with_params(net, theta - e), x).outputs
        cols.append((up - dn).reshape(-1) / (2.0 * h))
    return np.asarray(cols)


HIDDEN = ["tanh", "sigmoid", "relu", "identity"]
OUTPUT = ["identity", "tanh", "sigmoid"]
SHAPES = [(5, 3), (1, 3), (5, 1)]  # (B, m): a batch of one, a single output


def activation_case(hidden, output, batch, m, seed=5):
    """A [2, 4, 3, m] net, inputs and their cache; relu layers stay clear of the kink."""
    net = tiny_net([2, 4, 3, m], [hidden, hidden, output], seed=seed)
    x = np.random.default_rng(seed + 1).normal(size=(batch, 2))
    cache = forward(net, x)
    for spec, s in zip(net.layers, cache.pre_acts):
        if spec.activation == "relu":
            assert np.min(np.abs(s)) > 1e-3
    return net, x, cache


class TestForward:
    def test_identity_affine(self):
        net = MlpNetwork([LayerSpec(1, 1, "identity")], [np.array([[2.0, 0.5]])])
        cache = forward(net, np.array([[3.0]]))
        np.testing.assert_allclose(cache.outputs, [[6.5]])

    def test_zero_weights_tanh(self):
        net = MlpNetwork([LayerSpec(2, 3, "tanh")], [np.zeros((3, 3))])
        cache = forward(net, np.ones((4, 2)))
        np.testing.assert_array_equal(cache.outputs, np.zeros((4, 3)))

    def test_matches_independent_composition(self):
        # Re-evaluate a 2-3-2 tanh net pointwise with separate code.
        net = tiny_net([2, 3, 2], ["tanh", "identity"], seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 2))
        cache = forward(net, x)
        w1, w2 = net.weights
        for b in range(5):
            hidden = np.tanh(w1[:, :2] @ x[b] + w1[:, 2])
            expected = w2[:, :3] @ hidden + w2[:, 3]
            np.testing.assert_allclose(cache.outputs[b], expected, atol=1e-14)

    def test_homogeneous_column_is_ones(self):
        net = tiny_net([2, 4, 1], ["relu", "identity"])
        cache = forward(net, np.random.default_rng(2).normal(size=(6, 2)))
        for a_bar in cache.a_bars:
            np.testing.assert_array_equal(a_bar[:, -1], np.ones(6))

    def test_dimension_mismatch(self):
        net = tiny_net([2, 2], ["identity"])
        with pytest.raises(DimensionMismatch):
            forward(net, np.ones((3, 5)))

    def test_determinism(self):
        net_a = tiny_net([3, 5, 2], ["sigmoid", "identity"], seed=9)
        net_b = tiny_net([3, 5, 2], ["sigmoid", "identity"], seed=9)
        x = np.random.default_rng(4).normal(size=(8, 3))
        out_a = forward(net_a, x).outputs
        out_b = forward(net_b, x).outputs
        assert np.array_equal(out_a, out_b)


class TestBackwardLoss:
    def test_zero_residual_squared(self):
        net = tiny_net([2, 3, 2], ["tanh", "identity"])
        x = np.random.default_rng(0).normal(size=(4, 2))
        cache = forward(net, x)
        grads = backward_loss(net, cache, cache.outputs, SQUARED)
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_scalar_affine_hand_gradient(self):
        w, b, x, y = 2.0, 0.5, 3.0, 1.0
        net = MlpNetwork([LayerSpec(1, 1, "identity")], [np.array([[w, b]])])
        cache = forward(net, np.array([[x]]))
        (grad,) = backward_loss(net, cache, np.array([[y]]), SQUARED)
        resid = w * x + b - y
        np.testing.assert_allclose(grad, [[resid * x, resid]])

    @pytest.mark.parametrize("batch, m", SHAPES)
    @pytest.mark.parametrize("output", OUTPUT)
    @pytest.mark.parametrize("hidden", HIDDEN)
    @pytest.mark.parametrize("loss", [SQUARED, SOFTMAX_CE])
    def test_matches_finite_differences(self, loss, hidden, output, batch, m):
        net, x, cache = activation_case(hidden, output, batch, m)
        rng = np.random.default_rng(6)
        y = rng.normal(size=(batch, m)) if loss == SQUARED else rng.integers(0, m, size=batch)
        got = np.concatenate(
            [g.reshape(-1) for g in backward_loss(net, cache, y, loss, reduction="mean")]
        )
        theta = net.params_vector()
        h = 1e-5
        fd = np.empty_like(theta)
        for i in range(theta.shape[0]):
            e = np.zeros_like(theta)
            e[i] = h
            up = loss_value(forward(with_params(net, theta + e), x).outputs, y, loss)
            dn = loss_value(forward(with_params(net, theta - e), x).outputs, y, loss)
            fd[i] = (up - dn) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(got - fd)) / scale <= 1e-5

    def test_sum_reduction_is_batch_times_mean(self):
        net = tiny_net([1, 2, 1], ["tanh", "identity"])
        x = np.random.default_rng(1).normal(size=(4, 1))
        y = np.zeros((4, 1))
        cache = forward(net, x)
        mean = backward_loss(net, cache, y, SQUARED, reduction="mean")
        total = backward_loss(net, cache, y, SQUARED, reduction="sum")
        for m, t in zip(mean, total):
            np.testing.assert_allclose(t, 4.0 * m, atol=1e-14)


class TestOutputJacobians:
    def test_last_layer_identity_gives_unit_vectors(self):
        net = tiny_net([2, 3, 2], ["tanh", "identity"])
        cache = forward(net, np.random.default_rng(2).normal(size=(3, 2)))
        jacs = output_jacobians(net, cache)
        last = jacs[-1]  # (m, B, d_L)
        for c in range(2):
            expected = np.zeros((3, 2))
            expected[:, c] = 1.0
            np.testing.assert_array_equal(last[c], expected)

    def test_linear_chain_factors(self):
        # dphi/ds_1 = w2 and dphi/ds_2 = 1 for the two-layer linear chain.
        net = linear_chain(0.7, -1.9)
        cache = forward(net, np.array([[0.3], [2.0]]))
        jacs = output_jacobians(net, cache)
        np.testing.assert_allclose(jacs[0][0], np.full((2, 1), -1.9))
        np.testing.assert_allclose(jacs[1][0], np.ones((2, 1)))

    @pytest.mark.parametrize("batch, m", SHAPES)
    @pytest.mark.parametrize("output", OUTPUT)
    @pytest.mark.parametrize("hidden", HIDDEN)
    def test_contraction_reproduces_param_jacobian(self, hidden, output, batch, m):
        # Ds contracted with ds/dtheta must equal dphi/dtheta from finite
        # differences: checked through param_jacobian, which performs exactly
        # that contraction.
        net, x, _ = activation_case(hidden, output, batch, m, seed=8)
        j = param_jacobian(net, x)
        fd = finite_diff_outputs(net, x)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(j - fd)) / scale <= 1e-5


class TestParamJacobian:
    def test_single_parameter_linear_model(self):
        # phi(theta)(x) = theta x realized as a 1-1 net with zero bias; the
        # jacobian w.r.t. the weight entry is the input itself.
        net = MlpNetwork([LayerSpec(1, 1, "identity")], [np.array([[0.9, 0.0]])])
        j = param_jacobian(net, np.array([[1.0], [2.0]]))
        np.testing.assert_allclose(j[0], [1.0, 2.0])

    def test_two_layer_chain_rule(self):
        w1, w2 = 0.6, -1.1
        net = linear_chain(w1, w2)
        x = np.array([[0.5], [2.0]])
        j = param_jacobian(net, x)
        np.testing.assert_allclose(j[0], w2 * x[:, 0])  # dphi/dw1 = w2 x
        np.testing.assert_allclose(j[2], w1 * x[:, 0])  # dphi/dw2 = w1 x

    def test_random_net_matches_finite_differences(self):
        net = tiny_net([3, 4, 2], ["tanh", "identity"], seed=11)
        x = np.random.default_rng(12).normal(size=(5, 3))
        j = param_jacobian(net, x)
        fd = finite_diff_outputs(net, x)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(j - fd)) / scale <= 1e-5

    @pytest.mark.parametrize("dims,batch", [([2, 16, 16, 2], 500), ([3, 4, 1], 7), ([2, 5, 3], 1)])
    def test_tangents_matrix_is_the_einsum_outer_product(self, dims, batch):
        # Each layer block of J^T is the outer product Ds_l (x) abar_{l-1}:
        # a single multiply, bitwise equal to the einsum that spells it out.
        net = tiny_net(dims, ["tanh"] * (len(dims) - 2) + ["identity"], seed=3)
        x = np.random.default_rng(4).normal(size=(batch, dims[0]))
        tangents = Tangents.of_network(net, forward(net, x))
        blocks = [np.einsum("cbp,bq->bcpq", d, a).reshape(batch, net.output_dim, -1)
                  for a, d in zip(tangents.a_bars, tangents.jacobians)]
        expected = np.concatenate(blocks, axis=2).reshape(batch * net.output_dim, -1).T
        assert np.array_equal(tangents.matrix(), expected)

    def test_too_large(self, monkeypatch):
        monkeypatch.setattr(network, "DENSE_BUDGET", 10)
        net = tiny_net([4, 8, 4], ["tanh", "identity"])
        with pytest.raises(TooLarge):
            param_jacobian(net, np.ones((4, 4)))


class TestHomogeneousBias:
    def test_bias_column_equivalent_to_explicit_bias(self):
        # Gradients of the combined Wbar match a formulation that treats the
        # weight block and bias vector separately.
        net = tiny_net([2, 3, 1], ["tanh", "identity"], seed=13)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(4, 1))
        cache = forward(net, x)
        grads = backward_loss(net, cache, y, SQUARED, reduction="sum")

        w1, w2 = net.weights
        pred = lambda xb: w2[:, :3] @ np.tanh(w1[:, :2] @ xb + w1[:, 2]) + w2[:, 3]
        h = 1e-6
        # Explicit bias-gradient of layer 1 by central differences on b only.
        fd_bias = np.zeros(3)
        for k in range(3):
            for sign in (1.0, -1.0):
                w1_mod = w1.copy()
                w1_mod[k, 2] += sign * h
                net_mod = MlpNetwork(net.layers, [w1_mod, w2])
                out = forward(net_mod, x).outputs
                fd_bias[k] += sign * 0.5 * float(np.sum((out - y) ** 2)) / (2.0 * h)
        np.testing.assert_allclose(grads[0][:, 2], fd_bias, atol=1e-4)


class TestReluSubgradient:
    def test_relu_derivative_zero_at_kink(self):
        net = MlpNetwork([LayerSpec(1, 1, "relu")], [np.array([[1.0, 0.0]])])
        x = np.array([[0.0]])
        cache = forward(net, x)
        grads = backward_loss(net, cache, np.array([[1.0]]), SQUARED)
        np.testing.assert_array_equal(grads[0], np.zeros((1, 2)))
