"""The oracles behind ``sobnat verify`` against references kept here: the
per-basis tangent Gram and the central differences taken on networks
rebuilt from the perturbed parameter vector."""

import numpy as np
import pytest

from sobnat import kernel, losses, network, rkhs, verify
from sobnat.network import MlpNetwork


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 5.0])
def test_fourier_inversion_matches_the_closed_form_kernel(r):
    assert verify.kernel_quadrature_error([r]) <= 1e-9


def test_thresholds_are_unchanged():
    thresholds = {
        name: getattr(verify, name)
        for name in dir(verify)
        if name.endswith(("_TOL", "_MIN", "_SLACK"))
    }
    assert thresholds == {
        "KERNEL_QUADRATURE_TOL": 1e-6,
        "GRADCHECK_TOL": 1e-5,
        "EXACTNESS_TOL": 1e-10,
        "ORTHONORMALITY_TOL": 1e-8,
        "KRON_BLOCK_TOL": 1e-10,
        "KRON_PRECONDITION_TOL": 1e-12,
        "QUADRATURE_TOL": 1e-8,
        "QUADRATURE_CROSS_MIN": 1e-3,
        "INVARIANCE_TOL": 0.02,
        "EUCLIDEAN_BREAK_MIN": 0.25,
        "DECREASE_SLACK": 1e-10,
    }


def per_basis_tangent_error(net, probes):
    """One param_jacobian per (basis function, probe), each basis function
    picking its row."""
    basis = [
        lambda x, i=i: network.param_jacobian(net, np.atleast_2d(x))[i].reshape(-1)
        for i in range(net.num_params)
    ]
    gram = rkhs.check_basis_orthonormality(basis, probes)
    return float(np.max(np.abs(gram - np.eye(net.num_params))))


@pytest.mark.parametrize("dims, seed", [([1, 1, 1], 5), ([1, 1, 1], 8), ([1, 2, 1], 3), ([2, 2, 1], 4)])
def test_tangent_basis_takes_one_jacobian_per_probe(monkeypatch, dims, seed):
    gen = np.random.default_rng(seed)
    net = MlpNetwork.create(dims, ["tanh", "identity"], gen)
    probes = gen.uniform(-2.0, 2.0, size=(9, dims[0]))
    expected = per_basis_tangent_error(net, probes)
    calls, jacobian = [], network.param_jacobian

    def counting(net, x):
        calls.append(x)
        return jacobian(net, x)

    monkeypatch.setattr(network, "param_jacobian", counting)
    assert verify.tangent_basis_error(net, probes) == expected
    assert len(calls) == len(probes)


def with_params(net, theta):
    """A copy of net with the parameter vector theta, laid out as params_vector."""
    parts = np.split(theta, np.cumsum([w.size for w in net.weights])[:-1])
    return MlpNetwork(net.layers, [part.reshape(w.shape).copy() for part, w in zip(parts, net.weights)])


def rebuilt_differences(net, x, y):
    """Central differences through with_params(net, theta +- e_i h), one
    rebuilt network per evaluation."""
    theta = net.params_vector()
    h = 1e-5
    fd_out = np.empty((theta.shape[0], x.shape[0] * net.output_dim))
    fd_loss = np.empty_like(theta)
    for i in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[i] = h
        up = network.forward(with_params(net, theta + e), x).outputs
        dn = network.forward(with_params(net, theta - e), x).outputs
        fd_out[i] = (up - dn).reshape(-1) / (2 * h)
        loss_up, loss_dn = (losses.loss_value(z, y, losses.SQUARED) for z in (up, dn))
        fd_loss[i] = (loss_up - loss_dn) / (2 * h)
    return fd_out, fd_loss


@pytest.mark.parametrize("seed", range(4))
def test_gradcheck_differences_are_the_rebuilt_ones(monkeypatch, seed):
    gen = np.random.default_rng(seed)
    dims = [int(gen.integers(1, 4)), int(gen.integers(2, 5)), int(gen.integers(1, 3))]
    net = MlpNetwork.create(dims, ["tanh", "identity"], gen)
    weights = [w.copy() for w in net.weights]
    x, y = gen.normal(size=(4, dims[0])), gen.normal(size=(4, dims[2]))
    fd_out, fd_loss = rebuilt_differences(net, x, y)
    compared, row_error = [], verify._row_relative_error

    def recording(got, fd):
        compared.append(fd)
        return row_error(got, fd)

    monkeypatch.setattr(verify, "_row_relative_error", recording)
    verify.gradcheck_error(net, x, y)
    assert np.array_equal(compared[0], fd_out)
    assert np.array_equal(compared[1], fd_loss[:, None])
    assert all(np.array_equal(w, v) for w, v in zip(net.weights, weights))


def test_nan_kernel_value_fails_the_quadrature_oracle(monkeypatch):
    exact = kernel.point_kernel
    monkeypatch.setattr(kernel, "point_kernel", lambda r, spec: np.nan if r == 2.0 else exact(r, spec))
    assert not verify.kernel_quadrature_error([0.0, 2.0, 5.0]) <= verify.KERNEL_QUADRATURE_TOL


def test_unknown_suite_after_a_known_one_runs_no_suite(monkeypatch):
    ran = []

    def kernel_suite():
        ran.append("kernel")
        return []

    monkeypatch.setitem(verify.SUITES, "kernel", kernel_suite)
    with pytest.raises(KeyError, match="unknown suite 'nope'"):
        verify.run_suites(["kernel", "nope"])
    assert ran == []
