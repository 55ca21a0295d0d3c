import numpy as np
import pytest

from sobnat.losses import SOFTMAX_CE, SQUARED, loss_and_grad, loss_grad_z, loss_value, softmax


def reference_softmax(z):
    """The row-reduced softmax, numpy's max and sum along the last axis."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def logits(batch, m, ndim, seed=0):
    z = 3.0 * np.random.default_rng([seed, batch, m]).normal(size=(batch, m))
    return z[0] if ndim == 1 else z


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("batch", [1, 50, 500])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_softmax_bitwise_equal_to_row_reductions(m, batch, ndim):
    z = logits(batch, m, ndim)
    np.testing.assert_array_equal(softmax(z), reference_softmax(z))


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("batch", [1, 50, 500])
def test_softmax_ten_classes_within_an_ulp(batch, ndim):
    # numpy sums 8 or more terms pairwise, the column sums left to right.
    z = logits(batch, 10, ndim)
    np.testing.assert_allclose(softmax(z), reference_softmax(z), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("kind", [SQUARED, SOFTMAX_CE])
def test_loss_value_and_grad_match_explicit_expressions(kind, ndim):
    # The explicit loss and dL/dz, on single samples as well as batches.
    rng = np.random.default_rng(1)
    z = logits(50, 3, ndim)
    zb = z.reshape(1, -1) if ndim == 1 else z
    batch = zb.shape[0]
    if kind == SQUARED:
        y = rng.normal(size=(batch, 3))
        loss, grad = 0.5 * np.mean(np.sum((zb - y) ** 2, axis=1)), zb - y
    else:
        y = rng.integers(0, 3, size=batch)
        p = reference_softmax(zb)
        loss, grad = -np.mean(np.log(p[np.arange(batch), y])), p - np.eye(3)[y]
    if ndim == 1:
        y = y[0]
    assert loss_value(z, y, kind) == pytest.approx(loss, rel=1e-14)
    np.testing.assert_allclose(loss_grad_z(z, y, kind), grad, rtol=0.0, atol=1e-15)


def test_fused_loss_matches_definitions():
    rng = np.random.default_rng(2)
    z, labels = rng.normal(size=(20, 4)), rng.integers(0, 4, size=20)
    p = reference_softmax(z)
    loss, grad = loss_and_grad(z, labels, SOFTMAX_CE)
    assert loss == pytest.approx(-np.mean(np.log(p[np.arange(20), labels])), rel=1e-14)
    np.testing.assert_allclose(grad, p - np.eye(4)[labels], rtol=0.0, atol=1e-15)
    y = rng.normal(size=(20, 4))
    loss, grad = loss_and_grad(z, y, SQUARED)
    assert loss == pytest.approx(0.5 * np.sum((z - y) ** 2) / 20, rel=1e-14)
    np.testing.assert_array_equal(grad, z - y)


@pytest.mark.parametrize("batch", [1, 7, 50, 500, 1001])
@pytest.mark.parametrize("kind", [SQUARED, SOFTMAX_CE])
def test_mean_is_numpy_mean_bit_for_bit(kind, batch):
    # loss_and_grad takes the mean as sum / size, which is np.mean's own
    # reduction and division without its wrapper.
    rng = np.random.default_rng(batch)
    z = logits(batch, 3, 2)
    if kind == SQUARED:
        y = rng.normal(size=(batch, 3))
        expected = 0.5 * np.mean(np.sum((z - y) ** 2, axis=1))
    else:
        y = rng.integers(0, 3, size=batch)
        expected = -np.mean(np.log(np.maximum(softmax(z)[np.arange(batch), y], 1e-300)))
    assert loss_and_grad(z, y, kind)[0] == expected


def test_unknown_kind():
    with pytest.raises(ValueError):
        loss_and_grad(np.zeros((2, 2)), np.zeros(2), "hinge")
