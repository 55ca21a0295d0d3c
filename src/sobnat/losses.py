"""Componentwise losses shared by functional GD, backprop, and training.

Both losses expose the gradient in the prediction z:
squared loss          L(z, y) = 0.5 |z - y|^2,        dL/dz = z - y
softmax cross-entropy L(z, y) = -log softmax(z)_y,    dL/dz = softmax(z) - onehot(y)

A train step needs both the mean loss and dL/dz, and :func:`loss_and_grad`
gives them from one softmax.  The softmax takes its row max and row sum one
column at a time: with m outputs that is m - 1 ufunc calls over whole
columns, where numpy's reduction along the short last axis of a (B, m)
array runs one inner loop per row.  At B = 500, m = 2 (numpy 2.4, x86) the
row max takes 63 us against 1.1 us by columns and the row sum 17 us
against 1.3 us.  For m < 8 the columns add in numpy's own order, so the
softmax is bitwise the same; for m >= 8 numpy sums pairwise and the two
differ in the last bit.
"""

from __future__ import annotations

import numpy as np

SQUARED = "squared"
SOFTMAX_CE = "softmax_ce"

__all__ = ["SQUARED", "SOFTMAX_CE", "loss_and_grad", "loss_value", "loss_grad_z", "softmax"]


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    top = z[..., 0]
    for c in range(1, z.shape[-1]):
        top = np.maximum(top, z[..., c])
    e = np.exp(z - top[..., None])
    total = e[..., 0]
    for c in range(1, e.shape[-1]):
        total = total + e[..., c]
    return e / total[..., None]


def _as_batch(z):
    z = np.asarray(z, dtype=np.float64)
    return z.reshape(1, -1) if z.ndim == 1 else z


def _grad(z, y, kind: str):
    """dL/dz, shape (B, m), and for softmax CE each row's probability of its label.

    loss_grad_z stops here: functional GD calls it once per visit, and the
    squared loss's sum and mean on top would add about half to its time.
    """
    z = _as_batch(z)
    if kind == SQUARED:
        return z - _as_batch(y), None
    if kind == SOFTMAX_CE:
        rows, labels = np.arange(z.shape[0]), np.asarray(y, dtype=np.int64).reshape(-1)
        grad = softmax(z)
        picked = grad[rows, labels]
        grad[rows, labels] -= 1.0
        return grad, picked
    raise ValueError(f"unknown loss kind {kind!r}")


def loss_and_grad(z, y, kind: str):
    """(mean per-sample loss over the batch, per-sample gradient dL/dz)."""
    grad, picked = _grad(z, y, kind)
    if picked is None:
        return float(0.5 * np.mean(np.sum(grad**2, axis=1))), grad
    return float(-np.mean(np.log(np.maximum(picked, 1e-300)))), grad


def loss_value(z, y, kind: str) -> float:
    """Mean per-sample loss over the batch."""
    return loss_and_grad(z, y, kind)[0]


def loss_grad_z(z, y, kind: str) -> np.ndarray:
    """Per-sample gradient dL/dz, shape (B, m)."""
    return _grad(z, y, kind)[0]
