"""Kronecker-factored approximation of the kernel-weighted metric.

Each layer block of the batch metric estimate is

    E_K[ abar abar^T  (x)  Ds Ds^T ],    E_K[X (x) Y] = X(x_i) Kinv_{ij} Y(x_j),

and the K-FAC independence assumption factors it into

    A = (1/B) E_K[abar abar^T],    S = sum_c E_K[Ds^(c) Ds^(c)T],

so the layer update solves vec(S^-1 V A^-1).  Each kernel average is the
Gram product of arrays whitened by the Gram's Cholesky factor K = L L^T,
E_K[X Y] = (L^-1 X)^T (L^-1 Y), so no K^-1 is formed and the factors are
symmetric by construction.  The single batch-size normalization sits on the
activation factor: with K = I it makes A the empirical activation average of
standard K-FAC, and on batches whose statistics factorize the product A (x) S
then reproduces the corresponding block of the unnormalized metric estimate
exactly.  Factors are tracked as moving averages; damping is split across
the factors with the trace-balancing pi heuristic.

The damped factor inverses are the package's one explicit inverse: each is
formed from its Cholesky factor once per refresh and reused for
``kfac_update_period`` steps.  An eigenbasis form measured slower in both
the refresh and the preconditioning product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotPositiveDefinite
from .kernel import GramMatrix
from .network import Tangents

__all__ = ["KfacLayerState", "compute_factors", "update_state", "precondition"]


@dataclass
class KfacLayerState:
    """Running Kronecker factors for one layer.

    a_factor is (d_in+1) x (d_in+1), s_factor d_out x d_out; both start
    unset and adopt the first batch wholesale, then follow
    new = decay * old + (1 - decay) * fresh.  Inverse caches are filled by
    refresh_inverses and dropped whenever the factors change.  damping is
    the value the inverses were last formed with: refresh_inverses raises
    it tenfold while a damped factor is indefinite and keeps the raised
    value for the next refresh.
    """

    decay: float = 0.95
    damping: float = 0.03
    a_factor: np.ndarray = None
    s_factor: np.ndarray = None
    _a_inv: np.ndarray = field(default=None, repr=False)
    _s_inv: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("decay must lie in [0, 1]")
        if self.damping < 0:
            raise ValueError("damping must be non-negative")

    @property
    def initialized(self) -> bool:
        return self.a_factor is not None

    def invalidate(self):
        self._a_inv = None
        self._s_inv = None


def compute_factors(tangents: Tangents, gram: GramMatrix = None) -> list:
    """Per-layer factors (A, S) from the layer factors of the Jacobian.

    tangents is :meth:`Tangents.of_network` of the batch, or any dense J
    as :meth:`Tangents.of_matrix`: a single block, on which gram=None gives
    A = [[1]] and S = J J^T exactly.  gram=None selects K = I.  A carries the
    batch-size normalization; S sums the per-output-component Jacobian
    statistics unnormalized, so that A (x) S matches the unnormalized dense
    layer block when the batch statistics factorize.
    """
    batch = tangents.batch
    layers = list(zip(tangents.a_bars, tangents.jacobians))
    # Row b holds [abar_l(x_b) | Ds_l^(1)(x_b) | ... | Ds_l^(m)(x_b)] for every layer l.
    stacked = np.concatenate([col for a_bar, ds in layers for col in (a_bar, *ds)], axis=1)
    if gram is not None:
        if gram.size != batch:
            raise DimensionMismatch(f"gram has {gram.size} points, batch is {batch}")
        stacked = gram.whiten(stacked, overwrite_b=True)
    factors, start = [], 0
    for a_bar, ds in layers:
        mid = start + a_bar.shape[1]
        end = mid + ds.shape[0] * ds.shape[2]
        a_w = stacked[:, start:mid]
        ds_w = stacked[:, mid:end].reshape(-1, ds.shape[2])  # (B*m, d_out)
        factors.append((a_w.T @ a_w / batch, ds_w.T @ ds_w))
        start = end
    return factors


def update_state(state: KfacLayerState, fresh_a: np.ndarray, fresh_s: np.ndarray) -> KfacLayerState:
    """Fold a fresh factor pair into the running averages in place."""
    if not state.initialized:
        state.a_factor = fresh_a.copy()
        state.s_factor = fresh_s.copy()
    else:
        if state.a_factor.shape != fresh_a.shape or state.s_factor.shape != fresh_s.shape:
            raise DimensionMismatch("fresh factors do not match the running shapes")
        state.a_factor = state.decay * state.a_factor + (1.0 - state.decay) * fresh_a
        state.s_factor = state.decay * state.s_factor + (1.0 - state.decay) * fresh_s
    state.invalidate()
    return state


def _pi(a: np.ndarray, s: np.ndarray) -> float:
    """Trace-balancing split: pi^2 = mean-diagonal(S) / mean-diagonal(A)."""
    ta = np.trace(a) / a.shape[0]
    ts = np.trace(s) / s.shape[0]
    if ta <= 0 or ts <= 0:
        return 1.0
    return float(np.sqrt(ts / ta))


def refresh_inverses(state: KfacLayerState) -> None:
    """Recompute damped factor inverses, escalating damping if needed.

    An escalated damping is kept in state.damping, so later refreshes
    start from it.
    """
    lam = state.damping
    for _ in range(4):
        sq = np.sqrt(lam)
        pi = _pi(state.a_factor, state.s_factor)
        try:
            state._a_inv = linalg.solve_from_factor(
                linalg.cholesky_factor(state.a_factor, sq / pi), np.eye(state.a_factor.shape[0])
            )
            state._s_inv = linalg.solve_from_factor(
                linalg.cholesky_factor(state.s_factor, sq * pi), np.eye(state.s_factor.shape[0])
            )
            state.damping = lam
            return
        except NotPositiveDefinite:
            lam = max(lam, 1e-12) * 10.0
    raise NotPositiveDefinite("K-FAC factors stayed indefinite after damping escalation")


def precondition(state: KfacLayerState, v: np.ndarray) -> np.ndarray:
    """Apply the damped factored inverse to a gradient matrix V.

    Returns (S + pi sqrt(lam) I)^-1 V (A + sqrt(lam)/pi I)^-1, the factored
    solve of the damped layer block.  With identity factors and zero damping
    this is the identity map.
    """
    if not state.initialized:
        raise ValueError("state has no factors yet")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (state.s_factor.shape[0], state.a_factor.shape[0]):
        raise DimensionMismatch(
            f"gradient shape {v.shape} does not match factors "
            f"({state.s_factor.shape[0]}, {state.a_factor.shape[0]})"
        )
    if state._a_inv is None or state._s_inv is None:
        refresh_inverses(state)
    return linalg.kron_precondition(state._a_inv, state._s_inv, v)
