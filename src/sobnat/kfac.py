"""Kronecker-factored approximation of the kernel-weighted metric.

Each layer block of the batch metric estimate is

    E_K[ abar abar^T  (x)  Ds Ds^T ],    E_K[X (x) Y] = X(x_i) Kinv_{ij} Y(x_j),

and the K-FAC independence assumption factors it into

    A = (1/B) E_K[abar abar^T],    S = sum_c E_K[Ds^(c) Ds^(c)T],

so the layer update solves vec(S^-1 V A^-1).  Each kernel average is the
Gram product of arrays whitened by the Gram's Cholesky factor K = L L^T,
E_K[X Y] = (L^-1 X)^T (L^-1 Y), so no K^-1 is formed and the factors are
symmetric by construction.  The whitening is one solve over every layer's
columns stacked into one array; K = I needs no whitening, so there
:func:`compute_factors` reads each layer's abar and Ds where
:class:`~sobnat.network.Tangents` holds them, with no stack (420 KB at
B = 500 on [2,16,16,2]) and no copy.  The single batch-size normalization
sits on the activation factor: with K = I it makes A the empirical
activation average of standard K-FAC, and on batches whose statistics
factorize the product A (x) S then reproduces the corresponding block of
the unnormalized metric estimate exactly.  Factors are tracked as moving
averages; damping is split across the factors with the trace-balancing pi
heuristic.

A refresh is one state transition: :func:`update_state` folds the fresh
factors in and forms their damped inverses (:func:`refresh_inverses`), and
:func:`precondition` is the product S^-1 V A^-1 on the inverses the last
update formed.  These are the package's one explicit inverse: each is
formed from its Cholesky factor once per refresh, as LAPACK potrs of the
identity, and reused for :data:`REFRESH_PERIOD` steps.  potrs returns it
Fortran-ordered; the refresh stores one C-ordered copy, so a plain step
between refreshes is two GEMMs per layer, S^-1 V A^-1, on arrays used as
they are.  On the desk config ([2,16,16,2], B = 50, one BLAS thread, 2-core
x86 host; in-process, 2900 steps in windows of ten whose first step
refreshes, three runs) a plain ``sobolev_kfac`` step takes 65-70 us (minimum)
and 72-75 us (median), against 78-82 and 85-91 us when every step copied
the F-ordered inverses, and a refresh step 314-324 and 346-364 us: the
Gram, the output Jacobians, the factors and six damped inverses of order
17 or less.  An eigenbasis form measured slower in both the refresh and
the preconditioning product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotPositiveDefinite
from .kernel import GramMatrix
from .network import Tangents

__all__ = ["KfacLayerState", "compute_factors", "update_state", "refresh_inverses", "precondition"]

REFRESH_PERIOD = 10  # train_step refreshes the factors on steps 0, 10, 20, ...


@dataclass
class KfacLayerState:
    """Running Kronecker factors for one layer and their damped inverses.

    a_factor is (d_in+1) x (d_in+1), s_factor d_out x d_out; both start
    unset and adopt a copy of the first batch's, then follow
    new = decay * old + (1 - decay) * fresh, folded into the same arrays.
    a_inv and s_inv are the C-ordered damped inverses of the current
    factors: every successful :func:`update_state` forms them, and they
    are unset before the first update and after a refresh that raised.
    damping is the value the inverses were last formed with:
    refresh_inverses raises it tenfold while a damped factor is indefinite
    and keeps the raised value for the next refresh.
    """

    decay: float = 0.95
    damping: float = 0.03
    a_factor: np.ndarray = None
    s_factor: np.ndarray = None
    a_inv: np.ndarray = None
    s_inv: np.ndarray = None

    def __post_init__(self):
        # Written so that nan fails the comparisons.
        if not 0.0 <= self.decay <= 1.0:
            raise ValueError("decay must lie in [0, 1]")
        if not 0 <= self.damping < math.inf:
            raise ValueError(f"damping must be non-negative and finite, got {self.damping}")


def compute_factors(tangents: Tangents, gram: GramMatrix = None) -> list:
    """Per-layer factors (A, S) from the layer factors of the Jacobian.

    tangents is :meth:`Tangents.of_network` of the batch, or any dense J
    as :meth:`Tangents.of_matrix`: a single block, on which gram=None gives
    A = [[1]] and S = J J^T.  gram=None selects K = I.  A carries the
    batch-size normalization; S sums the per-output-component Jacobian
    statistics unnormalized, so that A (x) S matches the unnormalized dense
    layer block when the batch statistics factorize.

    Each layer's A = a_w^T a_w / B and S = ds_w^T ds_w are products of its
    (B, q_l) activations a_w and its (B*m, p_l) output Jacobians ds_w
    (:func:`_operands`).
    """
    factors = []
    for a_w, ds_w in _operands(tangents, gram):
        a = a_w.T @ a_w
        a /= tangents.batch
        factors.append((a, ds_w.T @ ds_w))
    return factors


def _operands(tangents: Tangents, gram: GramMatrix):
    """Per layer, the (a_w, ds_w) whose products are A and S.

    With K = I these are read where tangents holds them: a_w is a_bars[l]
    itself, and ds_w is jacobians[l] with its rows in the (c, b) order they
    are held in, a view for a network's tangents, so nothing is copied; S
    does not depend on the order of the rows.  With a Gram, every layer's
    columns are whitened by one solve, so they are stacked into one
    (B, sum(q_l + m*p_l)) array first, and a_w and ds_w are its slices,
    ds_w in (b, c) row order.
    """
    layers = list(zip(tangents.a_bars, tangents.jacobians))
    if gram is None:
        return ((a_bar, ds.reshape(-1, ds.shape[2])) for a_bar, ds in layers)
    if gram.size != tangents.batch:
        raise DimensionMismatch(f"gram has {gram.size} points, batch is {tangents.batch}")
    return _whitened_layers(layers, gram)


def _whitened_layers(layers: list, gram: GramMatrix):
    """(L^-1 abar_l, L^-1 Ds_l) per layer, as (B, q_l) and (B*m, p_l) arrays."""
    # Row b holds [abar_l(x_b) | Ds_l^(1)(x_b) | ... | Ds_l^(m)(x_b)] for every layer l.
    stacked = np.concatenate([col for a_bar, ds in layers for col in (a_bar, *ds)], axis=1)
    stacked = gram.whiten(stacked, overwrite_b=True)
    start = 0
    for a_bar, ds in layers:
        mid = start + a_bar.shape[1]
        end = mid + ds.shape[0] * ds.shape[2]
        yield stacked[:, start:mid], stacked[:, mid:end].reshape(-1, ds.shape[2])  # (B*m, d_out)
        start = end


def update_state(state: KfacLayerState, fresh_a: np.ndarray, fresh_s: np.ndarray) -> KfacLayerState:
    """Fold a fresh factor pair into the running averages in place, then
    form their damped inverses by :func:`refresh_inverses`.

    The first pair is copied.  Later pairs are folded into the running
    arrays themselves, ``a *= decay; a += (1 - decay) * fresh``, which gives
    the bits of ``decay * a + (1 - decay) * fresh``; the caller's arrays are
    never written.  A refresh that raises leaves the folded factors and no
    inverses.
    """
    if state.a_factor is None:
        state.a_factor = np.array(fresh_a, dtype=np.float64)
        state.s_factor = np.array(fresh_s, dtype=np.float64)
    else:
        if state.a_factor.shape != fresh_a.shape or state.s_factor.shape != fresh_s.shape:
            raise DimensionMismatch("fresh factors do not match the running shapes")
        keep = 1.0 - state.decay
        state.a_factor *= state.decay
        state.a_factor += keep * fresh_a
        state.s_factor *= state.decay
        state.s_factor += keep * fresh_s
    refresh_inverses(state)
    return state


def _damped_inverse(factor: np.ndarray, shift: float) -> np.ndarray:
    """(factor + shift I)^-1, C-ordered.

    potrs returns the solve of the identity Fortran-ordered; the one copy
    to C order here keeps every preconditioning GEMM copy-free.
    """
    chol = linalg.cholesky_factor(factor, shift)
    return np.ascontiguousarray(linalg.solve_from_factor(chol, np.eye(len(factor))))


def refresh_inverses(state: KfacLayerState) -> None:
    """Recompute the damped factor inverses, escalating damping if needed.

    The trace-balancing split pi^2 = mean-diagonal(S) / mean-diagonal(A)
    (1 when either is not positive) is taken once; each attempt forms
    (A + sqrt(lam)/pi I)^-1 and (S + pi sqrt(lam) I)^-1.  While a damped
    factor is indefinite lam rises tenfold, up to three times; an escalated
    damping is kept in state.damping, so later refreshes start from it.
    A factor with a non-finite entry anywhere raises NotPositiveDefinite,
    naming it, before any factorization, since no damping can mend it and
    cholesky_factor reads only one triangle.  The old inverses are cleared
    first, so a refresh that raises leaves none.  A state without factors raises ValueError.
    """
    if state.a_factor is None:
        raise ValueError("state holds no factors: it was never updated")
    state.a_inv = state.s_inv = None
    a, s = state.a_factor, state.s_factor
    for name, factor in (("A", a), ("S", s)):
        if not np.isfinite(factor).all():
            raise NotPositiveDefinite(f"K-FAC factor {name} of order {len(factor)} is not finite")
    ta, ts = a.trace() / len(a), s.trace() / len(s)
    pi = math.sqrt(ts / ta) if ta > 0 and ts > 0 else 1.0
    lam = state.damping
    for attempt in range(4):
        if attempt:
            lam = max(lam, 1e-12) * 10.0
        sq = math.sqrt(lam)
        name, factor = "A", a
        try:
            a_inv = _damped_inverse(a, sq / pi)
            name, factor = "S", s
            s_inv = _damped_inverse(s, sq * pi)
        except NotPositiveDefinite:
            continue
        state.a_inv, state.s_inv, state.damping = a_inv, s_inv, lam
        return
    raise NotPositiveDefinite(
        f"K-FAC factor {name} of order {len(factor)} stayed indefinite after damping "
        f"escalation (last damping {lam:.3g})"
    )


def precondition(state: KfacLayerState, v: np.ndarray) -> np.ndarray:
    """Apply the damped factored inverse to a gradient matrix V.

    Returns (S + pi sqrt(lam) I)^-1 V (A + sqrt(lam)/pi I)^-1, the factored
    solve of the damped layer block: s_inv @ v @ a_inv, two GEMMs on the
    inverses the last :func:`update_state` formed, equal to (A^-1 (x) S^-1)
    applied to the column-stacked vec(V).  With identity factors and zero
    damping this is the identity map.  Raises ValueError when the state
    holds no inverses, and DimensionMismatch when V is not d_out x (d_in+1).
    """
    if state.a_inv is None:
        raise ValueError("state holds no inverses: it was never updated, or its last refresh raised")
    shape = (len(state.s_inv), len(state.a_inv))
    if np.shape(v) != shape:
        raise DimensionMismatch(f"v has shape {np.shape(v)}, expected {shape}")
    return state.s_inv @ v @ state.a_inv
