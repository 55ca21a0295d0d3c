"""Closed-form Sobolev reproducing kernel and Gram-matrix assembly.

The kernel of the order-(n+3) Sobolev space on R^n has the radial profile

    d(r) = C_n * exp(-r) * (1 + r),

the inverse Fourier transform of (1 + |xi|^2)^(-(n+3)/2).  Only this order is
supported; other orders have different closed forms and are rejected rather
than silently approximated.

The dimension constant C_n = d(0) is exposed in two modes.  ``unit_constant``
(the default) sets C_n = 1: the constant only rescales the metric, which the
learning rate absorbs, and unit scaling keeps Gram matrices well conditioned.
``exact_dimension_constant`` takes the inverse Fourier transform's value at
r = 0 under the (2 pi)^-n convention, the Matern normalization

    C_n = Gamma(nu) / ((4 pi)^(n/2) Gamma(nu + n/2)),    nu = 3/2

(Rasmussen & Williams 2006, sec. 4.2): 1/4, 1/(6 pi) and 1/(32 pi) for
n = 1, 2 and 3.

Every kernel table -- the batch Gram here and the representer evaluations
and functional-GD rows of the data points in :mod:`sobnat.rkhs` -- comes
from :func:`kernel_matrix`, ``point_kernel`` of one ``cdist`` distance
table; no other code takes a pairwise distance for a kernel.  The profile
is evaluated in place on that table, in row blocks of at most
PROFILE_BLOCK entries, so its temporary is 128 KB rather than a second
B x B array; a table of one block or less is one evaluation.

Every kernel-weighted average ``X^T K^-1 Y`` is taken as the Gram product
``(L^-1 X)^T (L^-1 Y)`` of arrays whitened by the cached Cholesky factor
``K = L L^T`` (:meth:`GramMatrix.whiten`), or by a system that carries K
itself: the dense natural-gradient step of :mod:`sobnat.metric` factors
``Theta + damping (I_m (x) K_j)``, with ``K_j = values + jitter*d(0)*I``
the matrix whose factor the Gram holds.  No ``K^-1`` is ever formed.

The whitening is a triangular solve, blocked by SOLVE_BLOCK = 64 points
(Goto & van de Geijn 2008): a TRSM on each 64-point diagonal block of L,
then one GEMM update of the rest, so most of its flops run at GEMM speed.
Single-threaded OpenBLAS runs the 500-point TRSM at about 21 GF/s and the
64-wide GEMM updates at 40-46 GF/s; the 500 x 708 whitening of a
large-batch dense step went from 8.9-9.1 to 5.9-6.1 ms (medians of 60
calls, one BLAS thread on a 2-core x86 host).  Up to 64 points the solve
is one TRSM on the whole factor, so a B = 50 batch keeps its bits;
32-point blocks were slightly faster at B = 500 but would split that Gram.
The one other solve with K_j, :meth:`GramMatrix.solve`, takes K_j^-1 b
from the same factor in one LAPACK potrs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from . import linalg
from .errors import DegenerateGram, DimensionMismatch, NotPositiveDefinite, UnsupportedOrder

__all__ = ["KernelSpec", "GramMatrix", "dimension_constant", "point_kernel", "kernel_matrix", "gram"]

UNIT_CONSTANT = "unit_constant"
EXACT_CONSTANT = "exact_dimension_constant"

# Entries of a kernel table profiled at once: a 128 KB temporary.
PROFILE_BLOCK = 16_384
# Points per diagonal block of the blocked triangular solve.
SOLVE_BLOCK = 64


def dimension_constant(n: int) -> float:
    """C_n of the order-(n+3) kernel on R^n, the module docstring's closed form.

    Gamma(3/2) = sqrt(pi)/2 is cancelled against (4 pi)^(n/2) by hand, which
    leaves 1 / (2^(n+1) pi^((n-1)/2) Gamma((n+3)/2)).  For odd n that is a
    power of two, a whole power of pi and a factorial, so C_1 is exactly 1/4.
    """
    if n < 1:
        raise ValueError("input dimension must be >= 1")
    return 1.0 / (2.0 ** (n + 1) * math.pi ** ((n - 1) / 2) * math.gamma((n + 3) / 2))


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the Sobolev kernel on R^n.

    input_scale is the down-scaling divisor applied to raw inputs before
    distances are taken (default 20); callers of :func:`gram` are expected to
    have divided their points already.
    """

    input_dim: int
    sobolev_order: int = 0  # 0 means "default to input_dim + 3"
    constant_mode: str = UNIT_CONSTANT
    input_scale: float = 20.0
    jitter: float = 1e-8

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.sobolev_order == 0:
            object.__setattr__(self, "sobolev_order", self.input_dim + 3)
        if self.sobolev_order != self.input_dim + 3:
            raise UnsupportedOrder(
                f"closed form requires s = n + 3 = {self.input_dim + 3}, "
                f"got s = {self.sobolev_order}"
            )
        if self.constant_mode not in (UNIT_CONSTANT, EXACT_CONSTANT):
            raise ValueError(f"unknown constant_mode {self.constant_mode!r}")
        if not 0 < self.input_scale < math.inf:
            raise ValueError(f"input_scale must be positive and finite, got {self.input_scale}")
        if not 0 <= self.jitter < math.inf:
            raise ValueError(f"jitter must be non-negative and finite, got {self.jitter}")

    @property
    def constant(self) -> float:
        if self.constant_mode == UNIT_CONSTANT:
            return 1.0
        return dimension_constant(self.input_dim)


def _profile_in_place(r: np.ndarray, constant: float) -> np.ndarray:
    """Overwrite the float64 distances r with (C_n e^{-r}) (1 + r) and return r."""
    scale = np.negative(r, out=np.empty_like(r))  # out= keeps a 0-d r an array
    np.exp(scale, out=scale)
    scale *= constant
    r += 1.0
    r *= scale
    return r


def point_kernel(r, spec: KernelSpec):
    """Radial kernel value C_n e^{-r} (1 + r) at distance r >= 0."""
    r_arr = np.array(r, dtype=np.float64)  # a copy: the profile overwrites it
    if (r_arr < 0).any():
        raise ValueError("distance must be non-negative")
    value = _profile_in_place(r_arr, spec.constant)
    return float(value) if np.isscalar(r) or r_arr.ndim == 0 else value


def kernel_matrix(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel table T[a, b] = d(|x_a - y_b|) between two (., n) point sets.

    ``cdist`` takes each distance on its own, so ``kernel_matrix(x, x, spec)``
    is bitwise symmetric with a diagonal of exactly d(0).  The profile is
    evaluated in place on the fresh distance table, PROFILE_BLOCK entries
    of whole rows at a time, so its temporary stays in cache; each entry's
    bits do not depend on the blocking.
    """
    r = cdist(x, y)
    if r.size <= PROFILE_BLOCK:
        return _profile_in_place(r, spec.constant)
    rows = max(1, PROFILE_BLOCK // r.shape[1])
    for start in range(0, len(r), rows):
        _profile_in_place(r[start : start + rows], spec.constant)
    return r


@dataclass
class GramMatrix:
    """Kernel Gram matrix over a batch of (already scaled) points.

    ``values`` holds the pure kernel evaluations (diagonal exactly d(0));
    the cached Cholesky factor L is of K_j = values + jitter*d(0)*I, where
    ``jitter`` is the effective value after any escalation.  Its two solves
    are whiten, L^-1 b, which the dense metric and the K-FAC factors run
    in place on the arrays they have just built, and solve, K_j^-1 b.
    """

    values: np.ndarray
    jitter: float
    spec: KernelSpec
    _factor: np.ndarray = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def d0(self) -> float:
        """d(0) = C_n e^0 (1 + 0), which is C_n exactly."""
        return self.spec.constant

    def whiten(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        """L^-1 b, so that whiten(b)^T whiten(c) = b^T (K + jitter*d(0)*I)^-1 c.

        With overwrite_b a C-ordered float64 b is solved in its own buffer;
        any other b is solved in a copy.
        """
        # X L^T = b^T on b^T, which is Fortran-ordered for a C-ordered b, so
        # the right-side TRSM needs no layout copy.  The solve runs over
        # SOLVE_BLOCK-column blocks of b^T: a TRSM on the block's diagonal
        # triangle, then one GEMM update of the columns still to solve; up to
        # SOLVE_BLOCK points that is one TRSM on the whole factor.  Each
        # column block of b^T is a contiguous slice solved in place; only the
        # factor's panels are copied for BLAS, about B^2/2 entries in all.
        factor = self._factor
        bt = np.reshape(b, (len(b), -1)).T
        if not (overwrite_b and bt.flags.f_contiguous and bt.dtype == np.float64):
            bt = np.array(bt, dtype=np.float64, order="F")
        n = len(factor)
        for k0 in range(0, n, SOLVE_BLOCK):
            k1 = min(k0 + SOLVE_BLOCK, n)
            block = bt[:, k0:k1]
            scipy.linalg.blas.dtrsm(
                1.0, factor[k0:k1, k0:k1], block, side=1, lower=1, trans_a=1, overwrite_b=1
            )
            if k1 < n:  # b^T[:, k1:] -= X_k L[k1:, k]^T
                scipy.linalg.blas.dgemm(
                    -1.0, block, factor[k1:, k0:k1], beta=1.0, c=bt[:, k1:], trans_b=1, overwrite_c=1
                )
        return bt.T.reshape(np.shape(b))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K_j^-1 b from the cached factor, as a new array of b's shape."""
        return linalg.solve_from_factor(self._factor, b)

    def scaled(self, c: float) -> "GramMatrix":
        """Gram matrix with every kernel entry multiplied by c > 0."""
        if not c > 0:
            raise ValueError("scale must be positive")
        scaled_values = self.values * c
        out = GramMatrix(scaled_values, self.jitter, self.spec)
        out._factor = linalg.cholesky_factor(scaled_values, self.jitter * self.d0 * c)
        return out


def gram(points, spec: KernelSpec, buffer: np.ndarray = None) -> GramMatrix:
    """Assemble and factor the Gram matrix K[a, b] = d(|x_a - x_b|).

    Points are rows (a 1-D array is one point) already divided by
    spec.input_scale; a non-finite point raises DegenerateGram before any
    factor is attempted.  The factor is of
    values + jitter*d(0)*I, the shift :func:`sobnat.linalg.cholesky_factor`
    adds to its copy, so values keeps the pure kernel; on failure the jitter
    is escalated tenfold up to three times before DegenerateGram, naming the
    last jitter tried, is raised (duplicate points at excessive batch
    size); a zero jitter fails at the first attempt.  Every attempt factors
    into ``buffer``, a C-ordered float64 (B, B) array, when it is given, so
    the factor is valid until the next Gram factored there; a training run
    keeps one (:class:`~sobnat.optimizers.TrainState`).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 1:
        raise DimensionMismatch("need at least one point")
    if pts.shape[1] != spec.input_dim:
        raise DimensionMismatch(
            f"points have dimension {pts.shape[1]}, spec.input_dim is {spec.input_dim}"
        )
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise DegenerateGram(f"point in row {int(np.argmin(finite))} is not finite")
    out = GramMatrix(values=kernel_matrix(pts, pts, spec), jitter=spec.jitter, spec=spec)
    for attempt in range(4):  # initial attempt plus three escalations
        if attempt:
            out.jitter *= 10.0
        try:
            out._factor = linalg.cholesky_factor(out.values, out.jitter * out.d0, out=buffer)
            return out
        except NotPositiveDefinite:
            if out.jitter == 0.0:
                break  # tenfold zero is zero: a retry would repeat this factor
    raise DegenerateGram(
        f"Gram of {pts.shape[0]} points not positive definite after jitter escalation "
        f"(final jitter {out.jitter:.3g})"
    )
