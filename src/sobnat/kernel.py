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

A batch Gram is one B x B array.  :func:`gram` writes the table into the
caller's buffer: up to TABLE_BLOCK = 64 points ``cdist`` writes it there in
one call; above, each block of 64 rows takes ``cdist`` and the profile for
the points from its own first row on, and the part right of its diagonal
block is mirrored into the lower triangle.  That takes each distance once,
with the bits ``kernel_matrix`` gives it, and at B = 500 builds the table
in 0.76-0.78 ms against 0.99-1.01 ms for the whole one (one BLAS thread,
2-core x86 host).  At 64 points or fewer the blocked form measured slower
than the one call.  LAPACK's potrf factors K_j there from the upper
triangle, the only one it reads or writes (Anderson et al., *LAPACK
Users' Guide*, 1999), so the strict lower triangle keeps the kernel.  :attr:`GramMatrix.values` and :meth:`GramMatrix.jittered` rebuild
the symmetric table from it only when asked: by the kernel-space solve,
whose batch is small, and by the oracles.  At B = 500 a fresh 2 MB table
per step, freed once a copy of it was factored, left glibc's heap past its
trim threshold, so the next step faulted about 1500 pages back in; a
``sobolev_dense`` train step in one array took no minor faults and 10.2
instead of 12.0 ms (one BLAS thread, 2-core x86 host), until the P x P
metric's smaller operand lowered the threshold again
(:class:`~sobnat.optimizers.TrainState`).

Every kernel-weighted average ``X^T K^-1 Y`` is taken as the Gram product
``(L^-1 X)^T (L^-1 Y)`` of arrays whitened by the cached Cholesky factor
``K = L L^T`` (:meth:`GramMatrix.whiten`), or by a system that carries K
itself: the dense natural-gradient step of :mod:`sobnat.metric` factors
``Theta + damping (I_m (x) K_j)``, with ``K_j = values + jitter*d(0)*I``
the matrix whose factor the Gram holds (:meth:`GramMatrix.jittered`).  No
``K^-1`` is ever formed.

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

import functools
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
# Rows per block of a batch Gram's kernel table, whose distances are taken
# from the diagonal on and mirrored.
TABLE_BLOCK = 64


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


def kernel_matrix(x: np.ndarray, y: np.ndarray, spec: KernelSpec, out: np.ndarray = None) -> np.ndarray:
    """Kernel table T[a, b] = d(|x_a - y_b|) between two (., n) point sets.

    ``cdist`` takes each distance on its own, so ``kernel_matrix(x, x, spec)``
    is bitwise symmetric with a diagonal of exactly d(0).  The distance
    table is fresh, or ``out`` (a C-ordered float64 array of the table's
    shape) when it is given, with the same bits; the profile is evaluated
    in place on it, PROFILE_BLOCK entries of whole rows at a time, so its
    temporary stays in cache; each entry's bits do not depend on the
    blocking.
    """
    r = cdist(x, y, out=out)
    if r.size <= PROFILE_BLOCK:
        return _profile_in_place(r, spec.constant)
    rows = max(1, PROFILE_BLOCK // r.shape[1])
    for start in range(0, len(r), rows):
        _profile_in_place(r[start : start + rows], spec.constant)
    return r


def _gram_table(pts: np.ndarray, spec: KernelSpec, out: np.ndarray) -> np.ndarray:
    """kernel_matrix(pts, pts, spec, out=out), bit for bit, with each distance taken once.

    Up to TABLE_BLOCK points it is that one call.  Above, each block of
    TABLE_BLOCK rows takes the kernel against the points from its own
    first row on, in one scratch array reused by every block, and the part
    right of its diagonal block is mirrored below it: cdist takes each
    distance on its own, so the mirrored entry has the bits the table's
    own would have.
    """
    n = len(pts)
    if n <= TABLE_BLOCK:
        return kernel_matrix(pts, pts, spec, out=out)
    scratch = np.empty(TABLE_BLOCK * n)
    for r0 in range(0, n, TABLE_BLOCK):
        r1 = min(r0 + TABLE_BLOCK, n)
        rows = scratch[: (r1 - r0) * (n - r0)].reshape(r1 - r0, n - r0)
        kernel_matrix(pts[r0:r1], pts[r0:], spec, out=rows)
        out[r0:r1, r0:] = rows
        out[r1:, r0:r1] = rows[:, r1 - r0 :].T
    return out


@functools.lru_cache(maxsize=8)
def _strict_upper(n: int) -> np.ndarray:
    """Read-only (n, n) mask of the strict upper triangle."""
    mask = ~np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel Gram matrix over a batch of (already scaled) points, in one B x B array.

    ``_factor`` is that array as LAPACK leaves it, Fortran-ordered: its
    lower triangle is the Cholesky factor L of K_j = K + jitter*d0*I, where
    ``jitter`` is the effective value after any escalation, and its strict
    upper triangle still holds the kernel values, which the factor never
    wrote.  ``d0`` is the diagonal of K: the kernel's d(0), times c for
    :meth:`scaled`.  :attr:`values` and :meth:`jittered` rebuild K and K_j
    from that triangle and d0 as new arrays, which stay valid when the
    buffer is reused.  The two solves are whiten, L^-1 b, which the dense metric and
    the K-FAC factors run in place on the arrays they have just built, and
    solve, K_j^-1 b.
    """

    jitter: float
    spec: KernelSpec
    d0: float
    _factor: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self._factor)

    @property
    def values(self) -> np.ndarray:
        """The pure kernel table K as a new C-ordered array: bitwise symmetric, diagonal d0."""
        return self._table(self.d0)

    def jittered(self) -> np.ndarray:
        """K_j = values + jitter*d0*I, the matrix the factor is of, as a new C-ordered array."""
        return self._table(self.d0 + self.jitter * self.d0)

    def _table(self, diagonal: float) -> np.ndarray:
        # The C-ordered view of the factor's array holds K in its strict
        # lower triangle; a contiguous copy of it takes the strict upper
        # triangle from the F-ordered factor's, which is that triangle's
        # transpose.
        n = len(self._factor)
        table = self._factor.T.copy()
        np.copyto(table, self._factor, where=_strict_upper(n))
        table.reshape(-1)[:: n + 1] = diagonal
        return table

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
        """Gram matrix of the kernel c*d, c > 0: every entry and d0 times c, in a new array."""
        if not c > 0:
            raise ValueError("scale must be positive")
        table = self.values
        table *= c
        d0 = self.d0 * c
        factor = linalg.cholesky_factor(table, self.jitter * d0, overwrite_a=True)
        return GramMatrix(self.jitter, self.spec, d0, factor)


def gram(points, spec: KernelSpec, buffer: np.ndarray = None) -> GramMatrix:
    """Assemble and factor the Gram matrix K[a, b] = d(|x_a - x_b|) in one B x B array.

    Points are rows (a 1-D array is one point) already divided by
    spec.input_scale; a non-finite point raises DegenerateGram before any
    factor is attempted.  The kernel table is written into ``buffer``, a
    C-ordered float64 (B, B) array, or a fresh one, and
    :func:`sobnat.linalg.cholesky_factor` factors K_j = K + jitter*d(0)*I
    in place there from its upper triangle, so the strict lower triangle
    keeps K for :attr:`GramMatrix.values`.  On failure the jitter is
    escalated tenfold up to three times, each attempt on a rewritten
    table, before DegenerateGram, naming the last jitter tried, is raised
    (duplicate points at excessive batch size); a zero jitter fails at the
    first attempt.  The Gram is valid until the next one made in the same
    buffer; a training run keeps one (:class:`~sobnat.optimizers.TrainState`).
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
    n = pts.shape[0]
    if buffer is None:
        buffer = np.empty((n, n))
    elif buffer.shape != (n, n) or buffer.dtype != np.float64 or not buffer.flags.c_contiguous:
        raise DimensionMismatch(
            f"buffer must be a C-ordered float64 array of shape {(n, n)}, got {buffer.dtype} {buffer.shape}"
        )
    d0, jitter = spec.constant, spec.jitter
    for attempt in range(4):  # initial attempt plus three escalations
        if attempt:
            jitter *= 10.0
        # A failed factor leaves part of the upper triangle written.
        _gram_table(pts, spec, buffer)
        try:
            return GramMatrix(jitter, spec, d0, linalg.cholesky_factor(buffer, jitter * d0, overwrite_a=True))
        except NotPositiveDefinite:
            if jitter == 0.0:
                break  # tenfold zero is zero: a retry would repeat this factor
    raise DegenerateGram(
        f"Gram of {pts.shape[0]} points not positive definite after jitter escalation "
        f"(final jitter {jitter:.3g})"
    )
