"""RKHS function arithmetic: kernel expansions and their batch evaluation,
functional gradient descent, and the basis-orthonormality check.

Functions are stored in representer form only -- a list of centers x_t with
one coefficient vector per center, evaluating to

    f(x) = sum_t d(|x - x_t|) * coeffs[t].

Functional gradient descent keeps iterates in this class exactly.  By the
representer theorem they lie in the span of the kernel at the n data
points, so the iterate is stored on those points: center i is data point i
and W[i] the sum, in visit order, of the coefficients -eta_t dL/dz its
visits contribute.  Then f_{t-1}(x_t) = K[i_t] W for K the data points'
kernel table; the run reads K's rows from a cache filled in blocks, so it
costs O(steps * visits * n) kernel evaluations rather than one table
against all earlier centers per step, and the result evaluates against at
most n centers, not one per visit.  Under the squared loss a cyclic run
takes all the visits up to the end of a cached block at once: dL/dz is
affine, so their coefficients solve one unit-lower-triangular system -- a
Gauss-Seidel sweep on K W = y -- that the step-by-step recursion would
solve by forward substitution.  Every kernel value comes from
:func:`sobnat.kernel.kernel_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import losses
from .errors import DimensionMismatch, Diverged, SingularProbeSet
from .kernel import PROFILE_BLOCK, KernelSpec, kernel_matrix

__all__ = [
    "KernelExpansion",
    "evaluate_batch",
    "functional_gd",
    "check_basis_orthonormality",
]


@dataclass(frozen=True)
class KernelExpansion:
    """An RKHS function sum_t d(|x - x_t|) c_t with values in R^m.

    A non-finite center or coefficient raises ValueError naming its row.
    """

    spec: KernelSpec
    centers: np.ndarray  # (T, n)
    coeffs: np.ndarray  # (T, m)

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=np.float64))
        if centers.size == 0:
            centers = centers.reshape(0, self.spec.input_dim)
        if coeffs.size == 0:
            coeffs = coeffs.reshape(0, max(coeffs.shape[-1] if coeffs.ndim else 1, 1))
        if centers.shape[0] != coeffs.shape[0]:
            raise DimensionMismatch(
                f"{centers.shape[0]} centers but {coeffs.shape[0]} coefficient rows"
            )
        _reject_non_finite_row(centers, "center")
        _reject_non_finite_row(coeffs, "coefficient")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def output_dim(self) -> int:
        return self.coeffs.shape[1]



def evaluate_batch(f: KernelExpansion, xs) -> np.ndarray:
    """Evaluate the expansion at each row of xs; returns an (N, m) array.

    The result is filled in row blocks whose kernel table against the
    centers holds at most max(PROFILE_BLOCK, T) entries, so memory does not
    grow as N * T.  Raises DimensionMismatch when the rows are not of width
    spec.input_dim, and ValueError naming the first row with a NaN or
    infinite entry.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[1] != f.spec.input_dim:
        raise DimensionMismatch(
            f"points have dimension {xs.shape[1]}, spec.input_dim is {f.spec.input_dim}"
        )
    _reject_non_finite_row(xs, "point")
    out = np.empty((len(xs), f.output_dim))
    rows = max(1, PROFILE_BLOCK // max(len(f.centers), 1))
    for start in range(0, len(xs), rows):
        block = xs[start : start + rows]
        out[start : start + rows] = kernel_matrix(block, f.centers, f.spec) @ f.coeffs
    return out


def functional_gd(
    xs,
    ys,
    loss: str,
    steps: int,
    lr,
    spec: KernelSpec,
    mode: str = "cyclic",
) -> KernelExpansion:
    """Gradient descent in the RKHS starting from f_0 = 0.

    Each step evaluates the loss gradient at the current iterate and adds
    -eta_t * dL/dz to the visited point(s)' coefficients, so after T steps
    f_T(x) = -sum_t eta_t d(|x_t - x|) dL/dz(f_{t-1}(x_t), y_t).  The result
    has one center per visited point -- a copy of xs[:k], k = min(n, steps
    * visits), in visit order -- whose coefficient W[i] sums its visits'
    coefficients in visit order.

    ``loss`` is losses.SQUARED or losses.SOFTMAX_CE.  ``mode`` is "cyclic"
    (one data point per step, cycling through the set, the form stated for
    a stream of samples) or "full_batch" (every step touches all points at
    once).  ``lr`` is a float or a callable step -> eta.  ``xs`` holds n
    points of width spec.input_dim and ``ys`` one target row (or class
    label) per point; malformed input raises DimensionMismatch, and an
    unknown loss name (checked first), a negative step count, a class label
    that is not a non-negative integer, a non-finite point, squared-loss
    target or ``lr``, or a callable ``lr`` returning a non-finite eta (named
    by step) ValueError.  A run that ends with a non-finite coefficient
    raises Diverged naming the first step whose coefficient is not finite,
    found by running again with a check after each segment; a run that
    stays finite is checked once, at its end.

    With W[i] the sum of the coefficients added so far at point i,
    f_{t-1}(x_t) = K[i_t] W for K = kernel_matrix(xs, xs, spec).  The
    iterate values come from cached rows of K: blocks of at most
    PROFILE_BLOCK entries (all n rows in full-batch mode), re-taken only
    when a visit leaves them, and in the first pass only against the points
    they can have seen.  A run costs O(steps * visits * n) kernel
    evaluations, not O(steps^2 * visits^2).

    The run advances a segment at a time.  Under the squared loss in cyclic
    mode a segment runs from the current step to the end of the cached block
    or of the run; its s <= n visits are distinct points i_1..i_s, and since
    dL/dz = z - y is affine its coefficients c solve, exactly,

        c_k = -eta_k (K[i_k] W - y_k) - eta_k sum_{j<k} K[i_k, i_j] c_j,

    with W as it was before the segment: (I + diag(eta) L) c = -diag(eta)
    (K[i] W - y) for L the strict lower triangle of K[i, i].  That is one
    product with the block's rows and one unit-lower-triangular solve per
    segment -- a Gauss-Seidel sweep on K W = y -- instead of one step per
    visit; only the rounding differs from the step-by-step recursion.  Under
    softmax cross-entropy, and in full-batch mode, a segment is one step.
    """
    kinds = [losses.SQUARED, losses.SOFTMAX_CE]
    if loss not in kinds:
        raise ValueError(f"unknown loss {loss!r}; choose from {kinds}")
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.asarray(ys, dtype=np.float64)
    if loss == losses.SQUARED:
        if ys.ndim == 1:
            ys = ys.reshape(-1, 1)
        _reject_non_finite_row(ys, "target")
        output_dim = ys.shape[1]
    else:  # class labels
        bad = np.flatnonzero(~(np.isfinite(ys) & (ys >= 0) & (np.floor(ys) == ys)))
        if bad.size:
            row = np.unravel_index(bad[0], ys.shape)[0]
            raise ValueError(
                f"class label {ys.flat[bad[0]]:g} in row {row} is not a non-negative integer"
            )
        output_dim = int(np.max(ys)) + 1 if ys.size else 1
    _reject_non_finite_row(xs, "point")
    if not callable(lr) and not np.isfinite(lr):
        raise ValueError(f"lr {lr} is not finite")
    if mode not in ("cyclic", "full_batch"):
        raise ValueError(f"unknown mode {mode!r}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    n = xs.shape[0]
    if xs.shape[1] != spec.input_dim:
        raise DimensionMismatch(
            f"points have dimension {xs.shape[1]}, spec.input_dim is {spec.input_dim}"
        )
    if ys.shape[0] != n:
        raise DimensionMismatch(f"{n} points but {ys.shape[0]} targets")
    if n == 0 and steps > 0:
        raise DimensionMismatch(f"{steps} steps over an empty set of points")

    w = _coefficients(xs, ys, loss, steps, lr, spec, mode, output_dim)
    if not np.isfinite(w).all():  # run again, checking each segment, to name the step
        _coefficients(xs, ys, loss, steps, lr, spec, mode, output_dim, checked=True)
    return KernelExpansion(spec, xs[: len(w)].copy(), w)


def _coefficients(xs, ys, loss, steps, lr, spec, mode, output_dim, checked=False) -> np.ndarray:
    """W of :func:`functional_gd`'s run over validated input, one segment at
    a time; checked raises Diverged at the first step whose coefficient is
    not finite."""
    n = xs.shape[0]
    visits = 1 if mode == "cyclic" else n
    block = n if mode == "full_batch" else max(1, PROFILE_BLOCK // max(n, 1))
    sweep = mode == "cyclic" and loss == losses.SQUARED  # segments span the block
    # The visits continue cyclically through the points, step after step.
    w = np.zeros((min(n, steps * visits), output_dim))  # over the points the run visits
    table, first, last, seen = None, 0, 0, w  # table = K[first:last, :len(seen)]
    t = 0
    while t < steps:
        done = t * visits
        start = done % n
        if not first <= start < last:
            first = start - start % block
            last = min(len(w), first + block)
            # In the first pass no point from last on has a coefficient yet.
            seen = w[:last] if done < n else w
            table = kernel_matrix(xs[first:last], xs[: len(seen)], spec)
        length = min(last - start, steps - t) if sweep else 1  # steps in the segment
        stop = start + length * visits
        eta = lr  # a constant, or one step size per row of the segment
        if callable(lr):
            eta = np.array([[lr(s)] for s in range(t, t + length)], dtype=np.float64)
            if not np.isfinite(eta).all():
                k = int(np.argmin(np.isfinite(eta)))
                raise ValueError(f"lr returned {eta[k, 0]} at step {t + k}, not a finite step size")
        rows = table[start - first : stop - first]
        step = -eta * losses.loss_grad_z(rows @ seen, ys[start:stop], loss)
        if length > 1:  # (I + diag(eta) L) c = step, L the segment's strict lower triangle
            coupling = eta * rows[:, start:stop]
            # The transpose is Fortran-ordered: its upper triangle, solved
            # transposed, is the lower triangle of coupling, with no copy.
            step, info = scipy.linalg.lapack.dtrtrs(
                coupling.T, step, lower=0, trans=1, unitdiag=1, overwrite_b=1
            )
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of trtrs")
        w[start:stop] += step
        if checked:
            finite = np.isfinite(w[start:stop]).all(axis=1)
            if not finite.all():
                raise Diverged(t + int(np.argmin(finite)) // visits)
        t += length
    return w


def _reject_non_finite_row(a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first row of a with a NaN or infinite entry."""
    finite = np.isfinite(a)
    if not finite.all():
        row = np.unravel_index(np.argmin(finite), a.shape)[0]  # the first False
        raise ValueError(f"{what} in row {row} is not finite")


def _basis_matrix(basis, probes) -> np.ndarray:
    """Stack basis values at probes into M[(probe, comp), i] = b_i(p)."""
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    feature_map = basis  # row i of feature_map(p) holds b_i(p)
    if not callable(basis):  # a sequence of the functions b_i
        functions = list(basis)
        feature_map = lambda p: [np.atleast_1d(np.asarray(b(p), dtype=np.float64)) for b in functions]
    rows = [np.asarray(feature_map(p), dtype=np.float64) for p in probes]
    return np.vstack([r.reshape(len(r), -1).T for r in rows])


RANK_RCOND = 1e-10  # singular values at or below this times max(s_max, 1) count as rank lost


def check_basis_orthonormality(basis, probes) -> np.ndarray:
    """Gram of a basis under the kernel the basis itself induces.

    For K(x, x') = sum_i b_i(x) (x) b_i(x'), every basis of the spanned space
    is orthonormal in the induced RKHS, so the returned Gram must be the
    identity.  Representer coefficients are recovered by least squares over
    the probe set; the probes only need to expose linear independence.

    Raises SingularProbeSet when they do not.

    basis is a sequence of functions b_i, or one feature map x -> array
    whose row i holds b_i(x), which evaluates every b_i at a probe at once.
    """
    m = _basis_matrix(basis, probes)  # (mP, D)
    dim = m.shape[1]
    u, sing, _ = np.linalg.svd(m, full_matrices=False)
    floor = RANK_RCOND * max(sing[0], 1.0)
    if sing.shape[0] < dim or sing[-1] <= floor:
        raise SingularProbeSet(
            f"basis of dimension {dim} has numerical rank {int(np.sum(sing > floor))} over the probe set"
        )
    # G = M M^T is the probe Gram of {K(p, .)}; coefficients C solve G C = M,
    # and the RKHS Gram is M^T C = M^T G^+ M = W^T W with W = S^-1 U^T M,
    # the numerically stable factorization of the least-squares solve.
    w = (u.T @ m) / sing[:, None]
    return w.T @ w

