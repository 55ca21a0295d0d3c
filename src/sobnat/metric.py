"""Pullback-metric estimation and natural-gradient solves.

The batch estimate of the metric contracts parameter Jacobians through the
inverse kernel Gram,

    g_ij = sum_c dphi^c/dtheta_i(x_a) Kinv_{ab} dphi^c/dtheta_j(x_b),

with vector outputs contracted componentwise against a single scalar B x B
Gram.  It is computed as the Gram product J~ J~^T, where J~ is J with each
output component's B columns whitened by the Gram's Cholesky factor
(K = L L^T, J~_c = J_c L^-T); no K^-1 is formed, and the result is
symmetric by construction.  Setting K to the identity skips the whitening
and gives the Gauss-Newton metric J J^T.  On a kernel-machine model whose
parameters are expansion coefficients over the batch centers the estimate is
exact and equals the Gram matrix itself.

The metric has rank at most B*m, so the damped natural gradient
(damping I + J~ J~^T) v = g is solved by :func:`damped_natural_gradient` in
whichever space is smaller.  Its gradient is that of a train step's summed
loss plus weight decay, g = J r + decay w, given as the (B, m) per-sample
residuals r = dL/dz and the weights w, and v comes back per layer, like w.
With P > B*m and damping > 0 it uses the push-through (Woodbury) identity

    v = (g - J~ (damping I + J~^T J~)^-1 J~^T g) / damping,

a B*m x B*m system that needs J only through products, so neither J nor
any P x P array is formed.  Kernel space is component-major: index (c, b)
is c*B + b, the order in which :meth:`sobnat.network.Tangents` holds the
output Jacobians, so no product below reorders a factor, and r enters as
its (m, B) transpose.  With W = I_m (x) L^-1 the whitening,
J~^T J~ = W Theta W^T, where Theta = J^T J is the empirical tangent
kernel.  Theta is built layer by layer from the forward pass's factors
(:meth:`sobnat.network.Tangents.ntk`),

    Theta = sum_l (Ds_l Ds_l^T)  .*  1_{m x m} (x) (Abar_l Abar_l^T),

each layer's product taken in place, and the whitening need not be applied
to it.  W^T W = I_m (x) K_j^-1, where K_j = K + jitter d(0) I is the
matrix the Gram's factor L is of, so the identity is v = (g - J z) /
damping with S z = J^T g and

    S = Theta + damping (I_m (x) K_j):

kernel ridge regression with the NTK in which the Sobolev Gram takes the
place of the identity.  g is never formed: J^T J r = Theta r = S r -
damping (I_m (x) K_j) r, so the J r in g cancels against part of J z,
and with c = decay / damping

    v = c w + J y,    S y = (I_m (x) K_j) r - c J^T w.

J^T w[c, b] = sum_l Ds_l^(c)(x_b) . s_l(x_b) is read from the forward
pass's pre-activations s_l = Abar_l Wbar_l^T
(:meth:`~sobnat.network.Tangents.rmatvec_params`), so with K = I the
step is one J product.  S is Theta with damping K_j added on its m
contiguous diagonal B x B blocks, K_j being the table
:meth:`GramMatrix.jittered` rebuilds from the one array that holds the
Gram's kernel values and factor, and is factored once, from its upper
triangle (Theta is symmetric to rounding only); J y is a
per-layer product with Abar_l and Ds_l on an (m, B) array, and no
triangular solve touches Theta.  The rounding of the formed Theta is not
shaped like damping K_j, whose condition number is 1e9-1e10 on 50
two-moons points at input scale 20, so on its own v_0 = c w + J y is
up to 1.6e-7 off the P x P oracle.  One step of iterative refinement in
kernel space fixes that.  The residual of v_0 is

    g - damping v_0 - J (I_m (x) K_j^-1) J^T v_0 = J e,
    e = r - damping y - (I_m (x) K_j^-1) J^T v_0,

and the same identity with e for r and no decay corrects y by
S^-1 (I_m (x) K_j) e before v = c w + J y is taken again.
J^T v_0 must be taken by :meth:`~sobnat.network.Tangents.rmatvec`, and
K_j^-1 is applied to its (B, m) transpose by :meth:`GramMatrix.solve`
from the Gram's factor: the algebraically equal
K_j^-1 (c J^T w + Theta y) makes e vanish identically, and the
refinement would then correct nothing.  The refined step is within
2.2e-11 of the oracle, and the K = I step within 3.2e-12, relative to
its largest entry (B = 50, seeds 0-39, [2,16,16,1], [2,16,16,2] and
[2,64,64,2], input scales 20, 2 and 0.5, decay 0 and 0.003).  The
Sobolev solve makes two matvec calls and one rmatvec, factors S and
solves with K_j only on (B, m) arrays; with K = I, S = Theta + damping I,
the first v is the answer, and the solve makes one matvec.  (The
Tangents of a dense J hold no pre-activations and take J^T w by one
rmatvec more.)  A dense train step runs no other J product, so its one
backprop sweep is the output Jacobians of its Tangents.  With P <= B*m, or
with damping 0 (the exactness oracles), where the identity would divide by
0, the step forms g = J r + decay w, flattens it once in the order of
:meth:`~sobnat.network.MlpNetwork.params_vector` and returns per-layer
views of :func:`natural_gradient` of it on the P x P metric that
:func:`estimate_metric` builds.  That one private build returns J~ J~^T
from one sample-major (B, N) operand, and the kernel decides only whether
the operand is whitened: a Gram whitens it in place, reading only the
Gram's factor, and K = I leaves it as it is.  The blocked whitening solves
contiguous column blocks of the operand's (N, B) transpose in place, so
the operand keeps the sample index slowest.  For a dense J, and for a
network whose output layer is not the identity, the operand is the fresh
buffer of :meth:`~sobnat.network.Tangents.matrix`, N = m*P, and J~ J~^T
is its one syrk: with K = I, exactly J J^T.  With an identity output
layer the output Jacobians of the top two layers are rank one across the
m outputs, Ds_L^(c) = e_c and Ds_{L-1}^(c) = W_L[c] .* phi'(s_{L-1})
(:meth:`~sobnat.network.Tangents.readout_factors`; the structured
derivatives of Novak et al. 2022), so J has only p*q + q_L distinct
columns there, each taken once.  The operand holds the generic layers
1 .. L-2 in matrix()'s (b, c, theta) layout, then
Z = phi'(s_{L-1}) (x) Abar_{L-1} and Abar_L: 385 columns in place of
J's 708 on [2,16,16,2].  With omega_c[(i, j)] = W_L[c, i] and Omega the
(m, p*q) array of the omega_c, the blocks of J~ J~^T are the syrk of the
generic part's (B*m, P_gen) rows, sum_c (Y~_c^T Z~) .* omega_c against the
penultimate layer, (Z~^T Z~) .* (Omega^T Omega) for that layer itself,
and, for the last layer's rows (c, j), delta_cc' A~_L^T A~_L,
Y~_c^T A~_L and (Z~^T A~_L) .* omega_c.  Each off-diagonal block is
mirrored, so the metric stays bitwise symmetric.  At B = 500 on
[2,16,16,2] the whitening takes 48M multiply-adds in place of 88M, and
the products 36M in place of 63M.  The sums are not the dense J's, so
the metric is not the oracle estimate_metric(Tangents.matrix(), m, gram)
bit for bit.  Relative to its largest entry the Sobolev metric differs
by at most 2.1e-14 with sigmoid hidden layers at input scale 20, and by
4.5e-15 or less with tanh and relu.  That was measured on [2,16,16,2] at
B = 500 and 50, [2,3,2], [2,8,8,3], [2,8,8,8,3], [3,6,5,4,2] and [3,4,1],
at input scales 20, 2 and 0.5.  The oracle itself lies 4.6e-14 to
1.1e-13 from a metric whitened by a plain triangular solve on the
sigmoid instances.  On the same shapes the K = I metric differs from
J J^T by at most 1.9e-15 with relu hidden layers and 6.7e-16 with tanh
and sigmoid.  natural_gradient factors into a fresh array, with a
scalar damping as the diagonal shift of
:func:`sobnat.linalg.cholesky_factor`, since it is also the oracle:
a run keeps no P x P buffer (:class:`~sobnat.optimizers.TrainState`).
The same two functions are the P x P oracle the kernel-space path is
tested against.

An exact quadrature oracle for the L2 pullback metric of tiny networks is
included for desk-scale ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, network
from .errors import BudgetExceeded, DimensionMismatch
from .kernel import GramMatrix
from .network import Tangents

__all__ = [
    "PullbackMetric",
    "estimate_metric",
    "natural_gradient",
    "damped_natural_gradient",
    "ntk_surrogate_gradient",
    "exact_pullback_quadrature",
]

@dataclass
class PullbackMetric:
    """Symmetric PSD metric on parameter space plus Tikhonov damping."""

    values: np.ndarray
    damping: float = 0.0

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _metric_values(tangents: Tangents, gram: GramMatrix) -> np.ndarray:
    """J~ J~^T, a (P, P) array; gram=None (K = I) leaves J unwhitened.

    A Gram whitens the sample-major operand of :func:`_whitening_operand`
    in place.  Without a readout that operand is the fresh buffer of
    :meth:`Tangents.matrix`, whose transposed view of a C-ordered array
    the whitening solves without a copy, and J~ J~^T is its one syrk; with
    one, :func:`_readout_blocks` assembles it.
    """
    if gram is not None and gram.size != tangents.batch:
        raise DimensionMismatch(f"gram has {gram.size} points, batch is {tangents.batch}")
    readout = tangents.readout_factors()
    x, generic = _whitening_operand(tangents, None if readout is None else readout[0])
    if gram is not None:
        # Column block c of each of x's rows is J_c^T; one solve whitens all m.
        x = gram.whiten(x, overwrite_b=True)
    if readout is None:
        jt = x.reshape(-1, generic)  # row b*m + c, a view
        return jt.T @ jt
    return _readout_blocks(x, generic, readout[1], tangents.shapes[-1][1])


def _whitening_operand(tangents: Tangents, dphi: np.ndarray) -> tuple:
    """The sample-major (B, N) operand of the P x P metric, and P_gen.

    Row b holds the generic layers' columns (b, c) in the (m, P_gen)
    layout of :meth:`Tangents.matrix`.  Those are all layers when dphi,
    phi'(s_{L-1}) of :meth:`Tangents.readout_factors`, is None, and the
    array is then matrix()'s buffer.  Otherwise they are layers 1 .. L-2,
    and after them come Z = phi'(s_{L-1}) (x) Abar_{L-1} and Abar_L, once
    each: every other column of the top two layers is one of these times
    a weight W_L[c, i], or zero.
    """
    batch, m = tangents.batch, tangents.output_dim
    if dphi is None:
        return tangents.matrix().T.reshape(batch, -1), tangents.num_params
    (p, q), (_, q_last) = tangents.shapes[-2:]
    generic = tangents.num_params - p * q - m * q_last
    x = np.empty((batch, m * generic + p * q + q_last))
    tangents.write_columns(x[:, : m * generic].reshape(batch, m, generic), len(tangents.shapes) - 2)
    z = x[:, m * generic : m * generic + p * q].reshape(batch, p, q)
    np.einsum("bi,bj->bij", dphi, tangents.a_bars[-2], out=z)  # faster than a broadcast multiply here
    x[:, m * generic + p * q :] = tangents.a_bars[-1]
    return x, generic


def _readout_blocks(x, generic: int, w: np.ndarray, q_last: int) -> np.ndarray:
    """J~ J~^T from the (whitened) operand x of a network with an identity output layer.

    x = [Y~ Z~ A~_L]: Y~ the (B, m*P_gen) generic part, Y~_c its column
    block c, and Z~, A~_L the readout columns.  w is W_L, (m, p), and
    Omega the (m, p*q) array whose row omega_c has
    omega_c[(i, j)] = W_L[c, i].  The blocks of J~ J~^T, by layer group,
    are

        generic, generic:           Y~ Y~^T's syrk over its (B*m, P_gen) rows
        generic, penultimate:       sum_c (Y~_c^T Z~) .* omega_c
        penultimate, penultimate:   (Z~^T Z~) .* (Omega^T Omega)
        generic, last (c, j):       Y~_c^T A~_L
        penultimate, last (c, j):   (Z~^T A~_L) .* omega_c^T
        last (c, j), last (c', j'): delta_cc' A~_L^T A~_L

    from the syrk of [Z~ A~_L], written where block c = 0 of its part
    goes, and one GEMM of Y~ with [Z~ A~_L].  The diagonal blocks are
    syrk products, or a syrk product times a symmetric array, so they are
    bitwise symmetric; each off-diagonal block is mirrored.  No array of
    the operand's size is made besides it.
    """
    batch, (m, p) = len(x), w.shape
    s = x.shape[1] - m * generic - q_last  # p*q, the penultimate layer's parameters
    q, n = s // p, generic + s + m * q_last
    gen, pen, last = slice(0, generic), slice(generic, generic + s), slice(generic + s, n)
    rows = x[:, : m * generic].reshape(batch * m, generic)  # a copy, freed before the metric is made
    generic_values = rows.T @ rows
    del rows
    y, v = x[:, : m * generic], x[:, m * generic :]
    values = np.empty((n, n))
    values[gen, gen] = generic_values
    readout = slice(generic, generic + s + q_last)  # the penultimate layer, then block c = 0 of the last
    np.matmul(v.T, v, out=values[readout, readout])
    z_a, a_a = values[pen, readout][:, s:].copy(), values[last, last][:q_last, :q_last].copy()
    cross = (y.T @ v).reshape(m, generic, s + q_last)  # block c is Y~_c^T [Z~ A~_L]
    omega = np.repeat(w, q, axis=1)
    np.multiply(cross[0, :, :s], omega[0], out=values[gen, pen])
    for c in range(1, m):
        values[gen, pen] += cross[c, :, :s] * omega[c]
    values[gen, last].reshape(generic, m, q_last)[...] = cross[:, :, s:].transpose(1, 0, 2)
    values[pen, pen].reshape(p, q, s)[...] *= np.repeat(w.T @ w, q, axis=1)[:, None, :]  # Omega^T Omega
    np.multiply(z_a[:, None, :], omega.T[:, :, None], out=values[pen, last].reshape(s, m, q_last))
    last_last = values[last, last].reshape(m, q_last, m, q_last)
    last_last[...] = 0.0
    for c in range(m):
        last_last[c, :, c] = a_a
    values[pen, gen] = values[gen, pen].T
    values[last, : generic + s] = values[: generic + s, last].T
    return values


def estimate_metric(
    j: np.ndarray,
    output_dim: int,
    gram: GramMatrix = None,
    damping: float = 0.0,
) -> PullbackMetric:
    """Batch estimate of the pullback metric from a (P, B*m) Jacobian.

    gram=None selects K = I, in which case the result is exactly J @ J.T.
    """
    return PullbackMetric(_metric_values(Tangents.of_matrix(j, output_dim), gram), damping=damping)


def natural_gradient(metric: PullbackMetric, euclid_grad: np.ndarray) -> np.ndarray:
    """Solve (g + damping I) v = euclid_grad."""
    grad = np.asarray(euclid_grad, dtype=np.float64).reshape(-1)
    if grad.shape[0] != metric.dim:
        raise DimensionMismatch(f"gradient has length {grad.shape[0]}, metric is {metric.dim}")
    return linalg.solve_from_factor(linalg.cholesky_factor(metric.values, metric.damping), grad)


def damped_natural_gradient(
    tangents: Tangents,
    gram: GramMatrix,
    damping: float,
    residuals: np.ndarray,
    decay: float = 0.0,
    weights: list = None,
) -> list:
    """Solve (damping I + J~ J~^T) v = J r + decay * w with one factor in the smaller space.

    J~ is the whitened Jacobian of :func:`estimate_metric` (gram=None: K = I),
    given as the :class:`~sobnat.network.Tangents` of a network or of a
    dense J, r the (B, m) per-sample residuals dL/dz and w the per-layer
    weights the tangents were taken at (needed only with decay), so the
    right side is the gradient of a train step's summed loss plus weight
    decay.  w and v are lists shaped like the tangents'
    :attr:`~sobnat.network.Tangents.shapes`: Wbar_l per layer, or one
    (P, 1) array for a dense J.  With P > B*m and damping > 0 the B*m x B*m
    system of the module docstring is solved from r and J^T w, and neither
    J nor J r is formed; otherwise J r + decay * w and the P x P metric
    are, and v is per-layer views of natural_gradient(estimate_metric(...))
    of that gradient, taken by natural_gradient itself.
    """
    p, n = tangents.num_params, tangents.batch * tangents.output_dim
    r = _residuals(tangents, residuals)
    if weights is not None:
        shapes = [np.shape(w) for w in weights]
        if shapes != tangents.shapes:
            raise DimensionMismatch(f"weights of shapes {shapes} for layers of shapes {tangents.shapes}")
    elif decay != 0:
        raise ValueError("weight decay needs the params it decays")
    if gram is not None and gram.size != tangents.batch:
        raise DimensionMismatch(f"gram has {gram.size} points, batch is {tangents.batch}")
    if damping > 0 and p > n:
        return _kernel_space_solve(tangents, gram, damping, r, decay, weights)
    grad = _plus_decay(tangents.matvec(r.T), decay, weights)
    metric = PullbackMetric(_metric_values(tangents, gram), damping)
    v = natural_gradient(metric, np.concatenate([g.reshape(-1) for g in grad]))
    bounds = np.cumsum([g.size for g in grad])[:-1]
    return [part.reshape(g.shape) for part, g in zip(np.split(v, bounds), grad)]


def _plus_decay(vs: list, c: float, weights: list) -> list:
    """vs_l += c * w_l in place, layer by layer; vs unchanged when c is 0."""
    if c:
        for v, w in zip(vs, weights):
            v += c * w
    return vs


def _kernel_space_solve(tangents: Tangents, gram: GramMatrix, damping: float, r, decay: float, weights):
    """The P > B*m branch of :func:`damped_natural_gradient`; see the module docstring."""
    c = decay / damping
    theta = tangents.ntk()

    def step(y):  # v = c w + J y
        return _plus_decay(tangents.matvec(y), c, weights)

    if gram is None:
        rhs = r.T
    else:
        # K_j, the matrix gram's factor is of, and S = Theta + damping
        # (I_m (x) K_j) with damping K_j on each of the m diagonal B x B
        # blocks; Theta is not needed again, so S is built in its array.
        kj = gram.jittered()
        shift = damping * kj
        batch = len(kj)
        for start in range(0, len(theta), batch):
            theta[start : start + batch, start : start + batch] += shift
        rhs = (kj @ r).T
    if c:
        rhs = rhs - c * tangents.rmatvec_params(weights)
    factor = linalg.cholesky_factor(theta, damping if gram is None else 0.0)

    def solve(b):
        return linalg.solve_from_factor(factor, b.reshape(-1)).reshape(b.shape)

    y = solve(rhs)
    if gram is None:
        return step(y)
    # v_0's residual is J e; J^T v_0 must come from rmatvec, since the
    # algebraically equal K_j^-1 (c J^T w + Theta y) makes e vanish.
    # K_j^-1 runs on the (B, m) transpose.
    e = r.T - damping * y - gram.solve(tangents.rmatvec(step(y)).T).T
    y += solve((kj @ e.T).T)
    return step(y)


def ntk_surrogate_gradient(tangents: Tangents, residual_grads: np.ndarray) -> list:
    """Tangent coefficients of the metric-free surrogate, J r, as per-layer arrays.

    Unlike the projection, :func:`damped_natural_gradient` of the same
    residuals, this applies no inverse metric; the two agree exactly when the
    metric estimate is the identity and disagree otherwise (the surrogate is
    not a projection).  With residual_grads the (B, m) per-sample dL/dz,
    J r is the gradient of the batch sum of the loss, the ntk_surrogate
    step's direction before weight decay.
    """
    return tangents.matvec(_residuals(tangents, residual_grads).T)


def _residuals(tangents: Tangents, residuals) -> np.ndarray:
    """The (B, m) per-sample residuals as float64, or DimensionMismatch."""
    r = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
    if r.shape != (tangents.batch, tangents.output_dim):
        raise DimensionMismatch(
            f"residuals of shape {r.shape} for batch of {tangents.batch} with {tangents.output_dim} outputs"
        )
    return r


def _gaussian_nodes(nodes_per_dim: int):
    x, w = np.polynomial.hermite_e.hermegauss(nodes_per_dim)
    w = w / np.sqrt(2.0 * np.pi)  # normalize to the standard normal density
    return x, w


def _legendre_nodes(nodes_per_dim: int):
    x, w = np.polynomial.legendre.leggauss(nodes_per_dim)
    return x, w / 2.0  # probability measure on [-1, 1] per axis


def exact_pullback_quadrature(
    net: network.MlpNetwork,
    measure: str = "gaussian",
    nodes_per_dim: int = 40,
    box=None,
) -> PullbackMetric:
    """L2 pullback metric of a tiny network by tensor quadrature.

    g_ij = integral of sum_c dphi^c/dtheta_i(x) dphi^c/dtheta_j(x) dmu(x)
    with mu the standard normal (Gauss-Hermite nodes) or the normalized
    uniform measure on a box (Gauss-Legendre nodes).  Restricted to networks
    with at most 12 parameters; the point is a ground-truth oracle, not a
    production path.
    """
    if net.num_params > 12:
        raise BudgetExceeded(f"{net.num_params} parameters exceeds the quadrature limit of 12")
    dim = net.input_dim
    if nodes_per_dim**dim > 200_000:
        raise BudgetExceeded(f"{nodes_per_dim}^{dim} quadrature nodes exceed the budget")
    if measure == "gaussian":
        x1, w1 = _gaussian_nodes(nodes_per_dim)
        axes_x = [x1] * dim
        axes_w = [w1] * dim
    elif measure == "box":
        if box is None:
            raise ValueError("box measure needs (lo, hi) bounds")
        lo = np.asarray(box[0], dtype=np.float64).reshape(-1)
        hi = np.asarray(box[1], dtype=np.float64).reshape(-1)
        x1, w1 = _legendre_nodes(nodes_per_dim)
        axes_x = [(x1 + 1.0) / 2.0 * (hi[d] - lo[d]) + lo[d] for d in range(dim)]
        axes_w = [w1] * dim
    else:
        raise ValueError(f"unknown measure {measure!r}")

    grids = np.meshgrid(*axes_x, indexing="ij")
    points = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*axes_w, indexing="ij")
    weights = np.ones(points.shape[0])
    for wg in wgrids:
        weights *= wg.reshape(-1)

    j = network.param_jacobian(net, points)  # (P, N*m)
    # sqrt(w) is the diagonal whitening of the node weights.
    jw = j.reshape(j.shape[0], points.shape[0], net.output_dim) * np.sqrt(weights)[:, None]
    jw = jw.reshape(j.shape)
    return PullbackMetric(jw @ jw.T)
