"""Correctness checks computed apart from sobnat.

Nothing here imports the package under test.  Every check recomputes the
quantity from its definition in plain numpy/scipy and returns a list of
failure reasons, empty when the program's output passes.  The network
convention is the one sobnat documents: layer l maps the homogeneous
activation [a, 1] through an out x (in + 1) matrix, hidden layers are tanh,
the output layer is the identity, and the loss is softmax cross-entropy
summed over the batch.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

JITTER = 1e-8  # kernel.KernelSpec's documented default, relative to d(0) = 1
DENSE_BACKWARD_ERROR = 1e-5
KFAC_REL_ERROR = 1e-6
NTK_SGD_REL_GAP = 1e-9
INVARIANCE_TOL = 0.02
GRID_REL_TOL = 0.02
MC_SIGMAS = 5.0
FUNCGD_REL_ERROR = 1e-9
RIEMANN_SLACK = 1e-10
DESCENT_FLOOR_ULPS = 1e3


# ----------------------------------------------------------------- network


def _forward(weights, x):
    """Pre-activations and homogeneous activations of a tanh MLP."""
    a = np.asarray(x, dtype=np.float64)
    a_bars, pre = [], []
    for l, w in enumerate(weights):
        a_bar = np.hstack([a, np.ones((a.shape[0], 1))])
        s = a_bar @ w.T
        a_bars.append(a_bar)
        pre.append(s)
        a = np.tanh(s) if l < len(weights) - 1 else s
    return a_bars, pre, a


def outputs(weights, x):
    return _forward(weights, x)[2]


def sum_loss(weights, x, y, weight_decay):
    """Batch-sum softmax cross-entropy plus (wd / 2) |theta|^2."""
    z = outputs(weights, x)
    zmax = np.max(z, axis=1)
    lse = zmax + np.log(np.sum(np.exp(z - zmax[:, None]), axis=1))
    ce = float(np.sum(lse - z[np.arange(z.shape[0]), y]))
    return ce + 0.5 * weight_decay * sum(float(np.sum(w * w)) for w in weights)


def residuals(weights, x, y):
    """dL/dz of softmax cross-entropy per sample, shape (B, m)."""
    z = outputs(weights, x)
    p = np.exp(z - np.max(z, axis=1, keepdims=True))
    p /= np.sum(p, axis=1, keepdims=True)
    p[np.arange(z.shape[0]), y] -= 1.0
    return p


def param_jacobian(weights, x):
    """J[(layer, row, col), b * m + c] = dphi^c(x_b) / dW_l[row, col]."""
    a_bars, pre, z = _forward(weights, x)
    batch, m = z.shape
    blocks = [np.empty((w.shape[0], w.shape[1], batch, m)) for w in weights]
    for c in range(m):
        delta = np.zeros((batch, m))
        delta[:, c] = 1.0
        for l in range(len(weights) - 1, -1, -1):
            # dphi^c/dW_l[r, q] at sample b = delta[b, r] * a_bar[b, q]
            blocks[l][:, :, :, c] = (delta.T[:, None, :] * a_bars[l].T[None, :, :])
            if l > 0:
                delta = (delta @ weights[l][:, :-1]) * (1.0 - np.tanh(pre[l - 1]) ** 2)
    return np.vstack([b.reshape(-1, batch * m) for b in blocks])


def flat(weights):
    return np.concatenate([w.reshape(-1) for w in weights])


def unflat(vec, like):
    out, k = [], 0
    for w in like:
        out.append(vec[k : k + w.size].reshape(w.shape))
        k += w.size
    return out


def sobolev_gram(points):
    """K[a, b] = e^{-r}(1 + r) on already-scaled points, plus the default jitter."""
    diff = points[:, None, :] - points[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    return np.exp(-r) * (1.0 + r) + JITTER * np.eye(points.shape[0])


# ---------------------------------------------------------- training checks


def check_finite(losses):
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        return ["no losses recorded"]
    bad = np.flatnonzero(~np.isfinite(losses))
    return [f"non-finite loss at step {int(bad[0])}"] if bad.size else []


def check_identical(losses, ref_losses, params, ref_params, what):
    """Bit-identity of a run against another run of the same config."""
    losses = np.asarray(losses, dtype=np.float64)
    ref_losses = np.asarray(ref_losses, dtype=np.float64)
    if losses.shape != ref_losses.shape or losses.size == 0:
        return [f"{what}: {losses.size} losses vs {ref_losses.size}"]
    diff = np.flatnonzero(losses.view(np.int64) != ref_losses.view(np.int64))
    if diff.size:
        return [f"{what}: loss differs at step {int(diff[0])}"]
    if not np.array_equal(np.asarray(params), np.asarray(ref_params)):
        return [f"{what}: final parameters differ"]
    return []


def check_descent(before, after, lr, x, y, weight_decay):
    """The update theta - after must point downhill on the weight-decayed
    batch-sum loss, judged by a central difference along it."""
    theta = flat(before)
    d = (theta - flat(after)) / lr
    dnorm = float(np.linalg.norm(d))
    if not dnorm > 0:
        return ["zero update"]
    h = 1e-4 * max(1.0, float(np.linalg.norm(theta))) / dnorm
    f0 = sum_loss(before, x, y, weight_decay)
    up = sum_loss(unflat(theta + h * d, before), x, y, weight_decay)
    dn = sum_loss(unflat(theta - h * d, before), x, y, weight_decay)
    slope = (up - dn) / (2.0 * h)
    floor = DESCENT_FLOOR_ULPS * np.finfo(float).eps * max(1.0, abs(f0)) / h
    if not slope > floor:
        return [f"not a descent direction: slope {slope:.3g} <= floor {floor:.3g}"]
    return []


def dense_backward_error(before, after, lr, x, y, weight_decay, damping, input_scale=None):
    """Relative backward error of the update as a solve of
    (J (K^-1 (x) I_m) J^T + damping I) d = g + wd theta.

    input_scale None selects K = I (Gauss-Newton).  K is built here from
    e^{-r}(1 + r) and applied through a Cholesky solve on K.
    """
    theta = flat(before)
    d = (theta - flat(after)) / lr
    j = param_jacobian(before, x)
    batch = x.shape[0]
    m = j.shape[1] // batch
    rhs = j @ residuals(before, x, y).reshape(-1) + weight_decay * theta
    u = (j.T @ d).reshape(batch, m)
    if input_scale is None:
        ku, jk = u, j
    else:
        factor = scipy.linalg.cho_factor(sobolev_gram(x / input_scale), lower=True)
        ku = scipy.linalg.cho_solve(factor, u)
        # |J (K^-1 (x) I) J^T| = sigma_max(J (L^-T (x) I))^2 with K = L L^T
        linv = scipy.linalg.solve_triangular(factor[0], np.eye(batch), lower=True)
        jk = (j.reshape(-1, batch, m).transpose(0, 2, 1) @ linv.T).transpose(0, 2, 1)
        jk = jk.reshape(j.shape)
    residual = j @ ku.reshape(-1) + damping * d - rhs
    m_norm = damping + float(np.linalg.norm(jk, 2)) ** 2
    return float(np.linalg.norm(residual)) / (m_norm * float(np.linalg.norm(d)) + float(np.linalg.norm(rhs)))


def check_dense(before, after, lr, x, y, weight_decay, damping, input_scale=None):
    err = dense_backward_error(before, after, lr, x, y, weight_decay, damping, input_scale)
    if not err <= DENSE_BACKWARD_ERROR:
        return [f"dense update backward error {err:.3g} > {DENSE_BACKWARD_ERROR:g}"]
    return []


def kfac_expected(a, s, v, damping):
    """(S + pi sqrt(lam) I)^-1 V (A + sqrt(lam)/pi I)^-1 with the trace-balancing pi."""
    ta = np.trace(a) / a.shape[0]
    ts = np.trace(s) / s.shape[0]
    pi = math.sqrt(ts / ta) if ta > 0 and ts > 0 else 1.0
    sq = math.sqrt(damping)
    left = np.linalg.solve(s + sq * pi * np.eye(s.shape[0]), v)
    return np.linalg.solve(a + (sq / pi) * np.eye(a.shape[0]), left.T).T


def check_kfac(before, after, lr, x, y, weight_decay, damping, factors):
    """Each layer's update against the damped factored solve of its gradient.

    factors is the (A, S) pair per layer as the optimizer state held it
    when it preconditioned this step.
    """
    if len(factors) != len(before):
        return [f"{len(factors)} factor pairs for {len(before)} layers"]
    grads = unflat(param_jacobian(before, x) @ residuals(before, x, y).reshape(-1), before)
    worst = 0.0
    for w0, w1, g, (a, s) in zip(before, after, grads, factors):
        got = (w0 - w1) / lr
        want = kfac_expected(a, s, g + weight_decay * w0, damping)
        worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    if not worst <= KFAC_REL_ERROR:
        return [f"K-FAC update relative error {worst:.3g} > {KFAC_REL_ERROR:g}"]
    return []


def check_close_params(params, ref_params, what):
    params = np.asarray(params)
    ref_params = np.asarray(ref_params)
    if params.shape != ref_params.shape:
        return [f"{what}: shapes {params.shape} vs {ref_params.shape}"]
    gap = float(np.max(np.abs(params - ref_params))) / max(1.0, float(np.max(np.abs(ref_params))))
    if not gap <= NTK_SGD_REL_GAP:
        return [f"{what}: relative parameter gap {gap:.3g} > {NTK_SGD_REL_GAP:g}"]
    return []


def first_below(losses, level, limit=None):
    window = losses if limit is None else losses[:limit]
    hits = np.flatnonzero(np.asarray(window) < level)
    return int(hits[0]) if hits.size else None


def check_criterion_10(losses, sgd_losses, test_acc):
    """The desk targets: batch loss < 0.05 within 500 steps, test accuracy
    >= 0.95, and mean batch loss 0.1 reached before plain SGD reaches it."""
    k_005 = first_below(losses, 0.05, 500)
    k_01 = first_below(losses, 0.1)
    sgd_01 = first_below(sgd_losses, 0.1)
    ok = (
        k_005 is not None
        and test_acc >= 0.95
        and k_01 is not None
        and (sgd_01 is None or k_01 < sgd_01)
    )
    if ok:
        return []
    return [
        f"criterion 10: loss<0.05 at step {k_005}, test acc {test_acc:.3f}, "
        f"loss<0.1 at {k_01} vs sgd {sgd_01}"
    ]


def accuracy(weights, x, y):
    return float(np.mean(np.argmax(outputs(weights, x), axis=1) == y))


# ----------------------------------------------------------- toolkit checks


def ellipsoid_band_volume(h, epsilon, g=None):
    """Volume of {0.5 u^T H u < eps} in the volume form of a constant metric g."""
    h = np.atleast_2d(h)
    dim = h.shape[0]
    unit_ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    vol = unit_ball * (2.0 * epsilon) ** (dim / 2.0) / math.sqrt(float(np.linalg.det(h)))
    return vol * (1.0 if g is None else math.sqrt(float(np.linalg.det(np.atleast_2d(g)))))


def grid_tolerance(h, epsilon, g, cell):
    """Error allowed for counting grid cells by their centres.

    The counted cells lie between the ellipsoids whose semi-axes are shrunk
    and grown by half a cell diagonal.  That shell is loose on coarse 3-D
    grids, so the tolerance is capped at GRID_REL_TOL of the volume; the
    centre-counting error measured over 300 seeded rotations stays below
    0.2% in 2-D at resolution 201 and 0.85% in 3-D at resolution 41.
    """
    h = np.atleast_2d(h)
    dim = h.shape[0]
    axes = np.sqrt(2.0 * epsilon / np.linalg.eigvalsh(h))
    delta = 0.5 * float(np.linalg.norm(np.broadcast_to(cell, (dim,))))
    unit_ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    outer = float(np.prod(axes + delta))
    inner = float(np.prod(np.maximum(axes - delta, 0.0)))
    scale = 1.0 if g is None else math.sqrt(float(np.linalg.det(np.atleast_2d(g))))
    shell = unit_ball * (outer - inner) * scale
    return min(shell, GRID_REL_TOL * ellipsoid_band_volume(h, epsilon, g))


def check_band_volume(volume, h, epsilon, g, tolerance):
    want = ellipsoid_band_volume(h, epsilon, g)
    if not abs(volume - want) <= tolerance:
        return [f"band volume {volume:.6g} vs closed form {want:.6g} (tolerance {tolerance:.3g})"]
    return []


def mc_tolerance(h, epsilon, g, half_width, count):
    """MC_SIGMAS standard deviations of a uniform rejection-sampling estimate."""
    dim = np.atleast_2d(h).shape[0]
    box = float(np.prod(2.0 * np.broadcast_to(half_width, (dim,))))
    euclid = ellipsoid_band_volume(h, epsilon)
    p = euclid / box
    scale = 1.0 if g is None else math.sqrt(float(np.linalg.det(np.atleast_2d(g))))
    return MC_SIGMAS * box * scale * math.sqrt(p * (1.0 - p) / count)


def check_invariant(discrepancy):
    if not discrepancy <= INVARIANCE_TOL:
        return [f"pullback volume changed by {discrepancy:.3g} under reparameterisation"]
    return []


def check_euclidean_breaks(discrepancy, scale, dim):
    """The Euclidean volume of a c-scaled chart shrinks by c^-dim."""
    want = 1.0 - scale ** (-dim)
    if not abs(discrepancy - want) <= INVARIANCE_TOL:
        return [f"euclidean discrepancy {discrepancy:.3g}, expected {want:.3g}"]
    return []


def sublevel_radius(h, g, f0):
    """g-radius of {f <= f0} for f = 0.5 x^T H x: sqrt(2 f0 max eig(g, H))."""
    lam = scipy.linalg.eigh(g, h, eigvals_only=True)
    return math.sqrt(2.0 * f0 * float(np.max(lam)))


def check_riemann(h, g, trajectory, progs, gaps, radius):
    """Per-step decrease >= Prog and f(x_T) - f* <= 2 L C R^2 / T.

    trajectory holds x_0..x_T from the program's primal steps and progs
    the program's Prog(x_k); gaps and radius come from its rate verifier.
    L, C, R and Prog are recomputed here, R through scipy.linalg.eigh.
    """
    f = lambda x: 0.5 * float(x @ h @ x)
    lip = float(np.max(np.linalg.eigvalsh(h)))
    compat = 1.0 / float(np.min(np.linalg.eigvalsh(g)))
    f0 = f(trajectory[0])
    r = sublevel_radius(h, g, f0)
    slack = RIEMANN_SLACK * max(1.0, f0)
    out = []
    if not abs(radius - r) <= 1e-9 * max(1.0, r):
        out.append(f"sublevel radius {radius:.12g} vs {r:.12g}")
    for k in range(len(trajectory) - 1):
        x, nxt = trajectory[k], trajectory[k + 1]
        grad = h @ x
        own_prog = float(grad @ np.linalg.solve(g, grad)) / (2.0 * compat * lip)
        if not abs(progs[k] - own_prog) <= 1e-9 * max(1.0, own_prog):
            out.append(f"Prog at step {k} is {progs[k]:.6g}, expected {own_prog:.6g}")
            break
        if f(x) - f(nxt) < own_prog - slack:
            out.append(f"decrease {f(x) - f(nxt):.6g} < Prog {own_prog:.6g} at step {k}")
            break
    coeff = 2.0 * lip * compat * r * r
    if len(gaps) == 0:
        out.append("no rate steps")
    for k, gap in enumerate(gaps):
        if gap > coeff / (k + 1) + slack:
            out.append(f"gap {gap:.6g} above rate bound {coeff / (k + 1):.6g} at T={k + 1}")
            break
    return out


def funcgd_predictions(xs, ys, steps, lr):
    """Cyclic functional GD in representer form on the squared loss,
    evaluated at the training points: f_t = f_{t-1} - lr k(., x_i) (f_{t-1}(x_i) - y_i)."""
    diff = xs[:, None, :] - xs[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    k = np.exp(-r) * (1.0 + r)
    values = np.zeros((xs.shape[0], ys.shape[1]))
    for t in range(steps):
        i = t % xs.shape[0]
        coeff = -lr * (values[i] - ys[i])
        values += np.outer(k[:, i], coeff)
    return values


def check_funcgd(preds, xs, ys, steps, lr):
    want = funcgd_predictions(xs, ys, steps, lr)
    preds = np.asarray(preds)
    if preds.shape != want.shape:
        return [f"predictions shaped {preds.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(preds - want))) / max(1.0, float(np.max(np.abs(want))))
    if not err <= FUNCGD_REL_ERROR:
        return [f"functional GD predictions off by {err:.3g}"]
    return []


def check_csv(features, labels, want_features, want_labels):
    if not (np.array_equal(features, want_features) and np.array_equal(labels, want_labels)):
        return ["loaded CSV differs from the written array"]
    return []


def check_verify_output(rc, text, suites):
    """Every check line passes, every suite reported, and the count matches."""
    lines = [ln for ln in text.splitlines() if ln.startswith("[")]
    out = []
    if rc != 0:
        out.append(f"verify exited {rc}")
    failed = [ln for ln in lines if not ln.startswith("[PASS] ")]
    if failed:
        out.append(f"verify failed: {failed[0]}")
    seen = {ln.split("] ", 1)[1].split(":", 1)[0] for ln in lines if "] " in ln}
    missing = sorted(set(suites) - seen)
    if missing:
        out.append(f"verify reported no check for {missing}")
    if f"all {len(lines)} checks passed" not in text:
        out.append("verify summary does not match its check lines")
    return out
