"""The package's core oracles and the suites behind the ``verify`` CLI command.

Each oracle is one function that takes the instance it checks and returns its
worst error, and each threshold is one module constant: closed-form kernel vs
its Fourier inversion, finite differences vs backprop, metric exactness on
kernel machines, automatic basis orthonormality, Kronecker-factor
consistency, the two-layer quadrature metric, flatness invariance, and the
descent guarantees.

Each reference is taken once, by the method built for it.  The Fourier
inversion of the kernel's spectrum (1 + xi^2)^-2 runs through QUADPACK's
Fourier-weight routine (QAWF), which integrates the oscillating integrand
over the whole half-line [0, inf) with no truncation.  The tangent basis is
the feature map x -> param_jacobian(net, x), one Jacobian per probe.  Each
central difference perturbs one entry of a copy of the weights.

``sobnat verify`` and the acceptance criteria in ``tests/test_acceptance.py``
share one oracle and one threshold per check and differ only in how many
instances they run: each suite below runs a few fixed instances and returns a
list of (check name, passed, detail) triples; the CLI prints one line per
check and exits nonzero if anything failed.
"""

from __future__ import annotations

import numpy as np

from . import kfac, kernel, losses, metric, network, rkhs, riemann
from .flatness import FlatnessQuery, GridSampler, Reparam, epsilon_flatness, invariance_check

__all__ = [
    "SUITES",
    "run_suites",
    "kernel_quadrature_error",
    "gradcheck_error",
    "kernel_machine_error",
    "gauss_newton_error",
    "tangent_basis_error",
    "kron_block_error",
    "kron_precondition_error",
    "quadratic_band_query",
    "decrease_shortfall",
    "mirror_grad_gap",
]

KERNEL_QUADRATURE_TOL = 1e-6  # closed-form kernel vs Fourier inversion
GRADCHECK_TOL = 1e-5  # backprop vs central differences, relative per row
EXACTNESS_TOL = 1e-10  # batch metric vs Gram on a kernel machine
ORTHONORMALITY_TOL = 1e-8  # self-induced Gram vs identity
KRON_BLOCK_TOL = 1e-10  # Kronecker factor block vs dense metric block
KRON_PRECONDITION_TOL = 1e-12  # factored vs explicit Kronecker product
QUADRATURE_TOL = 1e-8  # two-layer pullback metric vs closed form
QUADRATURE_CROSS_MIN = 1e-3  # the w1-w2 cross term must not vanish
INVARIANCE_TOL = 0.02  # relative pullback-flatness change under a reparam
EUCLIDEAN_BREAK_MIN = 0.25  # relative Euclidean-flatness change under scaling
DECREASE_SLACK = 1e-10  # per-step decrease may fall short of Prog by this


def _row_relative_error(got, fd):
    """Max over rows of |got - fd|, each row divided by max(1, max |fd row|)."""
    err = np.max(np.abs(got - fd), axis=1) / np.maximum(1.0, np.max(np.abs(fd), axis=1))
    return float(np.max(err))


def gradcheck_error(net, x, y) -> float:
    """Worst relative error of ``param_jacobian`` and of the mean squared-loss
    gradient of the train step's ``loss_and_grad`` and ``backward``, both
    against one set of central differences in every parameter."""
    j = network.param_jacobian(net, x)
    cache = network.forward(net, x)
    _, residuals = losses.loss_and_grad(cache.outputs, y, losses.SQUARED)
    grads = network.backward(net, cache, residuals / cache.batch_size)
    grad = np.concatenate([v.reshape(-1) for v in grads])
    h = 1e-5
    fd_out = np.empty_like(j)
    fd_loss = np.empty(net.num_params)
    # Each difference moves one entry of a copy of the weights and puts it back.
    perturbed = network.MlpNetwork(net.layers, [w.copy() for w in net.weights])
    entries = [(w.reshape(-1), k) for w in perturbed.weights for k in range(w.size)]
    for i, (flat, k) in enumerate(entries):
        theta = flat[k]
        flat[k] = theta + h
        up = network.forward(perturbed, x).outputs
        flat[k] = theta - h
        dn = network.forward(perturbed, x).outputs
        flat[k] = theta
        fd_out[i] = (up - dn).reshape(-1) / (2 * h)
        loss_up, loss_dn = (losses.loss_and_grad(z, y, losses.SQUARED)[0] for z in (up, dn))
        fd_loss[i] = (loss_up - loss_dn) / (2 * h)
    jac_err = _row_relative_error(j, fd_out)
    return float(np.maximum(jac_err, _row_relative_error(grad[:, None], fd_loss[:, None])))


def kernel_machine_error(pts) -> float:
    """Gap between the batch metric of the kernel machine on pts (its
    Jacobian is the Gram) and the Gram itself, at zero jitter."""
    g = kernel.gram(pts, kernel.KernelSpec(input_dim=pts.shape[1], jitter=0.0))
    return float(np.max(np.abs(metric.estimate_metric(g.values, 1, g).values - g.values)))


def gauss_newton_error(j) -> float:
    """Gap between the K = I metric of the Jacobian j and J J^T; exactly 0."""
    return float(np.max(np.abs(metric.estimate_metric(j, 1, None).values - j @ j.T)))


def tangent_basis_error(net, probes) -> float:
    """Deviation from I of the NTK tangent basis's self-induced Gram.

    The basis is the feature map x -> param_jacobian(net, x), whose row i is
    the i-th tangent at x: one Jacobian per probe gives every basis value.
    """
    feature_map = lambda x: network.param_jacobian(net, np.atleast_2d(x))
    gram_matrix = rkhs.check_basis_orthonormality(feature_map, probes)
    return float(np.max(np.abs(gram_matrix - np.eye(net.num_params))))


def kron_block_error(net, x) -> float:
    """Gap between each layer's Kronecker block S (x) A and the matching block
    of the dense K = I metric; zero when the batch statistics factorize."""
    tangents = network.Tangents.of_network(net, network.forward(net, x))
    factors = kfac.compute_factors(tangents, None)
    dense = metric.estimate_metric(tangents.matrix(), tangents.output_dim, None).values
    offset, worst = 0, 0.0
    for (a, s), spec in zip(factors, net.layers):
        size = spec.out_dim * (spec.in_dim + 1)
        block = dense[offset : offset + size, offset : offset + size]
        worst = np.maximum(worst, float(np.max(np.abs(np.kron(s, a) - block))))
        offset += size
    return float(worst)


def kron_precondition_error(a_inv, s_inv, v) -> float:
    """Gap between kfac.precondition on the inverses a_inv, s_inv and the
    explicit (S^-1 (x) A^-1) vec(V)."""
    direct = (np.kron(s_inv, a_inv) @ v.reshape(-1)).reshape(v.shape)
    got = kfac.precondition(kfac.KfacLayerState(a_inv=a_inv, s_inv=s_inv), v)
    return float(np.max(np.abs(direct - got)))


def quadratic_band_query(metric_fn=None) -> FlatnessQuery:
    """The eps = 0.04 band of w^2 around 0 on an 801-cell grid over
    [-0.5, 0.5]; metric_fn None measures the Euclidean volume."""
    return FlatnessQuery(
        loss=lambda w: float(w[0] ** 2),
        minimum=np.zeros(1),
        epsilon=0.04,
        metric=metric_fn,
        metric_source="euclidean" if metric_fn is None else "rkhs_projected",
        sampler=GridSampler(resolution=801, half_width=0.5),
    )


def decrease_shortfall(problem, x) -> float:
    """How far one gradient step's decrease f(x) - f(x+) falls short of Prog(x)."""
    decrease = problem.f(x) - problem.f(riemann.grad_step(problem, x))
    return riemann.prog(problem, x) - decrease


def mirror_grad_gap(problem, x) -> float:
    """Gap between the mirror step at alpha = C L and the gradient step; exactly 0."""
    mirror = riemann.mirror_step(problem, x, problem.compat_C * problem.lipschitz_L)
    return float(np.max(np.abs(mirror - riemann.grad_step(problem, x))))


def kernel_quadrature_error(radii) -> float:
    """Worst gap between the closed-form d(r) of the n = 1 kernel and its
    Fourier inversion, (1/2pi) times the integral over R of cos(r xi)
    (1 + xi^2)^-2, at each radius r >= 0.

    The integrand is even, so the integral is twice that over [0, inf),
    taken by QUADPACK's Fourier-weight routine (QAWF) for r > 0 and by plain
    quadrature of (1 + xi^2)^-2 at r = 0.
    """
    import scipy.integrate

    spec = kernel.KernelSpec(input_dim=1, constant_mode=kernel.EXACT_CONSTANT)
    spectrum = lambda xi: 1.0 / (1.0 + xi * xi) ** 2
    worst = 0.0
    for r in radii:
        if r == 0.0:
            half, _ = scipy.integrate.quad(spectrum, 0.0, np.inf)
        else:
            half, _ = scipy.integrate.quad(spectrum, 0.0, np.inf, weight="cos", wvar=r)
        worst = np.maximum(worst, abs(2.0 * half / (2.0 * np.pi) - kernel.point_kernel(r, spec)))
    return float(worst)


def _kernel_suite():
    checks = []
    spec = kernel.KernelSpec(input_dim=1, constant_mode=kernel.EXACT_CONSTANT)
    checks.append(("kernel_d0_quarter", kernel.point_kernel(0.0, spec) == 0.25, "d(0) == 1/4"))
    worst = kernel_quadrature_error((0.0, 0.5, 1.0, 2.0, 5.0))
    ok = worst <= KERNEL_QUADRATURE_TOL
    checks.append(("kernel_matches_fourier_quadrature", ok, f"max err {worst:.3g}"))
    g = kernel.gram(np.array([[0.0], [1.0], [2.0]]), spec)
    sym = np.allclose(g.values, g.values.T) and np.allclose(np.diag(g.values), g.d0)
    checks.append(("gram_symmetric_constant_diagonal", sym, "diag d(0), symmetric"))
    return checks


def _gradcheck_suite():
    gen = np.random.default_rng(11)
    targets = np.random.default_rng(12)  # its own stream: gen draws only the nets and inputs
    worst = 0.0
    for _ in range(5):
        dims = [int(gen.integers(1, 4)), int(gen.integers(2, 5)), int(gen.integers(1, 3))]
        net = network.MlpNetwork.create(dims, ["tanh", "identity"], gen)
        x = gen.normal(size=(4, dims[0]))
        worst = np.maximum(worst, gradcheck_error(net, x, targets.normal(size=(4, dims[2]))))
    ok = worst <= GRADCHECK_TOL
    return [("param_jacobian_vs_finite_difference", ok, f"max rel err {worst:.3g}")]


def _exactness_suite():
    gen = np.random.default_rng(3)
    err = kernel_machine_error(gen.normal(size=(6, 2)))
    gn = gauss_newton_error(gen.normal(size=(5, 8)))
    return [
        ("metric_exact_on_kernel_machine", err <= EXACTNESS_TOL, f"max err {err:.3g}"),
        ("metric_identity_kernel_is_gauss_newton", gn == 0.0, "J J^T"),
    ]


def _orthonormality_suite():
    gen = np.random.default_rng(5)
    net = network.MlpNetwork.create([1, 1, 1], ["tanh", "identity"], gen)
    err = tangent_basis_error(net, np.linspace(-2.0, 2.0, 9).reshape(-1, 1))
    return [("ntk_tangent_basis_orthonormal", err <= ORTHONORMALITY_TOL, f"max err {err:.3g}")]


def _kfac_suite():
    gen = np.random.default_rng(7)
    net = network.MlpNetwork.create([1, 2, 1], ["identity", "identity"], gen)
    # Identical inputs make the statistics factorize.
    worst = kron_block_error(net, np.full((4, 1), 0.7))
    m = gen.normal(size=(3, 3))
    a_inv = m @ m.T + np.eye(3)
    m = gen.normal(size=(2, 2))
    s_inv = m @ m.T + np.eye(2)
    kp = kron_precondition_error(a_inv, s_inv, gen.normal(size=(2, 3)))
    return [
        ("kron_block_matches_dense_block", worst <= KRON_BLOCK_TOL, f"max err {worst:.3g}"),
        ("kron_precondition_matches_explicit", kp <= KRON_PRECONDITION_TOL, f"max err {kp:.3g}"),
    ]


def _quadrature_suite():
    w1, w2 = 0.8, -1.3
    net = network.MlpNetwork(
        [network.LayerSpec(1, 1, "identity"), network.LayerSpec(1, 1, "identity")],
        [np.array([[w1, 0.0]]), np.array([[w2, 0.0]])],
    )
    g = metric.exact_pullback_quadrature(net, "gaussian", nodes_per_dim=40).values
    expected = np.array(
        [
            [w2**2, 0.0, w1 * w2, 0.0],
            [0.0, w2**2, 0.0, w2],
            [w1 * w2, 0.0, w1**2, 0.0],
            [0.0, w2, 0.0, 1.0],
        ]
    )
    err = float(np.max(np.abs(g - expected)))
    ok = err <= QUADRATURE_TOL and abs(g[0, 2]) > QUADRATURE_CROSS_MIN
    return [("two_layer_pullback_cross_term", ok, f"max err {err:.3g}, cross term {g[0, 2]:.3f}")]


def _flatness_suite():
    query = quadratic_band_query(lambda w: np.array([[1.0]]))
    vol = epsilon_flatness(query).volume
    disc = invariance_check(query, Reparam.scaling(2.0, 1), vol)
    euc = invariance_check(quadratic_band_query(), Reparam.scaling(2.0, 1))
    return [
        ("quadratic_band_volume", abs(vol - 0.4) <= 0.01, f"volume {vol:.4f}"),
        ("pullback_invariant_under_scaling", disc <= INVARIANCE_TOL, f"discrepancy {disc:.3g}"),
        ("euclidean_flatness_not_invariant", euc >= EUCLIDEAN_BREAK_MIN, f"discrepancy {euc:.3g}"),
    ]


def _riemann_suite():
    checks = []
    gen = np.random.default_rng(2)
    worst = -np.inf
    for _ in range(25):
        m = gen.normal(size=(3, 3))
        problem = riemann.RiemannProblem.quadratic(m @ m.T + 0.5 * np.eye(3))
        worst = np.maximum(worst, decrease_shortfall(problem, gen.normal(size=3)))
    ok = worst <= DECREASE_SLACK
    checks.append(("per_step_decrease_at_least_prog", ok, "25 random quadratics"))
    problem = riemann.RiemannProblem.quadratic(np.diag([4.0, 1.0]), np.diag([2.0, 3.0]))
    gap = mirror_grad_gap(problem, np.array([1.0, -2.0]))
    checks.append(("mirror_step_equals_grad_step", gap == 0.0, "alpha = C L"))
    try:
        riemann.verify_rate(problem, np.array([3.0, -1.5]), 200)
        checks.append(("rate_bound_holds", True, "2 L C R^2 / T"))
    except riemann.RateViolation as exc:  # pragma: no cover - failure path
        checks.append(("rate_bound_holds", False, str(exc)))
    return checks


SUITES = {
    "kernel": _kernel_suite,
    "gradcheck": _gradcheck_suite,
    "exactness": _exactness_suite,
    "orthonormality": _orthonormality_suite,
    "kfac": _kfac_suite,
    "quadrature": _quadrature_suite,
    "flatness": _flatness_suite,
    "riemann": _riemann_suite,
}


def run_suites(names=None):
    """Run the requested suites (all by default); returns (results, ok)."""
    selected = list(SUITES) if not names else list(names)
    for name in selected:  # all names first, so an unknown one runs no suite
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for name in selected:
        for check, passed, detail in SUITES[name]():
            results.append((name, check, passed, detail))
    return results, all(r[2] for r in results)
