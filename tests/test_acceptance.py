"""Acceptance suite: one test (or pair) per criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 1-3 and 5-9 check the oracles of ``sobnat.verify`` with the
thresholds it defines, on their own (larger) instance sets: ``sobnat verify``
and this suite share one oracle and one threshold per check and differ only
in how many instances they run.  Criteria 1 and 7 are the ``kernel`` and
``quadrature`` suites themselves.

Criterion 10's kernel-weighted K-FAC clause is implemented faithfully at the
stated input scale and is expected to FAIL: on 2-D standardized inputs the
scale-20 batch Gram is numerically rank-deficient (its spectrum reaches the
jitter floor), which inflates the kernel-weighted metric by orders of
magnitude and caps that variant far above the required loss within the step
budget.  See the test docstring for the measurements; the remaining ten
criteria pass.
"""

from unittest.mock import Mock

import numpy as np
import pytest

from sobnat import verify
from sobnat.cli import write_logs
from sobnat.data import gen_two_moons, normalize, train_test_split
from sobnat.flatness import Reparam, epsilon_flatness, invariance_check
from sobnat.kernel import KernelSpec, gram
from sobnat.losses import SQUARED, loss_grad_z
from sobnat.metric import damped_natural_gradient, estimate_metric, natural_gradient
from sobnat.network import MlpNetwork, Tangents, backward_loss, forward, param_jacobian
from sobnat.optimizers import OptimConfig, train
from sobnat.riemann import RiemannProblem, verify_rate
from sobnat.rkhs import check_basis_orthonormality


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def report_suite(num, suite):
    checks = verify.SUITES[suite]()
    detail = "; ".join(f"{name}: {detail}" for name, _, detail in checks)
    report(num, all(ok for _, ok, _ in checks), detail)


def test_criterion_01_kernel_oracle():
    """Closed-form kernel vs its Fourier inversion by QUADPACK's
    Fourier-weight quadrature (QAWF) on [0, inf)."""
    report_suite(1, "kernel")


def test_criterion_02_gradient_checks():
    """Backprop Jacobian and loss gradient vs central finite differences on 20 random nets."""
    gen = np.random.default_rng(123)
    worst = 0.0
    for trial in range(20):
        n_in = int(gen.integers(1, 4))
        hidden = int(gen.integers(2, 7))
        m = int(gen.integers(1, 4))
        act = ["tanh", "sigmoid"][trial % 2]
        net = MlpNetwork.create([n_in, hidden, m], [act, "identity"], gen)
        assert net.num_params <= 200
        x = gen.normal(size=(4, n_in))
        y = gen.normal(size=(4, m))
        worst = np.maximum(worst, verify.gradcheck_error(net, x, y))
    report(2, worst <= verify.GRADCHECK_TOL, f"20 nets, max relative error {worst:.2e}")


def test_criterion_03_metric_exactness():
    """Batch metric equals the Gram on kernel machines; J J^T at K = I."""
    gen = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        batch = int(gen.integers(3, 9))
        worst = np.maximum(worst, verify.kernel_machine_error(gen.normal(size=(batch, 2))))
    gauss_newton_exact = verify.gauss_newton_error(gen.normal(size=(6, 10))) == 0.0
    report(3, worst <= verify.EXACTNESS_TOL and gauss_newton_exact,
           f"kernel-machine err {worst:.2e}, K=I exact {gauss_newton_exact}")


def test_criterion_04_two_path_agreement():
    """Projected coefficients == natural gradient of the pulled-back loss."""
    gen = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        net = MlpNetwork.create([2, 2, 1], ["tanh", "identity"], gen)
        x = gen.normal(size=(10, 2))
        y = gen.normal(size=(10, 1))
        cache = forward(net, x)
        resid = loss_grad_z(cache.outputs, y, SQUARED)
        g = gram(x / 20.0, KernelSpec(input_dim=2, jitter=0.0))
        j = param_jacobian(net, x)
        path1 = damped_natural_gradient(Tangents.of_matrix(j, 1), g, 1e-3, resid)
        grads = backward_loss(net, cache, y, SQUARED, reduction="sum")
        est = estimate_metric(j, 1, g, damping=1e-3)
        path2 = natural_gradient(est, np.concatenate([v.reshape(-1) for v in grads]))
        worst = np.maximum(worst, float(np.max(np.abs(path1 - path2))))
    report(4, worst <= 1e-9, f"10 nets/batches, max coefficient gap {worst:.2e}")


def test_criterion_05_basis_orthonormality():
    """Every basis is orthonormal under its self-induced kernel."""
    gen = np.random.default_rng(29)
    probes = np.linspace(-2.0, 2.0, 11).reshape(-1, 1)
    polys = [lambda x, k=k: np.array([x[0] ** k]) for k in range(4)]
    worst = float(np.max(np.abs(check_basis_orthonormality(polys, probes) - np.eye(4))))
    mix = gen.normal(size=(3, 3)) + 3.0 * np.eye(3)
    recombined = [
        (lambda row: lambda x: sum(row[k] * polys[k](x) for k in range(3)))(mix[i])
        for i in range(3)
    ]
    worst = np.maximum(
        worst, float(np.max(np.abs(check_basis_orthonormality(recombined, probes) - np.eye(3))))
    )
    for _ in range(3):
        net = MlpNetwork.create([1, 1, 1], ["tanh", "identity"], gen)  # 4 tangents
        worst = np.maximum(worst, verify.tangent_basis_error(net, probes))
    report(5, worst <= verify.ORTHONORMALITY_TOL,
           f"poly, recombined, and NTK tangent bases, max err {worst:.2e}")


def test_criterion_06_kfac_consistency():
    """Kron block == dense block on factorizing batches; kron solve oracle."""
    gen = np.random.default_rng(31)
    worst_block = 0.0
    for _ in range(3):
        net = MlpNetwork.create([1, 2, 1], ["identity", "identity"], gen)
        x = np.full((5, 1), float(gen.normal()))
        worst_block = np.maximum(worst_block, verify.kron_block_error(net, x))
    m = gen.normal(size=(4, 4))
    a_inv = m @ m.T + np.eye(4)
    m = gen.normal(size=(3, 3))
    s_inv = m @ m.T + np.eye(3)
    worst_kron = verify.kron_precondition_error(a_inv, s_inv, gen.normal(size=(3, 4)))
    report(6, worst_block <= verify.KRON_BLOCK_TOL and worst_kron <= verify.KRON_PRECONDITION_TOL,
           f"block err {worst_block:.2e}, kron solve err {worst_kron:.2e}")


def test_criterion_07_two_layer_quadrature_oracle():
    """Exact pullback metric of the two-parameter linear chain."""
    report_suite(7, "quadrature")


def test_criterion_08_flatness_invariance():
    """Pullback flatness is coordinate-free; Euclidean flatness is not."""
    query = verify.quadratic_band_query(lambda w: np.array([[1.0 + w[0] ** 2]]))
    base = epsilon_flatness(query).volume
    disc_scale = invariance_check(query, Reparam.scaling(2.0, 1), base)
    disc_warp = invariance_check(query, Reparam.tanh_warp(0.3, 1.0), base)
    disc_euclid = invariance_check(verify.quadratic_band_query(), Reparam.scaling(2.0, 1))
    ok = (
        disc_scale <= verify.INVARIANCE_TOL
        and disc_warp <= verify.INVARIANCE_TOL
        and disc_euclid >= verify.EUCLIDEAN_BREAK_MIN
    )
    report(8, ok,
           f"pullback: scaling {disc_scale * 100:.2f}%, warp {disc_warp * 100:.2f}%; "
           f"euclidean breaks by {disc_euclid * 100:.1f}%")


def test_criterion_09_riemann_descent():
    """Per-step decrease, mirror equivalence, and the 2LCR^2/T rate."""
    gen = np.random.default_rng(41)
    shortfall = -np.inf
    for k in range(100):
        m = gen.normal(size=(3, 3))
        g = np.diag(gen.uniform(0.5, 3.0, size=3)) if k % 2 else None
        problem = RiemannProblem.quadratic(m @ m.T + 0.5 * np.eye(3), g)
        x0 = gen.normal(size=3) * 2.0
        shortfall = np.maximum(shortfall, verify.decrease_shortfall(problem, x0))
    mirror_gap = 0.0
    for _ in range(10):
        m = gen.normal(size=(2, 2))
        problem = RiemannProblem.quadratic(m @ m.T + 0.5 * np.eye(2), np.diag([2.0, 0.7]))
        x0 = gen.normal(size=2)
        mirror_gap = np.maximum(mirror_gap, verify.mirror_grad_gap(problem, x0))
    for k in range(20):
        m = gen.normal(size=(3, 3))
        g = np.diag(gen.uniform(0.5, 3.0, size=3)) if k % 2 else None
        problem = RiemannProblem.quadratic(m @ m.T + 0.5 * np.eye(3), g)
        verify_rate(problem, gen.normal(size=3) * 3.0, 200)  # raises RateViolation
    report(9, shortfall <= verify.DECREASE_SLACK and mirror_gap == 0.0,
           "decrease>=Prog on 100 instances, mirror==grad, rate holds for T<=200 x20 starts")


def test_criterion_09_fails_on_nan_mirror_gap(monkeypatch):
    """A NaN mirror/grad gap on the second instance, not only the first, fails criterion 9."""
    exact = verify.mirror_grad_gap
    gap = Mock(side_effect=lambda problem, x: np.nan if gap.call_count == 2 else exact(problem, x))
    monkeypatch.setattr(verify, "mirror_grad_gap", gap)
    with pytest.raises(AssertionError):
        test_criterion_09_riemann_descent()


DESK_DATA = normalize(train_test_split(gen_two_moons(1000, 0.1, seed=7), 0.25, seed=7))
DESK_DIMS = [2, 16, 16, 2]


def desk_run(variant):
    cfg = OptimConfig(variant=variant, lr=0.01, weight_decay=0.003, damping=0.03,
                      input_scale=20.0, epochs=40, batch_size=50, seed=7,
                      record_walltime=False)
    log, _ = train(cfg, DESK_DATA, DESK_DIMS)
    losses = [s[3] for s in log.steps]
    first_005 = next((i for i, l in enumerate(losses[:500]) if l < 0.05), None)
    first_01 = next((i for i, l in enumerate(losses) if l < 0.1), None)
    return first_005, first_01, log.epochs[-1][2]


def test_criterion_10_desk_training_amari_vs_sgd():
    """Gauss-Newton K-FAC hits the loss target fast and beats plain SGD."""
    amari_005, amari_01, amari_acc = desk_run("amari_kfac")
    _, sgd_01, _ = desk_run("sgd")
    ok = (
        amari_005 is not None
        and amari_acc >= 0.95
        and amari_01 is not None
        and (sgd_01 is None or amari_01 < sgd_01)
    )
    report(10, ok,
           f"amari_kfac: loss<0.05 at step {amari_005}, test acc {amari_acc:.3f}, "
           f"reaches 0.1 at {amari_01} vs sgd {sgd_01}")


def test_criterion_10_desk_training_sobolev_scale20():
    """Faithful run of the kernel-weighted variant at input scale 20.

    EXPECTED FAIL.  In the pinned 600-step run the lowest batch loss is
    0.1207 (step 321): the loss never reaches 0.1, the last 50 losses
    average 0.258 and the test accuracy is 0.872.  On the same data
    amari_kfac first reaches 0.1 at step 40 and sgd at step 50.

    The steps are not too small: the step-0 update is 5.1x as long as
    amari_kfac's (0.381 against 0.075).  They point into too few functions.
    Standardized 2-D inputs divided by 20 lie a median 0.09 apart, in the
    flat limit of the profile e^-r (1 + r), where the batch Gram has
    numerical rank 3 (eigenvalues at or above 1e-4 of the largest; 19 at
    scale 2, 48 at scale 0.5).  Its top three eigenvectors span the constant
    and the two linear functions of the inputs.  Each step changes the
    outputs on the batch almost only in those three directions (3e-5 to
    5e-4 of the change lies outside them), while 0.21 of the loss residual
    lies outside them at step 0 and 0.92-0.97 from step 100 on, so the run
    stalls.  A 3000-step run with the same schedule shape first reaches 0.1
    at step 1010 and ends at a last-50 mean of 0.236.  The rank is that of
    step 0's batch; the shares were measured at steps 0, 100, 300 and 590
    with numpy.linalg.eigh of each step's batch Gram.
    """
    sob_005, sob_01, sob_acc = desk_run("sobolev_kfac")
    _, sgd_01, _ = desk_run("sgd")
    ok = (
        sob_005 is not None
        and sob_acc >= 0.95
        and sob_01 is not None
        and (sgd_01 is None or sob_01 < sgd_01)
    )
    print(
        f"ACCEPTANCE 10: {'PASS' if ok else 'FAIL'} "
        f"(sobolev_kfac at scale 20: loss<0.05 at step {sob_005}, "
        f"test acc {sob_acc:.3f}, reaches 0.1 at {sob_01} vs sgd {sgd_01}; "
        f"see docstring for the blocking analysis)"
    )
    assert ok, "sobolev_kfac at input scale 20 cannot meet the desk-scale targets"


def test_criterion_11_determinism(tmp_path):
    """Identical seeds produce byte-identical CSV logs."""
    cfg = OptimConfig(variant="sobolev_kfac", epochs=3, batch_size=50, seed=11,
                      record_walltime=False)
    paths = []
    for name in ("run_a", "run_b"):
        log, _ = train(cfg, DESK_DATA, DESK_DIMS)
        out = tmp_path / name
        write_logs(log, out)
        paths.append(out)
    identical = all(
        (paths[0] / f).read_bytes() == (paths[1] / f).read_bytes()
        for f in ("log_steps.csv", "log_epochs.csv")
    )
    report(11, identical, "two seeded runs, both CSV files byte-identical")
