"""Each benchmark check accepts sobnat's real output and rejects a
perturbed copy of it.  No timing is involved.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import calibrate  # noqa: E402
import checks  # noqa: E402
import toolkit  # noqa: E402
import training  # noqa: E402
import workloads  # noqa: E402
from sobnat import data, flatness, kernel, linalg, metric, network, optimizers, riemann, verify  # noqa: E402
from tracer import Tracer  # noqa: E402

SHAPE = workloads.TrainShape((2, 8, 8, 2), 120, 20, 0.01, 2)


def timed_run(spec, sample_steps):
    run = training.TimedRun(spec, sample_steps)
    while not run.done:
        run.advance()
    return run.rec


@pytest.fixture(scope="module")
def runs():
    specs = workloads.train_specs(SHAPE, seed=3)
    out = {}
    for i, spec in enumerate(specs):
        rec = timed_run(spec, training.sample_steps(spec.total_steps, 3, i))
        assert rec.error is None
        out[spec.variant] = (spec, rec)
    return out


def _flip(sample):
    """The same step with the update's sign reversed."""
    return [2.0 * b - a for b, a in zip(sample.before, sample.after)]


def _with_update(sample, update_vec):
    theta = checks.flat(sample.before)
    return checks.unflat(theta - sample.lr * update_vec, sample.before)


# ------------------------------------------------------------------ training


@pytest.mark.parametrize("variant", optimizers.VARIANTS)
def test_descent_rejects_sign_flipped_update(runs, variant):
    spec, rec = runs[variant]
    wd = spec.config.weight_decay
    for s in rec.samples:
        assert checks.check_descent(s.before, s.after, s.lr, s.x, s.y, wd) == []
        assert checks.check_descent(s.before, _flip(s), s.lr, s.x, s.y, wd)
        assert checks.check_descent(s.before, s.before, s.lr, s.x, s.y, wd)


def _dense_update(spec, s, gram_matrix, damping):
    """The dense step's direction recomputed with sobnat pieces, so one
    ingredient can be swapped for a wrong one."""
    net = network.MlpNetwork(optimizers.make_net(spec.dims, "tanh", np.random.default_rng(0)).layers, s.before)
    j = network.param_jacobian(net, s.x)
    g = metric.estimate_metric(j, net.output_dim, gram_matrix).values
    cache = network.forward(net, s.x)
    grads = network.backward_loss(net, cache, s.y, spec.config.loss, reduction="sum")
    rhs = np.concatenate([v.reshape(-1) for v in grads]) + spec.config.weight_decay * checks.flat(s.before)
    return linalg.cholesky_solve(g + damping * np.eye(net.num_params), rhs)


def test_dense_rejects_rescaled_kernel(runs):
    spec, rec = runs["sobolev_dense"]
    cfg = spec.config
    for s in rec.samples:
        args = (s.x, s.y, cfg.weight_decay, cfg.damping, cfg.input_scale)
        assert checks.check_dense(s.before, s.after, s.lr, *args) == []
        gram = kernel.gram(s.x / cfg.input_scale, kernel.KernelSpec(input_dim=2)).scaled(2.0)
        wrong = _with_update(s, _dense_update(spec, s, gram, cfg.damping))
        assert checks.check_dense(s.before, wrong, s.lr, *args)
        assert checks.check_dense(s.before, _flip(s), s.lr, *args)


def test_dense_gauss_newton_rejects_wrong_damping(runs):
    spec, rec = runs["amari_dense"]
    cfg = spec.config
    for s in rec.samples:
        args = (s.x, s.y, cfg.weight_decay, cfg.damping)
        assert checks.check_dense(s.before, s.after, s.lr, *args) == []
        wrong = _with_update(s, _dense_update(spec, s, None, 10.0 * cfg.damping))
        assert checks.check_dense(s.before, wrong, s.lr, *args)
        # the kernel-weighted metric is a different system from K = I
        assert checks.check_dense(s.before, s.after, s.lr, *args, spec.config.input_scale)


@pytest.mark.parametrize("variant", ["amari_kfac", "sobolev_kfac"])
def test_kfac_rejects_wrong_damping_and_factors(runs, variant):
    spec, rec = runs[variant]
    cfg = spec.config
    for s in rec.samples:
        args = (s.x, s.y, cfg.weight_decay, cfg.damping)
        assert checks.check_kfac(s.before, s.after, s.lr, *args, s.factors) == []
        grads = checks.unflat(
            checks.param_jacobian(s.before, s.x) @ checks.residuals(s.before, s.x, s.y).reshape(-1), s.before
        )
        wrong = [
            w - s.lr * checks.kfac_expected(a, f, g + cfg.weight_decay * w, 4.0 * cfg.damping)
            for w, g, (a, f) in zip(s.before, grads, s.factors)
        ]
        assert checks.check_kfac(s.before, wrong, s.lr, *args, s.factors)
        swapped = [(a, 2.0 * f) for a, f in s.factors]
        assert checks.check_kfac(s.before, s.after, s.lr, *args, swapped)
        assert checks.check_kfac(s.before, s.after, s.lr, *args, s.factors[:-1])


def test_ntk_matches_sgd_and_rejects_drift(runs):
    ntk = runs["ntk_surrogate"][1].params
    sgd = runs["sgd"][1].params
    assert checks.check_close_params(ntk, sgd, "ntk") == []
    drifted = sgd.copy()
    drifted[5] += 1e-7
    assert checks.check_close_params(ntk, drifted, "ntk")


def test_identity_against_optimizers_train_rejects_one_ulp(runs):
    spec, rec = runs["sobolev_kfac"]
    log, net = optimizers.train(spec.config, spec.dataset, spec.dims)
    ref = [s[3] for s in log.steps]
    assert checks.check_identical(rec.losses, ref, rec.params, net.params_vector(), "ref") == []
    bumped = rec.losses.copy()
    bumped[3] = np.nextafter(bumped[3], np.inf)
    assert checks.check_identical(bumped, ref, rec.params, net.params_vector(), "ref")
    params = rec.params.copy()
    params[0] = np.nextafter(params[0], np.inf)
    assert checks.check_identical(rec.losses, ref, params, net.params_vector(), "ref")
    assert checks.check_identical(rec.losses[:-1], ref, rec.params, net.params_vector(), "ref")


def test_finite_rejects_nan_and_empty():
    assert checks.check_finite([0.5, 0.4]) == []
    assert checks.check_finite([0.5, np.nan])
    assert checks.check_finite([np.inf])
    assert checks.check_finite([])


def test_criterion_10_targets():
    losses = 0.7 * 0.99 ** np.arange(600)  # below 0.1 at 194, below 0.05 at 263
    sgd = 0.7 * 0.995 ** np.arange(600)  # below 0.1 at 389
    assert checks.check_criterion_10(losses, sgd, 0.97) == []
    assert checks.check_criterion_10(losses, sgd, 0.94)
    assert checks.check_criterion_10(np.maximum(losses, 0.06), sgd, 0.97)
    assert checks.check_criterion_10(losses, 0.5 * losses, 0.97)


def test_sample_steps_cover_refresh_and_between():
    picks = training.sample_steps(600, 5, 2)
    assert 0 in picks and len(picks) == 3
    assert any(p % training.WINDOW == 0 and p > 0 for p in picks)
    assert any(p % training.WINDOW for p in picks)
    assert training.sample_steps(2, 5, 2) == {0, 1}


def test_windows_of_ten_steps_scaled_by_calibration():
    cal = calibrate.Calibration()
    ref = calibrate.REF_NUMERIC_S
    cal.times, cal.numeric = [0.0, 10.0, 20.0], [ref, 2.0 * ref, 4.0 * ref]
    ms = 1e-3
    rec = training.RunRecord(step_s=ms * np.concatenate([np.ones(10), 2.0 * np.ones(10), np.ones(5)]),
                             chunk_spans=[(0.0, 0.5), (9.5, 10.0), (20.0, 20.1)])
    assert np.allclose(training.window_step_s([rec]), [ms, 2.0 * ms])
    assert np.allclose(training.window_step_s([rec], cal), [ms, ms])
    short = training.RunRecord(step_s=np.array([ms, 3.0 * ms]), chunk_spans=[(-0.5, 0.0), (19.5, 20.0)])
    assert np.allclose(training.window_step_s([short]), [ms, 3.0 * ms])
    assert np.allclose(training.window_step_s([short], cal), [ms, 0.75 * ms])
    long = training.RunRecord(step_s=np.array([1.0]), chunk_spans=[(9.0, 10.0)])
    assert training.window_step_s([long], cal) == [1.0]


# ------------------------------------------------------------------- toolkit


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "moons.csv"
    return toolkit.ToolkitInputs(4, str(path))


def test_grid_band_volume_rejects_shift(inputs):
    for dim in (1, 2, 3):
        q = inputs.quads[dim]
        vol = flatness.epsilon_flatness(q.query(toolkit._grid(q))).volume
        cell = 2.0 * q.half_width / toolkit.GRID_RESOLUTION[dim]
        tol = checks.grid_tolerance(q.h, toolkit.EPSILON, q.g, cell)
        assert checks.check_band_volume(vol, q.h, toolkit.EPSILON, q.g, tol) == []
        assert checks.check_band_volume(vol * 1.03, q.h, toolkit.EPSILON, q.g, tol)
        # the Euclidean volume is not the metric volume
        assert checks.check_band_volume(vol / np.sqrt(np.linalg.det(q.g)), q.h, toolkit.EPSILON, q.g, tol)


def test_mc_band_volume_rejects_shift(inputs):
    q = inputs.mc_quad
    vol = flatness.epsilon_flatness(q.query(toolkit._mc(q, inputs.seed))).volume
    tol = checks.mc_tolerance(q.h, toolkit.EPSILON, q.g, q.half_width, toolkit.MC_COUNT)
    assert checks.check_band_volume(vol, q.h, toolkit.EPSILON, q.g, tol) == []
    assert checks.check_band_volume(vol * 1.1, q.h, toolkit.EPSILON, q.g, tol)


def test_invariance_checks(inputs):
    q = inputs.quads[1]
    disc = flatness.invariance_check(q.query(toolkit._grid(q)), flatness.Reparam.tanh_warp(0.3, 1.0))
    assert checks.check_invariant(disc) == []
    assert checks.check_invariant(disc + 0.05)
    euclid = flatness.invariance_check(q.query(toolkit._grid(q), euclidean=True),
                                       flatness.Reparam.scaling(toolkit.SCALE, 1))
    assert checks.check_euclidean_breaks(euclid, toolkit.SCALE, 1) == []
    assert checks.check_euclidean_breaks(0.0, toolkit.SCALE, 1)
    assert checks.check_euclidean_breaks(euclid, toolkit.SCALE, 2)


def test_riemann_rejects_short_steps_and_broken_rate(inputs):
    for h, g, x0 in inputs.riemann[:4]:
        report = riemann.verify_rate(riemann.RiemannProblem.quadratic(h, g), x0, toolkit.RIEMANN_STEPS)
        xs, progs = toolkit._trajectory(h, g, x0)
        assert checks.check_riemann(h, g, xs, progs, report.gaps, report.radius) == []
        short = [xs[0]]
        for x in xs[1:]:
            short.append(short[-1] + 0.2 * (x - xs[len(short) - 1]))
        assert checks.check_riemann(h, g, short, progs, report.gaps, report.radius)
        assert checks.check_riemann(h, g, xs, [2.0 * p for p in progs], report.gaps, report.radius)
        assert checks.check_riemann(h, g, xs, progs, 1.01 * report.bounds, report.radius)
        assert checks.check_riemann(h, g, xs, progs, report.gaps, report.radius * 0.5)
        assert checks.check_riemann(h, g, xs, progs, [], report.radius)


def test_funcgd_rejects_changed_prediction(inputs):
    preds = toolkit._funcgd(inputs)
    xs, ys = inputs.funcgd
    assert checks.check_funcgd(preds, xs, ys, toolkit.FUNCGD_STEPS, toolkit.FUNCGD_LR) == []
    wrong = preds.copy()
    wrong[7, 0] += 1e-6
    assert checks.check_funcgd(wrong, xs, ys, toolkit.FUNCGD_STEPS, toolkit.FUNCGD_LR)
    assert checks.check_funcgd(preds, xs, ys, toolkit.FUNCGD_STEPS - 1, toolkit.FUNCGD_LR)


def test_csv_rejects_one_changed_value(inputs):
    ds = data.load_csv(inputs.csv_path)
    assert checks.check_csv(ds.features, ds.targets, inputs.csv_features, inputs.csv_labels) == []
    feats = ds.features.copy()
    feats[123, 1] = np.nextafter(feats[123, 1], np.inf)
    assert checks.check_csv(feats, ds.targets, inputs.csv_features, inputs.csv_labels)
    labels = ds.targets.copy()
    labels[9] = 1 - labels[9]
    assert checks.check_csv(ds.features, labels, inputs.csv_features, inputs.csv_labels)


def test_verify_output_rejects_failure_and_missing_suite():
    rc, text = toolkit._cli(["verify"])
    assert checks.check_verify_output(rc, text, toolkit.SUITES) == []
    assert checks.check_verify_output(rc, text.replace("[PASS] kfac:", "[FAIL] kfac:", 1), toolkit.SUITES)
    kept = "\n".join(ln for ln in text.splitlines() if ":" not in ln or "riemann:" not in ln)
    assert checks.check_verify_output(rc, kept, toolkit.SUITES)
    assert checks.check_verify_output(1, text, toolkit.SUITES)
    assert checks.check_verify_output(0, "", toolkit.SUITES)


def test_op_checks_accept_real_outputs(inputs):
    ops = {name: fn for name, _group, fn in toolkit.operations(inputs)}
    for name in ("verify", "funcgd", "csv", "flatness.grid_1d", "flatness.euclid_scale_1d"):
        assert toolkit.check_op(name, ops[name](), inputs) == []
    with pytest.raises(KeyError):
        toolkit.check_op("no_such_op", None, inputs)


# -------------------------------------------------------------------- tracer


def test_tracer_wraps_bindings_and_restores(runs):
    spec, _ = runs["sobolev_kfac"]
    original_gram = kernel.gram
    tracer = Tracer()
    tracer.install()
    try:
        assert optimizers.gram is not original_gram and kernel.gram is optimizers.gram
        tracer.begin("sobolev_kfac")
        timed_run(dataclasses.replace(spec, config=dataclasses.replace(spec.config, epochs=1)), set())
        rc, _ = toolkit._cli(["verify", "--suite", "kfac"])
        assert rc == 0
    finally:
        tracer.uninstall()
    assert kernel.gram is original_gram and optimizers.gram is original_gram
    assert verify.SUITES["kfac"].__name__ == "_kfac_suite"
    names = {s[0] for s in tracer.spans}
    assert {"optimizers.train_step", "kernel.gram", "kfac.compute_factors", "verify.kfac"} <= names
    roots = [s for s in tracer.spans if s[3] == -1]
    assert {s[0] for s in roots} == {"optimizers.train_step", "verify.kfac"}
    for name, start, end, parent, _tid in tracer.spans:
        assert end >= start
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2]
    assert tracer.max_order["sobolev_kfac"] == spec.config.batch_size
