import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from sobnat import kfac, linalg, optimizers
from sobnat import rng as rngmod
from sobnat.data import Dataset, gen_two_moons, normalize, train_test_split
from sobnat.errors import DegenerateGram, DimensionMismatch, Diverged, NotPositiveDefinite, StepFailed
from sobnat.kernel import KernelSpec, gram
from sobnat.losses import SOFTMAX_CE, SQUARED, loss_grad_z
from sobnat.metric import damped_natural_gradient, estimate_metric
from sobnat.network import LayerSpec, MlpNetwork, Tangents, backward, backward_loss, forward, param_jacobian
from sobnat.optimizers import (
    ExperimentLog,
    OptimConfig,
    TrainState,
    lr_at,
    make_net,
    train,
    train_step,
)

TWO_MOONS = normalize(train_test_split(gen_two_moons(1000, 0.1, seed=7), 0.25, seed=7))


def quick_config(**kw):
    base = dict(variant="sgd", epochs=1, batch_size=8, seed=0, loss=SQUARED,
                weight_decay=0.0, damping=0.03, record_walltime=False)
    base.update(kw)
    return OptimConfig(**base)


class TestLrSchedule:
    @pytest.mark.parametrize(
        "frac,mult",
        [(0.0, 1.0), (0.39, 1.0), (0.40, 0.1), (0.41, 0.1), (0.79, 0.1),
         (0.80, 0.01), (0.81, 0.01), (0.99, 0.01)],
    )
    def test_baseline_tenth_after_each_40pct(self, frac, mult):
        cfg = quick_config(schedule="baseline_tenth_at_40pct", lr=0.01)
        assert lr_at(cfg, int(frac * 1000), 1000) == pytest.approx(0.01 * mult)

    @pytest.mark.parametrize(
        "frac,mult",
        [(0.0, 1.0), (0.39, 1.0), (0.40, 0.2), (0.59, 0.2), (0.60, 0.04),
         (0.65, 0.04), (0.99, 0.04)],
    )
    def test_ours_fifth_at_40_and_60pct(self, frac, mult):
        cfg = quick_config(schedule="ours_fifth_at_40_and_60pct", lr=0.01)
        assert lr_at(cfg, int(frac * 1000), 1000) == pytest.approx(0.01 * mult)

    def test_sixty_five_percent_is_lr_over_25(self):
        cfg = quick_config(schedule="ours_fifth_at_40_and_60pct", lr=0.01)
        assert lr_at(cfg, 650, 1000) == pytest.approx(0.01 / 25.0)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            lr_at(quick_config(), 10, 10)


class TestTrainStep:
    @pytest.mark.parametrize(
        "variant",
        ["sgd", "ntk_surrogate", "amari_dense", "sobolev_dense", "amari_kfac", "sobolev_kfac"],
    )
    def test_zero_gradient_leaves_parameters(self, variant):
        # Targets equal to the outputs give zero residuals under squared
        # loss; with zero weight decay no variant may move.
        net = make_net([2, 3, 1], "tanh", np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 2))
        y = forward(net, x).outputs
        cfg = quick_config(variant=variant)
        state = TrainState.create(net, cfg)
        new_net, loss = train_step(net, x, y, cfg, state, lr=0.05)
        assert loss == pytest.approx(0.0, abs=1e-20)
        for w0, w1 in zip(net.weights, new_net.weights):
            np.testing.assert_allclose(w1, w0, atol=1e-12)

    @pytest.mark.parametrize("variant", optimizers.VARIANTS)
    def test_one_forward_pass_per_step(self, monkeypatch, variant):
        calls, forward_pass = [], optimizers.network.forward

        def counting(net, x):
            calls.append(len(x))
            return forward_pass(net, x)

        monkeypatch.setattr(optimizers.network, "forward", counting)
        net = make_net([2, 3, 2], "tanh", np.random.default_rng(0))
        x, y = TWO_MOONS.train()
        cfg = OptimConfig(variant=variant, batch_size=8, seed=0, record_walltime=False)
        train_step(net, x[:8], y[:8], cfg, TrainState.create(net, cfg), 0.01)
        assert calls == [8]

    def test_amari_dense_solves_linear_least_squares_in_one_step(self):
        # Gauss-Newton is exact on linear models: damping 0, lr 1 lands on
        # the normal-equations solution regardless of the start.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 3))
        target_theta = rng.normal(size=4)  # weights + bias
        y = (x @ target_theta[:3] + target_theta[3]).reshape(-1, 1)
        y += rng.normal(scale=0.1, size=y.shape)
        net = MlpNetwork([LayerSpec(3, 1, "identity")], [rng.normal(size=(1, 4))])
        cfg = quick_config(variant="amari_dense", damping=0.0)
        state = TrainState.create(net, cfg)
        new_net, _ = train_step(net, x, y, cfg, state, lr=1.0)
        design = np.hstack([x, np.ones((12, 1))])
        theta_star, *_ = np.linalg.lstsq(design, y[:, 0], rcond=None)
        np.testing.assert_allclose(new_net.weights[0][0], theta_star, atol=1e-9)

    def test_sobolev_dense_matches_hand_assembled_projection(self):
        # The step direction must equal the damped Eq.-16 solve against the
        # sum-loss residual correlation, assembled here through the metric
        # module (two independent code paths into the same numbers).
        rng = np.random.default_rng(3)
        net = make_net([2, 2, 1], "tanh", rng)
        x = rng.normal(size=(10, 2))
        y = rng.normal(size=(10, 1))
        cfg = quick_config(variant="sobolev_dense", damping=0.01, weight_decay=0.002)
        state = TrainState.create(net, cfg)
        new_net, _ = train_step(net, x, y, cfg, state, lr=0.5)

        cache = forward(net, x)
        resid = loss_grad_z(cache.outputs, y, SQUARED)
        g = gram(x / cfg.input_scale, KernelSpec(input_dim=2, input_scale=cfg.input_scale))
        j = param_jacobian(net, x)
        gt = estimate_metric(j, 1, g).values
        rhs = j @ resid.reshape(-1) + cfg.weight_decay * net.params_vector()
        direction = np.linalg.solve(gt + cfg.damping * np.eye(net.num_params), rhs)
        expected = net.params_vector() - 0.5 * direction
        np.testing.assert_allclose(new_net.params_vector(), expected, atol=1e-10)

    def test_ntk_surrogate_trajectory_equals_sgd(self):
        # Both step along the Euclidean sum-loss gradient through different
        # code paths (backprop accumulation vs J r contraction).
        x, y = TWO_MOONS.train()
        x, y = x[:40], y[:40]
        nets, cfgs = {}, {}
        for variant in ("sgd", "ntk_surrogate"):
            cfg = OptimConfig(variant=variant, epochs=1, batch_size=8, seed=5,
                              weight_decay=0.003, record_walltime=False)
            net = make_net([2, 4, 2], "tanh", rngmod.stream(5, "init"))
            state = TrainState.create(net, cfg)
            for k in range(10):
                idx = slice(k * 4, k * 4 + 8)
                net, _ = train_step(net, x[idx], y[idx], cfg, state, 0.01)
            nets[variant] = net
        np.testing.assert_allclose(
            nets["sgd"].params_vector(), nets["ntk_surrogate"].params_vector(), atol=1e-10
        )

    @pytest.mark.parametrize("variant", ["ntk_surrogate", "amari_dense", "sobolev_dense"])
    def test_tangent_steps_run_no_backward_pass(self, variant, monkeypatch):
        # J r already is the sum-loss gradient; a backprop pass would be waste.
        # backward_loss runs through backward, so this one swap covers both.
        # output_jacobians is the step's one backprop sweep, and the
        # parameters are never read as one length-P vector.
        def no_backward(*args, **kwargs):
            raise AssertionError(f"backward pass run on a {variant} step")

        calls, jacobians, params = [], optimizers.network.output_jacobians, MlpNetwork.params_vector

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optimizers.network, "backward", no_backward)
        monkeypatch.setattr(optimizers.network, "output_jacobians", counting("jacobians", jacobians))
        net = make_net([2, 3, 2], "tanh", np.random.default_rng(0))
        monkeypatch.setattr(MlpNetwork, "params_vector", counting("params", params))
        x, y = TWO_MOONS.train()
        cfg = OptimConfig(variant=variant, batch_size=8, seed=0, record_walltime=False)
        new_net, _ = train_step(net, x[:8], y[:8], cfg, TrainState.create(net, cfg), 0.01)
        assert calls == ["jacobians"]
        assert not np.array_equal(params(new_net), params(net))

    @pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
    @pytest.mark.parametrize("variant", ["amari_dense", "sobolev_dense"])
    @pytest.mark.parametrize("dims,loss", [([2, 5, 4, 2], SOFTMAX_CE), ([2, 6, 1], SQUARED), ([3, 4, 3], SQUARED)])
    def test_dense_gradient_is_the_backward_gradient(self, variant, activation, dims, loss, monkeypatch):
        # The gradient J r + decay * w the dense step solves with, rebuilt
        # from the residuals, decay and weights it passes, is the
        # concatenated backprop gradient of the sum loss, plus weight decay.
        seen, solve = [], optimizers.metric.damped_natural_gradient

        def recording(tangents, gram_matrix, damping, residuals, decay, weights):
            layers = zip(tangents.matvec(residuals.T), weights)
            seen.append(np.concatenate([(jr + decay * w).reshape(-1) for jr, w in layers]))
            return solve(tangents, gram_matrix, damping, residuals, decay, weights)

        monkeypatch.setattr(optimizers.metric, "damped_natural_gradient", recording)
        rng = np.random.default_rng(len(dims) + dims[-1])
        net = make_net(dims, activation, rng)
        x = rng.normal(size=(9, dims[0]))
        y = rng.integers(0, dims[-1], size=9) if loss == SOFTMAX_CE else rng.normal(size=(9, dims[-1]))
        cfg = quick_config(variant=variant, loss=loss, weight_decay=0.003)
        train_step(net, x, y, cfg, TrainState.create(net, cfg), 0.01)
        grads = backward_loss(net, forward(net, x), y, loss, reduction="sum")
        expected = np.concatenate([g.reshape(-1) for g in grads]) + cfg.weight_decay * net.params_vector()
        (got,) = seen
        assert np.max(np.abs(got - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize("variant", optimizers.VARIANTS)
    def test_step_evaluates_the_loss_head_once(self, variant, monkeypatch):
        # The loss and the residuals that seed backprop share one softmax.
        calls, softmax = [], optimizers.losses.softmax

        def counting(z):
            calls.append(z.shape)
            return softmax(z)

        monkeypatch.setattr(optimizers.losses, "softmax", counting)
        net = make_net([2, 3, 2], "tanh", np.random.default_rng(0))
        x, y = TWO_MOONS.train()
        cfg = OptimConfig(variant=variant, batch_size=8, seed=0, record_walltime=False)
        train_step(net, x[:8], y[:8], cfg, TrainState.create(net, cfg), 0.01)
        assert calls == [(8, 2)]

    def test_variant_coherence_identity_kernel(self, monkeypatch):
        # amari_dense and sobolev_dense with the Gram forced to identity
        # must produce the same trajectory.  Points 1000 apart have kernel
        # values exp(-1000) (1 + 1000) == 0.0, so their Gram is exactly I.
        # amari_dense keeps its own K = I path: a run without a kernel gets None.
        batch_gram = optimizers._batch_gram

        def identity_gram(x, state):
            if state.kernel_spec is None:
                return batch_gram(x, state)
            spread = 1000.0 * np.arange(x.shape[0]).reshape(-1, 1)
            g = gram(spread, KernelSpec(input_dim=1, jitter=0.0))
            assert np.array_equal(g.values, np.eye(x.shape[0]))
            return g

        monkeypatch.setattr(optimizers, "_batch_gram", identity_gram)
        x, y = TWO_MOONS.train()
        finals = {}
        for variant in ("amari_dense", "sobolev_dense"):
            cfg = OptimConfig(variant=variant, epochs=1, batch_size=10, seed=9,
                              weight_decay=0.003, damping=0.03, record_walltime=False)
            net = make_net([2, 3, 2], "tanh", rngmod.stream(9, "init"))
            state = TrainState.create(net, cfg)
            for k in range(100):
                idx = slice((k * 10) % 700, (k * 10) % 700 + 10)
                net, _ = train_step(net, x[idx], y[idx], cfg, state, 0.01)
            finals[variant] = net.params_vector()
        assert np.max(np.abs(finals["amari_dense"] - finals["sobolev_dense"])) <= 1e-12

    def test_kfac_matches_block_oracle_on_factorizing_batch(self, monkeypatch):
        # On a batch of identical inputs the layer statistics factorize, so
        # the K-FAC optimizer must follow a hand-rolled per-layer oracle that
        # builds the factors, the trace-balanced damping, and the factored
        # solve from scratch for a linear 1-2-1 net.
        w1 = np.array([[0.6, 0.1], [-0.4, 0.2]])
        w2 = np.array([[0.5, -0.7, 0.3]])
        layers = [LayerSpec(1, 2, "identity"), LayerSpec(2, 1, "identity")]
        lam, wd, lr, batch = 0.02, 0.001, 0.05, 4
        x = np.full((batch, 1), 0.8)
        y = np.full((batch, 1), -0.3)

        cfg = quick_config(variant="amari_kfac", damping=lam, weight_decay=wd)
        monkeypatch.setattr(kfac, "REFRESH_PERIOD", 1)
        net = MlpNetwork(layers, [w1.copy(), w2.copy()])
        state = TrainState.create(net, cfg)
        for layer in state.kfac_layers:
            layer.decay = 0.0
        oracle = [w1.copy(), w2.copy()]
        for _ in range(10):
            net, _ = train_step(net, x, y, cfg, state, lr)

            # Oracle: forward/backward and factored update by hand.
            o1, o2 = oracle
            a_bar0 = np.array([x[0, 0], 1.0])
            s1 = o1 @ a_bar0
            a_bar1 = np.concatenate([s1, [1.0]])
            out = float((o2 @ a_bar1)[0])
            r = out - y[0, 0]
            v2 = batch * r * a_bar1.reshape(1, -1)
            ds1 = o2[0, :2]
            v1 = batch * r * np.outer(ds1, a_bar0)
            a_fac = [np.outer(a_bar0, a_bar0), np.outer(a_bar1, a_bar1)]
            s_fac = [batch * np.outer(ds1, ds1), batch * np.eye(1)]
            new_oracle = []
            for w, v, a, s in zip(oracle, (v1, v2), a_fac, s_fac):
                pi = np.sqrt(
                    (np.trace(s) / s.shape[0]) / max(np.trace(a) / a.shape[0], 1e-300)
                )
                a_d = a + (np.sqrt(lam) / pi) * np.eye(a.shape[0])
                s_d = s + (np.sqrt(lam) * pi) * np.eye(s.shape[0])
                upd = np.linalg.solve(s_d, (v + wd * w)) @ np.linalg.inv(a_d)
                new_oracle.append(w - lr * upd)
            oracle = new_oracle
        for got, want in zip(net.weights, oracle):
            assert np.max(np.abs(got - want)) <= 1e-8

    @pytest.mark.parametrize("variant", ["amari_dense", "sobolev_dense"])
    def test_wide_dense_step_never_forms_the_jacobian(self, monkeypatch, factor_orders, variant):
        # [2,64,64,2] at B = 50: P = 4482 > B*m = 100, so a step factors
        # only the 50 x 50 Gram and the 100 x 100 kernel-space system, never
        # builds J, and allocates less than half of one P x B*m array.
        def no_jacobian(*args, **kwargs):
            raise AssertionError("param_jacobian called on a P > B*m dense step")

        monkeypatch.setattr(optimizers.network, "param_jacobian", no_jacobian)
        monkeypatch.setattr(optimizers.network.Tangents, "matrix", no_jacobian)
        x, y = TWO_MOONS.train()
        cfg = OptimConfig(variant=variant, batch_size=50, seed=1, record_walltime=False)
        net = make_net([2, 64, 64, 2], "tanh", rngmod.stream(1, "init"))
        state = TrainState.create(net, cfg)
        tracemalloc.start()
        try:
            train_step(net, x[:50], y[:50], cfg, state, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor_orders == ([100] if variant == "amari_dense" else [50, 100])
        assert peak < 8 * net.num_params * 100 / 2

    @pytest.mark.parametrize("variant", ["amari_dense", "sobolev_dense"])
    def test_dense_step_past_the_jacobian_budget(self, variant):
        # [2,256,256,2]: P * B * m = 67074 * 100 exceeds DENSE_BUDGET, where
        # param_jacobian raises TooLarge; the dense step needs no J.
        x, y = TWO_MOONS.train()
        cfg = OptimConfig(variant=variant, batch_size=50, seed=2, record_walltime=False)
        net = make_net([2, 256, 256, 2], "tanh", rngmod.stream(2, "init"))
        assert net.num_params * 100 > optimizers.network.DENSE_BUDGET
        new_net, _ = train_step(net, x[:50], y[:50], cfg, TrainState.create(net, cfg), 0.01)
        step = net.params_vector() - new_net.params_vector()
        assert np.isfinite(step).all()
        grads = backward_loss(net, forward(net, x[:50]), y[:50], cfg.loss, reduction="sum")
        grad = np.concatenate([g.reshape(-1) for g in grads]) + cfg.weight_decay * net.params_vector()
        assert step @ grad > 0

    def test_dense_descent_on_linear_models(self):
        # Full-batch damped Gauss-Newton steps with a small lr never increase
        # the batch loss of a convex (linear least squares) model.
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=(20, 2))
            y = rng.normal(size=(20, 1))
            net = MlpNetwork([LayerSpec(2, 1, "identity")], [rng.normal(size=(1, 3))])
            cfg = quick_config(variant="amari_dense", damping=0.05)
            state = TrainState.create(net, cfg)
            prev = np.inf
            for _ in range(25):
                net, loss = train_step(net, x, y, cfg, state, lr=0.02)
                assert loss <= prev + 1e-12
                prev = loss


@pytest.mark.parametrize("field", ["lr", "damping", "weight_decay", "input_scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_values_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be .* and finite"):
        OptimConfig(**{field: value})


@pytest.mark.parametrize("field", [f.name for f in fields(OptimConfig)])
def test_config_fields_cannot_be_assigned(field):
    cfg = OptimConfig()
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, field, getattr(cfg, field))


def test_config_replace_checks_again():
    with pytest.raises(ValueError, match="^variant must be one of "):
        replace(OptimConfig(), variant="bogus")


def test_kfac_factors_refresh_every_refresh_period_steps(monkeypatch):
    # 25 steps of a K-FAC run refresh the factors on steps 0, 10 and 20.
    x, y = TWO_MOONS.train()
    cfg = OptimConfig(variant="sobolev_kfac", batch_size=20, seed=3, record_walltime=False)
    net = make_net([2, 8, 2], "tanh", rngmod.stream(3, "init"))
    state, refreshed, compute = TrainState.create(net, cfg), [], kfac.compute_factors

    def recording(*args):
        refreshed.append(state.step)
        return compute(*args)

    monkeypatch.setattr(kfac, "compute_factors", recording)
    for k in range(25):
        net, _ = train_step(net, x[20 * k : 20 * k + 20], y[20 * k : 20 * k + 20], cfg, state, 0.01)
    assert refreshed == [0, 10, 20]


def reference_step(net, x, y, cfg, kfac_layers, lr, refresh=True):
    """train_step through the public calls, which factor into fresh arrays:
    each layer becomes w_l - lr * Delta_l, with the variant's Delta_l built
    here.  An ntk_surrogate step's gradient is J r, as the step takes it,
    and a dense step solves from the residuals r; a K-FAC step refreshes
    kfac_layers first when refresh is set."""
    cache = forward(net, x)
    resid = loss_grad_z(cache.outputs, y, cfg.loss)
    g = None
    if cfg.variant.startswith("sobolev"):
        spec = KernelSpec(input_dim=x.shape[1], input_scale=cfg.input_scale)
        g = gram(x / cfg.input_scale, spec)
    if cfg.variant in ("amari_dense", "sobolev_dense"):
        deltas = damped_natural_gradient(Tangents.of_network(net, cache), g, cfg.damping, resid, cfg.weight_decay,
                                         net.weights)
    else:
        if cfg.variant == "ntk_surrogate":
            grads = Tangents.of_network(net, cache).matvec(resid.T)
        else:
            grads = backward(net, cache, resid)
        deltas = [v + cfg.weight_decay * w for w, v in zip(net.weights, grads)]
    if cfg.variant.endswith("_kfac"):
        if refresh:
            for layer, (a, s) in zip(kfac_layers, kfac.compute_factors(Tangents.of_network(net, cache), g)):
                kfac.update_state(layer, a, s)
        deltas = [kfac.precondition(layer, d) for layer, d in zip(kfac_layers, deltas)]
    return MlpNetwork(net.layers, [w - lr * d for w, d in zip(net.weights, deltas)])


@pytest.mark.parametrize("variant", optimizers.VARIANTS)
def test_every_variant_steps_w_minus_lr_delta(variant):
    # Step 0 refreshes the K-FAC factors and step 1 is a plain K-FAC step
    # (period 10); every variant's new layers are bitwise w_l - lr * Delta_l.
    x, y = TWO_MOONS.train()
    cfg = OptimConfig(variant=variant, batch_size=50, seed=6, record_walltime=False)
    net = reference = make_net([2, 16, 16, 2], "tanh", rngmod.stream(6, "init"))
    state, ref_layers = TrainState.create(net, cfg), TrainState.create(net, cfg).kfac_layers
    for step, lr in enumerate((0.01, 0.005)):
        rows = slice(50 * step, 50 * step + 50)
        before, (net, _) = net, train_step(net, x[rows], y[rows], cfg, state, lr)
        reference = reference_step(reference, x[rows], y[rows], cfg, ref_layers, lr, refresh=step == 0)
        for got, want, old in zip(net.weights, reference.weights, before.weights):
            np.testing.assert_array_equal(got, want)
            assert not np.array_equal(got, old)


class TestFactorBuffers:
    """A run factors each batch's Gram into the one buffer its TrainState
    keeps across steps, and every other matrix, the dense P x P metric
    included, into a fresh array; the steps stay those of fresh arrays."""

    @staticmethod
    def run(monkeypatch, variant, dims, batches, loss=SOFTMAX_CE):
        """Per step: the order of each cholesky_factor call it made with the
        array it factored in place (None for a copy), and state.gram_buffer
        after it."""
        x, y = TWO_MOONS.train()
        if loss == SQUARED:
            y = np.tanh(x[:, :1])
        monkeypatch.setattr(kfac, "REFRESH_PERIOD", 1)
        cfg = OptimConfig(variant=variant, seed=5, loss=loss, record_walltime=False)
        net = make_net(dims, "tanh", rngmod.stream(5, "init"))
        state = TrainState.create(net, cfg)
        reference, ref_layers = net, TrainState.create(net, cfg).kfac_layers
        steps, calls, factor = [], [], linalg.cholesky_factor

        def recording(a, shift=0.0, overwrite_a=False):
            calls.append((len(a), a if overwrite_a else None))
            return factor(a, shift, overwrite_a)

        monkeypatch.setattr(linalg, "cholesky_factor", recording)
        for k, b in enumerate(batches):
            rows = np.arange(97 * k, 97 * k + b) % len(x)
            xb, yb = x[rows], y[rows]
            calls.clear()
            net, _ = train_step(net, xb, yb, cfg, state, 0.01)
            steps.append((calls[:], state.gram_buffer))
            reference = reference_step(reference, xb, yb, cfg, ref_layers, 0.01)
            np.testing.assert_array_equal(net.params_vector(), reference.params_vector())
            for got, want in zip(state.kfac_layers or [], ref_layers or []):
                np.testing.assert_array_equal(got.a_factor, want.a_factor)
                np.testing.assert_array_equal(got.s_factor, want.s_factor)
        return steps

    @pytest.mark.parametrize("variant", ["sobolev_dense", "sobolev_kfac", "amari_dense"])
    def test_large_batch_steps_reuse_only_the_gram_buffer(self, monkeypatch, variant):
        # [2,16,16,2] at B = 500: P = 354 <= B*m = 1000, so a dense step
        # factors the P x P metric too, into a fresh array each step.
        steps = self.run(monkeypatch, variant, [2, 16, 16, 2], [500] * 3)
        first = steps[0][1]
        for calls, buffer in steps:
            in_place = [a for _, a in calls if a is not None]
            if variant == "amari_dense":
                assert buffer is None and in_place == []
            else:
                assert buffer is first and buffer.shape == (500, 500)
                assert len(in_place) == 1 and in_place[0] is buffer
            metric_calls = [a for order, a in calls if order == 354]
            assert metric_calls == ([None] if variant.endswith("_dense") else [])

    @pytest.mark.parametrize("variant", ["sobolev_dense", "sobolev_kfac"])
    def test_batch_size_changes_remake_the_gram_buffer(self, monkeypatch, variant):
        # B = 20 takes the dense kernel-space branch (P = 354 > 40).
        steps = self.run(monkeypatch, variant, [2, 16, 16, 2], [500, 20, 20, 500])
        buffers = [buffer for _, buffer in steps]
        assert [b.shape for b in buffers] == [(500, 500), (20, 20), (20, 20), (500, 500)]
        assert buffers[2] is buffers[1]
        assert not any(np.shares_memory(buffers[3], b) for b in buffers[:3])
        for calls, buffer in steps:
            in_place = [a for _, a in calls if a is not None]
            assert len(in_place) == 1 and in_place[0] is buffer

    @pytest.mark.parametrize("variant", ["sobolev_dense", "sobolev_kfac"])
    def test_single_point_single_output(self, monkeypatch, variant):
        steps = self.run(monkeypatch, variant, [2, 4, 1], [1] * 3, loss=SQUARED)
        assert all(buffer is steps[0][1] and buffer.shape == (1, 1) for _, buffer in steps)


class TestTrain:
    def test_zero_epochs(self):
        cfg = OptimConfig(variant="sgd", epochs=0, batch_size=10, seed=1, record_walltime=False)
        log, net = train(cfg, TWO_MOONS, [2, 4, 2])
        assert log.steps == [] and log.epochs == []
        reference = make_net([2, 4, 2], "tanh", rngmod.stream(1, "init"))
        for w0, w1 in zip(reference.weights, net.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_identical_seeds_identical_logs(self):
        cfg = OptimConfig(variant="amari_kfac", epochs=2, batch_size=50, seed=3,
                          record_walltime=False)
        log_a, _ = train(cfg, TWO_MOONS, [2, 8, 2])
        log_b, _ = train(cfg, TWO_MOONS, [2, 8, 2])
        assert log_a.steps == log_b.steps
        assert log_a.epochs == log_b.epochs

    @pytest.mark.parametrize("variant", ["sobolev_dense", "sobolev_kfac"])
    def test_identical_seeds_identical_bytes_at_batch_500(self, variant):
        # Two steps of B = 500 per run, past the desk shapes: the dense run
        # factors the 500 x 500 Gram and the 354 x 354 metric, and the K-FAC
        # run refreshes on its first step.  Same seed, same process: the logged
        # losses and the final weights agree byte for byte.
        cfg = OptimConfig(variant=variant, epochs=2, batch_size=500, seed=5,
                          record_walltime=False)
        (log_a, net_a), (log_b, net_b) = (train(cfg, TWO_MOONS, [2, 16, 16, 2]) for _ in range(2))
        assert len(log_a.steps) == 2
        assert np.array(log_a.steps).tobytes() == np.array(log_b.steps).tobytes()
        assert np.array(log_a.epochs).tobytes() == np.array(log_b.epochs).tobytes()
        for w_a, w_b in zip(net_a.weights, net_b.weights):
            assert w_a.tobytes() == w_b.tobytes()

    def test_shared_init_across_variants(self):
        # The named init stream makes every variant start from the same
        # weights for a given seed.
        net_a = make_net([2, 8, 2], "tanh", rngmod.stream(42, "init"))
        net_b = make_net([2, 8, 2], "tanh", rngmod.stream(42, "init"))
        for w0, w1 in zip(net_a.weights, net_b.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_sgd_reaches_97_percent_train_accuracy(self):
        cfg = OptimConfig(variant="sgd", epochs=40, batch_size=50, seed=7,
                          record_walltime=False)
        log, _ = train(cfg, TWO_MOONS, [2, 16, 16, 2])
        assert log.epochs[-1][1] >= 0.97

    def test_non_finite_loss_raises_diverged(self):
        # A NaN feature in training row 37 makes the first batch holding it
        # lose its finite loss; train stops there instead of stepping on.
        x, y = TWO_MOONS.train()
        features = x[:80].copy()
        features[37, 1] = np.nan
        cfg = OptimConfig(variant="sgd", epochs=2, batch_size=8, seed=4, record_walltime=False)
        order = rngmod.stream(4, "shuffle").permutation(80)
        expected = int(np.flatnonzero(order == 37)[0]) // 8
        assert expected > 0
        with pytest.raises(Diverged) as info:
            train(cfg, Dataset(features, y[:80]), [2, 4, 2])
        assert info.value.step == expected
        assert np.isnan(info.value.loss)

    @pytest.mark.parametrize("variant,cause", [("amari_dense", NotPositiveDefinite),
                                               ("sobolev_dense", DegenerateGram)])
    def test_numerical_failure_names_its_step(self, variant, cause):
        # The NaN feature of training row 37 reaches the batch of step 9,
        # where the dense step's Cholesky factor or its Gram fails.
        x, y = TWO_MOONS.train()
        features = x[:200].copy()
        features[37, 1] = np.nan
        cfg = OptimConfig(variant=variant, epochs=1, batch_size=20, seed=4, record_walltime=False)
        with pytest.raises(StepFailed, match="^step 9: ") as info:
            train(cfg, Dataset(features, y[:200]), [2, 4, 2])
        assert info.value.step == 9
        assert isinstance(info.value.__cause__, cause)

    @pytest.mark.parametrize("variant", ["amari_dense", "sobolev_dense"])
    def test_numerical_failure_names_the_dataset_row(self, variant):
        # The batch of step 9 holds training row 37 at some other batch row;
        # the message maps it back through the shuffle to the dataset row,
        # and through train_idx when the split is not the identity.
        x, y = TWO_MOONS.train()
        features = x[:200].copy()
        features[37, 1] = np.nan
        cfg = OptimConfig(variant=variant, epochs=1, batch_size=20, seed=4, record_walltime=False)
        with pytest.raises(StepFailed, match=r"\(non-finite feature in dataset row 37\)$") as info:
            train(cfg, Dataset(features, y[:200]), [2, 4, 2])
        assert info.value.row == 37
        padded = Dataset(np.vstack([np.zeros((5, 2)), features]), np.concatenate([y[:5], y[:200]]),
                         train_idx=np.arange(5, 205))
        with pytest.raises(StepFailed, match=r"dataset row 42\)$"):
            train(cfg, padded, [2, 4, 2])

    @pytest.mark.parametrize("variant", ["sgd", "sobolev_dense"])
    @pytest.mark.parametrize("label", [2, -1])
    def test_class_label_outside_the_outputs_is_named_before_any_step(self, monkeypatch, variant, label):
        # 2 indexed past a 2-wide softmax at step 0; -1 trained toward the
        # last class.  Both are named by their first dataset row, and no
        # step runs.
        x, y = TWO_MOONS.train()
        labels = y[:80].copy()
        labels[[23, 61]] = label
        padded = Dataset(np.vstack([np.zeros((5, 2)), x[:80]]), np.concatenate([y[:5], labels]),
                         train_idx=np.arange(5, 85))
        steps = []
        monkeypatch.setattr(optimizers, "train_step", lambda *a: steps.append(a))
        cfg = OptimConfig(variant=variant, epochs=1, batch_size=8, seed=4, record_walltime=False)
        with pytest.raises(DimensionMismatch, match=rf"^class label {label} in dataset row 28 "):
            train(cfg, padded, [2, 8, 2])
        assert steps == []

    @pytest.mark.parametrize("variant", ["sgd", "sobolev_kfac", "amari_dense"])
    def test_empty_training_split_raises_before_any_step(self, monkeypatch, variant):
        steps = []
        monkeypatch.setattr(optimizers, "train_step", lambda *a: steps.append(a))
        empty = replace(TWO_MOONS, train_idx=np.zeros(0, dtype=np.int64))
        cfg = OptimConfig(variant=variant, epochs=1, seed=4, record_walltime=False)
        with pytest.raises(DimensionMismatch, match="^the dataset has no training rows$"):
            train(cfg, empty, [2, 8, 2])
        assert steps == []

    @pytest.mark.parametrize("variant", ["sgd", "sobolev_dense"])
    def test_integral_float_labels_train_as_their_integers(self, variant):
        cfg = OptimConfig(variant=variant, epochs=1, batch_size=50, seed=4, record_walltime=False)
        log_int, _ = train(cfg, TWO_MOONS, [2, 8, 2])
        as_floats = replace(TWO_MOONS, targets=TWO_MOONS.targets.astype(np.float64))
        log_float, _ = train(cfg, as_floats, [2, 8, 2])
        assert log_int.steps == log_float.steps and log_int.epochs == log_float.epochs

    def test_log_step_fields(self):
        cfg = OptimConfig(variant="sgd", epochs=1, batch_size=100, seed=2,
                          record_walltime=False)
        log, _ = train(cfg, TWO_MOONS, [2, 4, 2])
        steps = [s[0] for s in log.steps]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)
        assert all(s[2] > 0 for s in log.steps)  # lr column
        assert isinstance(log, ExperimentLog)
