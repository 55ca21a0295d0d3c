"""Training-step orchestration for the gradient variants.

Variants:
  sgd            plain Euclidean step on the batch-mean loss
  ntk_surrogate  tangent-coefficient step J r (no metric inverse, no
                 backward pass); its trajectory coincides with sgd by
                 construction and exists as an independent code path
  amari_dense    dense batch metric with K = I (Gauss-Newton), Tikhonov damped
  sobolev_dense  dense batch metric with the Sobolev kernel Gram
  amari_kfac     Kronecker-factored K = I metric, factored damping
  sobolev_kfac   Kronecker-factored kernel-weighted metric

The batch objective is the empirical sum of per-sample losses, so every
variant steps on the sum-loss gradient and the dense variants pair it with
the unnormalized batch metric estimate.  At desk scale this keeps the
damping small relative to the metric, which is what makes the
natural-gradient variants meaningfully faster than plain gradient steps.
Kernel Grams for the sobolev variants are rebuilt every step on the batch
inputs divided by the configured input scale.  Weight decay is added to the
raw Euclidean gradient before any preconditioning.  Logged train_loss stays
the per-sample mean for comparability across batch sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import kfac, losses, metric, network, rng
from .data import Dataset
from .errors import Diverged, SobnatError, StepFailed
from .kernel import GramMatrix, KernelSpec, gram

__all__ = [
    "VARIANTS",
    "OptimConfig",
    "TrainState",
    "ExperimentLog",
    "lr_at",
    "make_net",
    "train_step",
    "train",
]

VARIANTS = ("sgd", "amari_kfac", "sobolev_kfac", "amari_dense", "sobolev_dense", "ntk_surrogate")
SCHEDULES = ("baseline_tenth_at_40pct", "ours_fifth_at_40_and_60pct")


@dataclass
class OptimConfig:
    variant: str = "sobolev_kfac"
    lr: float = 0.01
    weight_decay: float = 0.003
    damping: float = 0.03
    input_scale: float = 20.0
    schedule: str = "baseline_tenth_at_40pct"
    batch_size: int = 50
    epochs: int = 10
    seed: int = 0
    loss: str = losses.SOFTMAX_CE
    kernel_constant_mode: str = "unit_constant"
    kfac_decay: float = 0.95
    kfac_update_period: int = 10
    record_walltime: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        # damping 0 is admitted for exactness oracles (Gauss-Newton on linear
        # least squares); production runs keep the positive default.
        if not self.lr > 0 or self.damping < 0:
            raise ValueError("lr must be positive and damping non-negative")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


def lr_at(config: OptimConfig, step: int, total_steps: int) -> float:
    """Piecewise-constant schedule value at a step.

    baseline: drop to 1/10 after every 40% of the run (x0.1 at 40%, x0.01
    at 80%).  ours: drop to 1/5 at 40% and again at 60% (x0.2, then x0.04).
    """
    if not 0 <= step < total_steps:
        raise ValueError("step must satisfy 0 <= step < total_steps")
    frac = step / total_steps
    if config.schedule == "baseline_tenth_at_40pct":
        mult = 1.0 if frac < 0.4 else (0.1 if frac < 0.8 else 0.01)
    else:
        mult = 1.0 if frac < 0.4 else (0.2 if frac < 0.6 else 0.04)
    return config.lr * mult


@dataclass
class TrainState:
    """Per-run mutable state owned by one optimizer."""

    kfac_layers: list = None
    step: int = 0

    @classmethod
    def create(cls, net: network.MlpNetwork, config: OptimConfig) -> "TrainState":
        layers = None
        if config.variant.endswith("_kfac"):
            layers = [
                kfac.KfacLayerState(decay=config.kfac_decay, damping=config.damping)
                for _ in net.layers
            ]
        return cls(kfac_layers=layers)


@dataclass
class ExperimentLog:
    steps: list = field(default_factory=list)  # (step, epoch, lr, train_loss, wall_ms)
    epochs: list = field(default_factory=list)  # (epoch, train_acc, test_acc)
    config: dict = field(default_factory=dict)
    seed: int = 0


def make_net(dims, activation: str, seed_rng) -> network.MlpNetwork:
    """Hidden layers with the given activation, identity output layer."""
    acts = [activation] * (len(dims) - 2) + ["identity"]
    return network.MlpNetwork.create(dims, acts, seed_rng)


def _batch_gram(x: np.ndarray, config: OptimConfig) -> GramMatrix:
    spec = KernelSpec(
        input_dim=x.shape[1],
        constant_mode=config.kernel_constant_mode,
        input_scale=config.input_scale,
    )
    return gram(x / config.input_scale, spec)


def train_step(net, batch_x, batch_y, config: OptimConfig, state: TrainState, lr: float):
    """One update; returns (new network, mean batch loss before the update)."""
    cache = network.forward(net, batch_x)
    train_loss = losses.loss_value(cache.outputs, batch_y, config.loss)

    if config.variant == "ntk_surrogate":
        residuals = losses.loss_grad_z(cache.outputs, batch_y, config.loss)
        coeffs = metric.ntk_surrogate_gradient(network.Tangents.of_network(net, cache), residuals)
        direction = coeffs + config.weight_decay * net.params_vector()
        state.step += 1
        return net.with_params_vector(net.params_vector() - lr * direction), train_loss

    grads = network.backward_loss(net, cache, batch_y, config.loss, reduction="sum")
    if config.variant == "sgd":
        new_weights = [
            w - lr * (g + config.weight_decay * w) for w, g in zip(net.weights, grads)
        ]
        state.step += 1
        return network.MlpNetwork(net.layers, new_weights), train_loss

    if config.variant in ("amari_dense", "sobolev_dense"):
        gram_matrix = None if config.variant == "amari_dense" else _batch_gram(batch_x, config)
        grad_vec = np.concatenate([g.reshape(-1) for g in grads])
        grad_vec += config.weight_decay * net.params_vector()
        direction = metric.damped_natural_gradient(
            network.Tangents.of_network(net, cache), gram_matrix, config.damping, grad_vec
        )
        state.step += 1
        return net.with_params_vector(net.params_vector() - lr * direction), train_loss

    # K-FAC variants: refresh factors, inverses on the configured period.
    if state.step % config.kfac_update_period == 0:
        gram_matrix = None if config.variant == "amari_kfac" else _batch_gram(batch_x, config)
        fresh = kfac.compute_factors(network.Tangents.of_network(net, cache), gram_matrix)
        for layer_state, (a, s) in zip(state.kfac_layers, fresh):
            kfac.update_state(layer_state, a, s)
            kfac.refresh_inverses(layer_state)
    new_weights = []
    for w, g, layer_state in zip(net.weights, grads, state.kfac_layers):
        update = kfac.precondition(layer_state, g + config.weight_decay * w)
        new_weights.append(w - lr * update)
    state.step += 1
    return network.MlpNetwork(net.layers, new_weights), train_loss


def _accuracy(net, x, y) -> float:
    if x.shape[0] == 0 or np.asarray(y).ndim > 1:
        return float("nan")  # accuracy is only defined for class labels
    outputs = network.forward(net, x).outputs
    return float(np.mean(np.argmax(outputs, axis=1) == y))


def train(config: OptimConfig, dataset: Dataset, net_dims, activation: str = "tanh"):
    """Run the full experiment; returns (ExperimentLog, trained network).

    Weight init draws from the "init" stream and batch order from the
    "shuffle" stream of the run seed, so identical seeds and configs give
    bitwise-identical trajectories across variants sharing an init.
    Raises Diverged at the first step whose batch loss, or else whose
    update, is not finite, and StepFailed, naming the step and chained
    from the original, for any other SobnatError a step raises.
    """
    net = make_net(net_dims, activation, rng.stream(config.seed, "init"))
    state = TrainState.create(net, config)
    log = ExperimentLog(config=dict(vars(config)), seed=config.seed)

    x_train, y_train = dataset.train()
    x_test, y_test = dataset.test()
    n_train = x_train.shape[0]
    batches_per_epoch = max(1, n_train // config.batch_size)
    total_steps = max(1, config.epochs * batches_per_epoch)
    shuffle_rng = rng.stream(config.seed, "shuffle")

    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n_train)
        for b in range(batches_per_epoch):
            idx = order[b * config.batch_size : (b + 1) * config.batch_size]
            lr = lr_at(config, step, total_steps)
            t0 = time.perf_counter()
            try:
                net, train_loss = train_step(net, x_train[idx], y_train[idx], config, state, lr)
            except SobnatError as exc:
                raise StepFailed(step, exc) from exc
            wall_ms = (time.perf_counter() - t0) * 1000.0 if config.record_walltime else 0.0
            if not np.isfinite(train_loss):
                raise Diverged(step, train_loss)
            if not all(np.isfinite(w).all() for w in net.weights):
                raise Diverged(step, train_loss, update=True)
            log.steps.append((step, epoch, lr, train_loss, wall_ms))
            step += 1
        log.epochs.append((epoch, _accuracy(net, x_train, y_train), _accuracy(net, x_test, y_test)))
    return log, net
