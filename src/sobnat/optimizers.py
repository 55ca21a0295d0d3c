"""Training-step orchestration for the gradient variants.

Every variant takes one update, w_l - lr * Delta_l, with a direction
Delta_l shaped like each layer's Wbar_l.  With g = grad L + weight_decay * w
the gradient of the batch's summed loss plus weight decay, J the parameter
Jacobian on the batch and r = dL/dz:

  sgd            Delta = g, by backprop
  ntk_surrogate  Delta = g, with grad L taken as J r from the step's
                 tangents and no backward pass: an independent path to
                 sgd's trajectory
  amari_dense    Delta = (damping I + J J^T)^-1 g, solved from r and w
                 with no backward pass; where P > B*m it is
                 (weight_decay / damping) w + J y, y a kernel-space
                 solve, and neither g nor J r is formed (sobnat.metric)
  sobolev_dense  Delta = (damping I + J (I_m (x) K^-1) J^T)^-1 g, the same way
  amari_kfac     Delta = S^-1 g A^-1 per layer, damping split by trace
  sobolev_kfac   the same with kernel-weighted factors

K is the batch's Sobolev Gram, rebuilt every step on the batch inputs
divided by the input scale.  TrainState holds a kernel only for the sobolev
variants, and a step without one takes K = I (Gauss-Newton).  J r and the
dense solves come back per layer, as backprop's gradients do.  At
desk scale the summed loss keeps the damping small relative to the
unnormalized metric estimate, which is what makes the natural-gradient
variants meaningfully faster than plain gradient steps.  Logged train_loss
stays the per-sample mean for comparability across batch sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kfac, losses, metric, network, rng
from .data import Dataset
from .errors import DimensionMismatch, Diverged, SobnatError, StepFailed
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


@dataclass(frozen=True)
class OptimConfig:
    """One run's settings, checked when made; frozen, and ``dataclasses.replace`` checks again."""

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
    record_walltime: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        # damping 0 is admitted for exactness oracles (Gauss-Newton on linear
        # least squares); production runs keep the positive default.  The
        # comparisons are written so that nan fails them.
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        for name in ("damping", "weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0 < self.input_scale < math.inf:
            raise ValueError(f"input_scale must be positive and finite, got {self.input_scale}")


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
    """Per-run mutable state owned by one optimizer.

    ``gram_buffer`` is the run's one factor buffer: the Sobolev steps factor
    the B x B Gram into it, and it is re-made only when B changes.  What a
    kept array saves is page faults.  At B = 500 a step frees megabytes of
    temporaries, and when that leaves more than glibc's trim threshold at
    the top of its heap, glibc hands the pages back to the OS and the next
    step faults them in again, so the gain depends on the heap's layout.
    In the benchmark's interleaved large_batch rounds (10 alternating
    pairs, one BLAS thread, 2-core x86 host) the kept Gram buffer raised
    sobolev_dense from 46.2 to 49.8 steps/s and sobolev_kfac from 928 to
    1005.  A kept P x P metric buffer raised sobolev_dense from 50.9 to
    55.9 steps/s there but saved nothing in a single training run, where a
    sobolev_dense step faults about 1517 times with or without it; the
    dense steps factor the metric into a fresh array.
    ``kernel_spec`` is the Sobolev variants' kernel, made once per run.
    """

    kfac_layers: list = None
    step: int = 0
    gram_buffer: np.ndarray = None
    kernel_spec: KernelSpec = None

    @classmethod
    def create(cls, net: network.MlpNetwork, config: OptimConfig) -> "TrainState":
        layers = spec = None
        if config.variant.endswith("_kfac"):
            layers = [kfac.KfacLayerState(damping=config.damping) for _ in net.layers]
        if config.variant.startswith("sobolev"):
            spec = KernelSpec(input_dim=net.input_dim, input_scale=config.input_scale)
        return cls(kfac_layers=layers, kernel_spec=spec)


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


def _batch_gram(x: np.ndarray, state: TrainState) -> GramMatrix | None:
    """The batch's Sobolev Gram, or None (K = I) when the run holds no kernel."""
    if state.kernel_spec is None:
        return None
    if state.gram_buffer is None or len(state.gram_buffer) != len(x):
        state.gram_buffer = np.empty((len(x), len(x)))
    return gram(x / state.kernel_spec.input_scale, state.kernel_spec, state.gram_buffer)


def train_step(net, batch_x, batch_y, config: OptimConfig, state: TrainState, lr: float):
    """One update w_l - lr * Delta_l; returns (new network, mean batch loss before it).

    The ntk_surrogate and dense steps take the sum-loss gradient from the
    residuals and the step's :class:`~sobnat.network.Tangents` (the dense
    ones inside :func:`~sobnat.metric.damped_natural_gradient`), so their
    one backprop sweep is :func:`~sobnat.network.output_jacobians`; sgd and
    K-FAC run :func:`~sobnat.network.backward`.
    """
    cache = network.forward(net, batch_x)
    train_loss, residuals = losses.loss_and_grad(cache.outputs, batch_y, config.loss)

    if config.variant in ("amari_dense", "sobolev_dense"):
        deltas = metric.damped_natural_gradient(
            network.Tangents.of_network(net, cache), _batch_gram(batch_x, state), config.damping,
            residuals, config.weight_decay, net.weights,
        )
    else:
        if config.variant == "ntk_surrogate":
            grads = metric.ntk_surrogate_gradient(network.Tangents.of_network(net, cache), residuals)  # J r
        else:
            grads = network.backward(net, cache, residuals)
        deltas = [g + config.weight_decay * w for w, g in zip(net.weights, grads)]
    if state.kfac_layers is not None:
        if state.step % kfac.REFRESH_PERIOD == 0:
            fresh = kfac.compute_factors(network.Tangents.of_network(net, cache), _batch_gram(batch_x, state))
            for layer_state, (a, s) in zip(state.kfac_layers, fresh):
                kfac.update_state(layer_state, a, s)
        deltas = [kfac.precondition(layer_state, d) for layer_state, d in zip(state.kfac_layers, deltas)]
    state.step += 1
    return network.MlpNetwork(net.layers, [w - lr * d for w, d in zip(net.weights, deltas)]), train_loss


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
    Before any step, DimensionMismatch names an empty training split or,
    under the softmax loss, the first dataset row whose class label is not
    an integer in [0, net output width).  Raises Diverged at the first
    step whose batch loss, or else whose update, is not finite, and
    StepFailed, naming the step (and the dataset row of a non-finite
    feature in its batch) and chained from the original, for any other
    SobnatError a step raises.
    """
    if len(dataset.train_idx) == 0:
        raise DimensionMismatch("the dataset has no training rows")
    net = make_net(net_dims, activation, rng.stream(config.seed, "init"))
    if config.loss == losses.SOFTMAX_CE:
        labels = np.asarray(dataset.targets, dtype=np.float64)
        bad = np.flatnonzero(~((labels >= 0) & (labels < net.output_dim) & (np.floor(labels) == labels)))
        if bad.size:
            raise DimensionMismatch(
                f"class label {labels[bad[0]]:g} in dataset row {bad[0]} is not an integer "
                f"in [0, {net.output_dim}), the net's output width"
            )
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
                finite = np.isfinite(x_train[idx]).all(axis=1)
                row = None if finite.all() else int(dataset.train_idx[idx[np.argmin(finite)]])
                raise StepFailed(step, exc, row) from exc
            wall_ms = (time.perf_counter() - t0) * 1000.0 if config.record_walltime else 0.0
            if not np.isfinite(train_loss):
                raise Diverged(step, train_loss)
            if not all(np.isfinite(w).all() for w in net.weights):
                raise Diverged(step, train_loss, update=True)
            log.steps.append((step, epoch, lr, train_loss, wall_ms))
            step += 1
        log.epochs.append((epoch, _accuracy(net, x_train, y_train), _accuracy(net, x_test, y_test)))
    return log, net
