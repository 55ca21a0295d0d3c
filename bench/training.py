"""Timed training runs of the six variants and their checks.

A timed run repeats ``optimizers.train``'s loop step for step (same init
and shuffle streams, same schedule) but times each ``train_step`` call on
its own.  The checks afterwards compare every run with one call of
``optimizers.train`` on the same config and test sampled steps against
computations from ``checks``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import checks
from sobnat import optimizers, rng

WINDOW = 10  # steps per timing window: one K-FAC refresh period
# Steps this long are spent in BLAS calls on matrices far beyond the caches
# (the dense variants on wide).  The machine contention the calibration
# loops follow hardly slows them: their raw spread between runs was 0.04-0.09
# against 0.06-0.22 calibrated, so such windows are reported raw.
LONG_STEP_S = 0.5


@dataclass
class TrainSpec:
    variant: str
    config: optimizers.OptimConfig
    dataset: object
    dims: list

    @property
    def total_steps(self):
        n_train = self.dataset.train_idx.shape[0]
        return max(1, self.config.epochs * max(1, n_train // self.config.batch_size))


@dataclass
class Sample:
    """What one sampled step saw: the net before and after, its batch,
    its learning rate and, for K-FAC, the factors it preconditioned with."""

    step: int
    before: list
    after: list
    x: np.ndarray
    y: np.ndarray
    lr: float
    factors: list = None


@dataclass
class RunRecord:
    step_s: np.ndarray = None
    losses: np.ndarray = None
    params: np.ndarray = None
    weights: list = None
    samples: list = field(default_factory=list)
    chunk_spans: list = field(default_factory=list)  # (start, end) of each chunk
    error: str = None


class TimedRun:
    """One variant's training run, advanced a chunk of steps at a time so
    that the variants of a round can be interleaved."""

    def __init__(self, spec: TrainSpec, sample_steps, cal=None, tracer=None):
        cfg = spec.config
        self.spec, self.sample_steps, self.cal, self.tracer = spec, sample_steps, cal, tracer
        self.net = optimizers.make_net(spec.dims, "tanh", rng.stream(cfg.seed, "init"))
        self.state = optimizers.TrainState.create(self.net, cfg)
        self.x_train, self.y_train = spec.dataset.train()
        self.per_epoch = max(1, self.x_train.shape[0] // cfg.batch_size)
        self.total = spec.total_steps
        self.shuffle = rng.stream(cfg.seed, "shuffle")
        self.chunk = WINDOW if self.total >= WINDOW else 1
        self.step = 0
        self.rec = RunRecord(step_s=np.empty(self.total), losses=np.empty(self.total))

    @property
    def done(self):
        return self.step >= self.total or self.rec.error is not None

    def advance(self):
        """Sample the calibration loop, then run the next chunk of steps."""
        cfg, rec = self.spec.config, self.rec
        if self.cal is not None:
            self.cal.sample()
        start = time.perf_counter()
        stop = min(self.total, self.step + self.chunk)
        try:
            while self.step < stop:
                b = self.step % self.per_epoch
                if b == 0:
                    self.order = self.shuffle.permutation(self.x_train.shape[0])
                idx = self.order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                lr = optimizers.lr_at(cfg, self.step, self.total)
                xb, yb = self.x_train[idx], self.y_train[idx]
                before = self.net
                if self.tracer is not None:
                    self.tracer.begin(self.spec.variant)
                t0 = time.perf_counter()
                self.net, loss = optimizers.train_step(self.net, xb, yb, cfg, self.state, lr)
                rec.step_s[self.step] = time.perf_counter() - t0
                rec.losses[self.step] = loss
                if self.step in self.sample_steps:
                    factors = None
                    if self.state.kfac_layers is not None:
                        factors = [(s.a_factor.copy(), s.s_factor.copy()) for s in self.state.kfac_layers]
                    rec.samples.append(Sample(self.step, before.weights, self.net.weights, xb, yb, lr, factors))
                self.step += 1
        except Exception as exc:  # a raising step fails the operation, not the run
            rec.error = f"step {self.step} raised {type(exc).__name__}: {exc}"
            rec.step_s = rec.losses = None
            return
        rec.chunk_spans.append((start, time.perf_counter()))
        if self.step == self.total:
            rec.weights, rec.params = self.net.weights, self.net.params_vector()


def sample_steps(total, seed, variant_index):
    """Step 0, one later refresh step and one step between refreshes."""
    if total <= 3:
        return set(range(total))
    gen = np.random.default_rng([seed, variant_index])
    picks = {0}
    if total > WINDOW:
        picks.add(WINDOW * int(gen.integers(1, (total - 1) // WINDOW + 1)))
    while len(picks) < 3:
        step = int(gen.integers(1, total))
        if step % WINDOW:
            picks.add(step)
    return picks


def window_step_s(records, cal=None):
    """Per-step time of each window of WINDOW consecutive steps, scaled by
    the calibration samples around it when cal is given and the steps are
    shorter than LONG_STEP_S.

    A window is one chunk of a TimedRun; in a run shorter than one window
    every step is its own window."""
    out = []
    for rec in records:
        if rec.step_s is None:
            continue
        n = rec.step_s.shape[0]
        size = WINDOW if n >= WINDOW else 1
        for k, start in enumerate(range(0, n - size + 1, size)):
            t = float(np.mean(rec.step_s[start : start + size]))
            out.append(t if cal is None or t > LONG_STEP_S else t * cal.scale(*rec.chunk_spans[k]))
    return out


def check_samples(spec: TrainSpec, rec: RunRecord):
    cfg = spec.config
    out = []
    if not rec.samples:
        return ["no sampled steps"]
    for s in rec.samples:
        found = checks.check_descent(s.before, s.after, s.lr, s.x, s.y, cfg.weight_decay)
        if spec.variant == "amari_dense":
            found += checks.check_dense(s.before, s.after, s.lr, s.x, s.y, cfg.weight_decay, cfg.damping)
        elif spec.variant == "sobolev_dense":
            found += checks.check_dense(
                s.before, s.after, s.lr, s.x, s.y, cfg.weight_decay, cfg.damping, cfg.input_scale
            )
        elif spec.variant.endswith("_kfac"):
            found += checks.check_kfac(
                s.before, s.after, s.lr, s.x, s.y, cfg.weight_decay, cfg.damping, s.factors
            )
        out += [f"step {s.step}: {reason}" for reason in found]
    return out


def check_rounds(specs, rounds, criterion_10):
    """Failure reasons per (round, variant) for the training operations.

    rounds is a list of {variant: RunRecord}.  Each variant is run once
    through optimizers.train as the reference every round must equal; the
    sampled-step checks run on the first round that completed, which the
    others equal bit for bit when they pass the reference check.
    """
    verdicts = [{} for _ in rounds]
    for spec in specs:
        v = spec.variant
        try:
            ref_log, ref_net = optimizers.train(spec.config, spec.dataset, spec.dims)
        except Exception as exc:  # the reference run failing fails every round of the variant
            for verdict in verdicts:
                verdict[v] = [f"optimizers.train raised {type(exc).__name__}: {exc}"]
            continue
        ref_losses = [s[3] for s in ref_log.steps]
        ref_params = ref_net.params_vector()
        done = [r[v] for r in rounds if r[v].error is None]
        sample_reasons = check_samples(spec, done[0]) if done else []
        for i, r in enumerate(rounds):
            rec = r[v]
            if rec.error is not None:
                verdicts[i][v] = [rec.error]
                continue
            reasons = checks.check_finite(rec.losses)
            reasons += checks.check_identical(
                rec.losses, ref_losses, rec.params, ref_params, "timed loop vs optimizers.train"
            )
            reasons += sample_reasons
            verdicts[i][v] = reasons
    for i, r in enumerate(rounds):
        sgd, ntk = r["sgd"], r["ntk_surrogate"]
        if sgd.error is None and ntk.error is None:
            verdicts[i]["ntk_surrogate"] += checks.check_close_params(
                ntk.params, sgd.params, "ntk_surrogate vs sgd"
            )
        if criterion_10 and sgd.error is None:
            for spec in specs:
                rec = r[spec.variant]
                if spec.variant.endswith("_kfac") and rec.error is None:
                    x_test, y_test = spec.dataset.test()
                    acc = checks.accuracy(rec.weights, x_test, y_test)
                    verdicts[i][spec.variant] += checks.check_criterion_10(rec.losses, sgd.losses, acc)
    return verdicts
