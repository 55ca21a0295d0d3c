"""The four workloads.  Each round trains the six variants on the
workload's config and runs every toolkit operation, interleaved.

desk         the acceptance desk config, with criterion 10 checked
wide         [2,64,64,2] (P = 4482), where the dense P x P metric dominates
large_batch  B = 500 on 4000 points, where B x B Gram work dominates
toolkit      a short desk-sized training run; the toolkit commands dominate
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

import calibrate
import toolkit
import training
from sobnat import data, optimizers, rng

DESK_SEED = 7  # the acceptance suite's data and run seed


@dataclasses.dataclass(frozen=True)
class TrainShape:
    dims: tuple
    count: int
    batch_size: int
    lr: float
    epochs: int
    dense_epochs: int = None  # dense variants: fewer epochs ...
    dense_batches: int = None  # ... on fewer batches of the train split
    fixed_seed: int = None  # desk: inputs fixed to the acceptance config
    criterion_10: bool = False


SHAPES = {
    "desk": TrainShape((2, 16, 16, 2), 1000, 50, 0.01, 40, dense_epochs=8, fixed_seed=DESK_SEED,
                       criterion_10=True),
    "wide": TrainShape((2, 64, 64, 2), 1000, 50, 0.01, 6, dense_epochs=1, dense_batches=2),
    "large_batch": TrainShape((2, 16, 16, 2), 4000, 500, 0.001, 10, dense_epochs=5),
    "toolkit": TrainShape((2, 16, 16, 2), 1000, 50, 0.01, 4),
}


def make_dataset(count, seed):
    """Two-moons at noise 0.1, 25% test split, standardised on the train split."""
    return data.normalize(data.train_test_split(data.gen_two_moons(count, 0.1, seed), 0.25, seed))


def train_specs(shape: TrainShape, seed):
    run_seed = seed if shape.fixed_seed is None else shape.fixed_seed
    ds = make_dataset(shape.count, run_seed)
    specs = []
    for variant in optimizers.VARIANTS:
        cfg = optimizers.OptimConfig(
            variant=variant, lr=shape.lr, weight_decay=0.003, damping=0.03, input_scale=20.0,
            schedule="baseline_tenth_at_40pct", batch_size=shape.batch_size, epochs=shape.epochs,
            seed=run_seed, record_walltime=False,
        )
        vds = ds
        if variant.endswith("_dense") and shape.dense_epochs:
            cfg = dataclasses.replace(cfg, epochs=shape.dense_epochs)
        if variant.endswith("_dense") and shape.dense_batches:
            vds = dataclasses.replace(ds, train_idx=ds.train_idx[: shape.dense_batches * shape.batch_size])
        specs.append(training.TrainSpec(variant, cfg, vds, list(shape.dims)))
    return specs


class Workload:
    def __init__(self, name, seed, work_dir):
        self.seed = seed
        self.shape = SHAPES[name]
        self.csv_path = os.path.join(work_dir, f"moons-{name}-{seed}-{os.getpid()}.csv")
        self.rounds = []  # ({variant: RunRecord}, [(op name, (start, end), output, error)])
        self.cal = calibrate.Calibration()
        self.setups = 0

    def setup(self):
        """Inputs, network init and one warm-up step per variant."""
        self.setups += 1
        self.specs = train_specs(self.shape, self.seed)
        self.inputs = toolkit.ToolkitInputs(self.seed, self.csv_path)
        self.ops = toolkit.operations(self.inputs)
        for spec in self.specs:
            net = optimizers.make_net(spec.dims, "tanh", rng.stream(spec.config.seed, "init"))
            state = optimizers.TrainState.create(net, spec.config)
            x, y = spec.dataset.train()
            b = spec.config.batch_size
            optimizers.train_step(net, x[:b], y[:b], spec.config, state, spec.config.lr)
        self.samples = {
            s.variant: training.sample_steps(s.total_steps, self.seed, i) for i, s in enumerate(self.specs)
        }

    def run_round(self, tracer=None):
        """Six training runs interleaved a window at a time, with the
        toolkit operations spread evenly between the windows, so that every
        operation samples the whole round."""
        runs = {s.variant: training.TimedRun(s, self.samples[s.variant], self.cal, tracer) for s in self.specs}
        pending = self.executions()
        total = len(pending)
        cycles = max(-(-r.total // r.chunk) for r in runs.values())
        ops = []  # (name, (start, end), output or failure reasons, error)
        for cycle in range(cycles):
            for run in runs.values():
                if not run.done:
                    run.advance()
            while len(ops) < -(-total * (cycle + 1) // cycles):
                name, fn = pending.pop(0)
                span, result, error = toolkit.run_op(fn, self.cal, tracer)
                if name in toolkit.CHECK_AT_ONCE and error is None:
                    result = toolkit.check_op(name, result, self.inputs)
                ops.append((name, span, result, error))
        self.rounds.append(({v: r.rec for v, r in runs.items()}, ops))

    def executions(self):
        """The toolkit operations of one round, each repeated
        toolkit.repeats(name) times, repetitions spread over the round."""
        most = max(toolkit.repeats(name) for name, _group, _fn in self.ops)
        return [(name, fn) for k in range(most) for name, _group, fn in self.ops if k < toolkit.repeats(name)]

    def measure(self, seconds, tracer=None):
        start = time.perf_counter()
        while not self.rounds or time.perf_counter() - start < seconds:
            self.run_round(tracer)

    def check(self):
        """(round, operation, reason) per failure, and the number attempted."""
        train_rounds = [r[0] for r in self.rounds]
        verdicts = training.check_rounds(self.specs, train_rounds, self.shape.criterion_10)
        failures = []
        for i, (runs, ops) in enumerate(self.rounds):
            for variant, reasons in verdicts[i].items():
                failures += [(i, variant, r) for r in reasons]
            for k, (name, _span, result, error) in enumerate(ops):
                if error:
                    reasons = [error]
                elif name in toolkit.CHECK_AT_ONCE:
                    reasons = result
                else:
                    reasons = toolkit.check_op(name, result, self.inputs)
                failures += [(i, f"{name}#{k}", r) for r in reasons]
        attempted = len(self.rounds) * (len(self.specs) + len(self.executions()))
        return attempted, failures

    def per_layer(self, tracer, names):
        """Traced self times (ms per train step, or per round for the
        toolkit) and call counts, for each per-layer metric name."""
        rounds = len(self.rounds)
        steps = {s.variant: s.total_steps * rounds for s in self.specs}
        out = {}
        for name in names:
            head, _, rest = name.partition(".")
            if head in steps:
                if rest == "linalg.cholesky_factor.max_order":
                    out[name] = float(tracer.max_order[head])
                elif rest.endswith(".calls"):
                    out[name] = tracer.calls[(head, rest[: -len(".calls")])] / steps[head]
                else:
                    out[name] = tracer.self_s[(head, rest)] * 1e3 / steps[head]
            elif name == "data.gen_two_moons":
                out[name] = tracer.self_s[("setup", name)] * 1e3 / self.setups
            else:
                out[name] = tracer.self_s[("toolkit", name)] * 1e3 / rounds
        return out

    def end_to_end(self, calibrated=True):
        """Every end-to-end metric except setup_s and peak_rss_mb, each time
        scaled by the calibration loop unless calibrated is False."""
        cal = self.cal if calibrated else None
        out = {}
        for spec in self.specs:
            windows = training.window_step_s([r[0][spec.variant] for r in self.rounds], cal)
            out[f"steps_per_s.{spec.variant}"] = 1.0 / float(np.median(windows))
        times = {}
        for _runs, ops in self.rounds:
            for name, (start, end), _result, _error in ops:
                times.setdefault(name, []).append((end - start) * (cal.scale(start, end, "mixed") if cal else 1.0))
        groups = {}
        for name, group, _fn in self.ops:
            groups[group] = groups.get(group, 0.0) + float(np.median(times[name]))
        for group in ("verify", "flatness", "riemann", "funcgd"):
            out[f"{group}_s"] = groups[group]
        out["csv_rows_per_s"] = toolkit.CSV_ROWS / groups["csv"]
        return out

    def details(self):
        """Per-variant step statistics for the results file."""
        out = {}
        for spec in self.specs:
            recs = [r[0][spec.variant] for r in self.rounds if r[0][spec.variant].step_s is not None]
            steps = np.concatenate([r.step_s for r in recs]) if recs else np.zeros(0)
            windows = training.window_step_s(recs)
            out[spec.variant] = {
                "steps_per_round": spec.total_steps,
                "steps_timed": int(steps.shape[0]),
                "windows": len(windows),
                "median_step_ms": float(np.median(steps) * 1e3) if steps.size else None,
                "mean_step_ms": float(np.mean(steps) * 1e3) if steps.size else None,
                "median_window_step_ms": float(np.median(windows) * 1e3) if windows else None,
            }
        return out

    def cleanup(self):
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)
