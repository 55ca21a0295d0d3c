"""Command-line front end: train, verify, flatness, funcgd, riemann.

Configuration precedence is defaults < config file < flags.  The config file
is a flat ``key=value`` format using the same names as the flags (dashes or
underscores).  All randomness flows from the single --seed through named
streams, so reruns with the same configuration are reproducible.

Exit codes: 0 success, 1 numerical failure (the error type is printed) or
failed verification, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import data, losses, network, rkhs, riemann, verify
from .errors import SobnatError
from .flatness import FlatnessQuery, GridSampler, Reparam, epsilon_flatness, invariance_check
from .kernel import KernelSpec
from .optimizers import SCHEDULES, VARIANTS, ExperimentLog, OptimConfig, train

STEP_HEADER = "step,epoch,lr,train_loss,wall_ms"
EPOCH_HEADER = "epoch,train_acc,test_acc"
# Boolean config-file values; any other word is a configuration error.
TRUE_WORDS = ("1", "true", "yes", "on")
FALSE_WORDS = ("0", "false", "no", "off")

# The OptimConfig fields a config file or flag may set; the loss follows the
# dataset and the rest keep their OptimConfig defaults.
OPTIM_KEYS = (
    "variant", "lr", "weight_decay", "damping", "input_scale", "schedule",
    "batch_size", "epochs", "seed", "record_walltime",
)

TRAIN_DEFAULTS = {
    "dataset": "two-moons",
    **{key: getattr(OptimConfig, key) for key in OPTIM_KEYS},
    "layers": "16,16",
    "activation": "tanh",
    "count": 1000,
    "noise": 0.1,
    "test_fraction": 0.25,
    "out": "runs/latest",
    "csv_schema": data.LABEL_FIRST,
    "skip_header": False,
}


def _read_config_file(path: str) -> dict:
    values = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _coerce(key: str, value, defaults: dict):
    if isinstance(value, str) and key in defaults and not isinstance(defaults[key], str):
        template = defaults[key]
        if isinstance(template, bool):
            word = value.lower()
            if word not in TRUE_WORDS + FALSE_WORDS:
                raise ValueError(f"expected one of {', '.join(TRUE_WORDS + FALSE_WORDS)}, got {value!r}")
            return word in TRUE_WORDS
        return type(template)(value)
    return value


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    merged = dict(TRAIN_DEFAULTS)
    if args.config:
        try:
            file_values = _read_config_file(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: {exc}")
        for key, value in file_values.items():
            if key not in merged:
                parser.error(f"--config: unknown key {key!r}")
            try:
                merged[key] = _coerce(key, value, TRAIN_DEFAULTS)
            except ValueError as exc:
                parser.error(f"--config: {key}: {exc}")
    for key in merged:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _integer_from(low: int):
    """argparse type: an integer of at least low."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _positive_float(text: str) -> float:
    """argparse type: a positive finite float; the comparison fails for nan."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _reparam(text: str):
    """argparse type: None for "none", else the flatness command's 1-D warp.

    Only invertible warps are admitted: scale:C with a finite C != 0 and
    tanh:A with a finite A > -1.
    """
    if text == "none":
        return None
    kind, _, value = text.partition(":")
    defaults = {"scale": 2.0, "tanh": 0.3}
    if kind not in defaults:
        raise argparse.ArgumentTypeError(f"unknown kind {kind!r} (use scale:C or tanh:A)")
    c = float(value or defaults[kind])  # argparse reports a ValueError as "invalid _reparam value"
    if kind == "scale" and math.isfinite(c) and c != 0:
        return Reparam.scaling(c, 1)
    if kind == "tanh" and -1 < c < math.inf:
        return Reparam.tanh_warp(c)
    raise argparse.ArgumentTypeError(f"{text} is not invertible (scale:C needs C != 0, tanh:A needs A > -1)")


def _fmt(x: float) -> str:
    return repr(float(x))


def write_logs(log: ExperimentLog, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "log_steps.csv", "w", newline="\n") as fh:
        fh.write(STEP_HEADER + "\n")
        for step, epoch, lr, loss, wall in log.steps:
            fh.write(f"{step},{epoch},{_fmt(lr)},{_fmt(loss)},{_fmt(wall)}\n")
    with open(out / "log_epochs.csv", "w", newline="\n") as fh:
        fh.write(EPOCH_HEADER + "\n")
        for epoch, train_acc, test_acc in log.epochs:
            fh.write(f"{epoch},{_fmt(train_acc)},{_fmt(test_acc)}\n")


def _load_dataset(cfg: dict, parser) -> data.Dataset:
    name = cfg["dataset"]
    if name == "two-moons":
        ds = data.gen_two_moons(cfg["count"], cfg["noise"], cfg["seed"])
    elif name.startswith("csv:"):
        path = name[4:]
        if not path:
            parser.error("--dataset: csv requires a path, e.g. --dataset csv:/path/file.csv")
        if not Path(path).exists():
            parser.error(f"--dataset: file not found: {path}")
        ds = data.load_csv(path, schema=cfg["csv_schema"], skip_header=cfg["skip_header"])
    else:
        parser.error(f"--dataset: unknown dataset {name!r} (use two-moons or csv:PATH)")
    ds = data.train_test_split(ds, cfg["test_fraction"], cfg["seed"])
    return data.normalize(ds)


def cmd_train(args, parser) -> int:
    cfg = _merge_config(args, parser)
    try:
        hidden = [int(h) for h in cfg["layers"].split(",") if h.strip()]
    except ValueError as exc:
        parser.error(f"--layers: {exc}")
    # OptimConfig admits epochs=0 for library callers; a run from here must train.
    if cfg["epochs"] < 1:
        parser.error(f"epochs must be at least 1, got {cfg['epochs']}")
    if not 0 <= cfg["test_fraction"] < 1:
        parser.error(f"test_fraction must be in [0, 1), got {cfg['test_fraction']}")
    dataset = _load_dataset(cfg, parser)
    out_dim = dataset.num_classes if dataset.classification else dataset.targets.shape[1]
    dims = [dataset.input_dim] + hidden + [out_dim]
    loss = losses.SOFTMAX_CE if dataset.classification else losses.SQUARED
    try:
        config = OptimConfig(loss=loss, **{key: cfg[key] for key in OPTIM_KEYS})
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.perf_counter()
    log, _net = train(config, dataset, dims, activation=cfg["activation"])
    elapsed = time.perf_counter() - t0
    write_logs(log, cfg["out"])
    final_loss = log.steps[-1][3] if log.steps else float("nan")
    final_train = log.epochs[-1][1] if log.epochs else float("nan")
    final_test = log.epochs[-1][2] if log.epochs else float("nan")
    print(
        f"variant={config.variant} steps={len(log.steps)} "
        f"final_train_loss={final_loss:.6f} train_acc={final_train:.4f} "
        f"test_acc={final_test:.4f} elapsed_s={elapsed:.2f}"
    )
    print(f"logs written to {cfg['out']}/log_steps.csv and {cfg['out']}/log_epochs.csv")
    return 0


def cmd_verify(args, parser) -> int:
    names = args.suite if args.suite else None
    try:
        results, ok = verify.run_suites(names)
    except KeyError as exc:
        parser.error(str(exc))
    for suite, check, passed, detail in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {suite}:{check} ({detail})")
    if not ok:
        failed = [f"{s}:{c}" for s, c, p, _ in results if not p]
        print(f"failed: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def cmd_flatness(args, parser) -> int:
    if args.loss != "quadratic":
        parser.error("--loss: only the built-in 'quadratic' toy is available")
    dim = 1
    loss = lambda w: float(np.sum(w**2))
    sampler = GridSampler(resolution=args.resolution, half_width=args.half_width)

    for source in ("pullback", "euclidean"):
        # Pullback of the linear model w |-> (x -> w x) under the standard
        # normal input measure: constant metric E[x^2] = 1.
        metric_fn = None if source == "euclidean" else (lambda w: np.eye(w.shape[0]))
        query = FlatnessQuery(
            loss=loss,
            minimum=np.zeros(dim),
            epsilon=args.epsilon,
            metric=metric_fn,
            metric_source=source,
            sampler=sampler,
        )
        result = epsilon_flatness(query)
        line = f"{source}: volume {result.volume:.6f} +- {result.stderr:.6f}"
        if args.reparam is not None:
            disc = invariance_check(query, args.reparam, result.volume)
            line += f" | reparam discrepancy {disc * 100:.2f}%"
        print(line)
    return 0


def cmd_funcgd(args, parser) -> int:
    xs = np.linspace(-2.0, 2.0, args.count).reshape(-1, 1)
    ys = np.sin(2.0 * xs)
    spec = KernelSpec(input_dim=1, input_scale=args.input_scale)
    f = rkhs.functional_gd(
        xs / args.input_scale, ys, losses.SQUARED, args.steps, args.lr, spec, mode="cyclic"
    )
    preds = rkhs.evaluate_batch(f, xs / args.input_scale)
    residual = float(np.sum((preds - ys) ** 2))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="\n") as fh:
        fh.write("x,y_true,y_pred\n")
        for i in range(xs.shape[0]):
            fh.write(f"{_fmt(xs[i, 0])},{_fmt(ys[i, 0])},{_fmt(preds[i, 0])}\n")
    print(f"functional GD: {args.steps} steps, training residual {residual:.6f}")
    print(f"wrote {out}")
    return 0


def cmd_riemann(args, parser) -> int:
    gen = np.random.default_rng(args.seed)
    violations = 0
    for i in range(args.instances):
        m = gen.normal(size=(args.dim, args.dim))
        h = m @ m.T + 0.5 * np.eye(args.dim)
        g = np.diag(gen.uniform(0.5, 3.0, size=args.dim)) if i % 2 else None
        problem = riemann.RiemannProblem.quadratic(h, g)
        x0 = gen.normal(size=args.dim) * 2.0
        x = x0
        for _ in range(args.steps):
            nxt = riemann.grad_step(problem, x)
            if not problem.f(x) - problem.f(nxt) >= riemann.prog(problem, x) - verify.DECREASE_SLACK:
                violations += 1
            x = nxt
        if verify.mirror_grad_gap(problem, x0) != 0.0:
            violations += 1
        try:
            riemann.verify_rate(problem, x0, args.steps)
        except riemann.RateViolation:
            violations += 1
    if violations:
        print(f"riemann demo: {violations} violations over {args.instances} instances")
        return 1
    print(
        f"riemann demo: decrease >= Prog, mirror == grad, and the 2LCR^2/T rate "
        f"held on all {args.instances} instances ({args.steps} steps each)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sobnat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment and write CSV logs")
    p_train.add_argument("--config", default=None, help="key=value config file")
    p_train.add_argument("--dataset", default=None, help="two-moons or csv:PATH")
    p_train.add_argument("--variant", default=None, choices=VARIANTS)
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p_train.add_argument("--damping", type=float, default=None)
    p_train.add_argument("--input-scale", dest="input_scale", type=float, default=None)
    p_train.add_argument("--schedule", default=None, choices=SCHEDULES)
    p_train.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--layers", default=None, help="hidden sizes, e.g. 16,16")
    p_train.add_argument("--activation", default=None, choices=network.ACTIVATIONS)
    p_train.add_argument("--count", type=int, default=None, help="two-moons sample count")
    p_train.add_argument("--noise", type=float, default=None, help="two-moons noise")
    p_train.add_argument("--test-fraction", dest="test_fraction", type=float, default=None)
    p_train.add_argument("--out", default=None, help="output directory for CSV logs")
    p_train.add_argument("--csv-schema", dest="csv_schema", default=None,
                         choices=(data.LABEL_FIRST, data.TARGETS_LAST))
    p_train.add_argument("--skip-header", dest="skip_header", action="store_const",
                         const=True, default=None)
    p_train.add_argument("--no-walltime", dest="record_walltime", action="store_const",
                         const=False, default=None,
                         help="write wall_ms as 0 for byte-reproducible logs")
    p_train.set_defaults(func=cmd_train)

    p_verify = sub.add_parser("verify", help="run the oracle/property suites")
    p_verify.add_argument("--suite", action="append", default=None,
                          help="restrict to a suite (repeatable); default all")
    p_verify.set_defaults(func=cmd_verify)

    p_flat = sub.add_parser("flatness", help="epsilon-flatness of a toy loss")
    p_flat.add_argument("--loss", default="quadratic")
    p_flat.add_argument("--epsilon", type=_positive_float, default=0.04)
    p_flat.add_argument("--resolution", type=_integer_from(1), default=801)
    p_flat.add_argument("--half-width", dest="half_width", type=_positive_float, default=0.5)
    p_flat.add_argument("--reparam", type=_reparam, default=None, help="scale:C or tanh:A")
    p_flat.set_defaults(func=cmd_flatness)

    p_fgd = sub.add_parser("funcgd", help="functional GD demo, writes predicted-vs-true CSV")
    p_fgd.add_argument("--count", type=_integer_from(1), default=40)
    p_fgd.add_argument("--steps", type=_integer_from(0), default=400)
    p_fgd.add_argument("--lr", type=_positive_float, default=0.5)
    p_fgd.add_argument("--input-scale", dest="input_scale", type=_positive_float, default=1.0)
    p_fgd.add_argument("--out", default="runs/funcgd.csv")
    p_fgd.set_defaults(func=cmd_funcgd)

    p_rm = sub.add_parser("riemann", help="primal/mirror descent guarantee demo")
    p_rm.add_argument("--instances", type=_integer_from(1), default=20)
    p_rm.add_argument("--steps", type=_integer_from(1), default=100)
    p_rm.add_argument("--dim", type=_integer_from(1), default=3)
    p_rm.add_argument("--seed", type=int, default=0)
    p_rm.set_defaults(func=cmd_riemann)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except SobnatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
