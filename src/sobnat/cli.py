"""Command-line front end: train, verify, flatness, funcgd, riemann.

Each ``key=value`` line of a train --config file is the flag it names
(dashes or underscores), placed before the command line's flags; a boolean
key is its switch or nothing.  So precedence is defaults < file < flags, and
every value passes its flag's type.  All randomness flows from the single
--seed through named streams, so same-configuration reruns are reproducible.

Exit codes: 0 success, 1 numerical failure (the error type is printed) or
failed verification, 2 configuration errors (the message names the flag or key).
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
# Config-file booleans: the value that turns the key into its switch, and the switch.
SWITCHES = {"skip_header": (True, "--skip-header"), "record_walltime": (False, "--no-walltime")}

# The OptimConfig fields a config file or flag may set; the loss follows the
# dataset and the rest keep their OptimConfig defaults.
OPTIM_KEYS = (
    "variant", "lr", "weight_decay", "damping", "input_scale", "schedule",
    "batch_size", "epochs", "seed", "record_walltime",
)


def _config_flags(args: argparse.Namespace, parser: argparse.ArgumentParser) -> list:
    """The flags that the --config file's lines name, in file order.  Each key
    must be a train dest spelled in full, so argparse never prefix-matches one."""
    keys = set(vars(args)) - {"command", "func", "parser", "config"}
    try:
        lines = Path(args.config).read_text().splitlines()
    except (OSError, ValueError) as exc:
        parser.error(f"--config: {exc}")
    flags = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        key = key.replace("-", "_")
        where = f"--config: {args.config}:{line_no}"
        if not eq:
            parser.error(f"{where}: expected key=value, got {line!r}")
        if key not in keys:
            parser.error(f"{where}: unknown key {key!r}")
        if key not in SWITCHES:
            flags.append(f"--{key.replace('_', '-')}={value}")
            continue
        if value.lower() not in TRUE_WORDS + FALSE_WORDS:
            words = ", ".join(TRUE_WORDS + FALSE_WORDS)
            parser.error(f"{where}: {key}: expected one of {words}, got {value!r}")
        when, switch = SWITCHES[key]
        if (value.lower() in TRUE_WORDS) == when:
            flags.append(switch)
    return flags


def parse_args(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """Parse argv; for train, a --config file's flags go right after the
    subcommand, so defaults < file < flags by argparse's last-wins rule.
    args.parser is the subcommand's own parser, which reports its errors."""
    args = parser.parse_args(argv)
    if args.command != "train" or not args.config:
        return args
    at = argv.index("train") + 1
    return parser.parse_args(argv[:at] + _config_flags(args, args.parser) + argv[at:])


def _integer_from(low: int):
    """argparse type: an integer of at least low."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _float_where(holds, wanted: str):
    """argparse type: a float for which holds(value) is true; each test below
    is a chained comparison, which nan fails."""

    def number(text: str) -> float:
        value = float(text)  # argparse reports a ValueError as "invalid number value"
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value

    return number


_positive_float = _float_where(lambda v: 0 < v < math.inf, "positive and finite")
_noise = _float_where(lambda v: 0 <= v < math.inf, "non-negative and finite")
_fraction = _float_where(lambda v: 0 <= v < 1, "in [0, 1)")


def _widths(text: str) -> list:
    """argparse type: comma-separated hidden-layer widths, each at least 1;
    an empty value means no hidden layer."""
    widths = [int(w) for w in text.split(",") if w.strip()]
    if min(widths, default=1) < 1:
        raise argparse.ArgumentTypeError(f"each width must be at least 1, got {text}")
    return widths


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


def _load_dataset(args, parser) -> data.Dataset:
    name = args.dataset
    if name == "two-moons":
        ds = data.gen_two_moons(args.count, args.noise, args.seed)
    elif name.startswith("csv:"):
        path = name[4:]
        if not path:
            parser.error("--dataset: csv requires a path, e.g. --dataset csv:/path/file.csv")
        try:
            ds = data.load_csv(path, schema=args.csv_schema, skip_header=args.skip_header)
        except OSError as exc:  # missing, a directory, no permission
            parser.error(f"--dataset: cannot read {path}: {exc.strerror or exc}")
    else:
        parser.error(f"--dataset: unknown dataset {name!r} (use two-moons or csv:PATH)")
    ds = data.train_test_split(ds, args.test_fraction, args.seed)
    return data.normalize(ds)


def cmd_train(args, parser) -> int:
    dataset = _load_dataset(args, parser)
    out_dim = dataset.num_classes if dataset.classification else dataset.targets.shape[1]
    dims = [dataset.input_dim] + args.layers + [out_dim]
    loss = losses.SOFTMAX_CE if dataset.classification else losses.SQUARED
    try:
        config = OptimConfig(loss=loss, **{key: getattr(args, key) for key in OPTIM_KEYS})
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.perf_counter()
    log, _net = train(config, dataset, dims, activation=args.activation)
    elapsed = time.perf_counter() - t0
    write_logs(log, args.out)
    final_loss = log.steps[-1][3] if log.steps else float("nan")
    final_train = log.epochs[-1][1] if log.epochs else float("nan")
    final_test = log.epochs[-1][2] if log.epochs else float("nan")
    print(
        f"variant={config.variant} steps={len(log.steps)} "
        f"final_train_loss={final_loss:.6f} train_acc={final_train:.4f} "
        f"test_acc={final_test:.4f} elapsed_s={elapsed:.2f}"
    )
    print(f"logs written to {args.out}/log_steps.csv and {args.out}/log_epochs.csv")
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
        try:
            xs = riemann.verify_rate(problem, x0, args.steps).iterates
        except riemann.RateViolation:
            violations += 1
            xs = riemann.descend(problem, x0, args.steps)
        values, progs = problem.f(xs), riemann.prog(problem, xs[:-1])
        # not (decrease >= ...), so that a NaN decrease is a violation
        violations += np.count_nonzero(~(values[:-1] - values[1:] >= progs - verify.DECREASE_SLACK))
        if verify.mirror_grad_gap(problem, x0) != 0.0:
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
    p_train.add_argument("--config", default=None,
                         help="key=value file; each line is the flag it names, placed before the flags")
    p_train.add_argument("--dataset", default="two-moons", help="two-moons or csv:PATH")
    p_train.add_argument("--variant", default=OptimConfig.variant, choices=VARIANTS)
    p_train.add_argument("--lr", type=float, default=OptimConfig.lr)
    p_train.add_argument("--weight-decay", type=float, default=OptimConfig.weight_decay)
    p_train.add_argument("--damping", type=float, default=OptimConfig.damping)
    p_train.add_argument("--input-scale", type=float, default=OptimConfig.input_scale)
    p_train.add_argument("--schedule", default=OptimConfig.schedule, choices=SCHEDULES)
    p_train.add_argument("--batch-size", type=int, default=OptimConfig.batch_size)
    # OptimConfig admits epochs=0 for library callers; a run from here must train.
    p_train.add_argument("--epochs", type=_integer_from(1), default=OptimConfig.epochs)
    p_train.add_argument("--seed", type=_integer_from(0), default=OptimConfig.seed)
    p_train.add_argument("--layers", type=_widths, default="16,16", help="hidden sizes, e.g. 16,16")
    p_train.add_argument("--activation", default="tanh", choices=network.ACTIVATIONS)
    p_train.add_argument("--count", type=_integer_from(2), default=1000, help="two-moons sample count")
    p_train.add_argument("--noise", type=_noise, default=0.1, help="two-moons noise")
    p_train.add_argument("--test-fraction", type=_fraction, default=0.25)
    p_train.add_argument("--out", default="runs/latest", help="output directory for CSV logs")
    p_train.add_argument("--csv-schema", default=data.LABEL_FIRST,
                         choices=(data.LABEL_FIRST, data.TARGETS_LAST))
    p_train.add_argument("--skip-header", action="store_true")
    p_train.add_argument("--no-walltime", dest="record_walltime", action="store_false",
                         help="write wall_ms as 0 for byte-reproducible logs")
    p_train.set_defaults(func=cmd_train, parser=p_train)

    p_verify = sub.add_parser("verify", help="run the oracle/property suites")
    p_verify.add_argument("--suite", action="append", default=None,
                          help="restrict to a suite (repeatable); default all")
    p_verify.set_defaults(func=cmd_verify, parser=p_verify)

    p_flat = sub.add_parser("flatness", help="epsilon-flatness of a toy loss")
    p_flat.add_argument("--loss", default="quadratic")
    p_flat.add_argument("--epsilon", type=_positive_float, default=0.04)
    p_flat.add_argument("--resolution", type=_integer_from(1), default=801)
    p_flat.add_argument("--half-width", dest="half_width", type=_positive_float, default=0.5)
    p_flat.add_argument("--reparam", type=_reparam, default=None, help="scale:C or tanh:A")
    p_flat.set_defaults(func=cmd_flatness, parser=p_flat)

    p_fgd = sub.add_parser("funcgd", help="functional GD demo, writes predicted-vs-true CSV")
    p_fgd.add_argument("--count", type=_integer_from(1), default=40)
    p_fgd.add_argument("--steps", type=_integer_from(0), default=400)
    p_fgd.add_argument("--lr", type=_positive_float, default=0.5)
    p_fgd.add_argument("--input-scale", dest="input_scale", type=_positive_float, default=1.0)
    p_fgd.add_argument("--out", default="runs/funcgd.csv")
    p_fgd.set_defaults(func=cmd_funcgd, parser=p_fgd)

    p_rm = sub.add_parser("riemann", help="primal/mirror descent guarantee demo")
    p_rm.add_argument("--instances", type=_integer_from(1), default=20)
    p_rm.add_argument("--steps", type=_integer_from(1), default=100)
    p_rm.add_argument("--dim", type=_integer_from(1), default=3)
    p_rm.add_argument("--seed", type=_integer_from(0), default=0)
    p_rm.set_defaults(func=cmd_riemann, parser=p_rm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args, args.parser)
    except SobnatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
