"""The non-training commands: verify, flatness, riemann, funcgd and CSV
ingestion.  Each operation is timed as a whole; its output is kept for the
checks, which run after the measured window (a loaded CSV is checked as
soon as the load returns, see CHECK_AT_ONCE).
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass

import numpy as np
import scipy.stats

import checks
from sobnat import cli, data, flatness, kernel, losses, riemann, rkhs

SUITES = ("kernel", "gradcheck", "exactness", "orthonormality", "kfac", "quadrature", "flatness", "riemann")
EPSILON = 0.04
GRID_RESOLUTION = {1: 801, 2: 151, 3: 35}
MC_COUNT = 10_000
BAND_EIGS = {1: [2.0], 2: [1.0, 3.0], 3: [1.0, 2.0, 4.0]}
SCALE = 2.0
RIEMANN_INSTANCES = 10
RIEMANN_STEPS = 200
RIEMANN_DEMO = ["riemann", "--instances", "10", "--steps", "100"]
FUNCGD_POINTS = 40
FUNCGD_STEPS = 800
FUNCGD_LR = 0.5
CSV_ROWS = 20_000
# Executions of each operation per round (default 2), so that each has a median.
REPEATS = {"verify": 8, "riemann.demo": 3, "riemann.rate": 3, "funcgd": 4, "csv": 6}
# Outputs too large to keep for every round are checked as soon as the
# operation returns (outside its timing); these checks call no sobnat code.
CHECK_AT_ONCE = ("csv",)


@dataclass
class Quadratic:
    """0.5 (w - w0)^T H (w - w0) with a constant metric g; H has fixed
    eigenvalues and a seeded rotation, so the band has the same size on
    every seed."""

    h: np.ndarray
    g: np.ndarray
    w0: np.ndarray
    half_width: float

    @classmethod
    def make(cls, dim, gen):
        rot = scipy.stats.special_ortho_group.rvs(dim, random_state=gen) if dim > 1 else np.eye(1)
        h = rot @ np.diag(BAND_EIGS[dim]) @ rot.T
        m = gen.normal(size=(dim, dim))
        g = m @ m.T + dim * np.eye(dim)
        w0 = gen.uniform(-1.0, 1.0, size=dim)
        half_width = 1.3 * float(np.sqrt(2.0 * EPSILON / min(BAND_EIGS[dim])))
        return cls(h, g, w0, half_width)

    def query(self, sampler, euclidean=False):
        h, w0 = self.h, self.w0
        g = self.g
        return flatness.FlatnessQuery(
            loss=lambda w: 0.5 * float((w - w0) @ h @ (w - w0)),
            minimum=w0,
            epsilon=EPSILON,
            metric=None if euclidean else (lambda w: g),
            metric_source="euclidean" if euclidean else "rkhs_projected",
            sampler=sampler,
        )


class ToolkitInputs:
    """Seeded inputs of every toolkit operation; the CSV is written here."""

    def __init__(self, seed, csv_path):
        gen = np.random.default_rng([seed, 2])
        self.seed = seed
        self.quads = {dim: Quadratic.make(dim, gen) for dim in (1, 2, 3)}
        self.mc_quad = Quadratic.make(2, gen)
        self.riemann = []
        for k in range(RIEMANN_INSTANCES):
            m = gen.normal(size=(3, 3))
            h = m @ m.T + 0.5 * np.eye(3)
            g = np.diag(gen.uniform(0.5, 3.0, size=3)) if k % 2 else np.eye(3)
            self.riemann.append((h, g, gen.normal(size=3) * 3.0))
        xs = np.sort(gen.uniform(-2.0, 2.0, size=FUNCGD_POINTS)).reshape(-1, 1)
        self.funcgd = (xs, np.sin(2.0 * xs) + 0.05 * gen.normal(size=xs.shape))
        moons = data.gen_two_moons(CSV_ROWS, 0.1, seed)
        self.csv_features, self.csv_labels = moons.features, moons.targets
        self.csv_path = csv_path
        with open(csv_path, "w", newline="\n") as fh:
            fh.writelines(
                f"{label},{x0!r},{x1!r}\n"
                for label, (x0, x1) in zip(self.csv_labels.tolist(), self.csv_features.tolist())
            )


def repeats(name):
    return REPEATS.get(name, 2)


def _grid(q: Quadratic):
    return flatness.GridSampler(resolution=GRID_RESOLUTION[len(q.w0)], half_width=q.half_width)


def _mc(q: Quadratic, seed):
    return flatness.MonteCarloSampler(count=MC_COUNT, seed=seed, half_width=q.half_width)


def operations(inp: ToolkitInputs):
    """(name, group, fn) per operation; fn returns the output to check."""
    q1, q2, q3, qm = inp.quads[1], inp.quads[2], inp.quads[3], inp.mc_quad
    ops = [("verify", "verify", lambda: _cli(["verify"]))]
    for name, q in (("flatness.grid_1d", q1), ("flatness.grid_2d", q2), ("flatness.grid_3d", q3)):
        ops.append((name, "flatness", lambda q=q: flatness.epsilon_flatness(q.query(_grid(q))).volume))
    ops += [
        ("flatness.mc_2d", "flatness",
         lambda: flatness.epsilon_flatness(qm.query(_mc(qm, inp.seed))).volume),
        ("flatness.scale_1d", "flatness",
         lambda: flatness.invariance_check(q1.query(_grid(q1)), flatness.Reparam.scaling(SCALE, 1))),
        ("flatness.tanh_1d", "flatness",
         lambda: flatness.invariance_check(q1.query(_grid(q1)), flatness.Reparam.tanh_warp(0.3, 1.0))),
        ("flatness.euclid_scale_1d", "flatness",
         lambda: flatness.invariance_check(q1.query(_grid(q1), euclidean=True),
                                           flatness.Reparam.scaling(SCALE, 1))),
        ("flatness.mc_scale_2d", "flatness",
         lambda: flatness.invariance_check(qm.query(_mc(qm, inp.seed)), flatness.Reparam.scaling(SCALE, 2))),
        ("riemann.demo", "riemann",
         lambda: _cli(RIEMANN_DEMO + ["--seed", str(inp.seed)])),
        ("riemann.rate", "riemann",
         lambda: [riemann.verify_rate(riemann.RiemannProblem.quadratic(h, g), x0, RIEMANN_STEPS)
                  for h, g, x0 in inp.riemann]),
        ("funcgd", "funcgd", lambda: _funcgd(inp)),
        ("csv", "csv", lambda: data.load_csv(inp.csv_path)),
    ]
    return ops


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _funcgd(inp):
    xs, ys = inp.funcgd
    spec = kernel.KernelSpec(input_dim=1, input_scale=1.0)
    f = rkhs.functional_gd(xs, ys, losses.SQUARED, FUNCGD_STEPS, FUNCGD_LR, spec, mode="cyclic")
    return rkhs.evaluate_batch(f, xs)


def run_op(fn, cal, tracer=None):
    """Run one operation after a calibration sample; returns
    ((start, end), output, error)."""
    cal.sample()
    if tracer is not None:
        tracer.begin("toolkit")
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a raising command fails the operation
        return (t0, time.perf_counter()), None, f"raised {type(exc).__name__}: {exc}"
    return (t0, time.perf_counter()), result, None


def check_op(name, result, inp: ToolkitInputs):
    q1, q2, q3, qm = inp.quads[1], inp.quads[2], inp.quads[3], inp.mc_quad
    if name == "verify":
        rc, text = result
        return checks.check_verify_output(rc, text, SUITES)
    if name.startswith("flatness.grid_"):
        q = {"flatness.grid_1d": q1, "flatness.grid_2d": q2, "flatness.grid_3d": q3}[name]
        dim = len(q.w0)
        cell = 2.0 * q.half_width / GRID_RESOLUTION[dim]
        tol = checks.grid_tolerance(q.h, EPSILON, q.g, cell)
        return checks.check_band_volume(result, q.h, EPSILON, q.g, tol)
    if name == "flatness.mc_2d":
        tol = checks.mc_tolerance(qm.h, EPSILON, qm.g, qm.half_width, MC_COUNT)
        return checks.check_band_volume(result, qm.h, EPSILON, qm.g, tol)
    if name in ("flatness.scale_1d", "flatness.tanh_1d", "flatness.mc_scale_2d"):
        return checks.check_invariant(result)
    if name == "flatness.euclid_scale_1d":
        return checks.check_euclidean_breaks(result, SCALE, 1)
    if name == "riemann.demo":
        rc, text = result
        return [] if rc == 0 and "held on all 10 instances" in text else [f"riemann demo: {text.strip()}"]
    if name == "riemann.rate":
        out = []
        for (h, g, x0), report in zip(inp.riemann, result):
            out += checks.check_riemann(h, g, *_trajectory(h, g, x0), report.gaps, report.radius)
        return out
    if name == "funcgd":
        xs, ys = inp.funcgd
        return checks.check_funcgd(result, xs, ys, FUNCGD_STEPS, FUNCGD_LR)
    if name == "csv":
        return checks.check_csv(result.features, result.targets, inp.csv_features, inp.csv_labels)
    raise KeyError(name)


def _trajectory(h, g, x0):
    """The program's primal steps from x0 and its Prog at each iterate."""
    problem = riemann.RiemannProblem.quadratic(h, g)
    xs, progs = [np.asarray(x0, dtype=np.float64)], []
    for _ in range(RIEMANN_STEPS):
        progs.append(riemann.prog(problem, xs[-1]))
        xs.append(riemann.grad_step(problem, xs[-1]))
    return xs, progs
