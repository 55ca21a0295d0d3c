"""The benchmark's calls into the package resolve and bind, and its tracer
hooks resolve and undo cleanly.

bench/tracer.py wraps the functions it names in TRACED, by module, wherever
the package binds them, and the benchmark's operations call the package by
``module.attr``.  A rename in the package, or a changed parameter list,
breaks the benchmark; these tests name the broken call or hook instead.
A restructured step can also leave a traced name uncalled, so that its
per-layer rows silently read 0; the K-FAC rows are checked for that.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from sobnat import optimizers, riemann, verify
from sobnat.data import gen_two_moons, normalize, train_test_split

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH_DIR / "tracer.py"
BENCH_FILES = sorted(BENCH_DIR.glob("*.py"))


def sobnat_names(path: Path):
    """path's syntax tree, and a map from each of its nodes that is a dotted
    name ``module.attr[.attr...]``, rooted at a module the file imports from
    sobnat, to (module, (attr, ...))."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {
        alias.asname or alias.name: f"sobnat.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sobnat"
        for alias in node.names
    }
    names = {}
    for node in ast.walk(tree):
        chain, value = [], node
        while isinstance(value, ast.Attribute):
            chain.insert(0, value.attr)
            value = value.value
        if chain and isinstance(value, ast.Name) and value.id in modules:
            names[node] = (modules[value.id], tuple(chain))
    return tree, names


def resolve(module_name: str, chain: tuple):
    """(module_name.chain, None), or (None, the first prefix that does not resolve)."""
    obj = importlib.import_module(module_name)
    for at, attr in enumerate(chain):
        if not hasattr(obj, attr):
            return None, ".".join((module_name,) + chain[: at + 1])
        obj = getattr(obj, attr)
    return obj, None


def unbound(path: Path, call: ast.Call, module_name: str, chain: tuple) -> str | None:
    """Why the call's positional count and keyword names do not bind to the
    signature of the sobnat function or class it calls, or None."""
    target, _ = resolve(module_name, chain)
    if not (getattr(target, "__module__", None) or "").startswith("sobnat"):
        return None  # not sobnat code, such as a method of a dict the package holds
    positional = [None for arg in call.args if not isinstance(arg, ast.Starred)]
    keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
    # With *args or **kwargs in the call, only what it names can be checked.
    unpacks = len(positional) < len(call.args) or len(keywords) < len(call.keywords)
    signature = inspect.signature(target)
    try:
        (signature.bind_partial if unpacks else signature.bind)(*positional, **keywords)
    except TypeError as exc:
        return f"{path.name}:{call.lineno} {'.'.join((module_name,) + chain)}: {exc}"
    return None


def test_every_bench_call_into_sobnat_resolves():
    refs = {ref for path in BENCH_FILES for ref in sobnat_names(path)[1].values()}
    assert ("sobnat.riemann", ("verify_rate",)) in refs
    broken = sorted(filter(None, (resolve(module, chain)[1] for module, chain in refs)))
    assert not broken, f"the benchmark calls names sobnat lacks: {broken}"


def test_every_bench_call_into_sobnat_binds():
    calls = []
    for path in BENCH_FILES:
        tree, names = sobnat_names(path)
        calls += [
            (path, node, *names[node.func])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.func in names
        ]
    assert ("sobnat.rkhs", ("functional_gd",)) in {(module, chain) for *_, module, chain in calls}
    broken = sorted(filter(None, (unbound(*call) for call in calls)))
    assert not broken, f"the benchmark's calls into sobnat no longer bind: {broken}"


def test_rate_report_has_the_fields_the_bench_reads():
    fields = {f.name for f in dataclasses.fields(riemann.RateReport)}
    assert {"gaps", "radius"} <= fields


def load_tracer() -> types.ModuleType:
    """Execute bench/tracer.py from its source, writing nothing next to it."""
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def package_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "sobnat" or name.startswith("sobnat.")
        for attr, value in vars(mod).items()
    }


def test_every_traced_name_resolves_and_is_restored():
    tracer_module = load_tracer()
    traced = {
        (short, fname): getattr(importlib.import_module("sobnat." + short), fname, None)
        for short, names in tracer_module.TRACED.items()
        for fname in names
    }
    missing = [f"{short}.{fname}" for (short, fname), fn in traced.items() if not callable(fn)]
    assert not missing, f"TRACED names with no function in sobnat: {missing}"
    before, suites = package_bindings(), dict(verify.SUITES)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        during = package_bindings()
        for (short, fname), original in traced.items():
            wrapped = getattr(sys.modules["sobnat." + short], fname)
            assert wrapped is not original and wrapped.__wrapped__ is original, f"{short}.{fname}"
        patched = [key for key, value in before.items() if during[key] is not value]
        assert len(patched) >= len(traced)
        assert all(verify.SUITES[name] is not fn for name, fn in suites.items())
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert all(verify.SUITES[name] is fn for name, fn in suites.items())


# The traced stages each variant's refresh and plain step call: a stage
# the step still runs must keep recording calls, not read 0 in the tables.
STEP_STAGES = {
    "sgd": ("network.forward",),
    "ntk_surrogate": ("network.forward", "network.output_jacobians", "metric.ntk_surrogate_gradient"),
    "amari_dense": ("network.forward", "network.output_jacobians",
                    "linalg.cholesky_factor", "linalg.solve_from_factor"),
    "sobolev_dense": ("network.forward", "network.output_jacobians",
                      "kernel.gram", "linalg.cholesky_factor", "linalg.solve_from_factor"),
    "amari_kfac": ("network.forward", "network.output_jacobians", "kfac.compute_factors",
                   "kfac.update_state", "kfac.refresh_inverses", "kfac.precondition",
                   "linalg.cholesky_factor", "linalg.solve_from_factor"),
    "sobolev_kfac": ("network.forward", "network.output_jacobians", "kernel.gram", "kfac.compute_factors",
                     "kfac.update_state", "kfac.refresh_inverses", "kfac.precondition",
                     "linalg.cholesky_factor", "linalg.solve_from_factor"),
}


@pytest.mark.parametrize("variant", optimizers.VARIANTS)
def test_step_trace_rows_record_calls(variant):
    # One refresh step and one plain step, each its own trace scope.
    tracer_module = load_tracer()
    ds = normalize(train_test_split(gen_two_moons(200, 0.1, seed=4), 0.25, seed=4))
    x, y = ds.train()
    cfg = optimizers.OptimConfig(variant=variant, batch_size=50, seed=4, record_walltime=False)
    net = optimizers.make_net([2, 16, 16, 2], "tanh", np.random.default_rng(4))
    state = optimizers.TrainState.create(net, cfg)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for scope, rows in (("refresh", slice(0, 50)), ("plain", slice(50, 100))):
            tracer.begin(scope)
            net, _ = optimizers.train_step(net, x[rows], y[rows], cfg, state, 0.01)
    finally:
        tracer.uninstall()
    calls = {(scope, name): n for (scope, name), n in tracer.calls.items()}
    traced = {f"{module}.{fname}" for module, names in tracer_module.TRACED.items() for fname in names}
    assert set(STEP_STAGES[variant]) <= traced
    silent = [
        name for name in STEP_STAGES[variant]
        if not calls.get(("refresh", name)) and not calls.get(("plain", name))
    ]
    assert not silent, f"traced {variant} stages with no call in a refresh and a plain step: {silent}"
    if variant.endswith("_kfac"):
        assert {name for name in traced if name.startswith("kfac.")} <= set(STEP_STAGES[variant])
        assert calls.get(("refresh", "linalg.cholesky_factor"), 0) >= 2 * len(net.layers)
        assert calls.get(("plain", "linalg.cholesky_factor"), 0) == 0
