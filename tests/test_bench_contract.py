"""The benchmark's calls into the package resolve, and its tracer hooks
resolve and undo cleanly.

bench/tracer.py wraps the functions it names in TRACED, by module, wherever
the package binds them, and the benchmark's operations call the package by
``module.attr``.  A rename in the package breaks the benchmark; these tests
name the broken call or hook instead.
"""

import ast
import dataclasses
import importlib
import sys
import types
from pathlib import Path

from sobnat import riemann, verify

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH_DIR / "tracer.py"
CALLERS = ("toolkit.py", "checks.py", "training.py", "workloads.py")


def sobnat_references(path: Path) -> set:
    """Every dotted name ``module.attr[.attr...]`` in path's source whose root
    is a module the file imports from sobnat."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {
        alias.asname or alias.name: f"sobnat.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sobnat"
        for alias in node.names
    }
    refs = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            refs.add((modules[node.id], tuple(chain)))
    return refs


def unresolved(module_name: str, chain: tuple) -> str | None:
    """The first prefix of module_name.chain that does not resolve, or None."""
    obj = importlib.import_module(module_name)
    for at, attr in enumerate(chain):
        if not hasattr(obj, attr):
            return ".".join((module_name,) + chain[: at + 1])
        obj = getattr(obj, attr)
    return None


def test_every_bench_call_into_sobnat_resolves():
    refs = {ref for name in CALLERS for ref in sobnat_references(BENCH_DIR / name)}
    assert ("sobnat.riemann", ("verify_rate",)) in refs
    broken = sorted(filter(None, (unresolved(module, chain) for module, chain in refs)))
    assert not broken, f"the benchmark calls names sobnat lacks: {broken}"


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
