"""The benchmark's tracer hooks resolve against the package and undo cleanly.

bench/tracer.py wraps the functions it names in TRACED, by module, wherever
the package binds them.  A rename in the package breaks the benchmark's
per-layer run; this test names the broken hook instead.
"""

import importlib
import sys
import types
from pathlib import Path

from sobnat import verify

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
