"""In-memory span tracer that wraps sobnat's public functions from outside.

install() replaces each traced function both as the module attribute and
in every ``from``-import binding of it inside the package (for example
``optimizers.gram`` or ``verify.epsilon_flatness``), and wraps the entries
of ``verify.SUITES``.  Each call then records one span: name, start, end,
parent span and the trace id of the train step or command it belongs to.
Self time, a span's duration minus the time its child spans cover, is
accumulated per (scope, name) as the spans close.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Functions whose self time the benchmark reports, by module.
TRACED = {
    "data": ("gen_two_moons", "load_csv"),
    "kernel": ("gram",),
    "rkhs": ("functional_gd", "evaluate_batch", "check_basis_orthonormality"),
    "network": ("forward", "backward_loss", "output_jacobians", "param_jacobian"),
    "losses": ("loss_value", "loss_grad_z"),
    "metric": ("estimate_metric", "ntk_surrogate_gradient", "exact_pullback_quadrature"),
    "kfac": ("compute_factors", "update_state", "refresh_inverses", "precondition"),
    "linalg": ("cholesky_factor", "solve_from_factor"),
    "optimizers": ("train_step",),
    "flatness": ("epsilon_flatness", "invariance_check"),
    "riemann": ("grad_step", "prog", "mirror_step", "verify_rate"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, trace id)
        self.self_s = defaultdict(float)  # (scope, name) -> seconds
        self.calls = defaultdict(int)  # (scope, name) -> calls
        self.max_order = defaultdict(int)  # scope -> largest Cholesky order
        self.scope = "setup"
        self.trace_id = 0
        self._stack = []  # [span index, seconds covered by children]
        self._restore = []

    def begin(self, scope):
        """Start a new trace (one train step or command) under a scope."""
        self.scope = scope
        self.trace_id += 1

    def span(self, name, fn, *args, **kwargs):
        if name == "linalg.cholesky_factor":
            order = len(args[0])
            if order > self.max_order[self.scope]:
                self.max_order[self.scope] = order
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            key = (self.scope, name)
            self.self_s[key] += duration - frame[1]
            self.calls[key] += 1
            self.spans[index] = (name, start, end, parent, self.trace_id)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self):
        from sobnat import verify

        package = {n: m for n, m in sys.modules.items() if n == "sobnat" or n.startswith("sobnat.")}
        for short, names in TRACED.items():
            module = package["sobnat." + short]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self._wrap(f"{short}.{fname}", original)
                for mod in package.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        self._original_suites = dict(verify.SUITES)
        for suite, fn in self._original_suites.items():
            verify.SUITES[suite] = self._wrap(f"verify.{suite}", fn)

    def uninstall(self):
        from sobnat import verify

        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        verify.SUITES.update(self._original_suites)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "trace_id"], "spans": self.spans}, fh)
