"""Span tracing of the program's layers, from outside the program.

:func:`install` wraps every public function of the layer modules and
rebinds the wrapper wherever a module holds the function (functions are
imported by name across modules), so calls between layers are seen as
well as calls from the CLI.  Spans stay in memory as
``(name, start, end, parent)`` and are summarised when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("graph", "scm", "info", "identify", "road_risk", "cli")
PACKAGE = "causalrating"


def _count_joint(counters, name, args, kwargs, result):
    counters[f"{name}.cells"] += result.probs.size
    counters[f"{name}.bytes"] += result.probs.nbytes


def _count_rows(counters, name, args, kwargs, result):
    counters[f"{name}.rows"] += len(result)


def _count_csv(counters, name, args, kwargs, result):
    counters[f"{name}.bytes"] += os.path.getsize(args[1])  # cli.cmd_simulate passes its --out path


# Size counters taken at a layer boundary, on the call's result.
COUNTERS = {
    "scm.exact_joint": _count_joint,
    "scm.sample": _count_rows,
    "scm.dataset_to_csv": _count_csv,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counters = defaultdict(int)
        self._stack = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counters, name, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per function: calls and self time (span minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
        for key, value in self.counters.items():
            out[key] += value
        return dict(out)


def public_functions() -> dict:
    """{original function: "layer.name"} for every public function of the
    layers: names in ``__all__``, and ``main`` of the CLI."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr in getattr(mod, "__all__", ["main"]):
            fn = getattr(mod, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                found[fn] = f"{layer}.{attr}"
    return found


def install(tracer: Tracer):
    """Rebind every module-level reference to a public function to its
    wrapper; returns a function that restores the originals."""
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in public_functions().items()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])

    def restore():
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return restore
