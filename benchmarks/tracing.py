"""Layer spans for the benchmark, recorded from outside the package.

``Tracer.install`` wraps every public function of the iphfit layer
modules (the names in each module's ``__all__``) and rebinds the wrapper
under every name a caller can reach it by: the defining module, each
module that imported it, and the package namespace.  Calls made inside a
module go through its globals, so they are traced too; calls through a
function-local ``from .matfun import ...`` resolve to the rebound module
attribute at call time.

A span is ``[name, start, end, parent index, operation id]``.  Spans stay
in memory until ``write`` is called.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "modelio", "emfit", "families", "iph", "phcore", "matfun")


def layer_functions() -> dict[str, types.FunctionType]:
    """Public functions per layer, keyed ``<module>.<function>``."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"iphfit.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                found[f"{layer}.{attr}"] = fn
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in layer_functions().items()}
        namespaces = [importlib.import_module("iphfit")]
        namespaces += [importlib.import_module(f"iphfit.{layer}") for layer in LAYERS]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def totals(self):
        """(self seconds, inclusive seconds, calls), each keyed by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
            incl[name] += end - start
            calls[name] += 1
        return own, incl, calls

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
