"""Span tracing around bohrlab's public functions, installed from outside.

Every public function a bohrlab module defines is wrapped once, and the
wrapper replaces the function under every module attribute that refers to it.
That covers the lookup each caller makes: ``bohrlab.montecarlo.schur_synthesis``
for the verifiers, ``bohrlab.series.schur_synthesis`` for the call inside
``harmonic_pair``, ``bohrlab.harmonic.maximize_envelope`` for the harmonic
bounds, and so on.  Private helpers are not wrapped, so their time is the
self time of the public function that called them.

Spans are kept in memory as (id, parent, name, start, end) and written out
when the run ends; self time is derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("series", "majorant", "montecarlo", "radii", "harmonic", "eilenberg", "cli")


class Tracer:
    """Records one span per call into a wrapped bohrlab function."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.coeffs = 0  # sum of (order + 1) over schur_synthesis results
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        synthesis = name == "series.schur_synthesis"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if synthesis:
                self.coeffs += len(result.coeffs)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a root span of its own, such as one op."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap every public function of the layer modules at every lookup site."""
        import bohrlab

        modules = {layer: importlib.import_module(f"bohrlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (bohrlab, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per function name: (self seconds, inclusive seconds, calls)."""
        own = defaultdict(float)
        total = defaultdict(float)
        calls = defaultdict(int)
        spans = self.spans
        for _, parent, name, start, end in spans:
            dur = end - start
            own[name] += dur
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                own[spans[parent][2]] -= dur
        return own, total, calls

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")
