"""Spans around the program's public functions, recorded from outside.

A Tracer replaces each traced function at every name it is looked up
through (``selfaffine.affine.determinant`` as well as
``selfaffine.exactlinalg.determinant``), so calls from inside the
program are seen too.  Each call records a span: name, start, end and
parent.  Spans stay in memory until the run ends; then the layer figures
are computed from them and they are written to a file.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# Counts read off a traced call: (function, quantity) -> f(args, kwargs, result).
COUNTERS = {
    ("moment.verify_moment_invariance", "checks"): lambda args, kwargs, result: result.checks,
    ("attractor.chaos_game", "steps"): lambda args, kwargs, result: args[1],
    ("cloud.write_csv", "bytes"): lambda args, kwargs, result: (
        os.path.getsize(args[1]) if isinstance(args[1], str) else 0
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] += amount

    def install(self, functions: list[str]) -> None:
        """Wrap each "<module>.<function>" of selfaffine wherever it is bound."""
        modules = [m for name, m in sys.modules.items()
                   if name == "selfaffine" or name.startswith("selfaffine.")]
        for qualified in functions:
            module_name, function_name = qualified.split(".")
            original = getattr(sys.modules[f"selfaffine.{module_name}"], function_name)
            counters = [(f"{qualified}.{quantity}", count)
                        for (target, quantity), count in COUNTERS.items() if target == qualified]
            wrapper = self._wrap(qualified, original, counters)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attribute, original))
                        setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def _wrap(self, name, original, counters):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            for counter, count in counters:
                self.counts[counter] += count(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent index], in call order."""
        spans = [[name, start, end, parent] for name, start, end, parent
                 in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "counts": self.counts}, handle)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time, and call count."""
        covered = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[index] - self.starts[index]
        wall: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, name in enumerate(self.names):
            duration = self.ends[index] - self.starts[index]
            wall[name] += duration
            own[name] += duration - covered[index]
            calls[name] += 1
        return wall, own, calls
