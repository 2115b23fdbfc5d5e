"""Call tracer for the simplepa layers, installed from outside the package.

Every public function of every ``simplepa`` module is replaced, in each
module namespace that binds it, by a wrapper that times the call.  A name
re-exported elsewhere (``faces`` is bound in nestedsets, geometry, classify
and cli) gets the same wrapper everywhere, so its calls are counted once
under the defining module.  Names imported inside a function body at call
time (``build_graph`` in ``realization_report``) resolve to the wrapper
because the defining module's attribute is replaced.  ``RewriteGraph``
methods are wrapped on the class.  Other classes are left alone: their
methods (``Hyperplane.value``, ``Chain.sort_key``) run millions of times
per op and wrapping them would swamp the numbers.

Spans are folded into per-name totals as they close rather than kept one
by one: a census-n5 op opens about a million spans.  For each name the
tracer keeps the call count, the inclusive time (outermost activation
only, so recursion is not double counted), the self time (inclusive
minus the time covered by child spans) and the duration of the first
call.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

MODULES = (
    "simplepa",
    "simplepa.nestedsets",
    "simplepa.brackets",
    "simplepa.geometry",
    "simplepa.classify",
    "simplepa.cli",
    "simplepa.limits",
)
WRAPPED_CLASSES = (("simplepa.brackets", "RewriteGraph"),)


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive_ns, self_ns, first_ns, active]
        self.stats: dict[str, list[int]] = {}
        self._child_ns: list[int] = []  # one accumulator per open span

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0, 0, -1, 0])
        child_ns = self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            stats[4] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[4] -= 1
                stats[0] += 1
                stats[2] += elapsed - child_ns.pop()
                if not stats[4]:
                    stats[1] += elapsed
                if stats[3] < 0:
                    stats[3] = elapsed
                if child_ns:
                    child_ns[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap the public functions of every simplepa module in place."""
        wrappers: dict[int, object] = {}
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("simplepa"):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__qualname__}"
                    wrappers[id(value)] = self.wrap(value, name)
                setattr(module, attr, wrappers[id(value)])
        for module_name, class_name in WRAPPED_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                name = f"{module_name.rsplit('.', 1)[-1]}.{value.__qualname__}"
                setattr(cls, attr, self.wrap(value, name))

    @staticmethod
    def span_cost_s(calls: int = 200_000) -> float:
        """Seconds one wrapper adds to a call, timed on a no-op function."""

        def noop():
            pass

        traced = Tracer().wrap(noop, "noop")
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            noop()
        plain = clock() - start
        start = clock()
        for _ in range(calls):
            traced()
        return (clock() - start - plain) / calls

    def snapshot(self) -> dict[str, dict]:
        return {
            name: {
                "calls": calls,
                "s": incl / 1e9,
                "self_s": self_ns / 1e9,
                "first_s": max(first, 0) / 1e9,
            }
            for name, (calls, incl, self_ns, first, _) in self.stats.items()
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.snapshot(), "span_cost_s": self.span_cost_s()}, handle)
