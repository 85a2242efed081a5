"""In-memory span tracer that wraps calls into csample's public functions.

Every span is aggregated on the fly into count, total and self time per
name; the self time of a span is its duration minus the time its direct
child spans cover. No span is kept whole, which keeps memory flat on runs
with millions of calls.

This module imports only the standard library, so a child process can
install it before csample (and numpy) are imported.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Aggregate:
    count: int = 0
    total_s: float = 0.0  # inclusive time, counted once for recursive calls
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.aggregates = {}
        self.observations = {}  # name -> list of values reported by observers
        self.counters = {}  # name -> running total reported by observers
        self._stack = []  # open frames: [name, start, child_s]
        self._depth = {}  # name -> open frames of that name

    def enter(self, name):
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        name, start, child_s = self._stack.pop()
        duration = end - start
        self._depth[name] -= 1
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = Aggregate()
        agg.count += 1
        agg.self_s += duration - child_s
        if self._depth[name] == 0:
            agg.total_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    def observe(self, name, value):
        self.observations.setdefault(name, []).append(value)

    def count(self, name, increment=1):
        self.counters[name] = self.counters.get(name, 0) + increment

    def wrap(self, name, fn, observer=None):
        """``fn`` timed as span ``name``; ``observer(tracer, args, kwargs,
        result)`` sees each call's result after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        return traced

    def to_json(self):
        return {
            "aggregates": {
                k: {"count": a.count, "total_s": a.total_s, "self_s": a.self_s}
                for k, a in sorted(self.aggregates.items())
            },
            "observations": self.observations,
            "counters": self.counters,
        }


def patch_everywhere(modules, owner, attr, wrapper):
    """Replace ``owner.attr`` by ``wrapper`` and every module-level alias of
    the original in ``modules`` (``from x import f`` copies the reference)."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
    return original
