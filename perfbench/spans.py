"""In-memory spans around the program's public functions, and self time.

`Tracer.install` replaces each traced function in every `ultrashort` module
namespace that binds it (so `limitlaw._snf` and `stats.uniformity_metric`
are wrapped too), which makes calls between layers nest.  Spans stay in
memory; `self_times` and `to_json` are read once the run has ended.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(i, ())) for i, s in enumerate(spans)
    ]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """{name: {"self_s": summed self time, "calls": span count}}."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = out.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return out


class Tracer:
    """Records a span per call of each installed function, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op: int | None = None
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, func, before=None, after=None):
        """`func` recording a span named `name`; `before(args, kwargs)` runs
        before the call and `after(result)` after it, both outside the span."""

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            if before is not None:
                before(args, kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            span.start = self.clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def install(self, module, attr: str, before=None, after=None, package="ultrashort"):
        """Wrap `module.attr` in every loaded `package` module that binds it."""
        original = getattr(module, attr)
        short = module.__name__.rsplit(".", 1)[-1]
        traced = self.wrap(f"{short}.{attr}", original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))
        return traced

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def to_json(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
