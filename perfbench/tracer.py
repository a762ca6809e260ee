"""Outside-in span tracer: wraps public functions of a package from outside it.

The program under test is not edited.  ``Tracer.install`` replaces each listed
function by a timing wrapper, and rebinds every module-level name in the
package that refers to the original, so modules that imported the function by
name (``from .xforms import fourier_invert``) call the wrapper too.  Spans are
kept in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    """One call of a traced function."""

    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top level
    op: int  # operation the call belongs to

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call of each wrapped function, plus the counts its
    ``counter`` reads from the call's return value."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: list[dict | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self.counts.append(None)
            self._stack.append(idx)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.op)
            if counter is not None:
                self.counts[idx] = counter(result, args, kwargs)
            return result

        return traced

    def install(self, package: str, targets) -> None:
        """Wrap each ``(module, function, counter)`` of ``package`` and rebind
        every name in the package's loaded modules that is bound to it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for module_name, func_name, counter in targets:
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            traced = self.wrap(f"{module_name}.{func_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return list(self.spans)

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, s in enumerate(self.finished()):
                fh.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.op}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def ancestor_names(spans: list[Span], idx: int) -> set[str]:
    names = set()
    parent = spans[idx].parent
    while parent >= 0:
        names.add(spans[parent].name)
        parent = spans[parent].parent
    return names


def top_level_seconds(spans: list[Span]) -> float:
    """Time covered by spans that have no parent (they never overlap, because
    the traced program runs on one thread)."""
    return sum(s.duration for s in spans if s.parent < 0)
