"""In-memory span recording around public loowit functions.

A ``Tracer`` replaces each named function with a wrapper that records one span
per call: (name, start, end, parent span index, op id). The wrapper is bound
under every name by which a loowit module refers to the original function, so
that callers which imported it with ``from .linalg import is_psd`` see it too.
Spans stay in memory; ``write_spans`` writes them out once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top level
    op: int


def _is_psd_work(args, kwargs, result) -> float:
    matrix = args[0] if args else kwargs["h"]
    n = len(matrix)
    return float(n * n * n)


def _path_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[0] if args else kwargs["path"]))


def _written_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


# Extra per-call quantities, keyed by "module.function"; each becomes the
# counter "<module.function>.<suffix>".
EXTRAS: dict[str, tuple[str, Callable]] = {
    "linalg.is_psd": ("work", _is_psd_work),
    "states.load_state": ("bytes", _path_bytes),
    "sweep.write_csv": ("bytes", _written_bytes),
}


class Tracer:
    """Records spans for the wrapped functions of the loowit package."""

    package = "loowit"

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        extra = EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if extra is not None:
                self.counters[f"{name}.{extra[0]}"] += extra[1](args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, names: list[str]) -> Iterator["Tracer"]:
        """Wrap each "module.function" wherever a loaded package module binds it.

        The original functions are restored when the block exits.
        """
        try:
            self._install(names)
            yield self
        finally:
            for module, key, original in reversed(self._patched):
                setattr(module, key, original)
            self._patched.clear()

    def _install(self, names: list[str]) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        for name in names:
            module_name, _, attr = name.rpartition(".")
            original = getattr(sys.modules[f"{self.package}.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per function name: calls, total_s (sum of durations) and self_s."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, selfs):
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
    return dict(table)


def write_spans(spans: list[Span], path: str) -> None:
    """One CSV line per span, times in seconds relative to the first span."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,op\n")
        for index, s in enumerate(spans):
            fh.write(f"{index},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{s.parent},{s.op}\n")
