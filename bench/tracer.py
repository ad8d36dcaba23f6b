"""In-memory span recorder for the traced benchmark run (standard library only).

A span is (name, start, end, parent, op, attrs): `parent` is the index of the
enclosing span or None, `op` the benchmark operation that caused it.  Spans
are kept in a list and written out once, when the run ends.  Wrapping is
explicit and reversible: `Recorder.install` swaps module attributes for
recording wrappers and `Recorder.uninstall` puts the originals back, so the
untraced timing path runs the program's own functions, unwrapped.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple

Observer = Callable[[tuple, dict, Any], dict]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: Any
    attrs: dict


class Recorder:
    """Records nested spans of one thread; the current op id tags each span."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op: Any = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """A wrapper of `fn` that records one span per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, {})
            if observe is not None:
                spans[index].attrs.update(observe(args, kwargs, result))
            return result

        traced.__bench_traced__ = True
        return traced

    def install(
        self, targets: Iterable[tuple[object, str, str, Observer | None]], module_prefix: str
    ) -> None:
        """Wrap each (owner, attribute, span name, observer) target.

        The wrapper replaces the attribute on its owner and every other
        reference to the same function held by a loaded module whose name
        starts with `module_prefix`, since `from x import f` copies the name.
        """
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(module_prefix) and m]
        for owner, attr, name, observe in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, observe)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def finished(self) -> list[Span]:
        """All spans; parent indices refer to positions in this list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        return list(self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlap, so the children of a span
    cover disjoint parts of its interval.
    """
    child_total = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.end - s.start
    return [s.end - s.start - child_total[i] for i, s in enumerate(spans)]


def is_traced(fn: object) -> bool:
    return getattr(fn, "__bench_traced__", False)
