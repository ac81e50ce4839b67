"""In-memory span recorder used by the traced benchmark run.

A span is (name, start, end, parent): ``parent`` is the index of the
span that was open when this one started, or -1 at the top level.  The
recorder is single-threaded, like the package it wraps, so child spans
nest strictly inside their parent and a span's self time is its
duration minus the durations of its direct children.

Nothing here imports the package under test: wrappers are built from
plain callables, so the tests can exercise them on toy functions.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Collects spans and named counters until the run ends."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, self.clock(), 0.0, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            _, start, _, _ = self.spans[idx]
            self.spans[idx] = (name, start, self.clock(), parent)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` runs outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, on_item=None):
        """Generator function whose consumption is timed, one span per item.

        Calling a generator function does no work, so the span covers
        each ``next`` on the underlying generator; the consumer's work
        between items stays outside it.  ``on_item(args, kwargs, item)``
        runs outside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                if on_item is not None:
                    on_item(args, kwargs, item)
                yield item

        return traced


def self_times(spans) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def totals(spans, key: str, selfs=None) -> tuple[int, float, float]:
    """(count, total seconds, self seconds) of the spans named ``key``.

    A key ending in "." selects every span under that prefix, e.g.
    "tuner." for the whole layer.
    """
    if selfs is None:
        selfs = self_times(spans)
    n, total, own = 0, 0.0, 0.0
    for (name, start, end, _), s in zip(spans, selfs):
        if name == key or (key.endswith(".") and name.startswith(key)):
            n += 1
            total += end - start
            own += s
    return n, total, own


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
