"""In-memory span tracer for the benchmark's traced runs.

A span is one ``(name, start, end, parent)`` record plus the tracemalloc
peak it reached above its starting usage; counters are plain numbers.
Everything stays in memory until the run ends and :meth:`Tracer.dump`
writes it out.

Layers are timed from outside the library: the benchmark opens spans
around the calls it makes, and :meth:`Tracer.wrap` swaps a public
function or method for a spanning wrapper for the length of a traced
pass, so calls the library makes internally are timed too.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Any, ContextManager, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    peak_bytes: int  # tracemalloc peak above the span's starting usage

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans, counters and a tracemalloc peak per span, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []  # indices of the open spans, innermost last
        self._base: list[int] = []  # traced bytes when each open span began
        self._peak: list[int] = []  # running absolute peak of each open span
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        current, peak = tracemalloc.get_traced_memory()
        if self._peak:
            self._peak[-1] = max(self._peak[-1], peak)
        tracemalloc.reset_peak()
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, 0))
        self._open.append(index)
        self._base.append(current)
        self._peak.append(current)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _, peak = tracemalloc.get_traced_memory()
            top = max(self._peak.pop(), peak)
            span = self.spans[index]
            span.start, span.end = start, end
            span.peak_bytes = top - self._base.pop()
            self._open.pop()
            if self._peak:
                self._peak[-1] = max(self._peak[-1], top)
            tracemalloc.reset_peak()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping public functions ------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` (module function, method,
        classmethod or staticmethod) as a span called ``name``."""
        original = vars(owner)[attr]
        binder = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if binder is not None else original

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return func(*args, **kwargs)

        setattr(owner, attr, binder(traced) if binder is not None else traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, wraps: list[tuple[Any, str, str]]) -> Iterator["Tracer"]:
        """Trace allocations and install ``wraps`` for the enclosed block."""
        tracemalloc.start()
        try:
            for owner, attr, name in wraps:
                self.wrap(owner, attr, name)
            yield self
        finally:
            self.unwrap_all()
            tracemalloc.stop()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(span)
        result = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(index, ()), key=lambda c: c.start):
                lo = max(child.start, reach)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(span.duration - covered)
        return result

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path: str, extra: dict) -> None:
        """Write spans (with self times), counters and ``extra`` as JSON."""
        self_times = self.self_times()
        payload = {
            **extra,
            "counters": self.counters,
            "spans": [
                {**asdict(span), "self": self_times[i]}
                for i, span in enumerate(self.spans)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def maybe_span(tracer: Tracer | None, name: str) -> ContextManager[None]:
    """``tracer.span(name)``, or a no-op context when tracing is off."""
    return tracer.span(name) if tracer is not None else nullcontext()
