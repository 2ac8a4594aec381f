"""In-memory span recording for the traced benchmark run.

Spans are recorded from outside the program: the tracer replaces a layer's
public function, as bound in the namespace of the module that calls it, with
a wrapper that opens a span around the call. Spans are kept in memory and
summarised when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class Site:
    """One binding to wrap: ``module.attr`` opens a span called ``name``
    (or ``name(args, kwargs)`` when it is callable). ``after(tracer, args,
    kwargs, result)`` records counters once the span has closed."""

    module: str
    attr: str
    name: object
    after: object = None


class _Frame:
    __slots__ = ("base", "peak", "owner")

    def __init__(self, base, owner):
        self.base = base
        self.peak = base
        self.owner = owner


class Tracer:
    """Records spans and counters for the passes of one traced run.

    Spans whose name starts with one of ``memory_prefixes`` also record their
    tracemalloc peak above the allocation level at their start. tracemalloc
    runs only while such a span is open, because tracing every allocation
    slows allocation-heavy layers such as serialization several times over.
    """

    def __init__(self, memory_prefixes=()):
        self.memory_prefixes = tuple(memory_prefixes)
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.pass_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._memory: list[_Frame] = []
        self._next_id = 0

    def _memory_enter(self) -> _Frame:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            return _Frame(0, owner=True)
        current, peak = tracemalloc.get_traced_memory()
        if self._memory:
            self._memory[-1].peak = max(self._memory[-1].peak, peak)
        tracemalloc.reset_peak()
        return _Frame(current, owner=False)

    def _memory_exit(self, frame: _Frame) -> int:
        frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
        if self._memory:
            self._memory[-1].peak = max(self._memory[-1].peak, frame.peak)
        if frame.owner:
            tracemalloc.stop()
        return frame.peak - frame.base

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = self._memory_enter() if name.startswith(self.memory_prefixes) else None
        if frame is not None:
            self._memory.append(frame)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            peak = 0
            if frame is not None:
                self._memory.pop()
                peak = self._memory_exit(frame)
            self.spans.append(Span(sid, name, start, end, parent, self.pass_id, peak))

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self, sites):
        """Wrap every site for the duration of the block.

        A site whose module or attribute no longer exists is skipped and
        listed in ``missing``; its spans and counters then read zero."""
        originals = []
        try:
            for site in sites:
                try:
                    module = importlib.import_module(site.module)
                except ImportError:
                    module = None
                fn = getattr(module, site.attr, None)
                if fn is None:
                    label = f"{site.module}.{site.attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                originals.append((module, site.attr, fn))
                setattr(module, site.attr, self.wrap(fn, site.name, site.after))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, cursor, s.start), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = s.duration - covered
    return out


def layer_self_times(spans) -> dict[str, float]:
    selfs = self_times(spans)
    out: defaultdict = defaultdict(float)
    for s in spans:
        out[s.layer] += selfs[s.id]
    return dict(out)


def total(spans, name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def peak_mb(spans, layer_or_name: str) -> float:
    peaks = [s.peak_bytes for s in spans
             if s.name == layer_or_name or s.layer == layer_or_name]
    return max(peaks, default=0) / MB
