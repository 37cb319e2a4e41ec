"""In-memory span recorder and the arithmetic the benchmark reports with.

The tracer wraps functions from the outside: it replaces module and class
attributes with timing wrappers and puts the originals back afterwards, so
the program under test carries no tracing code of its own.  Every call
into a wrapped function records one span (name, start, end, parent,
request); spans stay in memory until the benchmark writes them out once
at the end.  Calls run in one thread, so spans nest strictly and the open
spans form a stack.
"""

from __future__ import annotations

import functools
import gzip
import math
import time
from collections import Counter
from typing import Any, Callable, Iterable, Sequence

# a span is [name, start, end, parent index or -1, request id]
NAME, START, END, PARENT, REQUEST = range(5)

# percentiles in parts per 100 000, so the ten-beyond test is exact
_LADDER = (50_000, 90_000, 99_000, 99_900, 99_990, 99_999)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of n samples beyond it.

    A sample lies beyond percentile p when its nearest rank exceeds
    ceil(p * n).  Returns None when even the median has fewer than ten
    samples beyond it (n < 20).
    """
    best = None
    for q in _LADDER:
        rank = -(-n * q // 100_000)
        if n - rank >= 10:
            best = q / 1000
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
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


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        kids = [(max(a, start), min(b, end)) for a, b in children.get(i, ()) if b > start and a < end]
        out.append((end - start) - union_length(kids))
    return out


class Tracer:
    """Wraps named callables, records their spans, and counts exceptions.

    ``counters`` maps a request id to a dict that count hooks update; a
    hook is called as ``hook(counters, args, kwargs, result)`` after a
    wrapped call returns.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.counters: dict[int, dict[str, Any]] = {}
        self.exceptions: Counter[str] = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def begin(self, request: int) -> None:
        """Attribute the spans and counts that follow to one request."""
        self.request = request
        self.counters[request] = {}

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        layer = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.exceptions[layer] += 1
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters[self.request], args, kwargs, result)
            return result

        return traced

    def patch_function(self, modules: Iterable[Any], fn: Callable, name: str,
                       hook: Callable | None = None) -> int:
        """Replace fn under every name it is bound to in the given modules."""
        wrapped = self.wrap(name, fn, hook)
        sites = [(mod, key) for mod in modules for key, value in vars(mod).items() if value is fn]
        for mod, key in sites:
            self._set(mod, key, wrapped)
        return len(sites)

    def patch_method(self, cls: type, attr: str, name: str, hook: Callable | None = None) -> None:
        """Wrap a plain function or classmethod defined on a class.

        A hook on a classmethod sees the class as its first argument.
        """
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, hook)))
        else:
            self._set(cls, attr, self.wrap(name, raw, hook))

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Put back every attribute this tracer replaced."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write(self, path: str) -> None:
        """Write all spans as gzipped CSV: name,start,end,parent,request."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name,start,end,parent,request\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{request}\n")
