"""Layer spans recorded from outside the program, by wrapping its functions.

A ``Tracer`` replaces a function or method with a wrapper that opens a span
around each call.  Each function is patched wherever a caller looks it up:
the defining module or class, and every ``protorecon`` module that bound it
by name (``cli`` imports ``reconstruct_reranked`` and ``evaluate`` that way).
``restore()`` puts every original back, so an untraced run after a traced
one measures the unpatched program.

Spans stay in memory until the run ends.  Leaf functions called hundreds of
thousands of times keep only their durations, not a span record each.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from array import array

TAIL_BEYOND = 10  # the tail percentile must leave at least this many samples above it


def median_rank(n: int) -> int:
    return (n + 1) // 2


def tail_rank(n: int):
    """1-based rank of the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (rank, percentile), or None when that rank would fall below the
    median (fewer than 2 * TAIL_BEYOND samples): a figure under the median
    is not a tail.
    """
    rank = n - TAIL_BEYOND
    if rank < max(median_rank(n), 1):
        return None
    return rank, 100.0 * rank / n


def percentile_ms(sorted_s, rank: int) -> float:
    return 1e3 * sorted_s[rank - 1]


class SpanStats:
    """Calls, wall and self time, and every duration of one span name."""

    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = array("d")

    def summary(self) -> dict:
        out = {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
               "p50_ms": 0.0, "tail_ms": 0.0, "tail_rank": 0, "tail_pct": 0.0}
        if self.calls:
            ordered = sorted(self.durations)
            out["p50_ms"] = percentile_ms(ordered, median_rank(len(ordered)))
            tail = tail_rank(len(ordered))
            if tail is not None:
                out["tail_rank"], out["tail_pct"] = tail
                out["tail_ms"] = percentile_ms(ordered, tail[0])
        return out


class Tracer:
    """Span recorder plus the function patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._open: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 1
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str):
        self._open.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def end(self, keep_span: bool = True):
        span_id, name, start, child_s = self._open.pop()
        stop = self.clock()
        duration = stop - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        stats.durations.append(duration)
        parent_id = 0
        if self._open:
            self._open[-1][3] += duration
            parent_id = self._open[-1][0]
        if keep_span:
            self.spans.append((span_id, parent_id, name, start, stop))

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._open)

    def count(self, name: str, amount: float = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, leaf=False, on_call=None, on_return=None):
        """Trace ``owner.attr`` (a module function or a class method).

        on_call(tracer, args, kwargs) runs before the call and
        on_return(tracer, result) after it, to update counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(keep_span=not leaf)
            if on_return is not None:
                on_return(tracer, result)
            return result

        package = owner.__name__.partition(".")[0] if not isinstance(owner, type) else None
        sites = [owner] if package is None else _package_modules(package)
        for site in sites:
            for site_attr, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, site_attr, original))
                    setattr(site, site_attr, wrapper)
        return wrapper

    def restore(self):
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- output ---------------------------------------------------------------

    def summaries(self) -> dict:
        return {name: stats.summary() for name, stats in sorted(self.stats.items())}

    def write_spans(self, path):
        """Kept spans as JSON lines (start and end in seconds from the first)."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent_id, name, start, stop in sorted(self.spans, key=lambda s: s[3]):
                f.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                    "start_s": start - t0, "end_s": stop - t0}) + "\n")


def _package_modules(package: str) -> list:
    root = importlib.import_module(package)
    return [root] + [importlib.import_module(f"{package}.{m.name}")
                     for m in pkgutil.iter_modules(root.__path__)]
