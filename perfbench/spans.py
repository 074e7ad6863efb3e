"""In-memory spans and the interval arithmetic behind the per-layer metrics."""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of each wrapped function.

    A span's parent is the innermost span open on the same thread when it
    started. Spans stay in memory until ``write`` is called.
    """

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Span, tuple, object], None]] = None,
    ) -> Callable:
        """Return ``fn`` timed as span ``name``; ``on_result`` may add attrs."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                id=next(tracer._ids),
                name=name,
                start=time.perf_counter(),
                end=0.0,
                parent=stack[-1].id if stack else None,
                thread=threading.get_ident(),
                run=tracer.run,
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
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


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus the part of it that its children cover."""
    covered = union_length(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    )
    return span.duration - covered


def percentile(values: Iterable[float], q: float) -> tuple[float, int]:
    """The ``q``-th percentile (linear interpolation) and the sample count."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, len(ordered)
