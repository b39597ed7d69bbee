"""In-memory span tracer driven from the benchmark's side of each boundary.

The program is not edited: :meth:`Tracer.wrap` replaces a public method on an
instance, class or module with a wrapper that records one span per call, and
:meth:`Tracer.restore` puts the originals back.  A span is ``name, start,
end, parent, request`` plus ``work``, the count of items the call handled, so
ratios (ms per mention, pairs per second) are measured where the work
happens.  Parents are per thread: a span's parent is the span open on the
same thread when it started.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    #: Identifier shared by the spans of one request (a mention id).
    request: Optional[str] = None
    #: Items handled by the call (mentions, rows, pairs, entities).
    work: int = 1
    #: Request ids carried by a batched call (``pipeline.link``).
    requests: Tuple[str, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, bool, object]] = []

    # -- recording ------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        request: Optional[str] = None,
        work: int = 1,
        requests: Sequence[str] = (),
    ) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        record = Span(
            span_id=next(self._ids), name=name, start=time.perf_counter(), end=0.0,
            parent=stack[-1] if stack else None,
            request=request, work=work, requests=tuple(requests),
        )
        stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic under the GIL

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        request: Optional[Callable[..., Optional[str]]] = None,
        work: Optional[Callable[..., int]] = None,
        requests: Optional[Callable[..., Sequence[str]]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``request`` / ``work`` / ``requests`` derive the span's fields from
        the call's arguments (``self`` excluded for instance attributes,
        included for class attributes).
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(
                name,
                request=request(*args, **kwargs) if request else None,
                work=work(*args, **kwargs) if work else 1,
                requests=requests(*args, **kwargs) if requests else (),
            ):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def wrap_stage(self, stages: List[object], position: int) -> None:
        """Replace ``stages[position]`` with a traced stand-in (same ``name``)."""
        stages[position] = _TracedStage(self, stages[position])

    def restore(self) -> None:
        """Undo every :meth:`wrap` (class and module patches outlive a run otherwise)."""
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- analysis -------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result: Dict[int, float] = {}
        for span in self.spans:
            covered = _union_length(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.span_id, ())]
            )
            result[span.span_id] = span.duration - covered
        return result

    def span_cost(self, samples: int = 2000) -> float:
        """Median seconds one empty span costs here, measured off the record."""
        scratch = Tracer()
        costs = []
        for _ in range(samples):
            started = time.perf_counter()
            with scratch.span("calibrate"):
                pass
            costs.append(time.perf_counter() - started)
        costs.sort()
        return costs[len(costs) // 2]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                row = {"id": span.span_id, "name": span.name, "start": span.start,
                       "end": span.end, "parent": span.parent, "work": span.work}
                if span.request is not None:
                    row["request"] = span.request
                if span.requests:
                    row["requests"] = list(span.requests)
                handle.write(json.dumps(row) + "\n")


class _TracedStage:
    """A pipeline stage callable recorded as ``stage.<name>``."""

    def __init__(self, tracer: Tracer, stage) -> None:
        self._tracer = tracer
        self._stage = stage
        self.name = stage.name

    def __call__(self, batch):
        with self._tracer.span(f"stage.{self.name}", work=len(batch)):
            return self._stage(batch)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
