"""Span recording and the small statistics the benchmark reports.

Spans are recorded by the benchmark around its calls into each layer,
kept in memory and written out once when the run ends.  A span has a
name (the layer), start and end (``perf_counter`` seconds), the id of
the span that causes it, and a trace id shared by every span of one
operation.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path


class Tracer:
    """In-memory span log of one traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def record(
        self,
        span_id: int,
        name: str,
        trace_id: str,
        parent: int | None,
        start: float,
        end: float,
        **attrs,
    ) -> None:
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "trace_id": trace_id,
                "parent": parent,
                "start": start,
                "end": end,
                **attrs,
            }
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": self.spans}))
        tmp.replace(path)


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return percentile(values, 0.5)
