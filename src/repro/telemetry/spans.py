"""Tracing spans: nested wall-clock timings with Chrome trace export.

A :class:`Tracer` records *spans* — named wall-clock intervals that nest::

    with tracer.span("engine.step"):
        with tracer.span("engine.scan"):
            ...

Each completed span becomes a :class:`SpanRecord` carrying its name, start
offset, duration, nesting depth, parent id and the accumulated duration of
its direct children (so *self time* — time in the span but outside any child
— falls out by subtraction).  Two consumers read the records:

* :func:`aggregate_spans` / :func:`render_phase_report` — the per-phase
  timing breakdown behind ``repro trace``;
* :meth:`Tracer.chrome_trace` — Chrome trace-event JSON (the ``"X"``
  complete-event form), loadable in ``chrome://tracing`` / Perfetto.

The tracer is engineered for the engine's hot path: starting a span is one
``perf_counter_ns`` call, an object allocation and a list append; ending it
is one more clock read plus arithmetic.  When telemetry is disabled the
engine never reaches this module at all (see
:mod:`repro.telemetry.runtime`).
"""

from __future__ import annotations

import json
import os
import time
from types import TracebackType
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "SpanRecord",
    "Tracer",
    "aggregate_spans",
    "render_phase_report",
]


@dataclass(slots=True)
class SpanRecord:
    """One completed span, in completion order."""

    name: str
    start_ns: int  # offset from the tracer's epoch
    duration_ns: int
    depth: int  # 0 for top-level spans
    span_id: int
    parent_id: int | None
    child_ns: int  # summed duration of direct children
    args: Mapping[str, Any] | None = None

    @property
    def self_ns(self) -> int:
        """Time spent in the span itself, outside any child span."""
        return self.duration_ns - self.child_ns


class _OpenSpan:
    """Context manager for one in-flight span (internal to :class:`Tracer`)."""

    __slots__ = ("tracer", "name", "args", "span_id", "start_ns", "child_ns")

    def __init__(self, tracer: "Tracer", name: str, args: Mapping[str, Any] | None) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args
        self.child_ns = 0

    def __enter__(self) -> "_OpenSpan":
        tracer = self.tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        tracer._stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        end_ns = time.perf_counter_ns()
        tracer = self.tracer
        stack = tracer._stack
        if not stack or stack[-1] is not self:
            raise RuntimeError(f"span {self.name!r} exited out of order")
        stack.pop()
        duration_ns = end_ns - self.start_ns
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_ns += duration_ns
        tracer.records.append(
            SpanRecord(
                name=self.name,
                start_ns=self.start_ns - tracer.epoch_ns,
                duration_ns=duration_ns,
                depth=len(stack),
                span_id=self.span_id,
                parent_id=parent.span_id if parent is not None else None,
                child_ns=self.child_ns,
                args=self.args,
            )
        )


class Tracer:
    """Collects nested span timings for one run."""

    def __init__(self) -> None:
        self.epoch_ns = time.perf_counter_ns()
        self.records: list[SpanRecord] = []
        self._stack: list[_OpenSpan] = []
        self._next_id = 0
        self.pid = os.getpid()

    def __len__(self) -> int:
        return len(self.records)

    def span(self, name: str, args: Mapping[str, Any] | None = None) -> _OpenSpan:
        """A context manager timing one named, nestable interval."""
        return _OpenSpan(self, name, args)

    @property
    def depth(self) -> int:
        """Current nesting depth (0 outside any span)."""
        return len(self._stack)

    def chrome_trace(self) -> dict[str, Any]:
        """The records as a Chrome trace-event JSON object.

        One ``"ph": "X"`` (complete) event per span, timestamps in
        microseconds from the tracer's epoch; load the serialised form in
        ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        events = [
            {
                "name": record.name,
                "ph": "X",
                "ts": record.start_ns / 1000.0,
                "dur": record.duration_ns / 1000.0,
                "pid": self.pid,
                "tid": 0,
                "cat": record.name.partition(".")[0],
                "args": dict(record.args) if record.args else {},
            }
            for record in self.records
        ]
        events.sort(key=lambda event: event["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Serialise :meth:`chrome_trace` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")


def aggregate_spans(records: list[SpanRecord]) -> dict[str, dict[str, float]]:
    """Per-name aggregates: count, total/self seconds, mean/max milliseconds.

    Keys are span names; the dict is insertion-ordered by each name's first
    appearance, which follows the engine's phase order.
    """
    out: dict[str, dict[str, float]] = {}
    for record in records:
        entry = out.get(record.name)
        if entry is None:
            entry = out[record.name] = {
                "count": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "max_ms": 0.0,
            }
        entry["count"] += 1
        entry["total_seconds"] += record.duration_ns / 1e9
        entry["self_seconds"] += record.self_ns / 1e9
        entry["max_ms"] = max(entry["max_ms"], record.duration_ns / 1e6)
    for entry in out.values():
        entry["mean_ms"] = entry["total_seconds"] * 1e3 / entry["count"]
    return out


def render_phase_report(records: list[SpanRecord], *, wall_seconds: float | None = None) -> str:
    """The per-phase timing breakdown table of ``repro trace``.

    Phases sort by self time (where the wall-clock actually went), and the
    ``%`` column is self time over the total observed wall-clock.  A last
    ``unattributed`` row holds the wall-clock outside every span (wall time
    minus the summed self times), so the self column sums to the wall time
    and the ``%`` column to 100.
    """
    aggregates = aggregate_spans(records)
    if not aggregates:
        return "no spans recorded\n"
    attributed = sum(entry["self_seconds"] for entry in aggregates.values())
    if wall_seconds is None:
        wall_seconds = attributed
    unattributed = wall_seconds - attributed
    width = max(len(name) for name in (*aggregates, "unattributed"))
    lines = [
        f"{'phase':<{width}}  {'count':>7}  {'total s':>9}  {'self s':>9}  "
        f"{'mean ms':>9}  {'max ms':>9}  {'% self':>7}"
    ]
    ordered = sorted(aggregates.items(), key=lambda item: item[1]["self_seconds"], reverse=True)
    for name, entry in ordered:
        share = 100.0 * entry["self_seconds"] / wall_seconds if wall_seconds > 0 else 0.0
        lines.append(
            f"{name:<{width}}  {entry['count']:>7}  {entry['total_seconds']:>9.3f}  "
            f"{entry['self_seconds']:>9.3f}  {entry['mean_ms']:>9.3f}  "
            f"{entry['max_ms']:>9.3f}  {share:>6.1f}%"
        )
    share = 100.0 * unattributed / wall_seconds if wall_seconds > 0 else 0.0
    lines.append(
        f"{'unattributed':<{width}}  {'':>7}  {'':>9}  {unattributed:>9.3f}  "
        f"{'':>9}  {'':>9}  {share:>6.1f}%"
    )
    return "\n".join(lines) + "\n"
