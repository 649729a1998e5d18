"""The benchmark's own arithmetic: order statistics, span self time, ratios.

Pure functions over plain numbers and tuples, so they are unit-tested
without running any workload (see ``tests/test_perfbench_stats.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Mapping, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it, so its value rests on more than a couple of outliers.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100), linearly interpolated between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def highest_supported_percentile(
    n: int, candidates: Iterable[float] = (50, 90, 95, 99, 99.9)
) -> float | None:
    """The highest candidate percentile with ``MIN_TAIL_SAMPLES`` samples beyond it.

    With ``n`` samples, ``n * (1 - q/100)`` of them lie above the ``q``-th
    percentile; ``None`` when even the median lacks that support.
    """
    best = None
    for q in sorted(candidates):
        if n * (1.0 - q / 100.0) >= MIN_TAIL_SAMPLES - 1e-9:
            best = q
    return best


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the base is zero.

    A zero base means the layer did no work of that kind in the run; the
    base is always reported next to the ratio so 0.0 is never ambiguous.
    """
    if denominator == 0:
        return 0.0
    return float(numerator) / float(denominator)


def self_times(spans: Iterable[tuple[int, int | None, str, float]]) -> dict[str, float]:
    """Per-name self time from nested spans.

    Each span is ``(span_id, parent_id, name, duration)``.  A span's self
    time is its duration minus the durations of its direct children; the
    result sums self time per span name.
    """
    spans = list(spans)
    child_total: dict[int, float] = {}
    for _span_id, parent_id, _name, duration in spans:
        if parent_id is not None:
            child_total[parent_id] = child_total.get(parent_id, 0.0) + duration
    out: dict[str, float] = {}
    for span_id, _parent_id, name, duration in spans:
        out[name] = out.get(name, 0.0) + duration - child_total.get(span_id, 0.0)
    return out


def span_counts(spans: Iterable[tuple[int, int | None, str, float]]) -> dict[str, int]:
    """How many spans of each name were recorded."""
    out: dict[str, int] = {}
    for _span_id, _parent_id, name, _duration in spans:
        out[name] = out.get(name, 0) + 1
    return out


def unattributed_fraction(wall: float, self_by_name: Mapping[str, float], container: str) -> float:
    """Share of ``wall`` outside every named phase.

    ``container`` is the span that only groups phases (``engine.step``):
    its own self time is time no phase claimed, so it counts as
    unattributed along with the time outside any span.
    """
    attributed = sum(seconds for name, seconds in self_by_name.items() if name != container)
    return ratio(wall - attributed, wall)


def pool_overhead(wall: float, workers: int, busy: Iterable[float]) -> float:
    """Worker-seconds a pool paid beyond the runs themselves.

    ``wall × workers − Σ run elapsed``: start-up, dispatch, idle slots and
    any serialization between runs.
    """
    return wall * workers - sum(busy)


def spawn_overhead(latency: float, queue_wait: float, worker_run: float) -> float:
    """Client-seen latency not spent queued or executing the run itself."""
    return latency - queue_wait - worker_run
