"""Tests for the benchmark's own arithmetic (``perfbench/benchstats.py``)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchstats import (  # noqa: E402
    highest_supported_percentile,
    median,
    percentile,
    pool_overhead,
    ratio,
    self_times,
    span_counts,
    spawn_overhead,
    unattributed_fraction,
)


def test_median_odd_and_even_samples():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 11)]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 10.0
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)


def test_highest_percentile_keeps_ten_samples_beyond_it():
    # The median needs 20 samples, p90 needs 100, p99 needs 1000.
    assert highest_supported_percentile(19) is None
    assert highest_supported_percentile(20) == 50
    assert highest_supported_percentile(99) == 50
    assert highest_supported_percentile(100) == 90
    assert highest_supported_percentile(200) == 95
    assert highest_supported_percentile(1000) == 99


def test_ratio_with_zero_base_is_zero():
    assert ratio(3, 4) == 0.75
    assert ratio(0, 0) == 0.0
    assert ratio(5, 0) == 0.0


def test_self_time_subtracts_direct_children_only():
    # step(10) -> agents(4) -> execute(1); step -> mine(3); a second step(2).
    spans = [
        (1, None, "engine.step", 10.0),
        (2, 1, "engine.agents", 4.0),
        (3, 2, "chain.execute", 1.0),
        (4, 1, "engine.mine", 3.0),
        (5, None, "engine.step", 2.0),
    ]
    selfs = self_times(spans)
    assert selfs["engine.step"] == pytest.approx((10.0 - 4.0 - 3.0) + 2.0)
    assert selfs["engine.agents"] == pytest.approx(3.0)
    assert selfs["chain.execute"] == pytest.approx(1.0)
    assert selfs["engine.mine"] == pytest.approx(3.0)
    # Self times partition the top-level spans' durations.
    assert sum(selfs.values()) == pytest.approx(12.0)
    assert span_counts(spans) == {"engine.step": 2, "engine.agents": 1, "chain.execute": 1, "engine.mine": 1}


def test_unattributed_counts_container_self_time_and_time_outside_spans():
    selfs = {"engine.step": 1.0, "engine.agents": 5.0, "engine.mine": 2.0}
    # wall 10: 2 s outside any span plus 1 s of engine.step's own time.
    assert unattributed_fraction(10.0, selfs, "engine.step") == pytest.approx(0.3)
    assert unattributed_fraction(0.0, {}, "engine.step") == 0.0


def test_pool_overhead_is_worker_seconds_beyond_the_runs():
    assert pool_overhead(10.0, 2, [4.0, 5.0, 6.0]) == pytest.approx(5.0)
    assert pool_overhead(3.0, 2, []) == pytest.approx(6.0)


def test_spawn_overhead_is_latency_minus_queue_and_run():
    assert spawn_overhead(4.5, 2.3, 1.7) == pytest.approx(0.5)
    assert spawn_overhead(1.0, 0.0, 1.0) == pytest.approx(0.0)
