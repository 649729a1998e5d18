"""Benchmark — aggregate-valuation throughput: book-backed vs scalar walk.

This measures the cost behind the paper's headline tables and every archive
snapshot: total collateral (TVL), total outstanding debt and the per-position
health factors of a whole protocol.  A 5k-position Aave-style pool (the
:mod:`test_scan_throughput` world) is valued both ways:

* ``scalar`` — the :mod:`repro.reference` walks: per-position USD-value
  dictionaries, one pass per aggregate;
* ``vectorized`` — ``LendingProtocol.valuation()``: one cached
  :class:`~repro.core.position_book.BookValuation` whose *pinned* reductions
  (exact per-term products, scalar fixup of rows with ≥ 3 nonzero entries,
  row-order accumulation) are **bit-identical** to the scalar walk — the
  benchmark asserts the equality exactly, not approximately.

Between iterations a realistic fraction of positions is mutated so the
vectorized timing includes steady-state dirty-row syncing and a cold
valuation cache, not a free cache hit.

With ``BENCH_RECORD=1`` the result is written to ``BENCH_valuation.json`` at
the repo root; the 3× floor is asserted only under ``BENCH_ENFORCE=1`` (the
dedicated CI benchmark job), mirroring ``test_scan_throughput``.
"""

from __future__ import annotations

import json
import os
import platform
import time
import warnings
from pathlib import Path

import numpy as np

from conftest import write_bench_record

from repro import reference

from test_scan_throughput import CHURN_FRACTION, N_POSITIONS, ROUNDS, build_world, churn

SPEEDUP_FLOOR = 3.0

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_valuation.json"


def scalar_aggregate_walk(protocol):
    """The snapshot aggregates walked per position: totals plus every health factor."""
    prices = protocol.prices()
    thresholds = protocol.liquidation_thresholds()
    health = [p.health_factor(prices, thresholds) for p in protocol.positions.values()]
    return reference.total_collateral_usd(protocol), reference.total_debt_usd(protocol), health


def book_aggregate_walk(protocol):
    """The same aggregates through one shared, pinned BookValuation."""
    valuation = protocol.valuation()
    return (
        valuation.pinned_total_collateral_usd(),
        valuation.pinned_total_debt_usd(),
        valuation.pinned_health_factors(),
    )


def time_walks(walk, protocol, rng, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        churn(protocol, rng)  # busts the valuation cache via the book revision
        start = time.perf_counter()
        walk(protocol)
        best = min(best, time.perf_counter() - start)
    return best


def test_book_valuation_speedup():
    protocol, rng = build_world()
    protocol.valuation()  # initial full sync, outside the timing

    scalar_totals = scalar_aggregate_walk(protocol)
    book_totals = book_aggregate_walk(protocol)
    # Bit-identical, not approximately equal: the pinned reductions resolve
    # the float-sum-order question instead of papering over it.
    assert book_totals[0] == scalar_totals[0]
    assert book_totals[1] == scalar_totals[1]
    assert book_totals[2] == scalar_totals[2]

    scalar_s = time_walks(scalar_aggregate_walk, protocol, rng)
    vector_s = time_walks(book_aggregate_walk, protocol, rng)
    speedup = scalar_s / vector_s

    ambiguous = len(protocol.valuation().ambiguous_rows)
    record = {
        "benchmark": "valuation_throughput",
        "n_positions": N_POSITIONS,
        "n_assets": len(protocol.book.assets),
        "ambiguous_rows": ambiguous,
        "churn_fraction": CHURN_FRACTION,
        "rounds": ROUNDS,
        "scalar_seconds": scalar_s,
        "vectorized_seconds": vector_s,
        "speedup": speedup,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if os.environ.get("BENCH_RECORD"):
        write_bench_record(BENCH_PATH, record)

    message = (
        f"book valuation only {speedup:.1f}x faster than the scalar walk "
        f"({vector_s * 1e3:.2f} ms vs {scalar_s * 1e3:.2f} ms)"
    )
    if os.environ.get("BENCH_ENFORCE"):
        assert speedup >= SPEEDUP_FLOOR, message
    elif speedup < SPEEDUP_FLOOR:
        warnings.warn(message)
