"""Benchmark — opportunity-scan throughput: columnar book vs scalar sweep.

This measures the step the simulation pays on *every* block stride: deciding
which positions are liquidatable (HF < 1) before the expensive per-candidate
quote step.  A 5k-position Aave-style pool is scanned both ways:

* ``scalar`` — :func:`repro.reference.liquidatable_candidates`, the
  per-position sweep over USD-value dictionaries;
* ``vectorized`` — ``PositionBook.scan`` with dirty-row tracking plus the
  scalar confirmation of flagged rows (exactly the engine's default path).

Between iterations a realistic fraction of positions is mutated so the
vectorized timing includes steady-state dirty-row syncing, not just a cached
matrix product.

With ``BENCH_RECORD=1`` the result is written to ``BENCH_scan.json`` at the
repo root (a seed record is committed; CI regenerates and uploads it as an
artifact) — by default nothing is written, so plain test runs leave the
working tree clean.  The 3× floor is asserted only under ``BENCH_ENFORCE=1``
(set in the dedicated CI benchmark job): shared tier-1 runners are too noisy
to gate the whole matrix on a timing, as ``test_campaign_throughput``
already learned.  Observed speedups are far above the floor (~7× on a dev
container).
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
from repro.chain.chain import Blockchain
from repro.chain.types import make_address
from repro.protocols.aave import AAVE_MARKETS, AaveProtocol
from repro.tokens.registry import TokenRegistry

N_POSITIONS = 5_000
#: Fraction of positions mutated between scans (steady-state dirty load).
CHURN_FRACTION = 0.02
ROUNDS = 5
SPEEDUP_FLOOR = 3.0

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_scan.json"


class _FrozenOracle:
    """Constant-price oracle: the scan cost is what is being measured."""

    def __init__(self, prices: dict[str, float]) -> None:
        self._prices = prices

    def price(self, symbol: str) -> float:
        return self._prices.get(symbol.upper(), 1.0)


def build_world(n_positions: int = N_POSITIONS, seed: int = 20_210_421):
    rng = np.random.default_rng(seed)
    chain = Blockchain()
    registry = TokenRegistry()
    symbols = list(AAVE_MARKETS)
    prices = {symbol: float(price) for symbol, price in zip(symbols, rng.uniform(0.5, 2_500.0, len(symbols)))}
    protocol = AaveProtocol(chain, _FrozenOracle(prices), registry)
    thresholds = protocol.liquidation_thresholds()
    for i in range(n_positions):
        position = protocol.position_of(make_address(f"bench-user-{i}"))
        for symbol in rng.choice(symbols, size=rng.integers(1, 4), replace=False):
            position.add_collateral(symbol, float(rng.uniform(1.0, 50.0)))
        capacity = position.borrowing_capacity(prices, thresholds)
        debt_symbol = symbols[int(rng.integers(0, len(symbols)))]
        # Target HF in [0.95, 1.75]: ~6 % of the book is liquidatable, like a
        # post-crash step of the study window.
        target_hf = float(rng.uniform(0.95, 1.75))
        position.add_debt(debt_symbol, capacity / target_hf / prices[debt_symbol])
    return protocol, rng


def churn(protocol, rng) -> None:
    """Touch a fraction of positions, as agent activity does every stride."""
    rows = rng.integers(0, len(protocol.positions), size=int(len(protocol.positions) * CHURN_FRACTION))
    positions = list(protocol.positions.values())
    for row in rows:
        position = positions[int(row)]
        symbol = next(iter(position.collateral), None)
        if symbol is not None:
            position.add_collateral(symbol, 0.0)


def time_scans(scan, protocol, rng, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        churn(protocol, rng)
        start = time.perf_counter()
        scan(protocol)
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_scan_speedup():
    protocol, rng = build_world()
    protocol.liquidatable_candidates()  # initial full sync, outside the timing

    scalar_found = reference.liquidatable_candidates(protocol)
    vector_found = protocol.liquidatable_candidates()
    assert vector_found == scalar_found  # identical objects, identical order
    assert len(scalar_found) > 100  # the workload actually has candidates

    scalar_s = time_scans(reference.liquidatable_candidates, protocol, rng)
    vector_s = time_scans(lambda p: p.liquidatable_candidates(), protocol, rng)
    speedup = scalar_s / vector_s

    record = {
        "benchmark": "scan_throughput",
        "n_positions": N_POSITIONS,
        "n_assets": len(protocol.book.assets),
        "liquidatable": len(scalar_found),
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
        f"columnar scan only {speedup:.1f}x faster than scalar "
        f"({vector_s * 1e3:.2f} ms vs {scalar_s * 1e3:.2f} ms)"
    )
    if os.environ.get("BENCH_ENFORCE"):
        assert speedup >= SPEEDUP_FLOOR, message
    elif speedup < SPEEDUP_FLOOR:
        warnings.warn(message)
