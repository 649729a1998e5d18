"""Outside-in layer probes for traced iterations.

:func:`instrumented` wraps public methods of the oracle, agent, chain,
core and experiment layers with counting (and, for agents and
experiments, timing) shims for the duration of a ``with`` block, then
restores the originals.  Nothing under ``src/`` changes: the wrappers call
straight through, so the simulated world and its outputs are unchanged.
Only traced iterations use them; untraced iterations never import this
module.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.agents import (
    ArbitrageurAgent,
    AuctionKeeperAgent,
    BorrowerAgent,
    LenderAgent,
    LiquidatorAgent,
)
from repro.chain.chain import Blockchain
from repro.chain.mempool import Mempool
from repro.chain.transaction import TxKind, TxStatus
from repro.core.position_book import PositionBook
from repro.experiments import runner
from repro.oracle import PriceFeed, PriceOracle

#: Metric suffix per agent class, as the per-layer metric names use them.
AGENT_CLASSES = {
    "Borrower": BorrowerAgent,
    "Liquidator": LiquidatorAgent,
    "Keeper": AuctionKeeperAgent,
    "Lender": LenderAgent,
    "Arbitrageur": ArbitrageurAgent,
}


@contextmanager
def instrumented() -> Iterator[dict[str, float]]:
    """Wrap the layer entry points; yields the ``{metric: value}`` they fill."""
    counts: dict[str, float] = defaultdict(float)
    originals: list[tuple[type | object, str, object]] = []

    def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def counting(metric: str):
        def make(original):
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    def summing_result(metric: str):
        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[metric] += result
                return result

            return wrapper

        return make

    def timed_act(name: str):
        calls, busy = f"agents.act_calls.{name}", f"agents.act_s.{name}"

        def make(original):
            def act(self, engine):
                started = time.perf_counter()
                try:
                    return original(self, engine)
                finally:
                    counts[busy] += time.perf_counter() - started
                    counts[calls] += 1

            return act

        return make

    def mined(original):
        def mine_block(self):
            block = original(self)
            for receipt in block.receipts:
                if receipt.kind is TxKind.LIQUIDATION:
                    counts["chain.liquidation_txs"] += 1
                    if receipt.status is TxStatus.SUCCESS:
                        counts["chain.liquidations_succeeded"] += 1
            return block

        return mine_block

    def selected(original):
        def select_for_block(self, *args, **kwargs):
            chosen = original(self, *args, **kwargs)
            counts["chain.txs_mined"] += len(chosen)
            return chosen

        return select_for_block

    def experiment(original):
        def run_one(result, experiment_id, records=None):
            started = time.perf_counter()
            try:
                return original(result, experiment_id, records)
            finally:
                counts[f"experiments.{experiment_id}_s"] += time.perf_counter() - started

        return run_one

    try:
        patch(PriceFeed, "step_for_block", counting("oracle.feed_step_calls"))
        patch(PriceOracle, "update_from_feed", counting("oracle.update_calls"))
        patch(PriceOracle, "price_at", counting("oracle.price_at_calls"))
        for name, cls in AGENT_CLASSES.items():
            patch(cls, "act", timed_act(name))
        patch(Blockchain, "submit", counting("chain.txs_submitted"))
        patch(Blockchain, "mine_block", mined)
        patch(Mempool, "select_for_block", selected)
        patch(Mempool, "sweep_expired", summing_result("chain.mempool_swept"))
        patch(PositionBook, "sync", summing_result("core.book_sync_rows"))
        patch(runner, "run_one", experiment)
        yield counts
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def valuation_cache(snapshot: dict[str, float]) -> tuple[float, float]:
    """``(hits, builds)`` from a registry snapshot's valuation-cache series."""
    hits = builds = 0.0
    for series, value in snapshot.items():
        if series.startswith("repro_valuation_cache_total{"):
            if 'outcome="hit"' in series:
                hits += value
            elif 'outcome="build"' in series:
                builds += value
    return hits, builds
