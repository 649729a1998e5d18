"""Shared fixtures for the test suite.

The expensive fixture is ``small_result``: a full (reduced-scale) scenario
run shared across every integration/analytics test via session scoping, so
the suite stays fast while still exercising the end-to-end pipeline.
"""

from __future__ import annotations

import pytest

from repro.analytics.records import extract_liquidations
from repro.chain.chain import Blockchain, ChainConfig
from repro.oracle.chainlink import OracleConfig, PriceOracle
from repro.oracle.feed import PriceFeed
from repro.scenarios import ScenarioBuilder
from repro.simulation.config import ScenarioConfig
from repro.tokens.registry import default_registry


@pytest.fixture(scope="session")
def small_result():
    """A completed small-scenario simulation (three months around March 2020)."""
    engine = ScenarioBuilder(ScenarioConfig.small(seed=11)).build()
    return engine.run()


@pytest.fixture(scope="session")
def small_records(small_result):
    """Normalised liquidation records extracted from the small scenario."""
    return extract_liquidations(small_result)


@pytest.fixture()
def registry():
    """A fresh default token registry."""
    return default_registry()


@pytest.fixture()
def chain():
    """A fresh single-block-stride chain."""
    return Blockchain(ChainConfig(inception_block=1_000, inception_timestamp=1_600_000_000))


@pytest.fixture()
def flat_feed():
    """A constant price feed covering every default asset (ETH at 2,000 USD)."""
    import numpy as np

    from repro.tokens.registry import inception_prices

    n = 50
    series = {symbol: np.full(n, price) for symbol, price in inception_prices().items()}
    series["ETH"] = np.full(n, 2_000.0)
    series["WBTC"] = np.full(n, 30_000.0)
    return PriceFeed(start_block=1_000, blocks_per_step=10, series=series)


@pytest.fixture()
def oracle(chain, flat_feed):
    """An oracle over the flat feed, posted at the chain head."""
    oracle = PriceOracle(chain, flat_feed, OracleConfig(name="test-oracle"))
    oracle.update_from_feed()
    return oracle
