"""Unit tests for price feeds, synthetic paths and the posted oracle."""

import numpy as np
import pytest

from repro.oracle.chainlink import OracleConfig, PriceOracle
from repro.oracle.feed import PriceFeed, UnknownSymbol
from repro.oracle.paths import AssetPathConfig, Shock, apply_shocks, build_series, gbm_path, stablecoin_path


class TestPriceFeed:
    def test_price_lookup_maps_blocks_to_steps(self, flat_feed):
        assert flat_feed.price("ETH", 1_000) == pytest.approx(2_000.0)
        assert flat_feed.price("ETH", 1_005) == pytest.approx(2_000.0)  # same step

    def test_out_of_range_blocks_clamp(self, flat_feed):
        assert flat_feed.price("ETH", 10) == pytest.approx(2_000.0)
        assert flat_feed.price("ETH", 10**9) == pytest.approx(2_000.0)

    def test_unknown_symbol_raises(self, flat_feed):
        with pytest.raises(UnknownSymbol):
            flat_feed.price("NOPE", 1_000)

    def test_prices_at_returns_all_symbols(self, flat_feed):
        prices = flat_feed.prices_at(1_000)
        assert {"ETH", "DAI", "USDC", "WBTC"} <= set(prices)
        assert set(prices) == set(flat_feed.symbols())

    def test_window_slices_inclusive(self, flat_feed):
        window = flat_feed.window("ETH", 1_000, 1_050)
        assert len(window) == 6

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            PriceFeed(start_block=0, blocks_per_step=1, series={"A": np.ones(3), "B": np.ones(4)})

    def test_max_drawdown_of_declining_series(self):
        feed = PriceFeed(start_block=0, blocks_per_step=1, series={"X": np.array([100.0, 80.0, 90.0, 40.0])})
        assert feed.max_drawdown("X") == pytest.approx(0.6)

    def test_returns_length(self, flat_feed):
        assert len(flat_feed.returns("ETH")) == flat_feed.n_steps - 1


def scalar_stablecoin_path(config: AssetPathConfig, n_steps: int, rng: np.random.Generator) -> np.ndarray:
    """Reference: the AR(1) peg wobble with one scalar noise draw per step."""
    if n_steps <= 0:
        return np.zeros(0)
    prices = np.empty(n_steps)
    prices[0] = config.initial_price
    for step in range(1, n_steps):
        deviation = config.peg - prices[step - 1]
        noise = rng.normal(0.0, config.peg_volatility)
        prices[step] = prices[step - 1] + config.peg_reversion * deviation + noise
    prices = np.clip(prices, 0.2 * config.peg, 5.0 * config.peg)
    return apply_shocks(prices, config.shocks)


class TestPaths:
    def test_gbm_path_starts_at_initial_price(self):
        config = AssetPathConfig(initial_price=100.0, annual_volatility=0.5)
        path = gbm_path(config, 100, np.random.default_rng(1))
        assert path[0] == pytest.approx(100.0)
        assert (path > 0).all()

    def test_shock_applies_configured_drop(self):
        path = np.full(100, 100.0)
        shocked = apply_shocks(path, [Shock(step=50, magnitude=0.57)])
        assert shocked[49] == pytest.approx(100.0)
        assert shocked[60] == pytest.approx(57.0)

    def test_shock_recovery_ramps_back(self):
        path = np.full(100, 100.0)
        shocked = apply_shocks(path, [Shock(step=10, magnitude=0.5, recovery=1.0, recovery_steps=20)])
        assert shocked[90] == pytest.approx(100.0, rel=1e-6)

    def test_stablecoin_path_stays_near_peg(self):
        config = AssetPathConfig(initial_price=1.0, is_stablecoin=True, peg_volatility=0.002, peg_reversion=0.1)
        path = stablecoin_path(config, 2_000, np.random.default_rng(2))
        assert abs(path.mean() - 1.0) < 0.05
        assert path.std() < 0.05

    @pytest.mark.parametrize("n_steps", [0, 1, 2, 1_000, 20_000])
    @pytest.mark.parametrize("seed", [0, 2, 41])
    def test_stablecoin_path_matches_scalar_reference(self, n_steps, seed):
        config = AssetPathConfig(initial_price=1.0, is_stablecoin=True, peg_volatility=0.0015, peg_reversion=0.08)
        expected = scalar_stablecoin_path(config, n_steps, np.random.default_rng(seed))
        actual = stablecoin_path(config, n_steps, np.random.default_rng(seed))
        assert actual.tobytes() == expected.tobytes()

    def test_stablecoin_path_matches_scalar_reference_with_shocks_and_custom_peg(self):
        config = AssetPathConfig(
            initial_price=0.97,
            is_stablecoin=True,
            peg=1.02,
            peg_volatility=0.004,
            peg_reversion=0.21,
            shocks=[
                Shock(step=300, magnitude=0.89, duration=5, recovery=0.8, recovery_steps=40),
                Shock(step=900, magnitude=1.1),
            ],
        )
        for seed in (5, 6):
            expected = scalar_stablecoin_path(config, 1_200, np.random.default_rng(seed))
            actual = stablecoin_path(config, 1_200, np.random.default_rng(seed))
            assert actual.tobytes() == expected.tobytes()

    def test_build_series_is_deterministic_per_seed(self):
        configs = {"ETH": AssetPathConfig(initial_price=100.0), "DAI": AssetPathConfig(initial_price=1.0, is_stablecoin=True)}
        first = build_series(configs, 50, seed=3)
        second = build_series(configs, 50, seed=3)
        np.testing.assert_allclose(first["ETH"], second["ETH"])

    def test_build_series_streams_are_independent_of_extra_assets(self):
        base = {"ETH": AssetPathConfig(initial_price=100.0)}
        extended = dict(base, LINK=AssetPathConfig(initial_price=3.0))
        only_eth = build_series(base, 50, seed=3)["ETH"]
        with_link = build_series(extended, 50, seed=3)["ETH"]
        np.testing.assert_allclose(only_eth, with_link)


class TestPriceOracle:
    def test_falls_back_to_feed_before_first_post(self, chain, flat_feed):
        oracle = PriceOracle(chain, flat_feed)
        assert oracle.price("ETH") == pytest.approx(2_000.0)

    def test_update_posts_all_symbols_initially(self, chain, flat_feed):
        oracle = PriceOracle(chain, flat_feed)
        updated = oracle.update_from_feed()
        assert set(updated) == set(flat_feed.symbols())
        assert len(chain.events.by_name("AnswerUpdated")) == len(updated)

    def test_no_repost_when_price_unchanged(self, oracle):
        assert oracle.update_from_feed() == []

    def test_heartbeat_forces_repost(self, chain, flat_feed):
        oracle = PriceOracle(chain, flat_feed, OracleConfig(heartbeat_blocks=5))
        oracle.update_from_feed()
        for _ in range(6):
            chain.mine_block()
        assert "ETH" in oracle.update_from_feed()

    def test_override_reproduces_oracle_irregularity(self, oracle):
        oracle.set_override("DAI", 1.30)
        oracle.update_from_feed()
        assert oracle.price("DAI") == pytest.approx(1.30)
        oracle.clear_override("DAI")
        oracle.update_from_feed()
        assert oracle.price("DAI") == pytest.approx(1.0)

    def test_price_at_returns_posted_history(self, chain, flat_feed):
        oracle = PriceOracle(chain, flat_feed)
        oracle.post_price("ETH", 1_900.0, block_number=1_000)
        oracle.post_price("ETH", 2_100.0, block_number=1_010)
        assert oracle.price_at("ETH", 1_005) == pytest.approx(1_900.0)
        assert oracle.price_at("ETH", 1_010) == pytest.approx(2_100.0)

    def test_value_usd(self, oracle):
        assert oracle.value_usd("ETH", 2.0) == pytest.approx(4_000.0)
