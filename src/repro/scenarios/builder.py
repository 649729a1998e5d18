"""The composable scenario builder.

:class:`ScenarioBuilder` builds a world from independently overridable
component factories::

    engine = (
        ScenarioBuilder(ScenarioConfig.small())
        .with_assets({"ETH": (1.4, 0.7)})
        .with_incidents(PriceCrash(name="flash-crash", block=9_900_000, drop=0.5))
        .with_population(borrowers_per_platform=60)
        .build()
    )
    result = engine.run()

Every stage — price feed, gas market, chain, oracles, protocols, flash
loans, AMM, agent population — is a factory taking a :class:`BuildContext`
(which accumulates the components built so far), so a scenario can swap any
one layer without forking the rest.  The default factories build the
paper's calibrated world: ``ScenarioBuilder(config).build()`` for a
:class:`ScenarioConfig`, ``.build_feed()`` for its price history alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..agents.arbitrageur import ArbitrageurAgent
from ..agents.base import rng_stream
from ..agents.borrower import BorrowerAgent, BorrowerProfile
from ..agents.keeper import AuctionKeeperAgent, KeeperProfile
from ..agents.lender import LenderAgent
from ..agents.liquidator import LiquidatorAgent, LiquidatorProfile
from ..amm.pool import ConstantProductPool
from ..amm.router import AmmRouter
from ..chain.chain import Blockchain, ChainConfig
from ..chain.gas import GasMarket, GasMarketConfig
from ..chain.types import make_address
from ..flashloan.pool import FlashLoanPool, FlashLoanProvider
from ..oracle.chainlink import OracleConfig, PriceOracle
from ..oracle.feed import PriceFeed
from ..oracle.paths import AssetPathConfig, build_series
from ..protocols.aave import make_aave_v1, make_aave_v2
from ..protocols.base import LendingProtocol
from ..protocols.compound import make_compound
from ..protocols.dydx import make_dydx
from ..protocols.makerdao import make_makerdao
from ..simulation.config import PopulationConfig, ScenarioConfig
from ..simulation.engine import SimulationEngine, SimulationResult
from ..simulation.market import MarketMaker
from ..telemetry.runtime import span
from ..tokens.registry import TokenRegistry, default_registry, inception_prices
from .incidents import FeedGrid, Incident, default_incidents, pre_incident_auction_config

#: Annualised (drift, volatility) of the non-stable assets in the default
#: scenario, loosely calibrated to the 2019-2021 bull market punctuated by
#: crashes.
ASSET_DYNAMICS: dict[str, tuple[float, float]] = {
    "ETH": (1.15, 0.85),
    "WBTC": (0.95, 0.75),
    "LINK": (1.3, 1.1),
    "UNI": (1.1, 1.2),
    "COMP": (0.6, 1.1),
    "MKR": (0.8, 1.0),
    "AAVE": (1.2, 1.2),
    "YFI": (0.9, 1.3),
    "SNX": (1.0, 1.2),
    "KNC": (0.7, 1.1),
    "MANA": (1.2, 1.3),
    "REP": (0.2, 1.0),
    "ENJ": (1.1, 1.3),
    "REN": (0.9, 1.3),
    "CRV": (0.4, 1.3),
    "BAL": (0.5, 1.2),
    "BAT": (0.5, 1.0),
    "ZRX": (0.5, 1.0),
    "TUSD": (0.0, 0.0),
}

#: Stablecoins of the default scenario: mean-reverting paths around 1 USD.
STABLECOIN_SYMBOLS: tuple[str, ...] = ("DAI", "USDC", "USDT", "TUSD")

#: Display names of the five protocols the default factory instantiates.
DEFAULT_PROTOCOL_NAMES: tuple[str, ...] = ("Aave V1", "Aave V2", "Compound", "dYdX", "MakerDAO")


@dataclass
class BuildContext:
    """Accumulates the components built so far; passed to every factory."""

    builder: "ScenarioBuilder"
    config: ScenarioConfig
    rng: np.random.Generator
    registry: TokenRegistry | None = None
    feed: PriceFeed | None = None
    gas_market: GasMarket | None = None
    chain: Blockchain | None = None
    oracle: PriceOracle | None = None
    protocol_oracles: dict[str, PriceOracle] | None = None
    protocols: list[LendingProtocol] | None = None
    flash_loans: FlashLoanProvider | None = None
    amm: AmmRouter | None = None
    market_maker: MarketMaker | None = None


# --------------------------------------------------------------------- #
# Default component factories
# --------------------------------------------------------------------- #
def default_token_registry(ctx: BuildContext) -> TokenRegistry:
    """The default asset universe of the paper."""
    return default_registry()


def default_price_feed(ctx: BuildContext) -> PriceFeed:
    """Generate the synthetic market price history for the scenario window.

    The feed is generated on a finer block grid than the engine stride
    (``feed_blocks_per_step``) so that block-level measurements — the
    post-liquidation price windows of Appendix A, the stablecoin differences
    of Section 4.5.2 — have sub-stride resolution.  Incidents contribute
    their price shocks here (see :meth:`Incident.price_shocks`).
    """
    builder, config = ctx.builder, ctx.config
    n_steps = (config.end_block - config.start_block) // config.feed_blocks_per_step + 3
    steps_per_year = max(int(365 * 24 * 3600 / (13 * config.feed_blocks_per_step)), 1)
    grid = FeedGrid(
        start_block=config.start_block,
        blocks_per_step=config.feed_blocks_per_step,
        n_steps=n_steps,
    )
    prices = inception_prices()
    stablecoins = builder.stablecoin_symbols
    configs: dict[str, AssetPathConfig] = {}
    for symbol, (drift, volatility) in builder.asset_dynamics.items():
        configs[symbol] = AssetPathConfig(
            initial_price=prices.get(symbol, 1.0),
            annual_drift=drift,
            annual_volatility=volatility,
            shocks=[],
        )
    for symbol in stablecoins:
        configs[symbol] = AssetPathConfig(
            initial_price=1.0,
            is_stablecoin=True,
            peg_volatility=0.0015,
            peg_reversion=0.08,
        )
    risky = [symbol for symbol in builder.asset_dynamics if symbol not in stablecoins]
    for incident in builder.incidents:
        for target, shock in incident.price_shocks(grid).items():
            if target is None:
                for symbol in risky:
                    configs[symbol].shocks.append(shock)
            elif target in configs:
                configs[target].shocks.append(shock)
            else:
                raise ValueError(
                    f"incident {incident.name!r} targets unknown asset {target!r}; "
                    f"known assets: {', '.join(sorted(configs))}"
                )
    series = build_series(configs, n_steps, seed=config.seed, steps_per_year=steps_per_year)
    return PriceFeed(
        start_block=config.start_block,
        blocks_per_step=config.feed_blocks_per_step,
        series=series,
    )


def default_gas_market(ctx: BuildContext) -> GasMarket:
    """EIP-1559-free gas market with its own seeded stream."""
    return GasMarket(
        config=GasMarketConfig(initial_gwei=8.0),
        rng=np.random.default_rng(ctx.config.seed + 11),
    )


def default_chain(ctx: BuildContext) -> Blockchain:
    """The block-stride chain over the configured window."""
    config = ctx.config
    return Blockchain(
        config=ChainConfig(
            inception_block=config.start_block,
            inception_timestamp=config.start_timestamp,
            blocks_per_step=config.blocks_per_step,
        ),
        gas_market=ctx.gas_market,
    )


def default_oracles(ctx: BuildContext) -> tuple[PriceOracle, dict[str, PriceOracle]]:
    """The shared Chainlink-style oracle plus Compound's own oracle."""
    oracle = PriceOracle(ctx.chain, ctx.feed, OracleConfig(name="chainlink"))
    compound_oracle = PriceOracle(ctx.chain, ctx.feed, OracleConfig(name="compound-open-oracle"))
    oracle.update_from_feed()
    compound_oracle.update_from_feed()
    return oracle, {"Compound": compound_oracle, "chainlink": oracle}


def default_protocols(ctx: BuildContext) -> list[LendingProtocol]:
    """Instantiate the studied protocols with their paper parameters.

    Honours ``builder.protocol_names`` so scenarios can restrict the world
    to a subset of the five platforms.
    """
    chain, registry, config = ctx.chain, ctx.registry, ctx.config
    oracle = ctx.oracle
    compound_oracle = (ctx.protocol_oracles or {}).get("Compound", oracle)
    factories: dict[str, Callable[[], LendingProtocol]] = {
        "Aave V1": lambda: make_aave_v1(chain, oracle, registry),
        "Aave V2": lambda: make_aave_v2(chain, oracle, registry),
        "Compound": lambda: make_compound(chain, compound_oracle, registry),
        "dYdX": lambda: make_dydx(chain, oracle, registry),
        "MakerDAO": lambda: make_makerdao(chain, oracle, registry),
    }
    protocols: list[LendingProtocol] = []
    for name in ctx.builder.protocol_names:
        if name not in factories:
            raise KeyError(f"unknown protocol {name!r}; choose from {sorted(factories)}")
        protocol = factories[name]()
        if name == "MakerDAO":
            protocol.reconfigure_auctions(pre_incident_auction_config(config.blocks_per_step))
        protocols.append(protocol)
    return protocols


def default_flash_loans(ctx: BuildContext) -> FlashLoanProvider:
    """Flash-loan pools on Aave V1/V2 and dYdX (Table 4's venues)."""
    chain, registry = ctx.chain, ctx.registry
    provider = FlashLoanProvider()
    funder = make_address("flash-loan-lp")
    pools = [
        ("dYdX", "DAI", 0.0, 400_000_000.0),
        ("dYdX", "USDC", 0.0, 400_000_000.0),
        ("dYdX", "ETH", 0.0, 800_000.0),
        ("Aave V1", "DAI", 0.0009, 120_000_000.0),
        ("Aave V1", "USDC", 0.0009, 120_000_000.0),
        ("Aave V2", "DAI", 0.0009, 200_000_000.0),
        ("Aave V2", "USDC", 0.0009, 200_000_000.0),
        ("Aave V2", "ETH", 0.0009, 300_000.0),
    ]
    for platform, symbol, fee, amount in pools:
        token = registry.ensure(symbol)
        pool = FlashLoanPool(platform=platform, token=token, fee_rate=fee, chain=chain)
        token.mint(funder, amount)
        pool.fund(funder, amount)
        provider.register(pool)
    return provider


def default_amm(ctx: BuildContext) -> AmmRouter:
    """Constant-product pools for the main collateral/debt pairs."""
    chain, registry, feed = ctx.chain, ctx.registry, ctx.feed
    start_block = ctx.config.start_block
    router = AmmRouter()
    lp = make_address("amm-lp")
    pairs = [("ETH", "DAI", 60_000_000.0), ("ETH", "USDC", 60_000_000.0), ("WBTC", "DAI", 30_000_000.0)]
    for symbol_a, symbol_b, usd_depth in pairs:
        token_a = registry.ensure(symbol_a)
        token_b = registry.ensure(symbol_b)
        price_a = feed.price(symbol_a, start_block)
        price_b = feed.price(symbol_b, start_block)
        amount_a = usd_depth / 2.0 / price_a
        amount_b = usd_depth / 2.0 / price_b
        token_a.mint(lp, amount_a)
        token_b.mint(lp, amount_b)
        pool = ConstantProductPool(token_a=token_a, token_b=token_b, chain=chain)
        pool.add_liquidity(lp, amount_a, amount_b)
        router.register(pool)
    return router


def default_market_maker(ctx: BuildContext) -> MarketMaker:
    """The OTC market maker agents trade against."""
    return MarketMaker(oracle=ctx.oracle, registry=ctx.registry)


def _borrower_profiles(
    config: ScenarioConfig,
    protocol: LendingProtocol,
    rng: np.random.Generator,
) -> list[BorrowerProfile]:
    """Sample the borrower population for one protocol."""
    population = config.population
    profiles: list[BorrowerProfile] = []
    is_aave_v2 = protocol.name == "Aave V2"
    is_makerdao = protocol.name == "MakerDAO"
    is_dydx = protocol.name == "dYdX"
    multi_fraction = (
        population.multi_collateral_fraction_aave_v2 if is_aave_v2 else population.multi_collateral_fraction_other
    )
    collateral_universe = [
        symbol
        for symbol, market in protocol.markets.items()
        if market.collateral_enabled and symbol not in ("DAI", "USDC", "USDT", "TUSD")
    ]
    stable_universe = [
        symbol for symbol, market in protocol.markets.items() if market.collateral_enabled and symbol in ("USDC", "USDT", "TUSD")
    ]
    total_steps = config.n_steps
    inception_step = max((protocol.inception_block - config.start_block) // config.blocks_per_step, 0)

    def entry_step() -> int:
        span = max(total_steps - inception_step - 2, 1)
        return inception_step + int(rng.beta(1.2, 1.6) * span)

    for index in range(population.borrowers_per_platform):
        short_position = rng.random() < population.short_borrower_fraction and stable_universe and not is_makerdao
        attentive = rng.random() > population.inattentive_fraction
        size = float(rng.lognormal(np.log(60_000), 1.4))
        if short_position:
            collateral = (str(rng.choice(stable_universe)),)
            debt_symbol = "ETH"
        else:
            main = "ETH" if rng.random() < 0.6 or not collateral_universe else str(rng.choice(collateral_universe))
            if rng.random() < multi_fraction and len(collateral_universe) >= 2:
                extras = [str(symbol) for symbol in rng.choice(collateral_universe, size=2, replace=False)]
                collateral = tuple(dict.fromkeys([main, *extras]))
            else:
                collateral = (main,)
            if is_makerdao:
                debt_symbol = "DAI"
            elif is_dydx:
                debt_symbol = str(rng.choice(["DAI", "USDC"]))
            else:
                debt_symbol = str(rng.choice(["DAI", "USDC", "USDT"])) if "USDT" in protocol.markets else str(
                    rng.choice(["DAI", "USDC"])
                )
        profiles.append(
            BorrowerProfile(
                collateral_symbols=collateral,
                debt_symbol=debt_symbol,
                collateral_usd=size,
                target_health_factor=float(rng.uniform(1.03, 1.6)),
                attentive=attentive,
                topup_trigger=float(rng.uniform(1.03, 1.12)),
                entry_step=entry_step(),
            )
        )
    for index in range(population.dust_borrowers_per_platform):
        # Dust positions whose excess collateral cannot cover a closing fee:
        # the source of Table 2's Type II bad debt.
        profiles.append(
            BorrowerProfile(
                collateral_symbols=("ETH",) if not is_makerdao else ("ETH",),
                debt_symbol="DAI" if is_makerdao or rng.random() < 0.5 else "USDC",
                collateral_usd=float(rng.uniform(20.0, 600.0)),
                target_health_factor=float(rng.uniform(1.05, 1.4)),
                attentive=False,
                entry_step=entry_step(),
            )
        )
    return profiles


def default_population(ctx: BuildContext, engine: SimulationEngine) -> None:
    """Create lenders, borrowers, liquidators, keepers and the arbitrageur."""
    config = ctx.config
    rng = ctx.rng
    population = config.population
    agent_rngs = rng_stream(config.seed + 1)

    # Lenders seed pool liquidity so borrowers have something to borrow.
    for protocol in engine.fixed_spread_protocols():
        for index in range(population.lenders_per_platform):
            supplies = {"DAI": 150_000_000.0, "USDC": 150_000_000.0, "ETH": 80_000_000.0}
            supplies = {symbol: usd for symbol, usd in supplies.items() if symbol in protocol.markets}
            engine.add_agent(
                LenderAgent(f"lender-{protocol.name}-{index}", next(agent_rngs), protocol, supplies)
            )

    # Borrowers.
    for protocol in engine.protocols:
        profiles = _borrower_profiles(config, protocol, rng)
        for index, profile in enumerate(profiles):
            engine.add_agent(
                BorrowerAgent(f"borrower-{protocol.name}-{index}", next(agent_rngs), protocol, profile)
            )

    # Fixed spread liquidation bots.
    for index in range(population.liquidators):
        profile = LiquidatorProfile(
            detection_probability=float(rng.uniform(0.15, 0.5)),
            gas_multiplier_mean=config.liquidator_gas_multiplier_mean * float(rng.uniform(0.8, 1.3)),
            gas_multiplier_sigma=config.liquidator_gas_multiplier_sigma,
            flash_loan_probability=config.liquidator_flash_loan_probability * float(rng.uniform(0.4, 2.0)),
            min_profit_margin=float(rng.uniform(1.1, 1.8)),
            holding_symbol="USDC" if rng.random() < 0.7 else "DAI",
            initial_capital_usd=float(rng.lognormal(np.log(3_000_000), 1.0)),
            offline_during_congestion=rng.random() < 0.3,
        )
        engine.add_agent(LiquidatorAgent(f"liquidator-{index}", next(agent_rngs), profile))

    # MakerDAO auction keepers.  A small minority pays market-rate gas even
    # during congestion and therefore keeps winning auctions at low-ball bids
    # while the rest of the bots are priced out (the March 2020 dynamic).
    makerdao = engine.makerdao
    if makerdao is not None:
        for index in range(population.keepers):
            capable = index < max(population.keepers // 4, 1)
            profile = KeeperProfile(
                detection_probability=float(rng.uniform(0.3, 0.7)),
                profit_margin=float(rng.uniform(0.03, 0.12)),
                first_bid_fraction=float(rng.uniform(0.35, 0.7)),
                offline_during_congestion=not capable,
                uses_market_gas=capable,
            )
            engine.add_agent(AuctionKeeperAgent(f"keeper-{index}", next(agent_rngs), makerdao, profile))

    engine.add_agent(ArbitrageurAgent("arbitrageur", next(agent_rngs)))


# --------------------------------------------------------------------- #
# The builder
# --------------------------------------------------------------------- #
class ScenarioBuilder:
    """Fluent, layered construction of a :class:`SimulationEngine`.

    Every ``with_*`` method mutates the builder in place and returns it, so
    calls chain.  Factories receive the :class:`BuildContext`; replace any of
    them to swap one layer of the world while keeping the rest.
    """

    def __init__(self, config: ScenarioConfig | None = None) -> None:
        self.config = config or ScenarioConfig()
        self.asset_dynamics: dict[str, tuple[float, float]] = dict(ASSET_DYNAMICS)
        self.stablecoin_symbols: tuple[str, ...] = STABLECOIN_SYMBOLS
        self.protocol_names: tuple[str, ...] = DEFAULT_PROTOCOL_NAMES
        self._incidents: tuple[Incident, ...] | None = None  # None → defaults for config
        self._registry_factory = default_token_registry
        self._feed_factory: Callable[[BuildContext], PriceFeed] = default_price_feed
        self._gas_market_factory = default_gas_market
        self._chain_factory = default_chain
        self._oracles_factory = default_oracles
        self._protocols_factory = default_protocols
        self._flash_loans_factory = default_flash_loans
        self._amm_factory = default_amm
        self._market_maker_factory = default_market_maker
        self._population_factory: Callable[[BuildContext, SimulationEngine], None] = default_population
        self._extra_agent_factories: list[Callable[[BuildContext, SimulationEngine], None]] = []
        self._extra_events: list[tuple[int, str, Callable[[SimulationEngine], None]]] = []
        self._probe_factories: list[Callable[[SimulationEngine], object]] = []

    # -------------------------------------------------------------- #
    # Configuration
    # -------------------------------------------------------------- #
    @property
    def incidents(self) -> tuple[Incident, ...]:
        """The incident list in effect (defaults derived from the config)."""
        if self._incidents is None:
            return default_incidents(self.config)
        return self._incidents

    def with_config(self, config: ScenarioConfig) -> "ScenarioBuilder":
        """Replace the scenario configuration wholesale."""
        self.config = config
        return self

    def with_seed(self, seed: int) -> "ScenarioBuilder":
        """Re-seed every stream of the scenario."""
        self.config = self.config.with_overrides(seed=seed)
        return self

    def with_window(
        self,
        start_block: int | None = None,
        end_block: int | None = None,
        start_timestamp: int | None = None,
        blocks_per_step: int | None = None,
        feed_blocks_per_step: int | None = None,
    ) -> "ScenarioBuilder":
        """Override the simulated block window and/or strides."""
        overrides = {
            key: value
            for key, value in {
                "start_block": start_block,
                "end_block": end_block,
                "start_timestamp": start_timestamp,
                "blocks_per_step": blocks_per_step,
                "feed_blocks_per_step": feed_blocks_per_step,
            }.items()
            if value is not None
        }
        self.config = self.config.with_overrides(**overrides)
        return self

    def with_assets(
        self,
        dynamics: dict[str, tuple[float, float]],
        *,
        replace_universe: bool = False,
        stablecoins: tuple[str, ...] | None = None,
    ) -> "ScenarioBuilder":
        """Override per-asset (drift, volatility) dynamics.

        By default ``dynamics`` is merged into the paper's universe; pass
        ``replace_universe=True`` to simulate only the given assets.
        """
        if replace_universe:
            self.asset_dynamics = dict(dynamics)
        else:
            self.asset_dynamics.update(dynamics)
        if stablecoins is not None:
            self.stablecoin_symbols = tuple(stablecoins)
        return self

    def with_population(
        self, population: PopulationConfig | None = None, **overrides
    ) -> "ScenarioBuilder":
        """Replace the agent population config (or override single fields)."""
        base = population or self.config.population
        if overrides:
            base = replace(base, **overrides)
        self.config = self.config.with_overrides(population=base)
        return self

    # -------------------------------------------------------------- #
    # Incidents
    # -------------------------------------------------------------- #
    def with_incidents(self, *incidents: Incident) -> "ScenarioBuilder":
        """Replace the incident list (empty call ⇒ incident-free world)."""
        self._incidents = tuple(incidents)
        return self

    def add_incidents(self, *incidents: Incident) -> "ScenarioBuilder":
        """Append incidents to the list in effect."""
        self._incidents = (*self.incidents, *incidents)
        return self

    def without_incidents(self) -> "ScenarioBuilder":
        """Drop every incident: a calm world with no scheduled shocks."""
        self._incidents = ()
        return self

    def schedule(self, block: int, name: str, action: Callable[[SimulationEngine], None]) -> "ScenarioBuilder":
        """Register a raw one-shot engine event (escape hatch)."""
        self._extra_events.append((block, name, action))
        return self

    # -------------------------------------------------------------- #
    # Component factories
    # -------------------------------------------------------------- #
    def with_protocols(self, *names: str) -> "ScenarioBuilder":
        """Restrict the default protocol set to the given display names."""
        self.protocol_names = tuple(names)
        return self

    def with_token_registry(self, factory) -> "ScenarioBuilder":
        """Replace the token-registry factory (``ctx -> TokenRegistry``)."""
        self._registry_factory = factory
        return self

    @property
    def feed_factory(self) -> Callable[[BuildContext], PriceFeed]:
        """The price-feed factory in effect (compare with ``default_price_feed``)."""
        return self._feed_factory

    def with_price_feed(self, feed: PriceFeed | Callable[[BuildContext], PriceFeed]) -> "ScenarioBuilder":
        """Replace the price feed (an instance or a ``ctx -> PriceFeed``)."""
        self._feed_factory = feed if callable(feed) else (lambda ctx: feed)
        return self

    def with_gas_market(self, factory) -> "ScenarioBuilder":
        """Replace the gas-market factory (``ctx -> GasMarket``)."""
        self._gas_market_factory = factory
        return self

    def with_chain(self, factory) -> "ScenarioBuilder":
        """Replace the chain factory (``ctx -> Blockchain``)."""
        self._chain_factory = factory
        return self

    def with_oracles(self, factory) -> "ScenarioBuilder":
        """Replace the oracle factory (``ctx -> (oracle, protocol_oracles)``)."""
        self._oracles_factory = factory
        return self

    @property
    def protocol_factory(self) -> Callable[[BuildContext], list[LendingProtocol]]:
        """The protocol factory in effect (wrap it to post-process protocols)."""
        return self._protocols_factory

    def with_protocol_factory(self, factory) -> "ScenarioBuilder":
        """Replace protocol construction wholesale (``ctx -> [protocols]``)."""
        self._protocols_factory = factory
        return self

    def with_flash_loans(self, factory) -> "ScenarioBuilder":
        """Replace the flash-loan factory (``ctx -> FlashLoanProvider``)."""
        self._flash_loans_factory = factory
        return self

    def with_amm(self, factory) -> "ScenarioBuilder":
        """Replace the AMM factory (``ctx -> AmmRouter``)."""
        self._amm_factory = factory
        return self

    def with_market_maker(self, factory) -> "ScenarioBuilder":
        """Replace the OTC market-maker factory (``ctx -> MarketMaker``)."""
        self._market_maker_factory = factory
        return self

    def with_agents(self, factory: Callable[[BuildContext, SimulationEngine], None]) -> "ScenarioBuilder":
        """Replace the agent-population factory (``(ctx, engine) -> None``)."""
        self._population_factory = factory
        return self

    def add_agents(self, factory: Callable[[BuildContext, SimulationEngine], None]) -> "ScenarioBuilder":
        """Append an extra agent factory run after the main population."""
        self._extra_agent_factories.append(factory)
        return self

    def with_probes(self, *factories: Callable[[SimulationEngine], object]) -> "ScenarioBuilder":
        """Pre-register observer probes attached to every built engine.

        Each factory is called with the freshly assembled engine and must
        return a :class:`~repro.observers.bus.Probe`
        (``engine -> probe``), e.g.::

            builder.with_probes(
                lambda engine: LiquidationRecorder(),
                lambda engine: HealthFactorWatcher(engine.protocols, hf_below=1.1),
            )

        Factories (rather than instances) keep the builder reusable: every
        ``build()`` gets fresh, unshared probe state.
        """
        self._probe_factories.extend(factories)
        return self

    # -------------------------------------------------------------- #
    # Assembly
    # -------------------------------------------------------------- #
    def build_feed(self) -> PriceFeed:
        """Build just the price feed (useful for inspection and tests)."""
        ctx = BuildContext(builder=self, config=self.config, rng=np.random.default_rng(self.config.seed))
        return self._feed_factory(ctx)

    def build(self) -> SimulationEngine:
        """Assemble the full world and return a ready-to-run engine.

        With telemetry on, the build runs under a ``build`` span whose
        ``build.feed``, ``build.protocols`` and ``build.population`` children
        time those stages; every other stage is ``build`` self time.
        """
        with span("build"):
            config = self.config
            ctx = BuildContext(builder=self, config=config, rng=np.random.default_rng(config.seed))
            ctx.registry = self._registry_factory(ctx)
            with span("build.feed"):
                ctx.feed = self._feed_factory(ctx)
            ctx.gas_market = self._gas_market_factory(ctx)
            ctx.chain = self._chain_factory(ctx)
            ctx.oracle, ctx.protocol_oracles = self._oracles_factory(ctx)
            with span("build.protocols"):
                ctx.protocols = self._protocols_factory(ctx)
            ctx.flash_loans = self._flash_loans_factory(ctx)
            ctx.amm = self._amm_factory(ctx)
            ctx.market_maker = self._market_maker_factory(ctx)
            engine = SimulationEngine(
                config=config,
                chain=ctx.chain,
                registry=ctx.registry,
                feed=ctx.feed,
                oracle=ctx.oracle,
                protocols=ctx.protocols,
                protocol_oracles=ctx.protocol_oracles,
                flash_loans=ctx.flash_loans,
                amm=ctx.amm,
                market_maker=ctx.market_maker,
            )
            for incident in self.incidents:
                incident.schedule(engine)
            for block, name, action in self._extra_events:
                engine.schedule(block, name, action)
            with span("build.population"):
                self._population_factory(ctx, engine)
                for factory in self._extra_agent_factories:
                    factory(ctx, engine)
            for probe_factory in self._probe_factories:
                engine.attach_probe(probe_factory(engine))
            return engine

    def run(self, n_steps: int | None = None) -> SimulationResult:
        """Build and run the scenario end-to-end."""
        return self.build().run(n_steps)
