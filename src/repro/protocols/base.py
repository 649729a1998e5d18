"""Shared lending-pool machinery used by all four protocol implementations.

The paper's system model (Figure 1) has lenders/borrowers interacting with a
pool contract, a price oracle feeding prices, and liquidators closing
unhealthy positions.  :class:`LendingProtocol` implements the pool: asset
custody through the token ledgers, per-market configuration, interest
accrual, position accounting, and the health-factor queries the analytics
layer and the agents need.  Protocol-specific liquidation flows live in the
subclasses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
import numpy as np

from .. import sanitize
from ..chain.chain import Blockchain
from ..chain.types import Address, make_address
from ..core.position import DUST, Position
from ..core.position_book import BookValuation, PositionBook
from ..core.terminology import LiquidationParams
from ..oracle.chainlink import PriceOracle
from ..telemetry import runtime as telemetry
from ..tokens.registry import TokenRegistry
from .interest import KinkedRateModel


class ProtocolError(Exception):
    """Raised on user actions that the protocol rules forbid."""


@dataclass
class MarketConfig:
    """Per-asset market parameters of a lending pool.

    Attributes
    ----------
    symbol:
        Asset symbol of the market.
    liquidation_threshold:
        LT for this asset when used as collateral.
    liquidation_spread:
        LS paid to liquidators seizing this collateral.
    collateral_enabled / borrow_enabled:
        Whether the asset may be used as collateral / borrowed.
    """

    symbol: str
    liquidation_threshold: float
    liquidation_spread: float
    collateral_enabled: bool = True
    borrow_enabled: bool = True
    interest_model: KinkedRateModel = field(default_factory=KinkedRateModel)


class LendingProtocol(abc.ABC):
    """Base class of the four studied lending protocols."""

    #: Name of the liquidation event emitted by the concrete protocol.
    LIQUIDATION_EVENT = "Liquidation"

    def __init__(
        self,
        name: str,
        chain: Blockchain,
        oracle: PriceOracle,
        registry: TokenRegistry,
        close_factor: float,
        inception_block: int | None = None,
    ) -> None:
        self.name = name
        self.chain = chain
        self.oracle = oracle
        self.registry = registry
        self.close_factor = close_factor
        self.address = make_address(name)
        self.markets: dict[str, MarketConfig] = {}
        self.positions: dict[Address, Position] = {}
        #: Columnar mirror of every position for vectorized health scans.
        self.book = PositionBook()
        self._valuation_cache: BookValuation | None = None
        self._valuation_key: tuple[int, int, int] | None = None
        self._valuation_hits = 0
        self.inception_block = chain.current_block if inception_block is None else inception_block
        self._total_borrowed_usd_estimate = 0.0
        self._last_accrual_block = self.chain.current_block
        chain.register_snapshot_provider(self.name, self.snapshot)

    # ------------------------------------------------------------------ #
    # Market configuration
    # ------------------------------------------------------------------ #
    def add_market(self, market: MarketConfig) -> MarketConfig:
        """Register a market (idempotent per symbol)."""
        self.markets[market.symbol.upper()] = market
        # Pre-register the asset column so the book's matrices do not need
        # to grow mid-run when the first deposit of the asset arrives.
        self.book.ensure_asset(market.symbol)
        return market

    def market(self, symbol: str) -> MarketConfig:
        """Return the market config for ``symbol`` or raise :class:`ProtocolError`."""
        try:
            return self.markets[symbol.upper()]
        except KeyError as exc:
            raise ProtocolError(f"{self.name} has no {symbol} market") from exc

    def liquidation_thresholds(self) -> dict[str, float]:
        """Per-asset LT mapping used by health-factor computations."""
        return {symbol: market.liquidation_threshold for symbol, market in self.markets.items()}

    def params_for(self, collateral_symbol: str) -> LiquidationParams:
        """Liquidation parameters applicable when seizing ``collateral_symbol``."""
        market = self.market(collateral_symbol)
        return LiquidationParams(
            liquidation_threshold=market.liquidation_threshold,
            liquidation_spread=market.liquidation_spread,
            close_factor=self.close_factor,
        )

    # ------------------------------------------------------------------ #
    # Prices
    # ------------------------------------------------------------------ #
    def prices(self) -> dict[str, float]:
        """Latest oracle prices for every configured market."""
        return {symbol: self.oracle.price(symbol) for symbol in self.markets}

    # ------------------------------------------------------------------ #
    # Positions
    # ------------------------------------------------------------------ #
    def position_of(self, user: Address) -> Position:
        """Return (creating if needed) the position of ``user``."""
        position = self.positions.get(user)
        if position is None:
            position = Position(owner=user)
            self.positions[user] = position
            self.book.attach(position)
        return position

    def open_positions(self) -> list[Position]:
        """Positions that still carry debt or collateral."""
        return [position for position in self.positions.values() if not position.is_empty]

    def positions_with_debt(self) -> list[Position]:
        """Positions that still owe debt."""
        return [position for position in self.positions.values() if position.has_debt]

    def health_factor(self, user: Address) -> float:
        """Current health factor of ``user``'s position."""
        return self.position_of(user).health_factor(self.prices(), self.liquidation_thresholds())

    def is_liquidatable(self, user: Address) -> bool:
        """Whether ``user``'s position can currently be liquidated."""
        return self.position_of(user).is_liquidatable(self.prices(), self.liquidation_thresholds())

    def liquidatable_positions(self) -> list[Position]:
        """All positions whose health factor is below 1 at current prices."""
        return self.liquidatable_candidates()

    def valuation(self) -> BookValuation:
        """The :class:`BookValuation` of every position at current prices.

        Cached per ``(block, oracle price version, book revision)``: within
        one block, the snapshot providers, the analytics sweeps and the
        health-factor watcher all share a single sync + vectorized pass
        instead of refetching prices and revaluing the book each time.
        Any position mutation (book revision), posted price (oracle
        version) or block advance invalidates the cache, so a hit is
        exactly as fresh as a recomputation.  Market parameters
        (liquidation thresholds) are fixed at construction time — nothing
        in the simulation mutates them mid-run.
        """
        key = (
            self.chain.current_block,
            getattr(self.oracle, "version", 0),
            self.book.revision,
        )
        active = telemetry.active()
        cached = self._valuation_cache
        if cached is not None and self._valuation_key == key:
            if active is not None:
                active.counter(
                    "repro_valuation_cache_total",
                    "BookValuation cache lookups, by outcome",
                    ("platform", "outcome"),
                ).labels(platform=self.name, outcome="hit").inc()
            if sanitize.enabled():
                self._check_valuation_coherence(cached)
            return cached
        if active is not None:
            active.counter(
                "repro_valuation_cache_total",
                "BookValuation cache lookups, by outcome",
                ("platform", "outcome"),
            ).labels(platform=self.name, outcome="build").inc()
        with telemetry.span("protocol.valuation", {"platform": self.name}):
            valuation = self.book.valuation(self.prices(), self.liquidation_thresholds())
        # Re-read the revision: the sync inside ``valuation`` may have
        # registered new asset columns, which bumps it.
        self._valuation_key = (key[0], key[1], self.book.revision)
        self._valuation_cache = valuation
        return valuation

    def _check_valuation_coherence(self, cached: BookValuation) -> None:
        """Sanitizer: a cache hit must be as fresh as a recomputation.

        Cheap checks on every hit: the cached valuation was built at the
        book's *current* revision (a stale hit means some mutation path
        forgot to bump the revision) and no dirty rows are pending behind
        an unchanged revision (someone touched ``_dirty`` directly).  Every
        sanitize-stride-th hit additionally rebuilds the valuation from the
        live book and compares the value matrices bitwise — the strongest
        statement that the cache key really covers every input.
        """
        if cached._built_at_revision != self.book.revision:
            raise sanitize.SanitizerError(
                f"{self.name} valuation cache hit is stale: cached at book "
                f"revision {cached._built_at_revision}, book is at "
                f"{self.book.revision}; a mutation path skipped the revision bump"
            )
        if self.book.dirty_rows:
            raise sanitize.SanitizerError(
                f"{self.name} valuation cache hit with {len(self.book.dirty_rows)} "
                "dirty rows pending behind an unchanged revision: rows were "
                "marked dirty without notifying the revision counter"
            )
        self._valuation_hits += 1
        if self._valuation_hits % sanitize.stride() == 0:
            rebuilt = self.book.valuation(self.prices(), self.liquidation_thresholds())
            if not (
                np.array_equal(rebuilt.collateral_values, cached.collateral_values)
                and np.array_equal(rebuilt.debt_values, cached.debt_values)
            ):
                raise sanitize.SanitizerError(
                    f"{self.name} cached valuation is not bitwise equal to a "
                    "fresh rebuild at the same cache key: an input the key "
                    "does not cover has changed (prices, thresholds or book rows)"
                )

    def liquidatable_candidates(self, require_collateral: bool = False) -> list[Position]:
        """Positions with HF < 1, found by the columnar scan.

        The book flags candidate rows with a safety margin and each flagged
        row is confirmed with the scalar health factor, so the result is
        exactly the set (and order) a scalar sweep over ``positions`` finds
        (:func:`repro.reference.liquidatable_candidates`).

        This stays on the lean :class:`BookScan` (two matrix-vector
        products) rather than the full :meth:`valuation` materialization:
        the per-stride opportunity scan runs on *every* block, while the
        aggregate consumers that amortize a shared valuation (snapshots,
        analytics, the watcher) only run on some.
        """
        prices = self.prices()
        thresholds = self.liquidation_thresholds()
        scan = self.book.scan(prices, thresholds)
        candidates: list[Position] = []
        for row in scan.candidate_rows(require_collateral=require_collateral):
            position = self.book.position_at(int(row))
            if position.is_liquidatable(prices, thresholds):
                candidates.append(position)
        return candidates

    # ------------------------------------------------------------------ #
    # User actions (Figure 1: collateralize / borrow / repay / withdraw)
    # ------------------------------------------------------------------ #
    def deposit(self, user: Address, symbol: str, amount: float) -> None:
        """Deposit ``amount`` of ``symbol`` as collateral."""
        market = self.market(symbol)
        if not market.collateral_enabled:
            raise ProtocolError(f"{symbol} cannot be used as collateral on {self.name}")
        if amount <= 0:
            raise ProtocolError("deposit amount must be positive")
        token = self.registry.get(symbol)
        token.transfer(user, self.address, amount)
        self.position_of(user).add_collateral(market.symbol, amount)
        self.chain.emit_event(
            "Deposit",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": market.symbol, "amount": amount},
        )

    def borrow(self, user: Address, symbol: str, amount: float) -> None:
        """Borrow ``amount`` of ``symbol`` against the caller's collateral."""
        market = self.market(symbol)
        if not market.borrow_enabled:
            raise ProtocolError(f"{symbol} cannot be borrowed on {self.name}")
        if amount <= 0:
            raise ProtocolError("borrow amount must be positive")
        token = self.registry.get(symbol)
        if token.balance_of(self.address) < amount:
            raise ProtocolError(f"{self.name} lacks {symbol} liquidity for the requested borrow")
        prices = self.prices()
        thresholds = self.liquidation_thresholds()
        position = self.position_of(user)
        prospective = position.copy()
        prospective.add_debt(market.symbol, amount)
        if prospective.health_factor(prices, thresholds) < 1.0:
            raise ProtocolError("borrow would exceed the borrowing capacity")
        token.transfer(self.address, user, amount)
        position.add_debt(market.symbol, amount)
        self._total_borrowed_usd_estimate += amount * prices.get(market.symbol, 0.0)
        self.chain.emit_event(
            "Borrow",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": market.symbol, "amount": amount},
        )

    def repay(self, user: Address, symbol: str, amount: float, payer: Address | None = None) -> float:
        """Repay up to ``amount`` of the user's ``symbol`` debt; returns the amount repaid."""
        market = self.market(symbol)
        position = self.position_of(user)
        owed = position.debt.get(market.symbol, 0.0)
        if owed <= DUST:
            raise ProtocolError(f"{user} owes no {symbol} on {self.name}")
        repay_amount = min(amount, owed)
        source = payer or user
        token = self.registry.get(symbol)
        token.transfer(source, self.address, repay_amount)
        position.reduce_debt(market.symbol, repay_amount)
        self.chain.emit_event(
            "Repay",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": market.symbol, "amount": repay_amount},
        )
        return repay_amount

    def withdraw(self, user: Address, symbol: str, amount: float) -> None:
        """Withdraw collateral, provided the position stays healthy."""
        market = self.market(symbol)
        position = self.position_of(user)
        held = position.collateral.get(market.symbol, 0.0)
        if amount > held + DUST:
            raise ProtocolError(f"cannot withdraw {amount} {symbol}; only {held} deposited")
        prospective = position.copy()
        prospective.remove_collateral(market.symbol, amount)
        if prospective.has_debt and prospective.health_factor(self.prices(), self.liquidation_thresholds()) < 1.0:
            raise ProtocolError("withdrawal would make the position liquidatable")
        token = self.registry.get(symbol)
        token.transfer(self.address, user, amount)
        position.remove_collateral(market.symbol, amount)
        self.chain.emit_event(
            "Withdraw",
            emitter=self.address,
            data={"platform": self.name, "user": user.value, "symbol": market.symbol, "amount": amount},
        )

    def supply_liquidity(self, lender: Address, symbol: str, amount: float) -> None:
        """Lender-side deposit: adds pool liquidity without opening a position."""
        market = self.market(symbol)
        token = self.registry.get(symbol)
        token.transfer(lender, self.address, amount)
        self.chain.emit_event(
            "Supply",
            emitter=self.address,
            data={"platform": self.name, "user": lender.value, "symbol": market.symbol, "amount": amount},
        )

    # ------------------------------------------------------------------ #
    # Interest
    # ------------------------------------------------------------------ #
    def utilization(self, symbol: str) -> float:
        """Borrowed share of the pool's liquidity for ``symbol`` (rough estimate).

        The per-symbol outstanding total comes from the book's debt column
        (bit-identical to the per-position walk of
        :func:`repro.reference.utilization` — non-holders contribute exact
        zeros), so the per-market accrual sweep does not crawl the whole
        population once per market.
        """
        token = self.registry.get(symbol)
        available = token.balance_of(self.address)
        borrowed = self.book.debt_total(symbol.upper())
        total = available + borrowed
        if total <= 0:
            return 0.0
        return borrowed / total

    def accrue_interest(self, to_block: int | None = None) -> None:
        """Grow every outstanding debt by the per-market accrual factor."""
        block = self.chain.current_block if to_block is None else to_block
        elapsed = block - self._last_accrual_block
        if elapsed <= 0:
            return
        factors = {
            symbol: market.interest_model.accrual_factor(self.utilization(symbol), elapsed)
            for symbol, market in self.markets.items()
        }
        for position in self._accrual_positions():
            position.scale_debts(factors)
        self._last_accrual_block = block

    def _accrual_positions(self) -> list[Position]:
        """The positions an accrual sweep must touch.

        Debt-free positions are skipped via the book's debt columns;
        ``scale_debts`` is a no-op on every skipped position, so this
        mutates the same state as touching every position
        (:func:`repro.reference.accrual_positions`).
        """
        return self.book.positions_with_debt_entries()

    # ------------------------------------------------------------------ #
    # Aggregates and snapshots
    # ------------------------------------------------------------------ #
    def total_collateral_usd(self) -> float:
        """Total USD value of collateral locked in the protocol.

        One vectorized pass with a pinned reduction, bit-identical to the
        per-position walk (:func:`repro.reference.total_collateral_usd`).
        """
        return self.valuation().pinned_total_collateral_usd()

    def total_debt_usd(self) -> float:
        """Total USD value of outstanding debt (pinned, like the total above)."""
        return self.valuation().pinned_total_debt_usd()

    def snapshot(self) -> dict[str, object]:
        """Archive snapshot of positions and aggregates at the current block.

        The totals and every position's health factor come from one shared
        :meth:`valuation` — the price vector is fetched once per snapshot
        instead of once per aggregate — and the pinned accessors keep the
        archived numbers bit-identical to the scalar walk
        (:func:`repro.reference.snapshot`).
        """
        valuation = self.valuation()
        health_factors = valuation.pinned_health_factors()
        open_rows = np.flatnonzero(valuation.has_debt | valuation.has_collateral)
        valued_positions = [(self.book.position_at(row), health_factors[row]) for row in open_rows.tolist()]
        return {
            "block": self.chain.current_block,
            "platform": self.name,
            "prices": dict(valuation.prices),
            "thresholds": dict(valuation.thresholds),
            "total_collateral_usd": valuation.pinned_total_collateral_usd(),
            "total_debt_usd": valuation.pinned_total_debt_usd(),
            "positions": [
                {
                    "owner": position.owner.value,
                    "collateral": dict(position.collateral),
                    "debt": dict(position.debt),
                    "health_factor": health_factor,
                }
                for position, health_factor in valued_positions
            ],
        }

    # ------------------------------------------------------------------ #
    # Liquidation (protocol specific)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def liquidation_mechanism(self) -> str:
        """Return ``"fixed-spread"`` or ``"auction"``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} positions={len(self.positions)}>"
