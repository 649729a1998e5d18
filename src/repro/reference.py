"""Scalar reference walks: the per-position semantics the book path must equal.

The runtime reads the position book through one columnar path: the
:class:`~repro.core.position_book.BookScan` for the per-stride liquidation
scan and the cached :class:`~repro.core.position_book.BookValuation` for
totals, archive snapshots, utilization, interest accrual, the dYdX
insurance write-off and the Table 2 / Table 3 / Figure 8 analytics.  Each
function here is the plain per-position walk that path replaced, kept with
its arithmetic and iteration order, so it stays the definition the fast
path is checked against:

* the sanitizer's stride cross-check of the liquidation scan
  (``SimulationEngine._cross_check_scan``) calls
  :func:`liquidatable_candidates`;
* ``tests/test_reference_equivalence.py`` swaps every function in for the
  runtime method or function it mirrors and asserts that whole runs and
  reports replay bit-identically;
* the scan and valuation micro-benchmarks time the book path against it.

Every function takes the protocol as its first argument followed by the
signature of the runtime method it mirrors, so it can stand in for that
method directly.  Nothing in the runtime selects these walks.
"""

from __future__ import annotations

from typing import Sequence

from .analytics.bad_debt_analysis import DEFAULT_FEES_USD, PlatformBadDebt
from .analytics.sensitivity_analysis import PlatformSensitivity, sweep_axes
from .analytics.unprofitable_analysis import UnprofitableCell, unprofitable_cell
from .core.bad_debt import BadDebtReport, bad_debt_report
from .core.position import Position
from .core.sensitivity import sensitivity_surface
from .protocols.base import LendingProtocol
from .protocols.fixed_spread_protocol import FixedSpreadProtocol

__all__ = [
    "accrual_positions",
    "dydx_under_collateralized",
    "liquidatable_candidates",
    "platform_bad_debt",
    "platform_sensitivity",
    "platform_unprofitable",
    "snapshot",
    "total_collateral_usd",
    "total_debt_usd",
    "utilization",
]


# ---------------------------------------------------------------------- #
# Liquidation scan (LendingProtocol.liquidatable_candidates)
# ---------------------------------------------------------------------- #
def liquidatable_candidates(protocol: LendingProtocol, require_collateral: bool = False) -> list[Position]:
    """A scalar sweep of every indebted position, in position order."""
    prices = protocol.prices()
    thresholds = protocol.liquidation_thresholds()
    return [
        position
        for position in protocol.positions_with_debt()
        if (not require_collateral or position.has_collateral)
        and position.is_liquidatable(prices, thresholds)
    ]


# ---------------------------------------------------------------------- #
# Interest (LendingProtocol.utilization / _accrual_positions)
# ---------------------------------------------------------------------- #
def utilization(protocol: LendingProtocol, symbol: str) -> float:
    """Borrowed share of the pool's ``symbol`` liquidity, debts walked per position."""
    token = protocol.registry.get(symbol)
    available = token.balance_of(protocol.address)
    # repro: lint-ok(SUM002 scalar reference: this walk *is* the pinned order)
    borrowed = sum(position.debt.get(symbol.upper(), 0.0) for position in protocol.positions.values())
    total = available + borrowed
    if total <= 0:
        return 0.0
    return borrowed / total


def accrual_positions(protocol: LendingProtocol) -> list[Position]:
    """Every position: an accrual sweep that does not skip the debt-free ones."""
    return list(protocol.positions.values())


# ---------------------------------------------------------------------- #
# Aggregates and snapshots (LendingProtocol.total_* / snapshot)
# ---------------------------------------------------------------------- #
def total_collateral_usd(protocol: LendingProtocol) -> float:
    """Total USD value of collateral, summed position by position."""
    prices = protocol.prices()
    # The 0.0 start keeps the all-empty edge a float, matching the
    # pinned reduction's JSON token (sum alone would return int 0).
    # repro: lint-ok(SUM002 scalar reference: this walk *is* the pinned order)
    return sum((position.total_collateral_usd(prices) for position in protocol.positions.values()), 0.0)


def total_debt_usd(protocol: LendingProtocol) -> float:
    """Total USD value of outstanding debt, summed position by position."""
    prices = protocol.prices()
    # repro: lint-ok(SUM002 scalar reference: this walk *is* the pinned order)
    return sum((position.total_debt_usd(prices) for position in protocol.positions.values()), 0.0)


def snapshot(protocol: LendingProtocol) -> dict[str, object]:
    """The archive snapshot with every health factor computed per position."""
    prices = protocol.prices()
    thresholds = protocol.liquidation_thresholds()
    return {
        "block": protocol.chain.current_block,
        "platform": protocol.name,
        "prices": dict(prices),
        "thresholds": dict(thresholds),
        "total_collateral_usd": total_collateral_usd(protocol),
        "total_debt_usd": total_debt_usd(protocol),
        "positions": [
            {
                "owner": position.owner.value,
                "collateral": dict(position.collateral),
                "debt": dict(position.debt),
                "health_factor": position.health_factor(prices, thresholds),
            }
            for position in protocol.open_positions()
        ],
    }


# ---------------------------------------------------------------------- #
# dYdX insurance write-off (DydxProtocol._under_collateralized)
# ---------------------------------------------------------------------- #
def dydx_under_collateralized(protocol: LendingProtocol) -> list[tuple[Position, float, float]]:
    """Positions with CR < 1 and their ``(collateral_usd, debt_usd)``, valued
    with the scalar formulas after a fresh scan's margin prefilter."""
    prices = protocol.prices()
    scan = protocol.book.scan(prices, protocol.liquidation_thresholds())
    found: list[tuple[Position, float, float]] = []
    for row in scan.under_collateralized_rows().tolist():
        position = protocol.book.position_at(row)
        if not position.is_under_collateralized(prices):
            continue
        debt_usd = position.total_debt_usd(prices)
        collateral_usd = position.total_collateral_usd(prices)
        found.append((position, collateral_usd, debt_usd))
    return found


# ---------------------------------------------------------------------- #
# Analytics (Table 2, Table 3, Figure 8)
# ---------------------------------------------------------------------- #
def platform_bad_debt(
    protocol: LendingProtocol,
    fees_usd: Sequence[float] = DEFAULT_FEES_USD,
) -> PlatformBadDebt:
    """Table 2's row, classifying every indebted position once per fee."""
    prices = protocol.prices()
    positions = protocol.positions_with_debt()
    by_fee: dict[float, BadDebtReport] = {}
    for fee in fees_usd:
        by_fee[fee] = bad_debt_report(positions, prices, fee)
    reference = by_fee[fees_usd[0]] if fees_usd else bad_debt_report(positions, prices, 0.0)
    return PlatformBadDebt(
        platform=protocol.name,
        type_i_count=reference.type_i_count,
        type_i_collateral_usd=reference.type_i_collateral_usd,
        type_ii_by_fee=by_fee,
        total_positions=reference.total_positions,
    )


def platform_unprofitable(protocol: FixedSpreadProtocol, transaction_fee_usd: float) -> UnprofitableCell:
    """Table 3's cell over every indebted position, without a prefilter."""
    return unprofitable_cell(
        protocol,
        transaction_fee_usd,
        protocol.positions_with_debt(),
        protocol.prices(),
        protocol.liquidation_thresholds(),
    )


def platform_sensitivity(
    protocol: LendingProtocol,
    declines: Sequence[float] | None = None,
    symbols: Sequence[str] | None = None,
) -> PlatformSensitivity:
    """Algorithm 1 swept over every indebted position for each currency."""
    symbols, declines = sweep_axes(protocol, declines, symbols)
    prices = protocol.prices()
    thresholds = protocol.liquidation_thresholds()
    positions = protocol.positions_with_debt()
    curves = sensitivity_surface(positions, symbols, prices, thresholds, declines)
    return PlatformSensitivity(platform=protocol.name, curves=curves)
