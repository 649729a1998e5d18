"""dYdX (Section 3.3).

dYdX supports only the WETH/USDC/DAI markets, uses a fixed 5 % spread, and —
crucially for the paper's comparison — has *no* close factor: "dYdX's close
factor is 100 %, allowing the liquidators to liquidate the entire collateral
within one liquidation."  dYdX also maintains an external insurance fund that
writes off Type I bad debt, which is why Table 2 reports no Type I bad debt
for dYdX.
"""

from __future__ import annotations

from ..chain.chain import Blockchain
from ..chain.types import Address, make_address
from ..core.position import Position
from ..oracle.chainlink import PriceOracle
from ..tokens.registry import TokenRegistry
from .base import MarketConfig
from .fixed_spread_protocol import FixedSpreadProtocol

#: dYdX's inception block (footnote 5 of the paper).
DYDX_INCEPTION_BLOCK = 7_575_711

#: dYdX operates at a fixed spread of 5 %.
DYDX_LIQUIDATION_SPREAD = 0.05

#: dYdX has no close factor: the full debt may be repaid at once.
DYDX_CLOSE_FACTOR = 1.0

#: dYdX markets (the paper: WETH/USDC, WETH/DAI and USDC/DAI markets) with
#: their margin requirement expressed as a liquidation threshold.
DYDX_MARKETS: dict[str, float] = {
    "ETH": 0.869565,  # 115 % margin requirement ⇒ LT = 1 / 1.15
    "USDC": 0.869565,
    "DAI": 0.869565,
}


class DydxProtocol(FixedSpreadProtocol):
    """dYdX-style margin protocol: 3 markets, 5 % spread, CF = 100 %."""

    LIQUIDATION_EVENT = "LogLiquidate"

    def __init__(
        self,
        chain: Blockchain,
        oracle: PriceOracle,
        registry: TokenRegistry,
        markets: dict[str, float] | None = None,
        inception_block: int = DYDX_INCEPTION_BLOCK,
    ) -> None:
        super().__init__(
            name="dYdX",
            chain=chain,
            oracle=oracle,
            registry=registry,
            close_factor=DYDX_CLOSE_FACTOR,
            inception_block=inception_block,
        )
        self.insurance_fund: Address = make_address("dYdX-insurance-fund")
        self._insurance_written_off_usd = 0.0
        for symbol, threshold in (markets or DYDX_MARKETS).items():
            registry.ensure(symbol)
            self.add_market(
                MarketConfig(
                    symbol=symbol,
                    liquidation_threshold=threshold,
                    liquidation_spread=DYDX_LIQUIDATION_SPREAD,
                )
            )

    # ------------------------------------------------------------------ #
    # Insurance fund
    # ------------------------------------------------------------------ #
    @property
    def insurance_written_off_usd(self) -> float:
        """Cumulative USD value of Type I bad debt written off by the fund."""
        return self._insurance_written_off_usd

    def write_off_bad_debt(self) -> float:
        """Close every under-collateralized position at the insurance fund's expense.

        Returns the USD value written off in this call.  The scenario engine
        invokes this periodically, reproducing why "dYdX does not have any
        Type I bad debt at block 12344944" (Section 4.4.2).
        """
        written_off = 0.0
        for position, collateral_usd, debt_usd in self._under_collateralized():
            written_off += debt_usd - collateral_usd
            # The fund absorbs the shortfall: debt and collateral are cleared.
            position.clear()
            self.chain.emit_event(
                "InsuranceWriteOff",
                emitter=self.address,
                data={
                    "platform": self.name,
                    "borrower": position.owner.value,
                    "shortfall_usd": debt_usd - collateral_usd,
                },
            )
        self._insurance_written_off_usd += written_off
        return written_off

    def _under_collateralized(self) -> list[tuple[Position, float, float]]:
        """Positions with CR < 1 and their ``(collateral_usd, debt_usd)``.

        The block's shared (cached) valuation flags CR < 1 candidates with a
        safety margin; each is confirmed with the scalar ratio, so the set
        matches a scalar sweep over every indebted position, and the pinned
        per-row values are bit-identical to the scalar formulas
        (:func:`repro.reference.dydx_under_collateralized`).  Everything is
        valued before the write-off clears any position.
        """
        valuation = self.valuation()
        prices = valuation.prices
        found: list[tuple[Position, float, float]] = []
        for row in valuation.under_collateralized_rows().tolist():
            position = self.book.position_at(row)
            if position.is_under_collateralized(prices):
                collateral_usd, debt_usd = valuation.pinned_row_values(row)
                found.append((position, collateral_usd, debt_usd))
        return found


def make_dydx(chain: Blockchain, oracle: PriceOracle, registry: TokenRegistry) -> DydxProtocol:
    """dYdX with the paper's market mix and parameters."""
    return DydxProtocol(chain, oracle, registry)
