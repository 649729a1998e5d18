"""Liquidation sensitivity measurement (Section 4.5.1, Figure 8).

Runs Algorithm 1 (:mod:`repro.core.sensitivity`) on each platform's snapshot
state: for every collateral currency the platform lists, sweep price declines
from 0 % to 100 % and record the collateral value that would become
liquidatable.  The paper finds every platform is most sensitive to ETH and
that Aave V2 — whose users favour multi-asset collateral — is flatter than
Compound despite similar TVL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.sensitivity import (
    SensitivityPoint,
    most_sensitive_symbol,
    sensitivity_curve,
)
from ..protocols.base import LendingProtocol
from ..simulation.engine import SimulationResult

#: Platforms shown in Figure 8 (Aave V1 is excluded: its liquidity had
#: migrated to V2 by the snapshot block — footnote 6 of the paper).
DEFAULT_PLATFORMS = ("Aave V2", "Compound", "dYdX", "MakerDAO")


@dataclass(frozen=True)
class PlatformSensitivity:
    """One panel of Figure 8."""

    platform: str
    curves: dict[str, list[SensitivityPoint]]

    @property
    def most_sensitive_symbol(self) -> str | None:
        """The collateral currency whose decline liquidates the most value."""
        return most_sensitive_symbol(self.curves)

    def curve(self, symbol: str) -> list[SensitivityPoint]:
        """The sensitivity curve of one collateral currency."""
        return self.curves.get(symbol.upper(), [])

    def liquidatable_at(self, symbol: str, decline: float) -> float:
        """Interpolated liquidatable collateral at an arbitrary decline level."""
        curve = self.curve(symbol)
        if not curve:
            return 0.0
        declines = [point.decline for point in curve]
        values = [point.liquidatable_collateral_usd for point in curve]
        return float(np.interp(decline, declines, values))

    @property
    def max_liquidatable_usd(self) -> float:
        """The largest liquidatable value across all currencies and declines."""
        return max(
            (point.liquidatable_collateral_usd for curve in self.curves.values() for point in curve),
            default=0.0,
        )


def sweep_axes(
    protocol: LendingProtocol,
    declines: Sequence[float] | None,
    symbols: Sequence[str] | None,
) -> tuple[Sequence[str], Sequence[float]]:
    """Algorithm 1's axes with their defaults filled in: every collateral
    currency the platform lists, and price declines 0 %, 5 %, …, 100 %."""
    if symbols is None:
        symbols = [
            symbol
            for symbol, market in protocol.markets.items()
            if market.collateral_enabled and market.liquidation_threshold > 0
        ]
    if declines is None:
        declines = np.linspace(0.0, 1.0, 21)
    return symbols, declines


def platform_sensitivity(
    protocol: LendingProtocol,
    declines: Sequence[float] | None = None,
    symbols: Sequence[str] | None = None,
) -> PlatformSensitivity:
    """Run Algorithm 1 over one platform's current state.

    The per-currency sweeps only walk the positions that actually hold the
    declining collateral: the holder set is selected from the shared
    :class:`~repro.core.position_book.BookValuation`'s exact per-asset value
    column (the same ``amount × price`` products Algorithm 1's skip test
    computes), so the prefilter is bit-exact — the scalar inner loop then
    runs unchanged over the subset, producing the same Figure 8 as a sweep
    over every indebted position (:func:`repro.reference.platform_sensitivity`).
    """
    symbols, declines = sweep_axes(protocol, declines, symbols)
    valuation = protocol.valuation()
    prices = valuation.prices
    thresholds = valuation.thresholds
    curves: dict[str, list[SensitivityPoint]] = {}
    for symbol in symbols:
        column = valuation.collateral_value_column(symbol.upper())
        if column is None:
            holders = []
        else:
            holders = valuation.positions(np.flatnonzero(valuation.has_debt & (column > 0.0)))
        curves[symbol.upper()] = sensitivity_curve(holders, symbol, prices, thresholds, declines)
    return PlatformSensitivity(platform=protocol.name, curves=curves)


def sensitivity_figure(
    result: SimulationResult,
    platforms: Sequence[str] = DEFAULT_PLATFORMS,
    declines: Sequence[float] | None = None,
) -> dict[str, PlatformSensitivity]:
    """Figure 8: sensitivity panels for the four studied platforms."""
    figure: dict[str, PlatformSensitivity] = {}
    for name in platforms:
        try:
            protocol = result.protocol(name)
        except KeyError:
            continue
        figure[name] = platform_sensitivity(protocol, declines)
    return figure
