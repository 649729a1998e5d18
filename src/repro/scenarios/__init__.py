"""Composable scenario construction.

This package layers the scenario API the rest of the codebase builds on:

* :mod:`repro.scenarios.builder` — the fluent :class:`ScenarioBuilder` with
  independently overridable component factories (feed, chain, oracles,
  protocols, flash loans, AMM, agents);
* :mod:`repro.scenarios.incidents` — first-class :class:`Incident` objects
  (:class:`PriceCrash`, :class:`OracleOverride`, :class:`CongestionEpisode`,
  :class:`AuctionReconfig`) that scenarios declare as data;
* :mod:`repro.scenarios.registry` — the named scenario registry
  (:func:`register_scenario`, :func:`get`, :func:`names`);
* :mod:`repro.scenarios.library` — the built-in scenarios, from the paper
  presets to stress worlds like ``stablecoin-depeg`` and ``oracle-attack``.

Quickstart::

    from repro import scenarios

    result = scenarios.get("march-2020-only").run(seed=7)
"""

from .builder import (
    ASSET_DYNAMICS,
    DEFAULT_PROTOCOL_NAMES,
    STABLECOIN_SYMBOLS,
    BuildContext,
    ScenarioBuilder,
    default_population,
    default_price_feed,
)
from .incidents import (
    AuctionReconfig,
    CongestionEpisode,
    FeedGrid,
    Incident,
    OracleOverride,
    PriceCrash,
    default_incidents,
    post_incident_auction_config,
    pre_incident_auction_config,
)
from .registry import (
    ScenarioDefinition,
    UnknownScenarioError,
    all_scenarios,
    get,
    names,
    register_scenario,
    unregister,
)
from . import library  # noqa: F401  (imported for its registration side effects)

__all__ = [
    "ASSET_DYNAMICS",
    "AuctionReconfig",
    "BuildContext",
    "CongestionEpisode",
    "DEFAULT_PROTOCOL_NAMES",
    "FeedGrid",
    "Incident",
    "OracleOverride",
    "PriceCrash",
    "STABLECOIN_SYMBOLS",
    "ScenarioBuilder",
    "ScenarioDefinition",
    "UnknownScenarioError",
    "all_scenarios",
    "default_incidents",
    "default_population",
    "default_price_feed",
    "get",
    "names",
    "post_incident_auction_config",
    "pre_incident_auction_config",
    "register_scenario",
    "unregister",
]
