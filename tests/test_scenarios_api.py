"""Tests for the composable scenario API: builder, incidents, registry, CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro import scenarios
from repro.campaigns import CampaignSpec
from repro.campaigns.executor import RunJob, execute_job
from repro.experiments.runner import EXPERIMENT_IDS, run_all, run_one
from repro.scenarios import (
    AuctionReconfig,
    CongestionEpisode,
    FeedGrid,
    OracleOverride,
    PriceCrash,
    ScenarioBuilder,
    UnknownScenarioError,
    default_incidents,
    register_scenario,
)
from repro.scenarios import builder as builder_module
from repro.simulation.config import ScenarioConfig


def tiny_config(seed: int = 3) -> ScenarioConfig:
    """A drastically truncated small window: cheap to build, fast to run."""
    return ScenarioConfig.small(seed=seed).with_overrides(end_block=9_760_000)


@pytest.fixture(scope="module")
def tiny_engine():
    """A built (not run) engine over the tiny window, for event/wiring tests."""
    return ScenarioBuilder(tiny_config()).build()


class TestIncidents:
    def test_price_crash_targets_all_risky_assets_by_default(self):
        grid = FeedGrid(start_block=0, blocks_per_step=100, n_steps=1_000)
        crash = PriceCrash(name="crash", block=20_000, drop=0.4)
        shocks = crash.price_shocks(grid)
        assert set(shocks) == {None}
        shock = shocks[None]
        assert shock.step == 200
        assert shock.magnitude == pytest.approx(0.6)

    def test_price_crash_outside_window_contributes_nothing(self):
        grid = FeedGrid(start_block=0, blocks_per_step=100, n_steps=50)
        crash = PriceCrash(name="crash", block=20_000, drop=0.4)
        assert crash.price_shocks(grid) == {}

    def test_negative_drop_is_a_spike(self):
        grid = FeedGrid(start_block=0, blocks_per_step=100, n_steps=1_000)
        spike = PriceCrash(name="premium", block=0, drop=-0.1, symbols=("DAI",))
        assert spike.price_shocks(grid)["DAI"].magnitude == pytest.approx(1.1)

    def test_default_incidents_schedule_in_block_sorted_named_events(self, tiny_engine):
        names = [event.name for event in tiny_engine.scheduled_events]
        assert names == [
            "march-2020-crash",
            "february-2021-crash",
            "compound-dai-oracle-irregularity",
            "compound-dai-oracle-recovery",
            "makerdao-auction-reconfiguration",
        ]

    def test_oracle_override_applies_and_recovers(self, tiny_engine):
        incident = OracleOverride(
            name="dai-glitch", block=1, symbol="DAI", price=1.5, duration_blocks=100, oracle="Compound"
        )
        before = len(tiny_engine.scheduled_events)
        incident.schedule(tiny_engine)
        apply_event, clear_event = tiny_engine.scheduled_events[before:]
        assert (apply_event.name, clear_event.name) == ("dai-glitch", "dai-glitch-recovery")
        compound_oracle = tiny_engine.protocol_oracles["Compound"]
        apply_event.action(tiny_engine)
        assert compound_oracle.overrides == {"DAI": 1.5}
        clear_event.action(tiny_engine)
        assert compound_oracle.overrides == {}
        del tiny_engine.scheduled_events[before:]

    def test_relative_oracle_override_scales_market_price(self, tiny_engine):
        incident = OracleOverride(
            name="eth-attack", block=1, symbol="ETH", price=0.5, relative=True,
            duration_blocks=0, oracle="chainlink",
        )
        before = len(tiny_engine.scheduled_events)
        incident.schedule(tiny_engine)
        (event,) = tiny_engine.scheduled_events[before:]
        event.action(tiny_engine)
        oracle = tiny_engine.protocol_oracles["chainlink"]
        market = tiny_engine.feed.price("ETH", tiny_engine.chain.current_block)
        assert oracle.overrides["ETH"] == pytest.approx(market * 0.5)
        oracle.clear_override("ETH")
        del tiny_engine.scheduled_events[before:]

    def test_auction_reconfig_lengthens_bid_duration(self, tiny_engine):
        makerdao = tiny_engine.makerdao
        before = makerdao.auction_config.bid_duration_blocks
        incident = AuctionReconfig(name="reconfig", block=1)
        mark = len(tiny_engine.scheduled_events)
        incident.schedule(tiny_engine)
        tiny_engine.scheduled_events[mark].action(tiny_engine)
        assert makerdao.auction_config.bid_duration_blocks > before
        del tiny_engine.scheduled_events[mark:]

    def test_congestion_episode_triggers_gas_congestion(self, tiny_engine):
        incident = CongestionEpisode(name="jam", block=1, congestion_blocks=8_000)
        mark = len(tiny_engine.scheduled_events)
        incident.schedule(tiny_engine)
        tiny_engine.scheduled_events[mark].action(tiny_engine)
        assert tiny_engine.chain.gas_market.is_congested
        del tiny_engine.scheduled_events[mark:]


class TestScenarioBuilder:
    def test_fluent_methods_return_the_builder(self):
        builder = ScenarioBuilder(tiny_config())
        assert builder.with_seed(5) is builder
        assert builder.with_assets({"ETH": (1.0, 0.5)}) is builder
        assert builder.with_population(liquidators=3) is builder
        assert builder.without_incidents() is builder

    def test_without_incidents_schedules_nothing_and_smooths_the_feed(self):
        config = ScenarioConfig.small(seed=9)
        builder = ScenarioBuilder(config).without_incidents()
        feed = builder.build_feed()
        crash_block = config.incidents.march_2020_block
        before = feed.price("ETH", crash_block - 5 * config.feed_blocks_per_step)
        after = feed.price("ETH", crash_block + 5 * config.feed_blocks_per_step)
        # Without the scheduled crash the move across the window is pure diffusion.
        assert after > before * 0.75

    def test_with_protocols_restricts_the_universe(self):
        engine = ScenarioBuilder(tiny_config()).with_protocols("Compound", "MakerDAO").build()
        assert [protocol.name for protocol in engine.protocols] == ["Compound", "MakerDAO"]
        assert engine.protocol("Compound").name == "Compound"
        with pytest.raises(KeyError):
            engine.protocol("Aave V1")

    def test_unknown_protocol_name_raises(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            ScenarioBuilder(tiny_config()).with_protocols("Uniswap").build()

    def test_shock_targeting_unknown_asset_raises(self):
        builder = ScenarioBuilder(tiny_config()).with_incidents(
            PriceCrash(name="btc-crash", block=9_710_000, drop=0.3, symbols=("BTC",))
        )
        with pytest.raises(ValueError, match="unknown asset 'BTC'"):
            builder.build_feed()

    def test_with_population_overrides_single_fields(self):
        builder = ScenarioBuilder(tiny_config()).with_population(borrowers_per_platform=2)
        assert builder.config.population.borrowers_per_platform == 2
        assert builder.config.population.keepers == 5  # untouched small-preset value

    def test_extra_agents_and_events_are_wired(self):
        seen = []

        def extra_agents(ctx, engine):
            seen.append(len(engine.agents))

        builder = (
            ScenarioBuilder(tiny_config())
            .schedule(9_700_001, "custom-event", lambda eng: None)
            .add_agents(extra_agents)
        )
        engine = builder.build()
        assert seen and seen[0] > 0
        assert any(event.name == "custom-event" for event in engine.scheduled_events)


class TestLazyAgentRngs:
    def test_lazy_stream_matches_eager_50k_spawn_end_to_end(self, tmp_path, monkeypatch):
        """The event log and every experiment file equal those of a world
        whose agents draw from the former eager 50,000-generator list."""
        spec = CampaignSpec(scenario="small", seeds=1, base_seed=5, overrides={"end_block": 9_760_000})
        run = spec.runs()[0]

        def execute(root: str) -> tuple[str, dict[str, bytes]]:
            lines: list[str] = []
            job = RunJob(
                store_root=str(tmp_path / root),
                campaign=spec.campaign,
                run=run,
                experiments=spec.experiments,
                sample_below=1.1,
            )
            assert execute_job(job, lines.append).error is None
            files = {
                path.name: path.read_bytes()
                for path in sorted((tmp_path / root).rglob("*.json"))
                if path.name != "manifest.json"
            }
            return "".join(lines), files

        lazy_log, lazy_files = execute("lazy")

        def eager_stream(seed: int):
            children = np.random.SeedSequence(seed).spawn(50_000)
            return iter([np.random.default_rng(child) for child in children])

        monkeypatch.setattr(builder_module, "rng_stream", eager_stream)
        eager_log, eager_files = execute("eager")
        assert len(lazy_files) == len(spec.experiments)
        assert "LiquidationSettled" in lazy_log
        assert eager_log == lazy_log
        assert eager_files == lazy_files


class TestLegacyEquivalence:
    def test_registry_small_is_the_legacy_small_preset(self):
        builder = scenarios.get("small").builder(seed=11)
        assert builder.config == ScenarioConfig.small(seed=11)


class TestRegistry:
    def test_library_ships_the_documented_scenarios(self):
        expected = {
            "small",
            "paper-medium",
            "paper-full",
            "march-2020-only",
            "no-incidents-bull",
            "double-crash-stress",
            "stablecoin-depeg",
            "oracle-attack",
        }
        assert expected <= set(scenarios.names())

    def test_unknown_name_raises_with_known_names_listed(self):
        with pytest.raises(UnknownScenarioError, match="march-2020-only"):
            scenarios.get("definitely-not-a-scenario")

    def test_duplicate_registration_is_an_error(self):
        @register_scenario("tmp-duplicate-check")
        def factory(seed=None):
            return ScenarioBuilder(tiny_config())

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario("tmp-duplicate-check")(factory)
        finally:
            scenarios.unregister("tmp-duplicate-check")

    def test_march_2020_only_has_exactly_one_incident(self):
        builder = scenarios.get("march-2020-only").builder(seed=3)
        assert len(builder.incidents) == 1
        assert builder.incidents[0].name == "march-2020-crash"

    def test_definition_build_returns_engine_with_seed_applied(self):
        definition = scenarios.get("march-2020-only")
        engine = definition.builder(seed=123).with_window(end_block=9_710_000).build()
        assert engine.config.seed == 123


class TestScheduledEventRobustness:
    def test_event_before_start_block_fires_on_first_step(self, tiny_engine):
        fired = []
        mark = len(tiny_engine.scheduled_events)
        tiny_engine.schedule(0, "pre-genesis", lambda eng: fired.append("pre-genesis"))
        tiny_engine._fire_scheduled_events()
        assert fired == ["pre-genesis"]
        del tiny_engine.scheduled_events[mark:]

    def test_action_may_schedule_further_due_events_mid_iteration(self, tiny_engine):
        fired = []
        mark = len(tiny_engine.scheduled_events)

        def chain_reaction(eng):
            fired.append("first")
            eng.schedule(0, "second", lambda e: fired.append("second"))

        tiny_engine.schedule(0, "first", chain_reaction)
        tiny_engine._fire_scheduled_events()
        assert fired == ["first", "second"]
        assert all(event.fired for event in tiny_engine.scheduled_events[mark:])
        del tiny_engine.scheduled_events[mark:]

    def test_events_fire_in_block_order_not_registration_order(self, tiny_engine):
        fired = []
        mark = len(tiny_engine.scheduled_events)
        tiny_engine.schedule(100, "later", lambda eng: fired.append("later"))
        tiny_engine.schedule(50, "earlier", lambda eng: fired.append("earlier"))
        tiny_engine._fire_scheduled_events()
        assert fired == ["earlier", "later"]
        del tiny_engine.scheduled_events[mark:]


class TestEngineProtocolLookup:
    def test_lookup_sees_protocols_appended_after_construction(self, tiny_engine):
        assert tiny_engine.protocol("Compound").name == "Compound"  # warm the cache

        class Dummy:
            name = "Dummy"

        tiny_engine.protocols.append(Dummy())
        try:
            assert tiny_engine.protocol("Dummy").name == "Dummy"
        finally:
            tiny_engine.protocols.pop()

    def test_unknown_protocol_raises_keyerror(self, tiny_engine):
        with pytest.raises(KeyError, match="Nonexistent"):
            tiny_engine.protocol("Nonexistent")

    def test_lookup_sees_in_place_replacement_after_invalidation(self, tiny_engine):
        original = tiny_engine.protocol("Compound")
        index = tiny_engine.protocols.index(original)

        class Impostor:
            name = "Compound"

        tiny_engine.protocols[index] = Impostor()
        tiny_engine.invalidate_protocol_cache()
        try:
            assert tiny_engine.protocol("Compound") is tiny_engine.protocols[index]
        finally:
            tiny_engine.protocols[index] = original
            tiny_engine.invalidate_protocol_cache()


class TestExperimentSpecs:
    def test_run_one_matches_run_all(self, small_result):
        outputs = run_all(small_result)
        single = run_one(small_result, "table1")
        assert single.report == outputs["table1"].report
        assert set(outputs) == set(EXPERIMENT_IDS)

    def test_run_one_unknown_id_raises(self, small_result):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_one(small_result, "table99")


class TestCli:
    def test_list_prints_every_scenario(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("march-2020-only", "stablecoin-depeg", "oracle-attack"):
            assert name in out

    def test_reports_lists_ids(self, capsys):
        from repro.cli import main

        assert main(["reports"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig7" in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["run", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_report_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["run", "--scenario", "small", "--report", "table99"]) == 2
        assert "unknown report" in capsys.readouterr().err

    def test_typoed_report_rejected_even_alongside_all(self, capsys):
        from repro.cli import main

        assert main(["run", "--scenario", "small", "--report", "all", "--report", "tabel1"]) == 2
        assert "tabel1" in capsys.readouterr().err

    def test_run_renders_table1_end_to_end(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--scenario",
                "march-2020-only",
                "--seed",
                "3",
                "--report",
                "table1",
                "--end-block",
                "9900000",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Table 1" in captured.out

    def test_run_writes_output_file(self, capsys, tmp_path):
        from repro.cli import main

        target = tmp_path / "report.txt"
        code = main(
            [
                "run",
                "--scenario",
                "no-incidents-bull",
                "--seed",
                "5",
                "--report",
                "fig4",
                "--end-block",
                "9760000",
                "--output",
                str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert "Figure 4" in target.read_text()
