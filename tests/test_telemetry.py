"""Tests for the telemetry subsystem: spans, metrics, runtime, and the
proof obligation that instrumentation never changes a simulation.

The bit-identity matrix mirrors ``test_scan_equivalence``: every registered
scenario replays with telemetry fully enabled (tracer installed, spans
recording, the :class:`TelemetryProbe` bridging events into metrics) and
must produce the same events, liquidation records and archive snapshots as
a bare run at the same seed.  Telemetry reads clocks and state but never
mutates the world or consumes randomness, so anything else is a bug.
"""

from __future__ import annotations

import io
import json
import urllib.request

import pytest

from repro import scenarios
from repro.analytics.records import extract_liquidations
from repro.chain.types import reset_id_counters
from repro.cli import main
from repro.serialize import to_jsonable
from repro.telemetry import (
    MetricsRegistry,
    MetricsServer,
    SpanRecord,
    Telemetry,
    TelemetryProbe,
    Tracer,
    active,
    aggregate_spans,
    enabled,
    install,
    render_phase_report,
    span,
    uninstall,
)
from repro.telemetry.runtime import _NOOP_SPAN

#: Number of block strides each truncated bit-identity run covers.
STRIDES = 30

SEED = 23


def run_truncated(name: str, telemetered: bool):
    """One truncated scenario run; returns ``(result, telemetry_or_None)``."""
    reset_id_counters()
    builder = scenarios.get(name).builder(seed=SEED)
    config = builder.config
    end_block = min(config.end_block, config.start_block + STRIDES * config.blocks_per_step)
    builder.config = config.with_overrides(end_block=end_block)
    engine = builder.build()
    if not telemetered:
        return engine.run(), None
    telemetry = Telemetry(name=name)
    engine.attach_probe(TelemetryProbe(telemetry.registry))
    with enabled(telemetry):
        result = engine.run()
    return result, telemetry


def event_fingerprint(result):
    return [
        (event.name, event.emitter.value, event.block_number, event.log_index, event.data)
        for event in result.chain.events
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("name", scenarios.names())
    def test_telemetry_on_and_off_replay_identically(self, name):
        bare, _ = run_truncated(name, telemetered=False)
        traced, telemetry = run_truncated(name, telemetered=True)

        assert event_fingerprint(traced) == event_fingerprint(bare)
        assert to_jsonable(extract_liquidations(traced)) == to_jsonable(
            extract_liquidations(bare)
        )
        assert traced.final_block == bare.final_block
        assert traced.chain.snapshot_blocks == bare.chain.snapshot_blocks
        for block in bare.chain.snapshot_blocks:
            assert to_jsonable(traced.chain.snapshot_at(block)) == to_jsonable(
                bare.chain.snapshot_at(block)
            )

        # The telemetered run must actually have telemetered: an empty tracer
        # would make this whole matrix vacuous.
        assert telemetry.tracer.records
        names = {record.name for record in telemetry.tracer.records}
        assert "engine.step" in names
        assert "chain.pack" in names
        snapshot = telemetry.registry.snapshot()
        assert any(series.startswith("repro_events_total") for series in snapshot)
        assert snapshot.get("repro_block_number", 0) > 0

    def test_runtime_left_clean(self):
        # The matrix above ran under enabled(); nothing may leak.
        assert active() is None


class TestSpans:
    def test_nesting_depth_parents_and_self_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert [record.name for record in tracer.records] == ["inner", "inner", "outer"]
        inner_a, inner_b, outer = tracer.records
        assert outer.depth == 0 and inner_a.depth == 1 and inner_b.depth == 1
        assert inner_a.parent_id == outer.span_id
        assert inner_b.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.child_ns == inner_a.duration_ns + inner_b.duration_ns
        assert outer.self_ns == outer.duration_ns - outer.child_ns
        assert tracer.depth == 0

    def test_out_of_order_exit_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_aggregate_spans(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("engine.step"):
                with tracer.span("engine.scan"):
                    pass
        aggregates = aggregate_spans(tracer.records)
        assert aggregates["engine.step"]["count"] == 3
        assert aggregates["engine.scan"]["count"] == 3
        assert aggregates["engine.step"]["total_seconds"] >= aggregates["engine.step"][
            "self_seconds"
        ]

    def test_chrome_trace_shape(self, tmp_path):
        tracer = Tracer()
        with tracer.span("engine.step", {"stride": 1}):
            with tracer.span("chain.pack"):
                pass
        trace = tracer.chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == 2
        assert all(event["ph"] == "X" for event in events)
        # Events sort by start timestamp: the outer span opened first.
        assert [event["name"] for event in events] == ["engine.step", "chain.pack"]
        assert events[0]["cat"] == "engine" and events[1]["cat"] == "chain"
        assert events[0]["args"] == {"stride": 1}
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        assert json.loads(path.read_text())["traceEvents"] == json.loads(
            json.dumps(events)
        )

    def test_render_phase_report(self):
        tracer = Tracer()
        with tracer.span("engine.step"):
            pass
        report = render_phase_report(tracer.records)
        assert "engine.step" in report
        assert "% self" in report
        assert render_phase_report([]) == "no spans recorded\n"

    def test_phase_report_unattributed_row_closes_self_times_to_wall(self):
        records = [
            SpanRecord("build.feed", 0, 250_000_000, 1, 1, 0, 0),
            SpanRecord("build", 0, 1_000_000_000, 0, 0, None, 250_000_000),
            SpanRecord("engine.step", 1_000_000_000, 500_000_000, 0, 2, None, 0),
        ]
        report = render_phase_report(records, wall_seconds=2.0)
        rows = {line.split()[0]: line.split() for line in report.splitlines()[1:]}
        assert set(rows) == {"build", "build.feed", "engine.step", "unattributed"}
        self_column = {name: float(row[3] if name != "unattributed" else row[1]) for name, row in rows.items()}
        assert self_column["unattributed"] == pytest.approx(0.5)
        assert sum(self_column.values()) == pytest.approx(2.0)
        assert rows["unattributed"][-1] == "25.0%"
        # Without a wall time the spans are the whole wall: nothing unattributed.
        assert render_phase_report(records).splitlines()[-1].split()[1] == "0.000"

    def test_build_spans_nest_under_build(self):
        builder = scenarios.get("small").builder(seed=SEED)
        builder.config = builder.config.with_overrides(end_block=builder.config.start_block + 1)
        with enabled() as telemetry:
            builder.build()
        records = {record.name: record for record in telemetry.tracer.records}
        assert records["build"].parent_id is None
        for name in ("build.feed", "build.protocols", "build.population"):
            assert records[name].parent_id == records["build"].span_id

    def test_trace_cli_reports_build_phases_and_unattributed(self, tmp_path):
        output = tmp_path / "trace-report.txt"
        assert main(["trace", "small", "--end-block", "9705000", "--output", str(output)]) == 0
        rows = {line.split()[0]: line.split() for line in output.read_text().splitlines()[1:]}
        assert {"build", "build.feed", "build.protocols", "build.population", "engine.step"} <= set(rows)
        assert float(rows["unattributed"][1]) >= 0.0


class TestRuntime:
    def test_span_is_noop_singleton_when_disabled(self):
        assert active() is None
        first = span("engine.step")
        second = span("engine.step")
        assert first is second is _NOOP_SPAN
        with first:  # usable as a context manager, records nothing
            pass

    def test_install_uninstall_and_enabled(self):
        telemetry = Telemetry(name="test")
        assert install(telemetry) is telemetry
        try:
            assert active() is telemetry
            with span("engine.step"):
                pass
            assert telemetry.tracer.records[-1].name == "engine.step"
        finally:
            uninstall()
        assert active() is None

        with enabled() as fresh:
            assert active() is fresh
            inner = Telemetry(name="inner")
            with enabled(inner):
                assert active() is inner
            # enabled() restores whatever was installed before it.
            assert active() is fresh
        assert active() is None

    def test_summary_shape(self):
        telemetry = Telemetry(name="test")
        with telemetry.tracer.span("engine.step"):
            pass
        telemetry.counter("repro_events_total", "Events").inc(2)
        summary = telemetry.summary()
        assert summary["spans"]["engine.step"]["count"] == 1
        assert summary["metrics"]["repro_events_total"] == 2.0


class TestMetrics:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_events_total", "Events", ("kind",))
        counter.labels(kind="BlockMined").inc()
        counter.labels(kind="BlockMined").inc(2)
        assert counter.labels(kind="BlockMined").value == 3.0
        with pytest.raises(ValueError, match="only increase"):
            counter.labels(kind="BlockMined").inc(-1)
        with pytest.raises(ValueError, match="requires"):
            counter.labels(wrong="x")
        # Same name must come back as the same family; kind conflicts raise.
        assert registry.counter("repro_events_total", "Events", ("kind",)) is counter
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_events_total")

    def test_gauge_and_histogram(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_block_number")
        gauge.set(10)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 9.0
        histogram = registry.histogram("repro_step_seconds", buckets=(0.5, 1.0))
        histogram.observe(0.25)
        histogram.observe(0.75)
        histogram.observe(2.0)
        assert histogram.count == 3
        assert histogram.sum == 3.0

    def test_exposition_golden(self):
        registry = MetricsRegistry()
        events = registry.counter("repro_events_total", "Events seen", ("kind",))
        events.labels(kind="BlockMined").inc(3)
        registry.gauge("repro_block_number", "Current block").set(9_700_500)
        histogram = registry.histogram(
            "repro_step_seconds", "Step wall clock", buckets=(0.5, 1.0)
        )
        histogram.observe(0.25)
        histogram.observe(0.75)
        expected = (
            "# HELP repro_block_number Current block\n"
            "# TYPE repro_block_number gauge\n"
            "repro_block_number 9700500\n"
            "# HELP repro_events_total Events seen\n"
            "# TYPE repro_events_total counter\n"
            'repro_events_total{kind="BlockMined"} 3\n'
            "# HELP repro_step_seconds Step wall clock\n"
            "# TYPE repro_step_seconds histogram\n"
            'repro_step_seconds_bucket{le="0.5"} 1\n'
            'repro_step_seconds_bucket{le="1"} 2\n'
            'repro_step_seconds_bucket{le="+Inf"} 2\n'
            "repro_step_seconds_sum 1\n"
            "repro_step_seconds_count 2\n"
        )
        assert registry.exposition() == expected

    def test_label_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_events_total", "", ("kind",))
        counter.labels(kind='he said "hi"\nbye\\').inc()
        exposition = registry.exposition()
        assert 'kind="he said \\"hi\\"\\nbye\\\\"' in exposition

    def test_label_escaping_golden(self):
        """Every escapable character, pinned as the exact exposition text."""
        registry = MetricsRegistry()
        counter = registry.counter("repro_jobs_total", "Jobs", ("campaign",))
        counter.labels(campaign='back\\slash "quoted"\nnewline').inc(2)
        expected = (
            "# HELP repro_jobs_total Jobs\n"
            "# TYPE repro_jobs_total counter\n"
            'repro_jobs_total{campaign="back\\\\slash \\"quoted\\"\\nnewline"} 2\n'
        )
        assert registry.exposition() == expected

    def test_snapshot_flat_view(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total", "", ("kind",)).labels(kind="X").inc(4)
        registry.histogram("repro_step_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot['repro_events_total{kind="X"}'] == 4.0
        assert snapshot["repro_step_seconds_sum"] == 0.5
        assert snapshot["repro_step_seconds_count"] == 1.0


class TestMetricsServer:
    def test_serves_exposition_health_and_404(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total", "Events").inc(5)
        with MetricsServer(registry, port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{base}/metrics") as response:
                assert response.headers["Content-Type"] == (
                    "text/plain; version=0.0.4; charset=utf-8"
                )
                assert "repro_events_total 5" in response.read().decode()
            with urllib.request.urlopen(f"{base}/health") as response:
                assert response.headers["Content-Type"] == "application/json; charset=utf-8"
                assert json.loads(response.read()) == {"status": "ok"}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope")
            assert excinfo.value.code == 404
            # A JSON body naming the missing path, not an HTML error page.
            assert excinfo.value.headers["Content-Type"] == "application/json; charset=utf-8"
            assert json.loads(excinfo.value.read()) == {"error": "not found", "path": "/nope"}


class _Interrupter:
    """A probe simulating Ctrl-C after a fixed number of events."""

    def __init__(self, after: int) -> None:
        self.seen = 0
        self.after = after

    def on_event(self, event) -> None:
        self.seen += 1
        if self.seen >= self.after:
            raise KeyboardInterrupt

    def finalize(self) -> None:
        pass


class TestWatch:
    def _tiny_builder(self):
        builder = scenarios.get("small").builder(seed=3)
        config = builder.config
        builder.config = config.with_overrides(
            end_block=config.start_block + 25 * config.blocks_per_step
        )
        return builder

    def test_interrupt_finalizes_probes_and_flushes_jsonl(self):
        from repro.observers.watch import watch_run

        builder = self._tiny_builder()
        builder.with_probes(lambda engine: _Interrupter(after=200))
        stream = io.StringIO()
        summary = watch_run(builder, jsonl=stream, emit=lambda line: None)
        assert summary.interrupted
        lines = stream.getvalue().splitlines()
        assert lines, "the sink must have flushed what it saw before the interrupt"
        for line in lines:
            json.loads(line)  # every line intact: nothing truncated mid-write

    def test_metrics_port_serves_and_reports(self):
        from repro.observers.watch import watch_run

        announced: list[str] = []
        summary = watch_run(
            self._tiny_builder(), emit=announced.append, metrics_port=0
        )
        assert not summary.interrupted
        assert summary.metrics_port and summary.metrics_port > 0
        assert "repro_events_total" in summary.metrics_exposition
        assert any("/metrics" in line for line in announced)


class TestCampaignTelemetry:
    TINY = {"end_block": 9_760_000}

    def _spec(self, **kwargs):
        from repro.campaigns import CampaignSpec

        defaults = dict(
            scenario="small", seeds=1, overrides=self.TINY, experiments=("table1",)
        )
        defaults.update(kwargs)
        return CampaignSpec(**defaults)

    def test_manifest_round_trips_telemetry(self, tmp_path):
        from repro.campaigns import CampaignExecutor, RunStore

        store = RunStore(tmp_path)
        result = CampaignExecutor(self._spec(), store).execute()
        assert not result.failed
        manifest = store.read_manifest("small", result.executed[0])
        digest = manifest["telemetry"]
        for key in (
            "worker",
            "task_index",
            "idle_seconds",
            "elapsed_seconds",
            "build_seconds",
            "run_seconds",
            "reports_seconds",
            "persist_seconds",
            "pickle_seconds",
            "pickle_bytes",
            "valuation_cache",
            "spans",
        ):
            assert key in digest, key
        assert digest["task_index"] == 1
        assert "engine.step" in digest["spans"]
        cache = digest["valuation_cache"]
        assert cache["builds"] + cache["hits"] > 0
        # The per-worker roll-up on the campaign result agrees with the digest.
        assert result.workers[digest["worker"]]["tasks"] == 1

    def test_telemetry_off_leaves_manifest_without_digest(self, tmp_path):
        from repro.campaigns import CampaignExecutor, RunStore

        store = RunStore(tmp_path)
        result = CampaignExecutor(self._spec(), store, telemetry=False).execute()
        assert not result.failed
        manifest = store.read_manifest("small", result.executed[0])
        assert "telemetry" not in manifest
        assert result.workers == {}

    def test_experiment_files_identical_with_telemetry_on_and_off(self, tmp_path):
        from repro.campaigns import CampaignExecutor, RunStore

        stores = {}
        for label, collect in (("on", True), ("off", False)):
            store = RunStore(tmp_path / label)
            CampaignExecutor(self._spec(), store, telemetry=collect).execute()
            stores[label] = store
        for run_id in stores["on"].run_ids("small"):
            path_on = stores["on"].experiment_path("small", run_id, "table1")
            path_off = stores["off"].experiment_path("small", run_id, "table1")
            assert path_on.read_bytes() == path_off.read_bytes()
