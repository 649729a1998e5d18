"""Benchmark — simulation throughput of the scenario engine itself.

Not a paper artefact: this measures how fast the substrate replays a short
window of the study, which is the cost every other benchmark's session
fixture pays once.  World build and the engine's run are timed apart:
``build_seconds`` is ``ScenarioBuilder.build()``, and ``blocks_per_second``
counts the engine's run alone.

With ``BENCH_RECORD=1`` the result is written to ``BENCH_scenario.json`` at
the repo root, feeding the cross-commit ``BENCH_trajectory.json`` the CI
benchmark job merges and uploads.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

from conftest import write_bench_record

from repro.scenarios import ScenarioBuilder
from repro.simulation.config import ScenarioConfig

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_scenario.json"


def test_scenario_throughput():
    config = ScenarioConfig.small(seed=3).with_overrides(end_block=9_780_000)
    started = time.perf_counter()
    engine = ScenarioBuilder(config).build()
    built = time.perf_counter()
    result = engine.run()
    finished = time.perf_counter()
    blocks = len(result.chain.blocks)
    build_seconds = built - started
    run_seconds = finished - built
    assert blocks > 50

    if os.environ.get("BENCH_RECORD"):
        record = {
            "benchmark": "scenario_throughput",
            "blocks": blocks,
            "build_seconds": build_seconds,
            "run_seconds": run_seconds,
            "blocks_per_second": blocks / run_seconds,
            "python": platform.python_version(),
        }
        write_bench_record(BENCH_PATH, record)

    print(
        f"\nscenario window: built in {build_seconds:.3f}s, "
        f"{blocks} blocks in {run_seconds:.2f}s ({blocks / run_seconds:.1f} blocks/s, engine only)"
    )
