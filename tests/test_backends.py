"""Tests for the execution-backend API: WorkerConfig and the serial and
persistent backends.

The load-bearing contract is byte-identity: whichever backend (and however
many workers) executes a campaign, the store files must match the serial
reference exactly — including when one persistent worker executes many runs
back to back.  The expensive checks run on drastically truncated windows (a
few engine strides per run) so the full scenario registry stays affordable.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import scenarios
from repro.campaigns import (
    CampaignExecutor,
    CampaignSpec,
    PersistentBackend,
    RunStore,
    SerialBackend,
    WorkerConfig,
)
from repro.campaigns.executor import RunJob, execute_job
from repro.chain.types import make_address
from repro.cli import main
from repro.runtime_state import reset_run_state
from repro.service import ServiceConfig, ServiceSupervisor

#: Strides kept when truncating a scenario's window for cheap runs.
STRIDES = 20


def truncated_end_block(name: str) -> int:
    config = scenarios.get(name).builder(None).config
    return min(config.end_block, config.start_block + STRIDES * config.blocks_per_step)


def tiny_spec(name: str = "small", **kwargs) -> CampaignSpec:
    defaults = dict(
        scenario=name,
        seeds=1,
        base_seed=11,
        overrides={"end_block": truncated_end_block(name)},
        experiments=("table1",),
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def store_bytes(store: RunStore, campaign: str) -> dict[str, bytes]:
    """Every experiment file of a campaign, keyed by relative path.

    Manifests are excluded: they record which backend produced the run (the
    ``execution`` block), which is the one *intentional* difference.
    """
    out = {}
    for run_id in store.run_ids(campaign):
        directory = store.run_dir(campaign, run_id)
        for path in sorted(directory.glob("*.json")):
            if path.name == "manifest.json":
                continue
            out[f"{run_id}/{path.name}"] = path.read_bytes()
    return out


# --------------------------------------------------------------------- #
# WorkerConfig: the worker count picks the backend
# --------------------------------------------------------------------- #


class TestWorkerConfig:
    def test_defaults_to_serial_single_worker(self):
        assert WorkerConfig() == WorkerConfig(workers=1)
        assert isinstance(WorkerConfig().create(), SerialBackend)

    def test_worker_count_picks_the_backend(self):
        assert WorkerConfig(workers=1).create().name == "serial"
        backend = WorkerConfig(workers=4).create()
        assert isinstance(backend, PersistentBackend)
        assert backend.workers == 4
        backend.close()  # never started: nothing to shut down

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerConfig(workers=0)


# --------------------------------------------------------------------- #
# Backend equivalence: byte-identity across the full scenario registry
# --------------------------------------------------------------------- #


def test_all_backends_byte_identical_for_every_registered_scenario(tmp_path):
    """Serial and persistent execution must write identical experiment files
    for every registered scenario.

    One persistent backend instance is shared across all the campaigns —
    exactly its production shape — so this also proves that reusing a worker
    process across campaigns leaks no state between scenarios.
    """
    names = scenarios.names()
    serial_store = RunStore(tmp_path / "serial")
    persistent_store = RunStore(tmp_path / "persistent")

    for name in names:
        result = CampaignExecutor(tiny_spec(name), serial_store).execute()
        assert not result.failed, result.failed

    with PersistentBackend(workers=2) as persistent:
        for name in names:
            result = CampaignExecutor(tiny_spec(name), persistent_store, backend=persistent).execute()
            assert not result.failed, result.failed
            assert result.backend == "persistent"

    for name in names:
        serial = store_bytes(serial_store, name)
        assert serial, f"no store files for {name}"
        assert store_bytes(persistent_store, name) == serial


def test_warm_execution_leaves_id_counters_exactly_reset(tmp_path):
    """After runs in a warm process (one that already executed runs),
    ``reset_run_state`` must restore the global id counters to the same
    point as after a single run — the task-to-task isolation a persistent
    worker depends on."""
    spec = tiny_spec()
    run = spec.runs()[0]

    def job(root: str) -> RunJob:
        return RunJob(store_root=str(tmp_path / root), campaign=spec.campaign, run=run, experiments=spec.experiments)

    assert execute_job(job("a")).error is None
    reset_run_state()
    after_one = make_address("probe")

    assert execute_job(job("b")).error is None
    assert execute_job(job("c")).error is None
    reset_run_state()
    assert make_address("probe") == after_one


def test_persistent_stream_matches_in_process_stream(tmp_path):
    """A streaming job hands the same encoded lines to its caller on a
    persistent worker as in process, in chunks, closed by ``job_result``."""
    spec = tiny_spec()
    run = spec.runs()[0]

    def stream(backend, root: str) -> list[str]:
        chunks: list[str] = []
        job = RunJob(
            store_root=str(tmp_path / root),
            campaign=spec.campaign,
            run=run,
            experiments=spec.experiments,
            sample_below=1.1,
        )
        assert backend.execute_one(job, chunks.append).error is None
        assert all(chunk.endswith("\n") for chunk in chunks)
        return "".join(chunks).splitlines()

    in_process = stream(SerialBackend(), "serial")
    with PersistentBackend(workers=1) as persistent:
        assert stream(persistent, "persistent") == in_process
    assert '"service": "job_result"' in in_process[-1]
    assert store_bytes(RunStore(tmp_path / "persistent"), "small") == store_bytes(
        RunStore(tmp_path / "serial"), "small"
    )


# --------------------------------------------------------------------- #
# Persistent backend: robustness and lifecycle
# --------------------------------------------------------------------- #


def test_persistent_worker_death_fails_pending_runs_and_respawns(tmp_path):
    """Killing a worker mid-task surfaces its pending runs as failed
    outcomes (never hangs, never silently drops) and the slot respawns."""
    spec = tiny_spec(seeds=2)
    jobs = [
        RunJob(
            store_root=str(tmp_path / "dead"),
            campaign=spec.campaign,
            run=run,
            experiments=spec.experiments,
        )
        for run in spec.runs()
    ]
    backend = PersistentBackend(workers=1)
    try:
        backend.start()
        outcomes: list = []
        collector = threading.Thread(target=lambda: outcomes.extend(backend.run(jobs)))
        collector.start()
        # Give dispatch a moment, then kill the only worker while both runs
        # are outstanding (spawn start-up alone outlasts this sleep).
        time.sleep(0.3)
        backend._procs[0].terminate()
        collector.join(timeout=60)
        assert not collector.is_alive(), "backend.run() hung after worker death"
        assert len(outcomes) == 2
        assert all(o.error and "persistent worker" in o.error for o in outcomes)

        # The slot respawned: the same backend executes new work fine.
        retry = CampaignExecutor(
            tiny_spec(), RunStore(tmp_path / "retry"), backend=backend
        ).execute()
        assert not retry.failed
    finally:
        backend.close()


def test_persistent_keys_in_flight_runs_by_store_and_campaign(tmp_path):
    """Concurrent runs sharing a run id in different campaigns are distinct
    runs: both complete, each byte-identical to serial execution."""
    spec = tiny_spec()
    run = spec.runs()[0]

    def job(root: str, campaign: str) -> RunJob:
        return RunJob(store_root=str(tmp_path / root), campaign=campaign, run=run, experiments=spec.experiments)

    backend = PersistentBackend(workers=2)
    barrier = threading.Barrier(2)
    outcomes: dict[str, object] = {}

    def dispatch(campaign: str) -> None:
        barrier.wait()
        try:
            outcomes[campaign] = backend.execute_one(job("persistent", campaign))
        except Exception as exc:  # noqa: BLE001 - asserted below
            outcomes[campaign] = exc

    try:
        backend.start()
        threads = [threading.Thread(target=dispatch, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        # The same run directory twice at once is still refused.
        with pytest.raises(ValueError, match="already in flight: a/base-seed000"):
            next(iter(backend.run([job("twice", "a"), job("twice", "a")])))
    finally:
        backend.close()

    for campaign in ("a", "b"):
        assert getattr(outcomes[campaign], "error", "raised") is None, outcomes[campaign]
        assert SerialBackend().execute_one(job("serial", campaign)).error is None
        persistent = store_bytes(RunStore(tmp_path / "persistent"), campaign)
        assert persistent and persistent == store_bytes(RunStore(tmp_path / "serial"), campaign)


def test_persistent_rejects_reuse_after_close(tmp_path):
    backend = PersistentBackend(workers=1)
    backend.close()
    with pytest.raises(RuntimeError, match="closed"):
        backend.start()


def test_manifest_execution_block_survives_resume(tmp_path):
    """The execution block records the backend that *produced* the run;
    resuming under a different backend must not rewrite it."""
    store = RunStore(tmp_path)
    spec = tiny_spec()
    first = CampaignExecutor(spec, store, backend=WorkerConfig(workers=2)).execute()
    assert not first.failed
    run_id = spec.runs()[0].run_id
    manifest = store.read_manifest(spec.campaign, run_id)
    assert manifest["execution"] == {"backend": "persistent", "workers": 2}

    again = CampaignExecutor(spec, store).execute()
    assert again.resumed == [run_id] and not again.executed
    assert store.read_manifest(spec.campaign, run_id)["execution"]["backend"] == "persistent"


# --------------------------------------------------------------------- #
# CLI and service integration
# --------------------------------------------------------------------- #


def test_sweep_cli_workers_pick_the_backend(tmp_path, capsys):
    def sweep(workers: int, store) -> str:
        code = main(
            [
                "sweep",
                "--scenario",
                "small",
                "--seeds",
                "1",
                "--set",
                f"end_block={truncated_end_block('small')}",
                "--report",
                "table1",
                "--store",
                str(store),
                "--workers",
                str(workers),
            ]
        )
        assert code == 0
        return capsys.readouterr().err

    assert "2 persistent workers" in sweep(2, tmp_path / "two")
    manifest = RunStore(tmp_path / "two").read_manifest("small", "base-seed000")
    assert manifest["execution"] == {"backend": "persistent", "workers": 2}

    assert "in process" in sweep(1, tmp_path / "one")
    manifest = RunStore(tmp_path / "one").read_manifest("small", "base-seed000")
    assert manifest["execution"] == {"backend": "serial", "workers": 1}


def test_service_sweep_jobs_run_through_the_campaign_backend(tmp_path):
    """`repro serve` runs sweep runs on the shared persistent workers:
    manifests stamped with the producing backend and worker."""
    supervisor = ServiceSupervisor(ServiceConfig(store_root=str(tmp_path), workers=2))
    supervisor.submit(
        {
            "kind": "sweep",
            "scenario": "small",
            "seeds": 2,
            "base_seed": 11,
            "overrides": {"end_block": truncated_end_block("small")},
            "experiments": ["table1"],
            "campaign": "svc-backend",
        }
    )
    summary = asyncio.run(supervisor.serve(exit_when_idle=True, install_signals=False))
    assert summary.completed_runs == 2 and summary.failed_runs == 0

    store = RunStore(tmp_path)
    for run_id in store.run_ids("svc-backend"):
        manifest = store.read_manifest("svc-backend", run_id)
        assert manifest["status"] == "completed"
        assert manifest["execution"] == {"backend": "persistent", "workers": 2}
        assert manifest["telemetry"]["worker"].startswith("persistent-")
