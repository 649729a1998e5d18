"""One iteration of each workload, run inside a fresh interpreter.

``run.py`` starts ``run.py --child WORKLOAD`` once per iteration (RSS grows
across runs inside one process, so iterations never share one).  Each
function here drives the program through its public API, times the layers
from outside, checks the outputs, and returns a JSON-ready dict:

``samples``
    ``{end-to-end metric: [values]}``; the parent pools them across
    iterations and reports the median.
``layers``
    per-layer metric values (traced iterations only).
``attempted`` / ``failed`` / ``errors``
    the correctness gate's tally.
``info``
    derived inputs and facts worth printing (not metrics).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from benchstats import (
    median,
    pool_overhead,
    ratio,
    self_times,
    span_counts,
    spawn_overhead,
    unattributed_fraction,
)

REPLAY_SCENARIO = "paper-medium"
#: A world's cost varies by ±20% between scenario seeds, so untraced runs
#: rotate their iterations through this many base seeds derived from the
#: workload seed (the first is the workload seed itself): paper-replay
#: replays one world per base seed, seed-sweep spawns ``SWEEP_SEEDS`` from it.
ROTATION_SEEDS = {"paper-replay": 3, "seed-sweep": 3, "service-jobs": 1}
SMALL_SCENARIO = "small"
#: ``small`` truncated here runs about 101 strides, past the first liquidations.
SMALL_END_BLOCK = 9_780_000
#: Six worlds per batch (18 per rotation), so the medians over runs rest on
#: many worlds rather than on the cost of a few.
SWEEP_SEEDS = 6
#: The sweep's ``close_factor`` axis draws two of these per base seed.
CLOSE_FACTORS = (0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7)
#: Sized for a 2-core host: two persistent workers, two service workers,
#: two client threads.
WORKERS = 2
CLIENTS = 2
#: The median needs 20 samples for ten of them to lie beyond it.
SERVICE_MIN_JOBS = 20
#: Hard stop for the service loop, well inside a run's 180 s budget.
SERVICE_MAX_SECONDS = 110.0
POLL_SECONDS = 0.1
TERMINAL_STATES = ("completed", "failed", "interrupted")

#: Engine phase spans whose self time is reported per layer.
ENGINE_PHASES = ("oracles", "agents", "traffic", "scan", "quote", "mine", "maintenance", "snapshot")
CHAIN_SPANS = ("chain.pack", "chain.execute", "chain.snapshot")
#: Manifest telemetry digest fields reported as ``campaigns.job_<x>_s``.
JOB_PHASES = ("build", "run", "reports", "persist", "pickle")


def now() -> float:
    return time.perf_counter()


# --------------------------------------------------------------------- #
# Inputs derived from the workload seed
# --------------------------------------------------------------------- #
def sweep_inputs(seed: int) -> dict[str, Any]:
    rng = random.Random(f"seed-sweep:{seed}")
    return {
        "scenario": SMALL_SCENARIO,
        "base_seed": seed,
        "seeds": SWEEP_SEEDS,
        "close_factor": sorted(rng.sample(CLOSE_FACTORS, 2)),
        "end_block": SMALL_END_BLOCK,
    }


def rotation_seeds(workload: str, seed: int) -> list[int]:
    """The base seeds untraced iterations rotate through: ``seed``, then derived ones."""
    rng = random.Random(f"{workload}:{seed}")
    return [seed] + [rng.randrange(1, 2**31) for _ in range(ROTATION_SEEDS[workload] - 1)]


def service_job_seeds(seed: int, count: int) -> list[int]:
    """Distinct run seeds, so no job resumes another's stored run."""
    rng = random.Random(f"service-jobs:{seed}")
    seeds: list[int] = []
    while len(seeds) < count:
        candidate = rng.randrange(1, 2**31)
        if candidate not in seeds:
            seeds.append(candidate)
    return seeds


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #
def experiment_hashes(run_dir: Path) -> dict[str, str]:
    """sha256 of every experiment file of a stored run (the manifest excluded)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.glob("*.json"))
        if path.name != "manifest.json"
    }


def non_finite(payload: Any) -> bool:
    """Whether a JSON payload holds a non-finite number (or its string spelling)."""
    if isinstance(payload, dict):
        return any(non_finite(value) for value in payload.values())
    if isinstance(payload, list):
        return any(non_finite(value) for value in payload)
    if isinstance(payload, float):
        return payload != payload or payload in (float("inf"), float("-inf"))
    return payload in ("NaN", "Infinity", "-Infinity")


def timed_build(builder, layers: dict[str, float]):
    """Build ``builder``'s world, timing the feed and population factories."""
    from repro.scenarios.builder import default_population

    def timed(factory, metric):
        def call(*args):
            started = now()
            try:
                return factory(*args)
            finally:
                layers[metric] = layers.get(metric, 0.0) + now() - started

        return call

    builder.with_price_feed(timed(builder.feed_factory, "scenarios.feed_s"))
    builder.with_agents(timed(default_population, "scenarios.population_s"))
    started = now()
    engine = builder.build()
    layers["scenarios.build_s"] = now() - started
    return engine


def digest_layers(digests: list[dict], layers: dict[str, float]) -> None:
    """Per-run medians of the telemetry digests campaign workers persist."""
    if not digests:
        return

    def span_field(digest, name, field):
        return digest["spans"].get(name, {}).get(field, 0.0)

    for phase in ENGINE_PHASES:
        layers[f"engine.{phase}.self_s"] = median(
            [span_field(d, f"engine.{phase}", "self_seconds") for d in digests]
        )
    layers["engine.probes.self_s"] = median([span_field(d, "engine.probes", "self_seconds") for d in digests])
    layers["engine.step.count"] = median([span_field(d, "engine.step", "count") for d in digests])
    layers["engine.scan.count"] = median([span_field(d, "engine.scan", "count") for d in digests])
    # Inside job.run, time outside every phase is the self time of job.run
    # plus that of engine.step, which only groups the phases.
    layers["engine.unattributed_frac"] = median(
        [
            ratio(
                span_field(d, "job.run", "self_seconds") + span_field(d, "engine.step", "self_seconds"),
                span_field(d, "job.run", "total_seconds"),
            )
            for d in digests
        ]
    )
    for name in CHAIN_SPANS:
        layers[f"{name}.self_s"] = median([span_field(d, name, "self_seconds") for d in digests])
    layers["protocol.valuation.count"] = median([span_field(d, "protocol.valuation", "count") for d in digests])
    layers["protocol.valuation.self_s"] = median(
        [span_field(d, "protocol.valuation", "self_seconds") for d in digests]
    )
    hits = sum(d["valuation_cache"]["hits"] for d in digests)
    builds = sum(d["valuation_cache"]["builds"] for d in digests)
    layers["protocols.valuation_lookups"] = median(
        [d["valuation_cache"]["hits"] + d["valuation_cache"]["builds"] for d in digests]
    )
    layers["protocols.valuation_cache_hit_ratio"] = ratio(hits, hits + builds)
    for phase in JOB_PHASES:
        layers[f"campaigns.job_{phase}_s"] = median([d[f"{phase}_seconds"] for d in digests])
    layers["campaigns.pickle_bytes"] = median([d["pickle_bytes"] for d in digests])
    layers["experiments.total_s"] = median([d["reports_seconds"] for d in digests])


def probe_layers(probe_metrics: dict[str, float], layers: dict[str, float]) -> None:
    """Fold the outside-in wrappers' counts into per-layer metrics."""
    succeeded = probe_metrics.pop("chain.liquidations_succeeded", 0)
    layers.update(probe_metrics)
    layers["chain.mined_ratio"] = ratio(
        probe_metrics.get("chain.txs_mined", 0), probe_metrics.get("chain.txs_submitted", 0)
    )
    layers["chain.liquidation_success_ratio"] = ratio(succeeded, probe_metrics.get("chain.liquidation_txs", 0))


def regate(run, campaign: str, experiments, gate_root: Path, expected: dict[str, str]) -> str | None:
    """Re-execute one stored run in process on the serial backend and compare bytes.

    Returns an error string, or ``None`` when every experiment file is
    byte-identical to ``expected`` (the repo's bit-identity contract between
    backends).
    """
    from repro.campaigns.backends import SerialBackend
    from repro.campaigns.executor import RunJob
    from repro.campaigns.store import RunStore

    job = RunJob(store_root=str(gate_root), campaign=campaign, run=run, experiments=tuple(experiments))
    outcome = SerialBackend().execute_one(job)
    if outcome.error is not None:
        return f"serial re-execution of {run.run_id} failed: {outcome.error}"
    actual = experiment_hashes(RunStore(gate_root).run_dir(campaign, run.run_id))
    if actual != expected or not expected:
        differing = sorted(set(actual.items()) ^ set(expected.items()))
        return f"store files of {run.run_id} differ from a serial re-execution: {differing[:3]}"
    return None


# --------------------------------------------------------------------- #
# paper-replay
# --------------------------------------------------------------------- #
def replay_iteration(seed: int, mode: str, scratch: Path, iteration: int, seconds: float) -> dict:
    """Replay the ``paper-medium`` world of scenario seed ``seed``.

    ``mode``: ``off``; ``spans`` (repro.telemetry only, so span self times
    carry no wrapper cost); ``probes`` (the outside-in wrappers).
    """
    from repro import scenarios
    from repro.experiments import render_all, run_all

    builder = scenarios.get(REPLAY_SCENARIO).builder(seed)
    layers: dict[str, float] = {}
    if mode == "probes":
        from instrument import instrumented

        scope = instrumented()
    else:
        scope = nullcontext()
    with scope as probe:
        started = now()
        engine = timed_build(builder, layers) if mode == "spans" else builder.build()
        built = now()
        first_step = engine.step_index
        if mode == "spans":
            from repro.telemetry import Telemetry, enabled

            telemetry = Telemetry(name=REPLAY_SCENARIO)
            with enabled(telemetry):
                result = engine.run()
        else:
            result = engine.run()
        ran = now()
        outputs = run_all(result)
        report = render_all(outputs)
        done = now()
    strides = engine.step_index - first_step

    errors = []
    for experiment_id, output in outputs.items():
        payload = output.json_payload()
        if json.loads(json.dumps(payload, allow_nan=False)) != payload or non_finite(payload):
            errors.append(f"{experiment_id}: payload does not round-trip through JSON with finite numbers")
    liquidations = outputs["table1"].data.total_liquidations
    if liquidations != len(result.records):
        errors.append(f"table1 counts {liquidations} liquidations, the run recorded {len(result.records)}")
    if len(outputs) != 17 or not report.strip():
        errors.append(f"expected 17 rendered experiments, got {len(outputs)}")

    if mode == "spans":
        from instrument import valuation_cache

        spans = [(r.span_id, r.parent_id, r.name, r.duration_ns / 1e9) for r in telemetry.tracer.records]
        selfs, counts = self_times(spans), span_counts(spans)
        for phase in ENGINE_PHASES:
            layers[f"engine.{phase}.self_s"] = selfs.get(f"engine.{phase}", 0.0)
        layers["engine.probes.self_s"] = selfs.get("engine.probes", 0.0)
        layers["engine.step.count"] = counts.get("engine.step", 0)
        layers["engine.scan.count"] = counts.get("engine.scan", 0)
        layers["engine.unattributed_frac"] = unattributed_fraction(ran - built, selfs, "engine.step")
        for name in CHAIN_SPANS:
            layers[f"{name}.self_s"] = selfs.get(name, 0.0)
        layers["protocol.valuation.count"] = counts.get("protocol.valuation", 0)
        layers["protocol.valuation.self_s"] = selfs.get("protocol.valuation", 0.0)
        hits, builds = valuation_cache(telemetry.registry.snapshot())
        layers["protocols.valuation_lookups"] = hits + builds
        layers["protocols.valuation_cache_hit_ratio"] = ratio(hits, hits + builds)
        layers["experiments.total_s"] = done - ran
    elif mode == "probes":
        probe_layers(dict(probe), layers)
    work = done - started
    return {
        "samples": {
            "setup_s": [built - started],
            "replay_s": [done - built],
            "strides_per_s": [strides / (ran - built)],
            "runs_per_s": [1.0 / work],
            "job_latency_p50_s": [work],
            "jobs_per_s": [1.0 / work],
        },
        "layers": layers,
        "attempted": 1,
        "failed": 1 if errors else 0,
        "errors": errors,
        "info": {
            "scenario": REPLAY_SCENARIO,
            "scenario_seed": seed,
            "strides": strides,
            "liquidations": liquidations,
        },
    }


# --------------------------------------------------------------------- #
# seed-sweep
# --------------------------------------------------------------------- #
def sweep_iteration(seed: int, mode: str, scratch: Path, iteration: int, seconds: float) -> dict:
    from repro.campaigns import CampaignExecutor, CampaignSpec, RunStore
    from repro.campaigns.backends import PersistentBackend

    inputs = sweep_inputs(seed)
    spec = CampaignSpec(
        scenario=inputs["scenario"],
        seeds=inputs["seeds"],
        base_seed=inputs["base_seed"],
        overrides={"end_block": inputs["end_block"]},
        grid={"close_factor": inputs["close_factor"]},
        name="seed-sweep",
    )
    store = RunStore(scratch / "store")
    delivered: dict[str, float] = {}

    def progress(done, total, run_id, status, elapsed):
        delivered[run_id] = now()

    started = now()
    backend = PersistentBackend(workers=WORKERS)
    backend.start()
    ready = now()
    try:
        executor = CampaignExecutor(spec, store, backend=backend, progress=progress)
        dispatched = now()
        result = executor.execute()
        finished = now()
    finally:
        backend.close()
    wall = finished - dispatched

    runs = {run.run_id: run for run in spec.runs()}
    errors = [f"{run_id}: {error}" for run_id, error in sorted(result.failed.items())]
    digests, steps, unreadable = [], [], 0
    for run_id in result.executed:
        manifest = store.read_manifest(spec.campaign, run_id) or {}
        if manifest.get("run_key") != runs[run_id].key or not manifest.get("telemetry"):
            errors.append(f"{run_id}: stored manifest does not match the run")
            unreadable += 1
            continue
        digests.append(manifest["telemetry"])
        steps.append(manifest["metrics"]["steps"])

    sampled = random.Random(f"seed-sweep:{seed}:{iteration}").choice(sorted(result.executed or runs))
    gate_error = regate(
        runs[sampled],
        spec.campaign,
        spec.experiments,
        scratch / "gate",
        experiment_hashes(store.run_dir(spec.campaign, sampled)),
    )
    if gate_error:
        errors.append(gate_error)

    layers: dict[str, float] = {}
    if mode != "off":
        layers["campaigns.backend_start_s"] = ready - started
        digest_layers(digests, layers)
        layers["campaigns.dispatch_idle_s"] = sum(d["idle_seconds"] for d in digests)
        layers["campaigns.overhead_s"] = pool_overhead(wall, WORKERS, [d["elapsed_seconds"] for d in digests])
        last = {}
        for digest in digests:
            if digest["task_index"] >= last.get(digest["worker"], {}).get("task_index", 0):
                last[digest["worker"]] = digest
        hits = sum(d.get("warm_feed", {}).get("feed_hits", 0) for d in last.values())
        builds = sum(d.get("warm_feed", {}).get("feed_builds", 0) for d in last.values())
        layers["campaigns.warm_feed_lookups"] = hits + builds
        layers["campaigns.warm_feed_hit_ratio"] = ratio(hits, hits + builds)
        timed_build(runs[sampled].builder(), layers)
    return {
        "samples": {
            "setup_s": [ready - started],
            "replay_s": [d["run_seconds"] + d["reports_seconds"] for d in digests],
            "strides_per_s": [ratio(s, d["run_seconds"]) for s, d in zip(steps, digests)],
            "runs_per_s": [len(result.executed) / wall],
            "job_latency_p50_s": [delivered[run_id] - dispatched for run_id in result.executed],
            "jobs_per_s": [1.0 / wall],
        },
        "layers": layers,
        "attempted": len(runs),
        "failed": len(result.failed) + unreadable + (1 if gate_error else 0),
        "errors": errors,
        "info": {"inputs": inputs, "runs": len(runs), "gate_run": sampled},
    }


# --------------------------------------------------------------------- #
# service-jobs
# --------------------------------------------------------------------- #
#: Requests go straight to the local service, whatever proxy the environment sets.
HTTP = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class Service:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, store: Path) -> None:
        started = now()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", str(WORKERS), "--store", str(store)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        port = None
        for line in self.proc.stderr:
            match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            self.stop()
            raise RuntimeError("repro serve exited before listening")
        # Keep draining stderr so the service never blocks on a full pipe.
        self._drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._drain.start()
        self.base = f"http://127.0.0.1:{port}"
        self.get("/health")
        self.setup_s = now() - started

    def get(self, path: str) -> bytes:
        with HTTP.open(self.base + path, timeout=30) as response:
            return response.read()

    def get_json(self, path: str) -> dict:
        return json.loads(self.get(path))

    def post_json(self, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with HTTP.open(request, timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stderr is not None:
            self.proc.stderr.close()


def parse_exposition(text: str) -> dict[str, float]:
    """``{series: value}`` from Prometheus text exposition."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            out[series] = float(value)
    return out


def service_iteration(seed: int, mode: str, scratch: Path, iteration: int, seconds: float) -> dict:
    from repro.campaigns.store import RunStore
    from repro.service.jobs import expand_job

    store_root = scratch / "store"
    store = RunStore(store_root)
    setups = []
    for _ in range(2):  # set-up measured three times; the third instance serves
        probe = Service(scratch / "setup-store")
        setups.append(probe.setup_s)
        probe.stop()
    service = Service(store_root)
    setups.append(service.setup_s)

    seeds = iter(service_job_seeds(seed, 1000))
    lock = threading.Lock()
    jobs: list[dict] = []
    loop_started = now()

    def submit_next() -> dict | None:
        with lock:
            elapsed = now() - loop_started
            if elapsed > SERVICE_MAX_SECONDS or (len(jobs) >= SERVICE_MIN_JOBS and elapsed >= seconds):
                return None
            job = {"seed": next(seeds)}
            jobs.append(job)
            return job

    def client() -> None:
        while (job := submit_next()) is not None:
            try:
                run_job(job)
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                job["state"] = f"client error: {type(exc).__name__}: {exc}"

    def run_job(job: dict) -> None:
        payload = {
            "kind": "run",
            "scenario": SMALL_SCENARIO,
            "seed": job["seed"],
            "overrides": {"end_block": SMALL_END_BLOCK},
        }
        record = expand_job("bench", payload)
        run = next(iter(record.runs.values())).spec
        job["run"], job["campaign"] = run, record.campaign
        posted = now()
        job_id = service.post_json("/jobs", payload)["job_id"]
        while True:
            detail = service.get_json(f"/jobs/{job_id}")
            if "queue_wait" not in job and detail["run_states"][0]["status"] != "queued":
                job["queue_wait"] = now() - posted
            if detail["state"] in TERMINAL_STATES:
                break
            time.sleep(POLL_SECONDS)
        job["latency"] = now() - posted
        job["state"] = detail["state"]
        # Read the artefacts back at once: the next job with the same
        # run id deletes them.
        manifest = store.read_manifest(job["campaign"], run.run_id) or {}
        job["hashes"] = experiment_hashes(store.run_dir(job["campaign"], run.run_id))
        job["readback_ok"] = (
            detail["state"] == "completed"
            and manifest.get("run_key") == run.key
            and len(job["hashes"]) == len(record.experiments)
        )
        job["manifest"] = manifest

    threads = [threading.Thread(target=client, name=f"client-{index}") for index in range(CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = now() - loop_started
        scrape = parse_exposition(service.get("/metrics").decode())
    finally:
        service.stop()

    errors = [f"job seed {job['seed']}: {job.get('state')}" for job in jobs if job.get("state") != "completed"]
    errors += [
        f"job seed {job['seed']}: stored artefacts did not match the job on read-back"
        for job in jobs
        if job.get("state") == "completed" and not job["readback_ok"]
    ]
    good = [job for job in jobs if job.get("state") == "completed" and job["readback_ok"]]
    overwritten = sum(
        1
        for job in good
        if (store.read_manifest(job["campaign"], job["run"].run_id) or {}).get("run_key") != job["run"].key
    )
    gate_error = None
    if good:
        sampled = random.Random(f"service-jobs:{seed}:{iteration}").choice(good)
        gate_error = regate(
            sampled["run"], sampled["campaign"], sampled["manifest"]["experiments"], scratch / "gate", sampled["hashes"]
        )
        if gate_error:
            errors.append(gate_error)
    digests = [job["manifest"]["telemetry"] for job in good]
    steps = [job["manifest"]["metrics"]["steps"] for job in good]
    info = {
        "jobs": len(jobs),
        "job_seeds": [job["seed"] for job in jobs],
        "peak_active_runs": scrape.get("repro_service_peak_active_runs", 0.0),
        "runs_overwritten": overwritten,
    }
    layers: dict[str, float] = {}
    if mode != "off":
        digest_layers(digests, layers)
        layers["campaigns.overhead_s"] = pool_overhead(wall, WORKERS, [job["manifest"]["elapsed_seconds"] for job in good])
        waits = [job["queue_wait"] for job in good]
        runs = [job["manifest"]["elapsed_seconds"] for job in good]
        layers["service.queue_wait_p50_s"] = median(waits)
        layers["service.worker_run_p50_s"] = median(runs)
        layers["service.spawn_overhead_p50_s"] = median(
            [spawn_overhead(job["latency"], job["queue_wait"], job["manifest"]["elapsed_seconds"]) for job in good]
        )
        layers["service.peak_active_runs"] = info["peak_active_runs"]
        layers["service.runs_overwritten"] = overwritten
        layers["service.lines_dropped"] = scrape.get("repro_service_lines_dropped_total", 0.0)
        layers["service.hf_samples"] = scrape.get("repro_service_hf_samples_total", 0.0)
        layers["service.alerts"] = sum(
            value for series, value in scrape.items() if series.startswith("repro_service_alerts_total{")
        )
        events = 0.0
        for series, value in scrape.items():
            match = re.fullmatch(r'repro_service_events_total\{kind="(\w+)"\}', series)
            if match:
                layers[f"observers.events.{match.group(1)}"] = value
                events += value
        layers["observers.events_per_s"] = events / wall
        if good:
            timed_build(sampled["run"].builder(), layers)
    return {
        "samples": {
            "setup_s": setups,
            "replay_s": [d["run_seconds"] + d["reports_seconds"] for d in digests],
            "strides_per_s": [ratio(s, d["run_seconds"]) for s, d in zip(steps, digests)],
            "runs_per_s": [len(good) / wall],
            "job_latency_p50_s": [job["latency"] for job in good],
            "jobs_per_s": [len(good) / wall],
        },
        "layers": layers,
        "attempted": len(jobs),
        "failed": len(jobs) - len(good) + (1 if gate_error else 0),
        "errors": errors,
        "info": info,
    }


ITERATIONS = {
    "paper-replay": replay_iteration,
    "seed-sweep": sweep_iteration,
    "service-jobs": service_iteration,
}
