"""Campaign execution backends: in process, or on persistent workers.

The :class:`ExecutionBackend` protocol is the seam between *what* a
campaign runs (:class:`~repro.campaigns.executor.RunJob`) and *how* it
runs.  Two implementations ship:

:class:`SerialBackend`
    In process, one run after another — the byte-identity reference every
    parallel execution is compared against, and the ``workers == 1`` path.
:class:`PersistentBackend`
    ``N`` long-lived worker processes, started once and reused across
    campaigns and service jobs.  Each worker takes a job, runs it, persists
    it and reports back, in a loop.  Outcomes come back over the worker's
    result pipe — preceded, for jobs that ask for a stream, by that run's
    encoded event lines in buffered chunks — and a collector thread routes
    them to the dispatching caller, which makes :meth:`PersistentBackend.run`
    and :meth:`PersistentBackend.execute_one` safe to call from several
    threads at once (the service supervisor does).

Both produce byte-identical :class:`~repro.campaigns.store.RunStore`
files: every run is independently seeded and rebuilt from its spec, and
``reset_run_state()`` rewinds the global counters at the start of each run.

:class:`WorkerConfig` is the worker count behind ``CampaignExecutor`` and
``repro sweep --workers``; the backend follows from it.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Iterator, Protocol, Sequence, runtime_checkable

from .executor import _WORKER_STATE, LineCallback, RunJob, RunOutcome, execute_job

__all__ = [
    "ExecutionBackend",
    "PersistentBackend",
    "SerialBackend",
    "WorkerConfig",
]

#: Longest the collector waits before picking up a respawned worker's pipe.
_RESCAN_SECONDS = 0.2


@dataclass(frozen=True)
class WorkerConfig:
    """How many workers run a campaign: 1 in process, more on persistent workers."""

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def create(self) -> "ExecutionBackend":
        """The backend this worker count calls for."""
        if self.workers == 1:
            return SerialBackend()
        return PersistentBackend(self.workers)


@runtime_checkable
class ExecutionBackend(Protocol):
    """How a campaign's pending runs execute.

    Implementations must keep the store byte-identity contract: a job's
    persisted files may not depend on which backend (or worker) ran it.
    ``run`` yields outcomes as runs finish (unordered on parallel
    backends); ``execute_one`` is the thread-safe single-run entry the
    service supervisor uses, and hands a streaming job's encoded lines to
    ``on_lines`` before it returns (on another thread, for parallel
    backends: the callback must return quickly and must not raise).  ``close`` releases resources
    gracefully, ``terminate`` forcefully (in-flight runs surface as failed
    outcomes — resumable, since interrupted runs never write a manifest).
    """

    name: str
    workers: int

    def run(self, jobs: Sequence[RunJob]) -> Iterator[RunOutcome]: ...

    def execute_one(self, job: RunJob, on_lines: LineCallback | None = None) -> RunOutcome: ...

    def close(self) -> None: ...

    def terminate(self) -> None: ...


class SerialBackend:
    """In-process execution, one run after another (the reference)."""

    name = "serial"
    workers = 1

    def __init__(self) -> None:
        # execute_job mutates process-global state (telemetry install,
        # runtime_state resets): one lock keeps concurrent callers from
        # interleaving runs.
        self._lock = threading.Lock()

    def run(self, jobs: Sequence[RunJob]) -> Iterator[RunOutcome]:
        with self._lock:
            # Parallel backends give every campaign fresh workers; give the
            # serial path the same contract, or task indices and idle gaps
            # would span earlier campaigns run in this process.
            _WORKER_STATE.clear()
            for job in jobs:
                yield execute_job(job)

    def execute_one(self, job: RunJob, on_lines: LineCallback | None = None) -> RunOutcome:
        with self._lock:
            return execute_job(job, on_lines=on_lines)

    def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass


def persistent_worker_main(task_queue, results) -> None:
    """One long-lived worker process: take a job, run it, persist it, report.

    Runs until the ``None`` sentinel arrives.  Every message sent on
    ``results`` (this worker's own pipe to the parent) is
    ``(job.target, item)``: ``item`` is a chunk of encoded stream lines
    (``str``) or the run's final :class:`RunOutcome`, which always follows
    the run's chunks.  Sends block while the pipe is full, so a slow parent
    throttles the stream instead of buffering it.
    """
    _WORKER_STATE.clear()
    try:
        while True:
            job = task_queue.get()
            if job is None:
                return
            target = job.target
            # execute_job captures run failures as outcome.error, so one
            # pathological run cannot take the worker down with it.
            outcome = execute_job(job, on_lines=lambda text: results.send((target, text)))
            results.send((target, outcome))
    except KeyboardInterrupt:
        # A terminal Ctrl-C reaches the whole process group: exit quietly
        # and let the parent, interrupted too, report the lost runs.
        return


class PersistentBackend:
    """Long-lived worker processes shared across campaigns and service jobs.

    ``N`` spawn processes are started once (lazily, on the first dispatch)
    and fed :class:`RunJob` s over per-worker task queues, each job to the
    worker with the fewest outstanding runs.  Each worker sends stream
    chunks and outcomes back over its own result pipe: with no pipe shared
    between workers, a worker killed mid-send can corrupt nothing but its
    own channel, and the end of that channel is how its death is noticed.

    A daemon collector thread routes each message to the call that
    dispatched the run, keyed by :attr:`RunJob.target` (store root,
    campaign, run id), so concurrent callers may dispatch runs that share a
    run id in different campaigns or stores.  A worker that exits mid-task
    has its pending runs reported as failed outcomes (never silently
    dropped — a re-execute resumes exactly the lost runs) and its slot
    respawned.

    Use as a context manager, or call :meth:`close` when done; an
    executor-owned instance is closed by ``CampaignExecutor.execute``.
    """

    name = "persistent"

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(int(workers), 1)
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._procs: list = [None] * self.workers
        self._task_queues: list = [None] * self.workers
        self._readers: list = [None] * self.workers
        self._collector: threading.Thread | None = None
        self._started = False
        self._closed = False
        #: job target -> (worker slot, the caller's outcome queue, its line callback).
        self._pending: dict[
            tuple[str, str, str], tuple[int, "queue.Queue[RunOutcome]", LineCallback | None]
        ] = {}
        self._outstanding: list[int] = [0] * self.workers

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def start(self) -> "PersistentBackend":
        """Spawn the workers and the collector (idempotent)."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise RuntimeError("persistent backend already closed")
            for slot in range(self.workers):
                self._spawn_locked(slot)
            self._collector = threading.Thread(
                target=self._collect, name="persistent-collector", daemon=True
            )
            self._started = True
        self._collector.start()
        return self

    def _spawn_locked(self, slot: int) -> None:
        task_queue = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        proc = self._context.Process(
            target=persistent_worker_main,
            args=(task_queue, writer),
            name=f"persistent-{slot}",
            daemon=True,
        )
        proc.start()
        # The child holds the only write end now, so its exit ends the pipe.
        writer.close()
        self._task_queues[slot] = task_queue
        self._procs[slot] = proc
        self._readers[slot] = reader

    def __enter__(self) -> "PersistentBackend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Graceful shutdown: workers finish their queues, then exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
            if started:
                for task_queue in self._task_queues:
                    task_queue.put(None)
        if not started:
            return
        self._shutdown(graceful=True)

    def terminate(self) -> None:
        """Forceful shutdown: kill workers; pending runs fail (resumable)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if not started:
            return
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self._shutdown(graceful=False)

    def _shutdown(self, *, graceful: bool) -> None:
        for proc in self._procs:
            proc.join(timeout=30.0 if graceful else 5.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        # Every worker has exited, so the collector reads each pipe to its
        # end (delivering what was sent before the exit), then stops.
        if self._collector is not None:
            self._collector.join(timeout=10.0)
        reason = (
            "persistent backend closed before the run completed"
            if graceful
            else "persistent backend terminated"
        )
        self._fail_pending(reason)

    def _fail_pending(self, reason: str) -> None:
        with self._lock:
            victims = list(self._pending.items())
            self._pending.clear()
            self._outstanding = [0] * self.workers
        for target, (_slot, sink, _on_lines) in victims:
            sink.put(RunOutcome(run_id=target[2], elapsed_seconds=0.0, error=reason))

    # -------------------------------------------------------------- #
    # Dispatch
    # -------------------------------------------------------------- #
    def run(self, jobs: Sequence[RunJob]) -> Iterator[RunOutcome]:
        jobs = list(jobs)
        if not jobs:
            return
        sink = self._dispatch(jobs, None)
        for _ in range(len(jobs)):
            yield sink.get()

    def execute_one(self, job: RunJob, on_lines: LineCallback | None = None) -> RunOutcome:
        return self._dispatch([job], on_lines).get()

    def _dispatch(
        self, jobs: list[RunJob], on_lines: LineCallback | None
    ) -> "queue.Queue[RunOutcome]":
        self.start()
        sink: "queue.Queue[RunOutcome]" = queue.Queue()
        with self._lock:
            if self._closed:
                raise RuntimeError("persistent backend is closed")
            seen = set(self._pending)
            clashes = set()
            for job in jobs:
                if job.target in seen:
                    clashes.add(job.target)
                seen.add(job.target)
            if clashes:
                names = sorted(f"{campaign}/{run_id}" for _, campaign, run_id in clashes)
                raise ValueError(f"run(s) already in flight: {', '.join(names)}")
            for job in jobs:
                slot = self._outstanding.index(min(self._outstanding))
                self._pending[job.target] = (slot, sink, on_lines)
                self._outstanding[slot] += 1
                self._task_queues[slot].put(job)
        return sink

    # -------------------------------------------------------------- #
    # Collection
    # -------------------------------------------------------------- #
    def _collect(self) -> None:
        """Route worker messages to their dispatching callers until shut down."""
        while True:
            with self._lock:
                readers = {
                    reader: slot for slot, reader in enumerate(self._readers) if reader is not None
                }
                if self._closed and not readers:
                    return
            # The timeout picks up the pipes of workers respawned meanwhile.
            for reader in wait(list(readers), timeout=_RESCAN_SECONDS):
                try:
                    target, item = reader.recv()
                except (EOFError, OSError):
                    self._worker_exited(readers[reader], reader)
                    continue
                if isinstance(item, str):
                    self._stream(target, item)
                else:
                    self._deliver(target, item)

    def _stream(self, target: tuple[str, str, str], text: str) -> None:
        with self._lock:
            entry = self._pending.get(target)
        if entry is not None and entry[2] is not None:
            entry[2](text)

    def _deliver(self, target: tuple[str, str, str], outcome: RunOutcome) -> None:
        with self._lock:
            entry = self._pending.pop(target, None)
            if entry is None:
                return  # already failed by a shutdown
            slot, sink, _on_lines = entry
            self._outstanding[slot] -= 1
        sink.put(outcome)

    def _worker_exited(self, slot: int, reader) -> None:
        """A worker's pipe ended: fail its pending runs and respawn the slot.

        The dead worker's queued-but-unstarted jobs are *not* re-run on
        another worker — re-dispatching could race a half-finished store
        write from the moment of death.  Its pending runs fail loudly
        instead; interrupted runs never wrote a manifest, so re-executing
        the campaign resumes exactly the lost runs.  During shutdown the
        slot is only retired: :meth:`_shutdown` fails what is left.
        """
        reader.close()
        with self._lock:
            self._readers[slot] = None
            if self._closed:
                return
            proc = self._procs[slot]
            lost = [target for target, entry in self._pending.items() if entry[0] == slot]
            sinks = [self._pending.pop(target)[1] for target in lost]
            self._outstanding[slot] = 0
            self._spawn_locked(slot)
        proc.join(timeout=5.0)
        for target, sink in zip(lost, sinks):
            sink.put(
                RunOutcome(
                    run_id=target[2],
                    elapsed_seconds=0.0,
                    error=(
                        f"persistent worker {slot} exited (code {proc.exitcode}) before "
                        "completing the run; re-execute the campaign to resume it"
                    ),
                )
            )
