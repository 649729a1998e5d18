"""The repo benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-replay --seed 7 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``paper-replay``
    build, run and analyse one ``paper-medium`` world per iteration in
    process, as ``repro run --scenario paper-medium --report all`` does (1
    client); untraced iterations rotate over three scenario seeds derived
    from ``--seed``, because the cost differs by ±20% between seeds.
``seed-sweep``
    a ``CampaignExecutor`` campaign (6 seeds × 2 ``close_factor`` values on
    truncated ``small``) on a fresh ``PersistentBackend(workers=2)``;
    untraced iterations rotate over three base seeds derived from ``--seed``.
``service-jobs``
    ``repro serve --workers 2`` as a subprocess, two closed-loop client
    threads submitting single-run jobs over HTTP until at least 20 jobs
    completed and ``--seconds`` passed.

Every end-to-end metric is reported on every workload:

``setup_s``
    time until the workload accepts work: ``ScenarioBuilder.build()``;
    ``PersistentBackend`` construction and ``start()``; ``repro serve``
    spawn until ``/health`` answers (three times per run).
``replay_s`` / ``strides_per_s``
    ``engine.run()`` plus all 17 experiments for one run, and strides per
    second inside ``engine.run()``: timed from outside on paper-replay,
    read from each stored run's manifest telemetry on the other two.
``runs_per_s`` / ``jobs_per_s``
    completed runs, and completed client requests (one replay, one
    ``execute()`` batch, one HTTP job), per second of the workload loop.
``job_latency_p50_s``
    submit-to-result time seen by the client: build+run+experiments; from
    ``execute()`` to each run's outcome; from POST to a terminal state.
``peak_rss_mb``
    max RSS of this process and its waited-for descendants.

Every iteration runs in a fresh interpreter (``run.py --child``), repeated
until ``--seconds`` have passed; the reported value of a metric is the
median of its samples pooled over the iterations.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs traced iterations instead and prints
the per-layer metrics; a metric the workload produced no value for (a
bypassed layer, an event kind that never occurred) reads 0 and is listed
under ``zero_filled`` in the stamp line.  Each iteration checks the
program's outputs; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper-replay", "seed-sweep", "service-jobs")
#: Iteration modes: untraced; repro.telemetry spans only; outside-in wrappers.
MODES = ("off", "spans", "probes")
DEFAULT_SEED = 7
#: A run must end within 180 s: no iteration starts that would end past
#: this, judged by the length of the last one.
BUDGET_SECONDS = 150.0
CHILD_TIMEOUT_SECONDS = 165.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to keep starting iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    # Internal: one iteration in this (fresh) interpreter.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=MODES, default="off", help=argparse.SUPPRESS)
    parser.add_argument("--iteration", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--scratch", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args: argparse.Namespace) -> int:
    import workloads

    scratch = Path(args.scratch)
    result = workloads.ITERATIONS[args.workload](
        args.seed, args.mode, scratch, args.iteration, args.seconds
    )
    (scratch / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_child(
    args: argparse.Namespace, iteration: int, mode: str, seed: int, scratch_root: Path, deadline: float
) -> dict:
    """One iteration in a fresh interpreter; its whole process group is reaped."""
    scratch = scratch_root / f"iteration-{iteration}"
    scratch.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
        "--mode", mode, "--iteration", str(iteration), "--scratch", str(scratch),
    ]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child's own children (persistent workers, repro serve) share
        # its session: kill whatever is left, then reap the child.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    result_path = scratch / "result.json"
    if code != 0 or not result_path.is_file():
        reason = "timed out" if code is None else f"exited {code}"
        return {"crashed": f"iteration {iteration} {reason}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["mode"] = mode
    return result


def source_digest() -> str:
    """sha256 over the program's source files: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def peak_rss_mb() -> float:
    """Max RSS of this process and of every waited-for descendant, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import benchstats
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.monotonic()
    deadline = started + CHILD_TIMEOUT_SECONDS
    scratch_root = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    iterations: list[dict] = []
    try:
        if args.trace:
            # paper-replay traces spans and wrappers in separate iterations,
            # so wrapper cost never lands in span self times; interleaved
            # untraced iterations give the telemetry overhead.
            plan = ["off", "spans", "off", "spans", "probes"] if args.workload == "paper-replay" else ["spans"]
            # Traced runs replay the workload seed itself throughout, so the
            # untraced/traced comparison is like for like.
            for index, mode in enumerate(plan):
                iterations.append(run_child(args, index, mode, args.seed, scratch_root, deadline))
        else:
            # Iterate in whole rotations of the base seeds, so every run
            # weighs each seed alike, until --seconds is reached give or take
            # half a rotation: another starts only if it would end by
            # --seconds plus half its expected length.
            seeds = workloads.rotation_seeds(args.workload, args.seed)
            while True:
                begun = time.monotonic()
                index = len(iterations)
                iterations.append(run_child(args, index, "off", seeds[index % len(seeds)], scratch_root, deadline))
                now = time.monotonic()
                expected = now - begun
                if now - started + expected > BUDGET_SECONDS:
                    break
                if len(iterations) % len(seeds) == 0 and now - started + len(seeds) * expected / 2 >= args.seconds:
                    break
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)
        try:
            scratch_root.parent.rmdir()
        except OSError:
            pass

    crashed = [it["crashed"] for it in iterations if "crashed" in it]
    good = [it for it in iterations if "crashed" not in it]
    attempted = sum(it["attempted"] for it in good) + len(crashed)
    failed = sum(it["failed"] for it in good) + len(crashed)
    errors = crashed + [error for it in good for error in it["errors"]]
    samples: dict[str, list[float]] = {}
    for it in good:
        for name, values in it["samples"].items():
            samples.setdefault(name, []).extend(values)

    metrics: dict[str, dict] = {}
    zero_filled: list[str] = []
    if args.trace:
        if crashed:
            print("error: traced iteration failed: " + "; ".join(errors), file=sys.stderr)
            return 1
        layers: dict[str, float] = {}
        for it in good:
            layers.update(it["layers"])
        if args.workload == "paper-replay":
            untraced, traced = (
                benchstats.median([it["samples"]["replay_s"][0] for it in good if it["mode"] == mode])
                for mode in ("off", "spans")
            )
            layers["telemetry.overhead_frac"] = traced / untraced - 1.0
        layers["failed_frac"] = benchstats.ratio(failed, attempted)
        for entry in spec["per_layer"]:
            if entry["name"] not in layers:
                zero_filled.append(entry["name"])
            metrics[entry["name"]] = {"value": float(layers.get(entry["name"], 0.0)), "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name == "peak_rss_mb":
                value = peak_rss_mb()
            elif samples.get(name):
                value = benchstats.median(samples[name])
            else:
                print(f"error: no samples of {name}: " + "; ".join(errors), file=sys.stderr)
                return 1
            metrics[name] = {"value": value, "unit": entry["unit"]}

    # The highest percentile with ten samples beyond it (none under 20 samples).
    latencies = samples.get("job_latency_p50_s", [])
    tail = benchstats.highest_supported_percentile(len(latencies))
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": len(iterations),
        "wall_seconds": round(time.monotonic() - started, 3),
        "commit": commit(),
        "source_sha256": source_digest(),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "samples": {name: len(values) for name, values in samples.items()},
        "job_latency_tail": {
            "samples": len(latencies),
            "percentile": tail,
            "value_s": benchstats.percentile(latencies, tail) if tail is not None else None,
        },
        "inputs": [it["info"] for it in good],
        "zero_filled": zero_filled,
        "errors": errors[:10],
    }
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
