"""The on-disk campaign run store.

Layout (all plain JSON, diff-able and tool-friendly)::

    <root>/
      <campaign>/
        <run_id>/
          manifest.json        # run identity, config summary, status
          table1.json          # one file per experiment: the JSON contract
          fig4.json
          ...

The manifest is written *last*, after every experiment file, so a manifest
with ``"status": "completed"`` is the durable completion marker: a run that
crashed mid-write leaves no completed manifest and is simply re-executed on
resume.  :meth:`RunStore.is_complete` additionally checks the manifest's
``run_key`` (a content hash of ``(scenario, overrides, seed)``) and the
presence of every requested experiment file, so editing the spec — or asking
for more experiments — invalidates exactly the runs it affects.

Files are serialised with ``sort_keys=True`` and a fixed indent, so the same
run always produces byte-identical files regardless of which worker (or how
many workers) produced it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .spec import RunSpec

__all__ = ["RunStore"]

#: Default store root, relative to the working directory.
DEFAULT_ROOT = "runs"

MANIFEST = "manifest.json"


def _dump(payload: Any) -> str:
    # allow_nan=False: non-finite floats must have been normalised to their
    # string spellings by to_jsonable already; a bare NaN here would emit a
    # token that is not JSON (and that non-Python consumers reject), so fail
    # at the write boundary instead of poisoning the archive.
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


class RunStore:
    """Filesystem-backed store of campaign runs."""

    def __init__(self, root: str | Path = DEFAULT_ROOT) -> None:
        self.root = Path(root)

    # -------------------------------------------------------------- #
    # Paths
    # -------------------------------------------------------------- #
    def campaign_dir(self, campaign: str) -> Path:
        return self.root / campaign

    def run_dir(self, campaign: str, run_id: str) -> Path:
        return self.campaign_dir(campaign) / run_id

    def experiment_path(self, campaign: str, run_id: str, experiment_id: str) -> Path:
        return self.run_dir(campaign, run_id) / f"{experiment_id}.json"

    # -------------------------------------------------------------- #
    # Listing / loading
    # -------------------------------------------------------------- #
    def campaigns(self) -> list[str]:
        """Campaign names present in the store, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name for entry in self.root.iterdir() if entry.is_dir()
        )

    def run_ids(self, campaign: str) -> list[str]:
        """Run ids of a campaign that have a manifest, sorted."""
        directory = self.campaign_dir(campaign)
        if not directory.is_dir():
            return []
        return sorted(
            entry.name
            for entry in directory.iterdir()
            if entry.is_dir() and (entry / MANIFEST).is_file()
        )

    def read_manifest(self, campaign: str, run_id: str) -> dict | None:
        """The run's manifest, or ``None`` if absent/corrupt."""
        path = self.run_dir(campaign, run_id) / MANIFEST
        try:
            with path.open(encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def read_experiment(self, campaign: str, run_id: str, experiment_id: str) -> dict:
        """One experiment payload of one run."""
        with self.experiment_path(campaign, run_id, experiment_id).open(encoding="utf-8") as handle:
            return json.load(handle)

    # -------------------------------------------------------------- #
    # Resume contract
    # -------------------------------------------------------------- #
    def is_complete(self, campaign: str, run: RunSpec, experiment_ids: Iterable[str]) -> bool:
        """Whether ``run`` already completed with every requested experiment."""
        manifest = self.read_manifest(campaign, run.run_id)
        if not manifest or manifest.get("status") != "completed":
            return False
        if manifest.get("run_key") != run.key:
            return False
        return all(
            self.experiment_path(campaign, run.run_id, experiment_id).is_file()
            for experiment_id in experiment_ids
        )

    # -------------------------------------------------------------- #
    # Writing
    # -------------------------------------------------------------- #
    def write_experiments(self, campaign: str, run: RunSpec, outputs: dict[str, dict]) -> Path:
        """Write the per-experiment files, clearing any previous run image.

        The manifest is removed before anything else, so a crash mid-write
        can never leave stale experiment files behind a ``"completed"``
        marker.  Call :meth:`write_manifest` afterwards to seal the run.
        """
        directory = self.run_dir(campaign, run.run_id)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / MANIFEST).unlink(missing_ok=True)
        for stale in directory.glob("*.json"):
            stale.unlink()
        for experiment_id, payload in outputs.items():
            path = self.experiment_path(campaign, run.run_id, experiment_id)
            path.write_text(_dump(payload), encoding="utf-8")
        return directory

    def write_manifest(
        self,
        campaign: str,
        run: RunSpec,
        outputs: dict[str, dict],
        *,
        config_summary: dict | None = None,
        elapsed_seconds: float | None = None,
        metrics: dict | None = None,
        telemetry: dict | None = None,
        execution: dict | None = None,
    ) -> Path:
        """Write the completion manifest (the durable completion marker)."""
        directory = self.run_dir(campaign, run.run_id)
        manifest = {
            "status": "completed",
            "campaign": campaign,
            "run_id": run.run_id,
            "run_key": run.key,
            "scenario": run.scenario,
            "variant": run.variant,
            "overrides": dict(run.overrides),
            "seed": run.seed,
            "seed_index": run.seed_index,
            "experiments": sorted(outputs),
            "config": config_summary or {},
        }
        if elapsed_seconds is not None:
            manifest["elapsed_seconds"] = round(elapsed_seconds, 3)
        if metrics is not None:
            # Streamed per-run aggregates (the MetricsAccumulator contract).
            manifest["metrics"] = metrics
        if telemetry is not None:
            # The worker's per-run telemetry digest: per-phase span timings,
            # persist/pickle cost, valuation-cache hit rate, idle time.
            manifest["telemetry"] = telemetry
        if execution is not None:
            # Which backend (name + worker count) produced the run; resume
            # leaves it as written.
            manifest["execution"] = execution
        (directory / MANIFEST).write_text(_dump(manifest), encoding="utf-8")
        return directory

    def write_run(
        self,
        campaign: str,
        run: RunSpec,
        outputs: dict[str, dict],
        *,
        config_summary: dict | None = None,
        elapsed_seconds: float | None = None,
        metrics: dict | None = None,
        telemetry: dict | None = None,
        execution: dict | None = None,
    ) -> Path:
        """Persist one completed run: experiment files first, manifest last.

        Any previous contents of the run directory are cleared first, keeping
        the directory an exact image of the run that produced it.
        """
        self.write_experiments(campaign, run, outputs)
        return self.write_manifest(
            campaign,
            run,
            outputs,
            config_summary=config_summary,
            elapsed_seconds=elapsed_seconds,
            metrics=metrics,
            telemetry=telemetry,
            execution=execution,
        )
