"""Run every experiment against one simulation result.

Experiments are registered in the :data:`EXPERIMENTS` spec table with a
normalised ``compute(result, records)`` signature, so single experiments can
be executed on demand (:func:`run_one` — this is what the ``python -m repro``
CLI's ``--report`` flag drives) as well as all together (:func:`run_all`).
``render_all`` produces the full text report.  The ``__main__`` hook runs the
small scenario so that

    python -m repro.experiments.runner

prints a complete (reduced-scale) reproduction report without any setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..analytics.records import LiquidationRecord
from ..scenarios.builder import ScenarioBuilder
from ..serialize import to_jsonable
from ..simulation.config import ScenarioConfig
from ..simulation.engine import SimulationResult
from . import (
    case_study,
    close_factor_ablation,
    configuration_sweep,
    fig4_accumulative,
    fig5_monthly_profit,
    fig6_gas_prices,
    fig7_auctions,
    fig8_sensitivity,
    fig9_profit_volume,
    mitigation,
    stablecoin,
    table1_overview,
    table2_bad_debt,
    table3_unprofitable,
    table4_flash_loans,
    table7_price_movement,
    table8_monthly,
)


@dataclass(frozen=True)
class ExperimentOutput:
    """One experiment's computed data and rendered report."""

    experiment_id: str
    title: str
    data: Any
    report: str

    def json_payload(self) -> dict[str, Any]:
        """The campaign store's contract: this output as plain JSON data.

        ``data`` is normalised with :func:`repro.serialize.to_jsonable`, so
        the payload survives a ``json.dumps``/``json.loads`` round trip.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "data": to_jsonable(self.data),
            "report": self.report,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: title plus normalised compute/render hooks."""

    experiment_id: str
    title: str
    compute: Callable[[SimulationResult, list[LiquidationRecord]], Any]
    render: Callable[[Any], str]


#: Experiment specs in the order they appear in the paper.
EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig4",
            "Figure 4 — accumulative liquidated collateral",
            lambda result, records: fig4_accumulative.compute(records),
            fig4_accumulative.render,
        ),
        ExperimentSpec(
            "table1",
            "Table 1 — liquidation overview",
            lambda result, records: table1_overview.compute(records),
            table1_overview.render,
        ),
        ExperimentSpec(
            "fig5",
            "Figure 5 — monthly liquidation profit",
            lambda result, records: fig5_monthly_profit.compute(records),
            fig5_monthly_profit.render,
        ),
        ExperimentSpec(
            "fig6",
            "Figure 6 — liquidation gas prices",
            lambda result, records: fig6_gas_prices.compute(result),
            fig6_gas_prices.render,
        ),
        ExperimentSpec(
            "fig7",
            "Figure 7 — MakerDAO auctions",
            lambda result, records: fig7_auctions.compute(result),
            fig7_auctions.render,
        ),
        ExperimentSpec(
            "table2",
            "Table 2 — bad debts",
            lambda result, records: table2_bad_debt.compute(result),
            table2_bad_debt.render,
        ),
        ExperimentSpec(
            "table3",
            "Table 3 — unprofitable liquidations",
            lambda result, records: table3_unprofitable.compute(result),
            table3_unprofitable.render,
        ),
        ExperimentSpec(
            "table4",
            "Table 4 — flash loan usage",
            lambda result, records: table4_flash_loans.compute(result),
            table4_flash_loans.render,
        ),
        ExperimentSpec(
            "fig8",
            "Figure 8 — liquidation sensitivity",
            lambda result, records: fig8_sensitivity.compute(result),
            fig8_sensitivity.render,
        ),
        ExperimentSpec(
            "stablecoin",
            "Section 4.5.2 — stablecoin stability",
            lambda result, records: stablecoin.compute(result),
            stablecoin.render,
        ),
        ExperimentSpec(
            "fig9",
            "Figure 9 — profit-volume ratio",
            lambda result, records: fig9_profit_volume.compute(result, records),
            fig9_profit_volume.render,
        ),
        ExperimentSpec(
            "case_study",
            "Tables 5/6 — optimal strategy case study",
            lambda result, records: case_study.compute(),
            case_study.render,
        ),
        ExperimentSpec(
            "mitigation",
            "Section 5.2.3 — mitigation",
            lambda result, records: mitigation.compute(),
            mitigation.render,
        ),
        ExperimentSpec(
            "table7",
            "Table 7 — post-liquidation price movement",
            lambda result, records: table7_price_movement.compute(result, records),
            table7_price_movement.render,
        ),
        ExperimentSpec(
            "table8",
            "Table 8 — monthly DAI/ETH liquidations",
            lambda result, records: table8_monthly.compute(records),
            table8_monthly.render,
        ),
        ExperimentSpec(
            "configuration",
            "Appendix C — reasonable configurations",
            lambda result, records: configuration_sweep.compute(),
            configuration_sweep.render,
        ),
        ExperimentSpec(
            "close_factor",
            "Ablation — close factor",
            lambda result, records: close_factor_ablation.compute(),
            close_factor_ablation.render,
        ),
    )
}

#: Experiment ids in the order they appear in the paper.
EXPERIMENT_IDS = tuple(EXPERIMENTS)


def run_one(
    result: SimulationResult,
    experiment_id: str,
    records: list[LiquidationRecord] | None = None,
) -> ExperimentOutput:
    """Execute a single experiment harness against ``result``.

    ``records`` (the normalised liquidation records) may be passed in to
    avoid re-reading them per experiment; by default ``result.records`` is
    used — streamed by the run's :class:`LiquidationRecorder` probe when one
    was attached, crawled post-hoc otherwise.
    """
    try:
        spec = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {', '.join(EXPERIMENT_IDS)}"
        ) from None
    if records is None:
        records = result.records
    data = spec.compute(result, records)
    return ExperimentOutput(
        experiment_id=spec.experiment_id,
        title=spec.title,
        data=data,
        report=spec.render(data),
    )


def run_all(result: SimulationResult) -> dict[str, ExperimentOutput]:
    """Execute every experiment harness against ``result``."""
    records = result.records
    return {
        experiment_id: run_one(result, experiment_id, records)
        for experiment_id in EXPERIMENT_IDS
    }


def run_json(
    result: SimulationResult,
    experiment_ids: tuple[str, ...] | None = None,
) -> dict[str, dict[str, Any]]:
    """Execute experiments and return their JSON payloads, keyed by id.

    This is what campaign workers persist to the run store: every value is
    JSON-round-trippable plain Python.
    """
    ids = EXPERIMENT_IDS if experiment_ids is None else tuple(experiment_ids)
    records = result.records
    return {
        experiment_id: run_one(result, experiment_id, records).json_payload()
        for experiment_id in ids
    }


def render_all(outputs: dict[str, ExperimentOutput]) -> str:
    """Concatenate every experiment's rendered report."""
    sections = []
    for experiment_id in EXPERIMENT_IDS:
        output = outputs.get(experiment_id)
        if output is None:
            continue
        sections.append(output.report)
    return "\n\n" + "\n\n".join(sections) + "\n"


def main(config: ScenarioConfig | None = None) -> str:
    """Run the scenario, execute every experiment and return the full report."""
    result = ScenarioBuilder(config or ScenarioConfig.small()).build().run()
    outputs = run_all(result)
    return render_all(outputs)


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    print(main())
