"""Seed-pinned equivalence: the book path replays the scalar reference exactly.

The runtime reads the position book through one columnar path — the
:class:`~repro.core.position_book.BookScan` liquidation scan and the cached
:class:`~repro.core.position_book.BookValuation` behind totals, archive
snapshots, utilization, interest accrual, the dYdX insurance write-off and
the Table 2 / Table 3 / Figure 8 analytics.  :mod:`repro.reference` keeps
the per-position walks that path replaced.  Here every reference function
is swapped in (by ``monkeypatch``) for the method or function it mirrors,
and a whole run must then be **bit-identical** to the default run: same
events, same blocks, same archive snapshots (totals and per-position
health factors included), same liquidation records and the same report
JSON — for every registered scenario at two seeds.

The vectorized reductions are *pinned* — exact per-term products, scalar
fixup of rows with three or more nonzero entries, left-to-right row-order
accumulation — which is why equality is exact, not approximate.  The windows
are truncated (same mechanism as ``repro run --end-block``) so the matrix
stays test-suite friendly; each run still crosses scheduled incidents,
accrual, insurance write-offs and auctions.
"""

import json
from collections import Counter

import pytest

from repro import reference, scenarios
from repro.analytics import bad_debt_analysis, sensitivity_analysis, unprofitable_analysis
from repro.analytics.bad_debt_analysis import bad_debt_table
from repro.analytics.records import extract_liquidations
from repro.analytics.sensitivity_analysis import sensitivity_figure
from repro.analytics.unprofitable_analysis import unprofitable_table
from repro.chain.types import make_address, reset_id_counters
from repro.protocols.base import LendingProtocol
from repro.protocols.dydx import DydxProtocol
from repro.serialize import to_jsonable

#: Number of block strides each truncated equivalence run covers.
STRIDES = 45

SEEDS = (17, 29)

#: ``(owner, attribute, reference function)``: where each scalar walk is
#: swapped in for the book-path method or function it mirrors.
SEAMS = (
    (LendingProtocol, "liquidatable_candidates", "liquidatable_candidates"),
    (LendingProtocol, "utilization", "utilization"),
    (LendingProtocol, "_accrual_positions", "accrual_positions"),
    (LendingProtocol, "total_collateral_usd", "total_collateral_usd"),
    (LendingProtocol, "total_debt_usd", "total_debt_usd"),
    (LendingProtocol, "snapshot", "snapshot"),
    (DydxProtocol, "_under_collateralized", "dydx_under_collateralized"),
    (bad_debt_analysis, "platform_bad_debt", "platform_bad_debt"),
    (unprofitable_analysis, "platform_unprofitable", "platform_unprofitable"),
    (sensitivity_analysis, "platform_sensitivity", "platform_sensitivity"),
)


def install_reference(monkeypatch, calls: Counter | None = None) -> None:
    """Route every book-path read through :mod:`repro.reference`.

    Must run before the world is built: each protocol registers its bound
    ``snapshot`` with the chain at construction.  With ``calls`` given,
    every reference function counts its calls there, including calls one
    reference function makes to another.
    """
    for owner, attribute, name in SEAMS:
        function = getattr(reference, name)
        if calls is not None:
            function = counted(function, name, calls)
            monkeypatch.setattr(reference, name, function)
        monkeypatch.setattr(owner, attribute, function)


def counted(function, name: str, calls: Counter):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)

    return wrapper


def run_truncated(name: str, seed: int):
    # Addresses and tx hashes come from process-wide counters; reset them so
    # both runs mint identical identifiers (same trick the campaign executor
    # uses for byte-identical store files).
    reset_id_counters()
    builder = scenarios.get(name).builder(seed=seed)
    config = builder.config
    end_block = min(config.end_block, config.start_block + STRIDES * config.blocks_per_step)
    builder.config = config.with_overrides(end_block=end_block)
    return builder.build().run()


def replay(name: str, seed: int) -> dict:
    """Everything a run is compared on, serialized so last-ulp float
    differences cannot hide."""
    result = run_truncated(name, seed)
    chain = result.chain
    return {
        "events": [
            (event.name, event.emitter.value, event.block_number, event.log_index, event.data)
            for event in chain.events
        ],
        "blocks": [(block.number, len(block.receipts)) for block in chain.blocks],
        "final_block": result.final_block,
        "liquidations": len(extract_liquidations(result)),
        "snapshots": json.dumps(
            {str(block): to_jsonable(chain.snapshot_at(block)) for block in chain.snapshot_blocks},
            sort_keys=True,
        ),
        "reports": json.dumps(
            to_jsonable(
                {
                    "bad_debt": bad_debt_table(result),
                    "unprofitable": unprofitable_table(result),
                    "sensitivity": sensitivity_figure(result),
                }
            ),
            sort_keys=True,
        ),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", scenarios.names())
def test_reference_replays_identically(name, seed, monkeypatch):
    book = replay(name, seed)
    with monkeypatch.context() as patch:
        install_reference(patch)
        scalar = replay(name, seed)
    for key in book:
        assert book[key] == scalar[key], f"{key} diverged from the scalar reference"


def test_every_reference_function_runs(monkeypatch):
    """The swap is live: a patch on a seam the run never reaches would make
    the equivalence above pass without comparing anything."""
    calls: Counter = Counter()
    install_reference(monkeypatch, calls)
    replay("small", SEEDS[0])
    assert sorted(name for _, _, name in SEAMS if calls[name] == 0) == []


def test_empty_side_totals_agree_with_reference():
    """A book with positions but no debt must serialize the same total as
    the scalar walk (float 0.0, not ``sum``'s int 0)."""
    reset_id_counters()
    engine = scenarios.get("small").build(seed=SEEDS[1])
    protocol = engine.protocols[0]
    protocol.position_of(make_address("empty-sider"))  # attached, holds nothing
    assert json.dumps(to_jsonable(protocol.snapshot()), sort_keys=True) == json.dumps(
        to_jsonable(reference.snapshot(protocol)), sort_keys=True
    )
