"""Runtime sanitizer: bit-identity under the checks, and each check fires.

Two obligations, both load-bearing:

* **Transparency** — ``REPRO_SANITIZE=1`` must change *nothing* about a
  run: the sanitizer only reads simulated state and draws no RNG, so every
  registered scenario must replay bit-identically (events, snapshots,
  liquidation records) with the checks on.  Without this, nobody can debug
  a production run under the sanitizer and trust what they see.
* **Sensitivity** — every check must actually fire on the corruption it
  claims to catch, proven here by injecting each corruption directly:
  non-finite amounts into the position book, a desynchronised book row
  behind the vectorized scan, broken mempool bookkeeping, and a poisoned
  valuation cache.
"""

import json

import numpy as np
import pytest

from repro import reference, sanitize, scenarios
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.chain.types import make_address, reset_id_counters
from repro.serialize import to_jsonable

#: Number of block strides each truncated bit-identity run covers.
STRIDES = 30

SEED = 31


def run_truncated(name: str, *, sanitized: bool):
    reset_id_counters()
    builder = scenarios.get(name).builder(seed=SEED)
    config = builder.config
    end_block = min(config.end_block, config.start_block + STRIDES * config.blocks_per_step)
    builder.config = config.with_overrides(end_block=end_block)
    engine = builder.build()
    # Stride 3: small enough that the truncated windows hit the periodic
    # cross-checks many times, odd so it interleaves against block strides.
    with sanitize.scoped(sanitized, check_stride=3):
        return engine.run()


def fingerprint(result) -> str:
    chain = result.chain
    return json.dumps(
        to_jsonable(
            {
                "events": [
                    (event.name, event.emitter.value, event.block_number, event.log_index, event.data)
                    for event in chain.events
                ],
                "snapshots": {str(block): chain.snapshot_at(block) for block in chain.snapshot_blocks},
                "records": result.records,
                "metrics": result.metrics,
                "final_block": result.final_block,
            }
        ),
        sort_keys=True,
    )


@pytest.mark.parametrize("name", scenarios.names())
def test_sanitized_runs_are_bit_identical(name):
    bare = run_truncated(name, sanitized=False)
    sanitized = run_truncated(name, sanitized=True)
    assert fingerprint(sanitized) == fingerprint(bare)


# --------------------------------------------------------------------- #
# Switch plumbing
# --------------------------------------------------------------------- #
class TestSwitch:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()

    @pytest.mark.parametrize("value,expected", [("1", True), ("true", True), ("0", False), ("off", False), ("", False)])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize.enabled() is expected

    def test_scoped_overrides_env_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with sanitize.scoped(False):
            assert not sanitize.enabled()
        assert sanitize.enabled()

    def test_stride_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE_STRIDE", "7")
        assert sanitize.stride() == 7
        monkeypatch.setenv("REPRO_SANITIZE_STRIDE", "0")
        assert sanitize.stride() == 1  # clamped
        monkeypatch.setenv("REPRO_SANITIZE_STRIDE", "nope")
        assert sanitize.stride() == 16  # default on garbage

    def test_sanitizer_error_is_assertion_error(self):
        assert issubclass(sanitize.SanitizerError, AssertionError)


# --------------------------------------------------------------------- #
# Negative tests: every check fires on its corruption
# --------------------------------------------------------------------- #
def run_small():
    """A 'small'-scenario engine *after* a short run, so positions exist."""
    reset_id_counters()
    builder = scenarios.get("small").builder(seed=SEED)
    config = builder.config
    builder.config = config.with_overrides(
        end_block=config.start_block + 10 * config.blocks_per_step
    )
    engine = builder.build()
    engine.run()
    return engine


def indebted_protocol(engine):
    protocol = max(engine.protocols, key=lambda p: len(p.positions_with_debt()))
    assert protocol.positions_with_debt(), "short 'small' run seeds indebted positions"
    return protocol


def first_indebted(protocol):
    return protocol.positions_with_debt()[0]


class TestBookFiniteGuard:
    def test_nan_collateral_rejected_at_sync(self):
        engine = run_small()
        protocol = indebted_protocol(engine)
        position = first_indebted(protocol)
        symbol = next(iter(position.collateral))
        position.add_collateral(symbol, float("nan"))  # x + nan = nan
        with sanitize.scoped(True):
            with pytest.raises(sanitize.SanitizerError, match="non-finite collateral"):
                protocol.book.sync()

    def test_inf_debt_rejected_at_sync(self):
        engine = run_small()
        protocol = indebted_protocol(engine)
        position = first_indebted(protocol)
        symbol = next(iter(position.debt))
        position.add_debt(symbol, float("inf"))
        with sanitize.scoped(True):
            with pytest.raises(sanitize.SanitizerError, match="non-finite debt"):
                protocol.book.sync()

    def test_sanitizer_off_lets_nan_through(self):
        engine = run_small()
        protocol = indebted_protocol(engine)
        position = first_indebted(protocol)
        symbol = next(iter(position.collateral))
        position.add_collateral(symbol, float("nan"))
        with sanitize.scoped(False):
            protocol.book.sync()  # the silent-poison behaviour the check exists for


class TestScanCrossCheck:
    def crash_prices(self, engine, protocol, factor=0.05):
        """Crash collateral prices (but not debt denominations) so the
        scalar sweep finds genuinely liquidatable positions."""
        debt_symbols = {
            symbol
            for position in protocol.positions_with_debt()
            for symbol, amount in position.debt.items()
            if amount > 0
        }
        for symbol, price in protocol.prices().items():
            if symbol not in debt_symbols:
                engine.oracle.post_price(symbol, price * factor)

    def test_desynchronised_book_row_detected(self):
        engine = run_small()
        protocol = indebted_protocol(engine)
        self.crash_prices(engine, protocol)
        protocol.book.sync()
        with sanitize.scoped(True, check_stride=1):
            truly = reference.liquidatable_candidates(protocol)
            assert truly, "price crash must make positions liquidatable"
            # Corrupt the columnar mirror behind the dirty tracking: zero the
            # victim's debt row, so the vectorized prefilter cannot flag it.
            victim = truly[0]
            row = victim._row
            protocol.book._debt[row, :] = 0.0
            with pytest.raises(sanitize.SanitizerError, match="diverged from"):
                engine._liquidatable_candidates(protocol)

    def test_clean_book_passes_cross_check(self):
        engine = run_small()
        protocol = indebted_protocol(engine)
        self.crash_prices(engine, protocol)
        with sanitize.scoped(True, check_stride=1):
            candidates = engine._liquidatable_candidates(protocol)
            assert candidates == reference.liquidatable_candidates(protocol)


class TestMempoolInvariants:
    def make_pool(self, n=8):
        pool = Mempool()
        sender = make_address("spammer")
        for i in range(n):
            pool.submit(Transaction(sender=sender, gas_price=(i + 1) * 10**9, gas_limit=21_000), current_block=1)
        return pool

    def test_clean_pool_passes(self):
        self.make_pool().check_invariants()

    def test_size_drift_detected(self):
        pool = self.make_pool()
        pool._size += 1
        with pytest.raises(sanitize.SanitizerError, match="live entries but _size"):
            pool.check_invariants()

    def test_mutated_bid_detected(self):
        pool = self.make_pool()
        victim = next(entry for entry in pool._heap if entry.alive)
        victim.transaction.gas_price *= 2  # bid change after submit: key is stale
        with pytest.raises(sanitize.SanitizerError, match="sort key"):
            pool.check_invariants()

    def test_missed_lazy_deletion_detected(self):
        pool = self.make_pool()
        # Simulate a view desync: kill an entry in the pack heap only,
        # leaving _size and the other views convinced it is alive.
        victim = next(entry for entry in pool._heap if entry.alive)
        victim.alive = False
        with pytest.raises(sanitize.SanitizerError):
            pool.check_invariants()

    def test_checked_from_mine_block(self):
        engine = run_small()
        engine.chain.mempool._size += 1
        with sanitize.scoped(True):
            with pytest.raises(sanitize.SanitizerError):
                engine.chain.mine_block()


class TestValuationCacheCoherence:
    def test_dirty_rows_behind_unchanged_revision_detected(self):
        engine = run_small()
        protocol = indebted_protocol(engine)
        with sanitize.scoped(True, check_stride=10_000):
            protocol.valuation()  # build
            protocol.book._dirty.add(0)  # bypass mark_dirty's revision bump
            with pytest.raises(sanitize.SanitizerError, match="dirty rows pending"):
                protocol.valuation()  # hit

    def test_stale_revision_detected(self):
        engine = run_small()
        protocol = indebted_protocol(engine)
        with sanitize.scoped(True, check_stride=10_000):
            cached = protocol.valuation()
            cached._built_at_revision -= 1  # cache now claims an older book
            with pytest.raises(sanitize.SanitizerError, match="stale"):
                protocol.valuation()

    def test_poisoned_cache_payload_detected_by_deep_check(self):
        engine = run_small()
        protocol = indebted_protocol(engine)
        with sanitize.scoped(True, check_stride=1):
            cached = protocol.valuation()
            cached.collateral_values[cached.collateral_values > 0] *= 1.5
            with pytest.raises(sanitize.SanitizerError, match="bitwise"):
                protocol.valuation()

    def test_clean_cache_passes_deep_check(self):
        engine = run_small()
        protocol = indebted_protocol(engine)
        with sanitize.scoped(True, check_stride=1):
            first = protocol.valuation()
            assert protocol.valuation() is first


# --------------------------------------------------------------------- #
# Non-finite floats through the serialization contract
# --------------------------------------------------------------------- #
class TestNonFiniteSerialization:
    def test_nonfinite_floats_become_strings(self):
        payload = to_jsonable(
            {
                "nan": float("nan"),
                "inf": float("inf"),
                "ninf": float("-inf"),
                "np_nan": np.float64("nan"),
                "nested": [np.inf, {"deep": -np.inf}],
                "finite": 1.5,
            }
        )
        assert payload["nan"] == "NaN"
        assert payload["inf"] == "Infinity"
        assert payload["ninf"] == "-Infinity"
        assert payload["np_nan"] == "NaN"
        assert payload["nested"] == ["Infinity", {"deep": "-Infinity"}]
        assert payload["finite"] == 1.5

    def test_nonfinite_array_round_trips_through_strict_json(self):
        payload = to_jsonable({"values": np.array([1.0, np.nan, np.inf])})
        text = json.dumps(payload, allow_nan=False)  # the store's strictness
        assert json.loads(text) == payload

    def test_store_dump_rejects_raw_nan(self):
        from repro.campaigns.store import _dump

        with pytest.raises(ValueError):
            _dump({"bad": float("nan")})
        # ...but anything that went through to_jsonable is safe:
        assert "NaN" in _dump(to_jsonable({"bad": float("nan")}))
