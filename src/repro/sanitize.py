"""The runtime sanitizer: paranoid invariant checks behind one switch.

``REPRO_SANITIZE=1`` turns on a set of runtime assertions that the fast
paths are still bit-identical to their scalar reference semantics — the
dynamic complement of ``repro lint``'s static rules:

* :meth:`~repro.core.position_book.PositionBook.sync` rejects NaN/inf in
  the refreshed collateral/debt rows (a NaN would silently poison every
  downstream pinned reduction);
* the engine cross-checks the vectorized liquidatable-candidate scan
  against the scalar sweep of :func:`repro.reference.liquidatable_candidates`
  every :func:`stride`-th step;
* :meth:`~repro.chain.mempool.Mempool.check_invariants` revalidates the
  twin-heap bookkeeping (pack/evict/FIFO views agree with the live size,
  sort keys match payloads) after every mined block;
* the protocol valuation cache asserts coherence on every hit — the cached
  :class:`~repro.core.position_book.BookValuation` must belong to the
  book's current revision with no dirty rows pending — and deep-verifies
  a rebuilt valuation bitwise every :func:`stride`-th hit.

All checks raise :class:`SanitizerError` (an ``AssertionError`` subclass,
so ``pytest.raises(AssertionError)`` also catches it).  The sanitizer
never mutates simulated state and draws no RNG, so sanitized runs are
bit-identical to bare runs — proven by the scenario matrix in
``tests/test_sanitize.py``.

Checks are sampled by *stride* (``REPRO_SANITIZE_STRIDE``, default 16)
where a full check per step would change the run's complexity class; set
the stride to 1 to check every step when hunting a specific corruption.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = ["SanitizerError", "enabled", "scoped", "stride"]

_ENV_FLAG = "REPRO_SANITIZE"
_ENV_STRIDE = "REPRO_SANITIZE_STRIDE"
_DEFAULT_STRIDE = 16

#: Process-local override installed by :func:`scoped` (tests flip this
#: instead of mutating ``os.environ``): ``None`` defers to the environment.
_OVERRIDE: bool | None = None
_STRIDE_OVERRIDE: int | None = None


class SanitizerError(AssertionError):
    """A sanitizer invariant failed: fast-path state diverged from truth."""


def enabled() -> bool:
    """Whether sanitizer checks are on (override, else ``REPRO_SANITIZE``)."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get(_ENV_FLAG, "").strip() not in ("", "0", "false", "off")


def stride() -> int:
    """Sampling stride for the expensive cross-checks (>= 1)."""
    if _STRIDE_OVERRIDE is not None:
        return _STRIDE_OVERRIDE
    raw = os.environ.get(_ENV_STRIDE, "")
    try:
        value = int(raw)
    except ValueError:
        return _DEFAULT_STRIDE
    return max(value, 1) if raw else _DEFAULT_STRIDE


@contextmanager
def scoped(on: bool = True, check_stride: int | None = None) -> Iterator[None]:
    """Force the sanitizer on/off (and optionally pin the stride) locally.

    Tests use this instead of environment mutation so parallel test
    processes cannot observe each other's flags.
    """
    global _OVERRIDE, _STRIDE_OVERRIDE
    previous = (_OVERRIDE, _STRIDE_OVERRIDE)
    _OVERRIDE = on
    if check_stride is not None:
        _STRIDE_OVERRIDE = max(int(check_stride), 1)
    try:
        yield
    finally:
        _OVERRIDE, _STRIDE_OVERRIDE = previous
