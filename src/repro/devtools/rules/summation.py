"""SUM002 — float value sums route through the pinned summation helpers.

Float addition is not associative: ``np.sum`` reduces pairwise,
``math.fsum`` re-associates exactly, and a refactor that reorders a plain
``sum()`` changes the last ulp of every downstream report.  The repository
pins summation order once — ``BookValuation``'s pinned reductions for
position aggregates, :func:`repro.analytics.common.pinned_sum` for record
streams — and everything that feeds seed-pinned output must route through
those helpers.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..framework import FileContext, Rule, Violation, dotted_name

__all__ = ["PinnedFloatSummation"]

#: Identifier fragments marking a summand as monetary / float-valued.
_VALUE_PATTERN = re.compile(
    r"usd|value|profit|fee|amount|collateral|debt|loss|volume|repa[iy]|price|balance",
    re.IGNORECASE,
)

#: Reductions whose order differs from the scalar left-to-right walk.
_ALWAYS_FLAGGED = {
    "math.fsum": "math.fsum re-associates the summation exactly",
    "numpy.sum": "np.sum reduces pairwise, not left-to-right",
}


def _is_counting_sum(arg: ast.AST) -> bool:
    """``sum(1 for ... if ...)``-style counts: the summand is a constant."""
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return isinstance(arg.elt, ast.Constant)
    return False


def _mentions_value(node: ast.AST) -> bool:
    """Whether any identifier under ``node`` looks like a float value."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and _VALUE_PATTERN.search(child.id):
            return True
        if isinstance(child, ast.Attribute) and _VALUE_PATTERN.search(child.attr):
            return True
    return False


class PinnedFloatSummation(Rule):
    code = "SUM002"
    title = "float value sums route through the pinned summation helpers"
    rationale = """\
Protocol aggregates and analytics totals are seed-pinned outputs: their
float summation order is part of the bit-identity contract.  Raw ``sum()``
over value sequences invites silent re-ordering during refactors, and
``np.sum`` / ``math.fsum`` already sum in a different order than the scalar
walk.  Position aggregates route through the ``BookValuation`` pinned
accessors; record/series totals route through
``repro.analytics.common.pinned_sum`` (explicit left-to-right, float 0.0
start).  Counting sums (``sum(1 for ...)``) are fine."""
    example_bad = """\
total = sum(record.profit_usd for record in records)
tvl = np.sum(values)"""
    example_good = """\
from ..analytics.common import pinned_sum
total = pinned_sum(record.profit_usd for record in records)
tvl = protocol.valuation().pinned_total_collateral_usd()"""
    scopes = (
        "repro/protocols/",
        "repro/experiments/",
        "repro/analytics/",
        "repro/reference.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases = ctx.import_aliases
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = dotted_name(func, aliases)
            if name in _ALWAYS_FLAGGED:
                yield self.violation(
                    ctx,
                    node,
                    f"`{name}` over float values: {_ALWAYS_FLAGGED[name]}; "
                    "route through pinned_sum / the BookValuation pinned accessors",
                )
            elif isinstance(func, ast.Name) and func.id == "sum":
                if (
                    node.args
                    and not _is_counting_sum(node.args[0])
                    and _mentions_value(node.args[0])
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "raw sum() over float values; route through "
                        "repro.analytics.common.pinned_sum (or the BookValuation "
                        "pinned accessors) so summation order stays bit-reproducible",
                    )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "sum"
                and name is None  # a method call on an expression, i.e. ndarray.sum
            ):
                yield self.violation(
                    ctx,
                    node,
                    ".sum() on an array reduces in backend-defined order; "
                    "route through the BookValuation pinned accessors",
                )
            elif isinstance(func, ast.Attribute) and func.attr == "sum" and name is not None:
                # `something.sum(...)` where the receiver is a plain name
                # chain: still an array-style reduction unless it is one of
                # the helpers above (none of which are named `sum`).
                root = name.split(".", 1)[0]
                if root not in ("math", "numpy"):
                    yield self.violation(
                        ctx,
                        node,
                        ".sum() on an array reduces in backend-defined order; "
                        "route through the BookValuation pinned accessors",
                    )
