"""Physical similarity operators (paper §2: "Similarity operations are an
extremely important and essential part of a universal storage").

* :class:`NaiveSimilarityJoin` — execute both inputs, ship to the
  coordinator, verify all pairs with the banded edit distance.
* :class:`QGramSimilarityJoin` — execute the left input; for each distinct
  left string, probe the distributed q-gram index (count filter + verify) to
  find right-pattern triples within the bound.  Traffic ∝ distinct left
  values × |grams| lookups instead of |L| × |R| verifications at one peer.

The similarity *selection* (edist against a constant) is
:class:`~repro.physical.scans.QGramScan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanningError
from repro.net.trace import Trace
from repro.algebra.semantics import Binding, compatible, merge_bindings
from repro.physical.base import (
    ExecutionContext,
    OpResult,
    PhysicalOperator,
    coordinator_result,
    gather,
)
from repro.physical.scans import QGramScan
from repro.strings import edit_distance_within
from repro.vql.ast import Expression, TriplePattern, Var


@dataclass
class NaiveSimilarityJoin(PhysicalOperator):
    """All-pairs verification at the coordinator."""

    left: PhysicalOperator
    right: PhysicalOperator
    left_variable: Var = None  # type: ignore[assignment]
    right_variable: Var = None  # type: ignore[assignment]
    max_distance: int = 0

    strategy = "naive"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        return gather(ctx, (self.left, self.right), "simjoin-ship", self._verify)

    def _verify(self, left_rows: list[Binding], right_rows: list[Binding]) -> list[Binding]:
        joined: list[Binding] = []
        for left_row in left_rows:
            left_value = left_row.get(self.left_variable.name)
            if not isinstance(left_value, str):
                continue
            for right_row in right_rows:
                right_value = right_row.get(self.right_variable.name)
                if not isinstance(right_value, str):
                    continue
                if edit_distance_within(left_value, right_value, self.max_distance) is None:
                    continue
                if compatible(left_row, right_row):
                    joined.append(merge_bindings(left_row, right_row))
        return joined

    def _label(self) -> str:
        return (
            f"NaiveSimilarityJoin edist({self.left_variable}, {self.right_variable})"
            f" <= {self.max_distance}"
        )


@dataclass
class QGramSimilarityJoin(PhysicalOperator):
    """Index-probing similarity join via the distributed q-gram index."""

    left: PhysicalOperator
    right_pattern: TriplePattern = None  # type: ignore[assignment]
    right_filters: tuple[Expression, ...] = ()
    left_variable: Var = None  # type: ignore[assignment]
    right_variable: Var = None  # type: ignore[assignment]
    max_distance: int = 0
    q: int = 3

    strategy = "qgram"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left,)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        if self.right_pattern is None:
            raise PlanningError("QGramSimilarityJoin needs the right pattern spec")
        if not isinstance(self.right_pattern.object, Var) or (
            self.right_pattern.object.name != self.right_variable.name
        ):
            raise PlanningError(
                "QGramSimilarityJoin: right variable must be the right pattern's object"
            )
        left = gather(ctx, (self.left,), "simjoin-ship")
        joined: list[Binding] = []
        branches: list[Trace] = []
        probe_cache: dict[str, list[Binding]] = {}
        for left_row in left.all_bindings():
            left_value = left_row.get(self.left_variable.name)
            if not isinstance(left_value, str):
                continue
            if left_value not in probe_cache:
                probe = QGramScan(
                    pattern=self.right_pattern,
                    filters=self.right_filters,
                    text=left_value,
                    max_distance=self.max_distance,
                    q=self.q,
                )
                result = probe.execute(ctx)
                branches.append(result.trace)
                probe_cache[left_value] = result.all_bindings()
            for right_row in probe_cache[left_value]:
                if compatible(left_row, right_row):
                    joined.append(merge_bindings(left_row, right_row))
        trace = left.trace.then(Trace.parallel(branches)) if branches else left.trace
        return coordinator_result(ctx, joined, trace, left.complete)

    def _label(self) -> str:
        return (
            f"QGramSimilarityJoin[{self.right_pattern}] "
            f"edist({self.left_variable}, {self.right_variable}) <= {self.max_distance}"
        )
