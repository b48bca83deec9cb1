"""Remaining physical operators: filter, projection, sort/limit, union,
left join, and the root collector.

These are "flow" operators: FilterOp and ProjectOp run *in place* at the
producing peers (free of network cost — this is the pushdown payoff); the
blocking operators (sort, distinct, left join) gather at the coordinator
first.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.net.trace import Trace
from repro.algebra.semantics import (
    Binding,
    bound_variables,
    join_key,
    merge_bindings,
    order_sort_key,
)
from repro.physical.base import ExecutionContext, FilterCheck, OpResult, PhysicalOperator, gather
from repro.vql.ast import Expression, OrderItem, Var


@dataclass
class FilterOp(PhysicalOperator):
    """σ evaluated wherever the rows currently are (no traffic)."""

    child: PhysicalOperator
    predicate: Expression = None  # type: ignore[assignment]

    strategy = "in-place"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        check = FilterCheck((self.predicate,))
        return self.child.execute(ctx).in_place(lambda rows: [row for row in rows if check(row)])

    def _label(self) -> str:
        return f"FilterOp σ[{self.predicate}]"


@dataclass
class ProjectOp(PhysicalOperator):
    """π applied at the producers (column pruning saves shipping width);
    DISTINCT, being global, deduplicates after gathering at the coordinator."""

    child: PhysicalOperator
    variables: tuple[Var, ...] = ()
    distinct: bool = False

    strategy = "in-place"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        if self.distinct:
            return gather(ctx, (self.child,), "project-ship", _distinct, local=self._project)
        return self.child.execute(ctx).in_place(self._project)

    def _project(self, rows: list[Binding]) -> list[Binding]:
        names = [v.name for v in self.variables]
        if not names:
            return rows
        return [{name: row.get(name) for name in names} for row in rows]

    def _label(self) -> str:
        names = ", ".join(f"?{v.name}" for v in self.variables) if self.variables else "*"
        return f"ProjectOp π[{names}]{' DISTINCT' if self.distinct else ''}"


@dataclass
class SortOp(PhysicalOperator):
    """Full ORDER BY — blocking, runs at the coordinator."""

    child: PhysicalOperator
    items: tuple[OrderItem, ...] = ()

    strategy = "coordinator"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        key = order_sort_key(self.items)
        return gather(ctx, (self.child,), "sort-ship", lambda rows: sorted(rows, key=key))


@dataclass
class LimitOp(PhysicalOperator):
    """LIMIT/OFFSET at the coordinator (inputs are already ordered or unordered-any)."""

    child: PhysicalOperator
    count: int | None = None
    offset: int = 0

    strategy = "coordinator"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        end = None if self.count is None else self.offset + self.count
        return gather(ctx, (self.child,), "limit-ship", lambda rows: rows[self.offset : end])


@dataclass
class UnionOp(PhysicalOperator):
    """Bag union: children run in parallel, groups simply pool."""

    inputs: tuple[PhysicalOperator, ...] = ()

    strategy = "parallel"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return self.inputs

    def execute(self, ctx: ExecutionContext) -> OpResult:
        results = [child.execute(ctx) for child in self.inputs]
        groups = [group for result in results for group in result.groups]
        return OpResult(
            groups,
            Trace.parallel([r.trace for r in results]),
            all(r.complete for r in results),
        )


@dataclass
class LeftJoinOp(PhysicalOperator):
    """OPTIONAL (left outer join) at the coordinator."""

    left: PhysicalOperator = None  # type: ignore[assignment]
    right: PhysicalOperator = None  # type: ignore[assignment]

    strategy = "coordinator"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        return gather(ctx, (self.left, self.right), "join-ship", _left_join)


@dataclass
class CollectOp(PhysicalOperator):
    """Root operator: deliver everything to the coordinator."""

    child: PhysicalOperator = None  # type: ignore[assignment]

    strategy = "root"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        return gather(ctx, (self.child,), "result")


def _distinct(rows: list[Binding]) -> list[Binding]:
    """``rows`` without repeats, first occurrences in order."""
    seen: set[tuple] = set()
    unique: list[Binding] = []
    for row in rows:
        key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


def _left_join(left_rows: list[Binding], right_rows: list[Binding]) -> list[Binding]:
    """Every left row merged with each right row agreeing on the shared
    variables, or kept alone when none does."""
    shared = sorted(bound_variables(left_rows) & bound_variables(right_rows))
    table = defaultdict(list)
    for row in right_rows:
        table[join_key(row, shared)].append(row)
    rows: list[Binding] = []
    for row in left_rows:
        matches = table.get(join_key(row, shared), [])
        if matches:
            rows.extend(merge_bindings(row, m) for m in matches)
        else:
            rows.append(dict(row))
    return rows
