"""Remaining physical operators: filter, projection, sort/limit, set ops,
left join, and the root collector.

These are "flow" operators: FilterOp and ProjectOp run *in place* at the
producing peers (free of network cost — this is the pushdown payoff); the
blocking operators (sort, distinct, set ops, left join) gather at the
coordinator first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.trace import Trace
from repro.algebra.expressions import satisfies
from repro.algebra.semantics import (
    Binding,
    bound_variables,
    join_key,
    merge_bindings,
    order_sort_key,
)
from repro.physical.base import ExecutionContext, OpResult, PhysicalOperator
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
        result = self.child.execute(ctx)
        groups = []
        for peer_id, rows in result.groups:
            kept = [row for row in rows if satisfies(self.predicate, row)]
            if kept:
                groups.append((peer_id, kept))
        return OpResult(groups, result.trace, result.complete)

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
        result = self.child.execute(ctx)
        names = [v.name for v in self.variables]
        if names:
            result = OpResult(
                [
                    (peer_id, [{name: row.get(name) for name in names} for row in rows])
                    for peer_id, rows in result.groups
                ],
                result.trace,
                result.complete,
            )
        if not self.distinct:
            return result
        home = result.at_coordinator(ctx, kind="project-ship")
        seen: set[tuple] = set()
        unique: list[Binding] = []
        for row in home.all_bindings():
            key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
            if key not in seen:
                seen.add(key)
                unique.append(row)
        return OpResult(
            groups=[(ctx.coordinator.node_id, unique)] if unique else [],
            trace=home.trace,
            complete=home.complete,
        )

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
        home = self.child.execute(ctx).at_coordinator(ctx, kind="sort-ship")
        rows = sorted(home.all_bindings(), key=order_sort_key(self.items))
        return OpResult(
            groups=[(ctx.coordinator.node_id, rows)] if rows else [],
            trace=home.trace,
            complete=home.complete,
        )


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
        home = self.child.execute(ctx).at_coordinator(ctx, kind="limit-ship")
        end = None if self.count is None else self.offset + self.count
        rows = home.all_bindings()[self.offset : end]
        return OpResult(
            groups=[(ctx.coordinator.node_id, rows)] if rows else [],
            trace=home.trace,
            complete=home.complete,
        )


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
class IntersectionOp(PhysicalOperator):
    """∩ on the shared variables, at the coordinator."""

    inputs: tuple[PhysicalOperator, ...] = ()

    strategy = "coordinator"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return self.inputs

    def execute(self, ctx: ExecutionContext) -> OpResult:
        homes = [child.execute(ctx).at_coordinator(ctx, kind="setop-ship") for child in self.inputs]
        trace = Trace.parallel([h.trace for h in homes])
        complete = all(h.complete for h in homes)
        if not homes or any(not h.all_bindings() for h in homes):
            return OpResult(groups=[], trace=trace, complete=complete)
        shared = sorted(set.intersection(*(bound_variables(h.all_bindings()) for h in homes)))
        key_sets = []
        rows_by_key: dict[tuple, Binding] = {}
        for home in homes:
            keys = set()
            for row in home.all_bindings():
                key = join_key(row, shared)
                keys.add(key)
                rows_by_key.setdefault(key, {name: row.get(name) for name in shared})
            key_sets.append(keys)
        rows = [rows_by_key[k] for k in set.intersection(*key_sets)]
        return OpResult(
            groups=[(ctx.coordinator.node_id, rows)] if rows else [],
            trace=trace,
            complete=complete,
        )


@dataclass
class DifferenceOp(PhysicalOperator):
    """∖ at the coordinator."""

    left: PhysicalOperator = None  # type: ignore[assignment]
    right: PhysicalOperator = None  # type: ignore[assignment]

    strategy = "coordinator"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        left_home = self.left.execute(ctx).at_coordinator(ctx, kind="setop-ship")
        right_home = self.right.execute(ctx).at_coordinator(ctx, kind="setop-ship")
        left_rows = left_home.all_bindings()
        right_rows = right_home.all_bindings()
        shared = sorted(bound_variables(left_rows) & bound_variables(right_rows))
        right_keys = {join_key(row, shared) for row in right_rows}
        rows = [row for row in left_rows if join_key(row, shared) not in right_keys]
        return OpResult(
            groups=[(ctx.coordinator.node_id, rows)] if rows else [],
            trace=Trace.parallel([left_home.trace, right_home.trace]),
            complete=left_home.complete and right_home.complete,
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
        left_home = self.left.execute(ctx).at_coordinator(ctx, kind="join-ship")
        right_home = self.right.execute(ctx).at_coordinator(ctx, kind="join-ship")
        left_rows = left_home.all_bindings()
        right_rows = right_home.all_bindings()
        shared = sorted(bound_variables(left_rows) & bound_variables(right_rows))
        from collections import defaultdict

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
        return OpResult(
            groups=[(ctx.coordinator.node_id, rows)] if rows else [],
            trace=Trace.parallel([left_home.trace, right_home.trace]),
            complete=left_home.complete and right_home.complete,
        )


@dataclass
class CollectOp(PhysicalOperator):
    """Root operator: deliver everything to the coordinator."""

    child: PhysicalOperator = None  # type: ignore[assignment]

    strategy = "root"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def execute(self, ctx: ExecutionContext) -> OpResult:
        return self.child.execute(ctx).at_coordinator(ctx, kind="result")
