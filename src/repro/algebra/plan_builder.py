"""Translate a VQL AST into a logical plan.

The builder produces a canonical plan shape:

    Projection
      (Limit)
      (OrderBy | Skyline | TopN)
      Union of groups            -- only for UNION queries
        Selections (FILTERs)
          left-deep Join tree over PatternScans

Pattern join order uses a *connectivity + boundness* heuristic (most literal
positions first, never a cartesian product unless the group is disconnected);
cost-based reordering with statistics happens later in the optimizer.
"""

from __future__ import annotations

from repro.errors import PlanningError
from repro.algebra.expressions import check_functions
from repro.algebra.operators import (
    Join,
    LeftJoin,
    Limit,
    LogicalPlan,
    OrderBy,
    PatternScan,
    Projection,
    Selection,
    Skyline,
    TopN,
    Union,
)
from repro.vql.ast import GroupPattern, Literal, Query, TriplePattern


def build_plan(query: Query) -> LogicalPlan:
    """Build the canonical logical plan for a parsed query."""
    group_plans = [build_group(group) for group in query.groups]
    plan = group_plans[0] if len(group_plans) == 1 else Union(tuple(group_plans))

    if query.skyline:
        plan = Skyline(plan, query.skyline)
    if query.order_by and query.limit is not None:
        plan = TopN(plan, query.order_by, n=query.limit, offset=query.offset)
    else:
        if query.order_by:
            plan = OrderBy(plan, query.order_by)
        if query.limit is not None or query.offset:
            plan = Limit(plan, query.limit, offset=query.offset)

    _check_select_variables(query, plan)
    return Projection(plan, query.select, distinct=query.distinct)


def build_group(group: GroupPattern) -> LogicalPlan:
    """Join tree + filters + optionals for one brace group."""
    ordered = order_patterns(list(group.patterns))
    plan: LogicalPlan = PatternScan(ordered[0])
    for pattern in ordered[1:]:
        plan = Join(plan, PatternScan(pattern))
    for expr in group.filters:
        check_functions(expr)
        plan = Selection(plan, expr)
    for optional in group.optionals:
        plan = LeftJoin(plan, build_group(optional))
    return plan


def pattern_selectivity_rank(pattern: TriplePattern) -> tuple[int, int]:
    """Smaller = more selective = scheduled earlier.

    Primary rank by access path quality: bound (predicate, object) pairs hit
    a single A#v key; a bound subject hits one OID key; a bound object alone
    uses the v index; bound predicate alone scans a whole attribute; nothing
    bound floods.  Secondary rank: fewer variables first.
    """
    subject_bound = isinstance(pattern.subject, Literal)
    predicate_bound = isinstance(pattern.predicate, Literal)
    object_bound = isinstance(pattern.object, Literal)
    if predicate_bound and object_bound:
        rank = 0
    elif subject_bound:
        rank = 1
    elif object_bound:
        rank = 2
    elif predicate_bound:
        rank = 3
    else:
        rank = 4
    return (rank, len(pattern.variables()))


def order_patterns(patterns: list[TriplePattern]) -> list[TriplePattern]:
    """Greedy join ordering: start selective, stay connected."""
    if not patterns:
        raise PlanningError("cannot plan a group without patterns")
    remaining = sorted(patterns, key=pattern_selectivity_rank)
    ordered = [remaining.pop(0)]
    bound_variables = set(ordered[0].variables())
    while remaining:
        connected = [p for p in remaining if p.variables() & bound_variables]
        pool = connected or remaining  # fall back to cartesian if disconnected
        best = min(pool, key=pattern_selectivity_rank)
        remaining.remove(best)
        ordered.append(best)
        bound_variables |= best.variables()
    return ordered


def _check_select_variables(query: Query, plan: LogicalPlan) -> None:
    available = plan.output_variables()
    for variable in query.select:
        if variable.name not in available:
            raise PlanningError(f"SELECT variable ?{variable.name} is not bound by any pattern")
    for item in query.order_by:
        if item.variable.name not in available:
            raise PlanningError(
                f"ORDER BY variable ?{item.variable.name} is not bound by any pattern"
            )
    for item in query.skyline:
        if item.variable.name not in available:
            raise PlanningError(
                f"SKYLINE OF variable ?{item.variable.name} is not bound by any pattern"
            )
