"""Centralized reference executor.

Evaluates a logical plan against a plain in-memory list of triples — no
network, no indexes.  This is the semantic ground truth: tests assert that
every distributed physical strategy returns exactly what this executor
returns (modulo order, unless the plan sorts).
"""

from __future__ import annotations

from collections import defaultdict

from repro.algebra.expressions import satisfies
from repro.algebra.operators import (
    Join,
    LeftJoin,
    Limit,
    LogicalPlan,
    OrderBy,
    PatternScan,
    Projection,
    Selection,
    SimilarityJoin,
    Skyline,
    TopN,
    Union,
)
from repro.algebra.semantics import (
    Binding,
    compatible,
    join_key,
    merge_bindings,
    order_sort_key,
    pattern_matcher,
    skyline_of,
)
from repro.strings import edit_distance_within
from repro.triples.triple import Triple


def execute_reference(plan: LogicalPlan, triples: list[Triple]) -> list[Binding]:
    """Evaluate ``plan`` over ``triples``, centrally."""
    if isinstance(plan, PatternScan):
        match = pattern_matcher(plan.pattern)
        bindings = []
        for triple in triples:
            binding = match(triple)
            if binding is None:
                continue
            if all(satisfies(f, binding) for f in plan.filters):
                bindings.append(binding)
        return bindings

    if isinstance(plan, Selection):
        return [b for b in execute_reference(plan.child, triples) if satisfies(plan.predicate, b)]

    if isinstance(plan, Projection):
        rows = execute_reference(plan.child, triples)
        if plan.variables:
            names = [v.name for v in plan.variables]
            rows = [{name: b.get(name) for name in names} for b in rows]
        if plan.distinct:
            seen = set()
            unique = []
            for row in rows:
                key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        return rows

    if isinstance(plan, Join):
        return _hash_join(
            execute_reference(plan.left, triples),
            execute_reference(plan.right, triples),
            sorted(plan.join_variables()),
        )

    if isinstance(plan, LeftJoin):
        left_rows = execute_reference(plan.left, triples)
        right_rows = execute_reference(plan.right, triples)
        shared = sorted(plan.join_variables())
        table = defaultdict(list)
        for row in right_rows:
            table[join_key(row, shared)].append(row)
        result = []
        for row in left_rows:
            matches = [m for m in table.get(join_key(row, shared), [])]
            if matches:
                result.extend(merge_bindings(row, m) for m in matches)
            else:
                result.append(dict(row))
        return result

    if isinstance(plan, SimilarityJoin):
        left_rows = execute_reference(plan.left, triples)
        right_rows = execute_reference(plan.right, triples)
        result = []
        for left_row in left_rows:
            left_value = left_row.get(plan.left_variable.name)
            if not isinstance(left_value, str):
                continue
            for right_row in right_rows:
                right_value = right_row.get(plan.right_variable.name)
                if not isinstance(right_value, str):
                    continue
                if edit_distance_within(left_value, right_value, plan.max_distance) is None:
                    continue
                if compatible(left_row, right_row):
                    result.append(merge_bindings(left_row, right_row))
        return result

    if isinstance(plan, Union):
        result = []
        for child in plan.inputs:
            result.extend(execute_reference(child, triples))
        return result

    if isinstance(plan, OrderBy):
        rows = execute_reference(plan.child, triples)
        return sorted(rows, key=order_sort_key(plan.items))

    if isinstance(plan, Limit):
        rows = execute_reference(plan.child, triples)
        end = None if plan.count is None else plan.offset + plan.count
        return rows[plan.offset : end]

    if isinstance(plan, TopN):
        rows = sorted(execute_reference(plan.child, triples), key=order_sort_key(plan.items))
        return rows[plan.offset : plan.offset + plan.n]

    if isinstance(plan, Skyline):
        return skyline_of(execute_reference(plan.child, triples), plan.items)

    raise TypeError(f"reference executor cannot handle {type(plan).__name__}")


def _hash_join(
    left_rows: list[Binding], right_rows: list[Binding], shared: list[str]
) -> list[Binding]:
    if not shared:
        return [merge_bindings(l, r) for l in left_rows for r in right_rows]  # cartesian product
    if len(right_rows) < len(left_rows):
        left_rows, right_rows = right_rows, left_rows
    table = defaultdict(list)
    for row in left_rows:
        table[join_key(row, shared)].append(row)
    result = []
    for row in right_rows:
        for match in table.get(join_key(row, shared), ()):
            result.append(merge_bindings(match, row))
    return result
