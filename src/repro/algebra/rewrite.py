"""Logical rewrites.

Classic, always-beneficial transformations applied before cost-based
physical planning:

* **filter pushdown** — selection predicates that only mention variables of
  a single pattern move into that :class:`PatternScan`, where the physical
  layer can turn them into index ranges or evaluate them where the data
  lives;
* **TopN fusion** — ``Limit(OrderBy(x))`` becomes :class:`TopN`, whose
  distributed implementation ships only n rows per peer;
* **selection splitting** — an AND-selection splits into a cascade so each
  conjunct can be pushed independently.
"""

from __future__ import annotations

from dataclasses import replace

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
from repro.vql.ast import BoolOp, Expression, expression_variables


def rewrite(plan: LogicalPlan) -> LogicalPlan:
    """Apply all rewrites bottom-up until a fixpoint shape is reached."""
    plan = split_conjunctions(plan)
    plan = detect_similarity_joins(plan)
    plan = push_down_filters(plan)
    plan = fuse_top_n(plan)
    return plan


# ---------------------------------------------------------------------------
# Selection splitting
# ---------------------------------------------------------------------------


def split_conjunctions(plan: LogicalPlan) -> LogicalPlan:
    """Turn σ[a AND b] into σ[a](σ[b](…)) so conjuncts push independently."""
    plan = _map_children(plan, split_conjunctions)
    if isinstance(plan, Selection) and isinstance(plan.predicate, BoolOp):
        if plan.predicate.op == "and":
            child = plan.child
            for conjunct in reversed(plan.predicate.operands):
                child = Selection(child, conjunct)
            return child
    return plan


# ---------------------------------------------------------------------------
# Filter pushdown
# ---------------------------------------------------------------------------


def push_down_filters(plan: LogicalPlan) -> LogicalPlan:
    """Move selections towards the scans that bind their variables."""
    if isinstance(plan, Selection):
        pushed = _try_push(plan.child, plan.predicate)
        if pushed is not None:
            return push_down_filters(pushed)
        return Selection(push_down_filters(plan.child), plan.predicate)
    return _map_children(plan, push_down_filters)


def _try_push(plan: LogicalPlan, predicate: Expression) -> LogicalPlan | None:
    """Push one predicate into ``plan`` if some subtree binds all its variables.

    Returns the rewritten plan, or None when the predicate must stay here.
    """
    needed = expression_variables(predicate)

    if isinstance(plan, PatternScan):
        if needed <= plan.pattern.variables():
            return replace(plan, filters=plan.filters + (predicate,))
        return None

    if isinstance(plan, (Join, SimilarityJoin)):
        left_vars = plan.left.output_variables()
        right_vars = plan.right.output_variables()
        if needed <= left_vars:
            pushed = _try_push(plan.left, predicate)
            left = pushed if pushed is not None else Selection(plan.left, predicate)
            return _rebuild_binary(plan, left, plan.right)
        if needed <= right_vars:
            pushed = _try_push(plan.right, predicate)
            right = pushed if pushed is not None else Selection(plan.right, predicate)
            return _rebuild_binary(plan, plan.left, right)
        return None

    if isinstance(plan, LeftJoin):
        # Only the left (required) side preserves semantics under pushdown.
        if needed <= plan.left.output_variables():
            pushed = _try_push(plan.left, predicate)
            left = pushed if pushed is not None else Selection(plan.left, predicate)
            return LeftJoin(left, plan.right)
        return None

    if isinstance(plan, Selection):
        pushed = _try_push(plan.child, predicate)
        if pushed is not None:
            return Selection(pushed, plan.predicate)
        return None

    if isinstance(plan, Union):
        if needed <= plan.output_variables():
            new_inputs = []
            for child in plan.inputs:
                pushed = _try_push(child, predicate)
                new_inputs.append(pushed if pushed is not None else Selection(child, predicate))
            return Union(tuple(new_inputs))
        return None

    return None


def _rebuild_binary(plan: LogicalPlan, left: LogicalPlan, right: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, Join):
        return Join(left, right)
    if isinstance(plan, SimilarityJoin):
        return SimilarityJoin(
            left, right, plan.left_variable, plan.right_variable, plan.max_distance
        )
    raise TypeError(type(plan).__name__)


# ---------------------------------------------------------------------------
# Similarity-join detection
# ---------------------------------------------------------------------------


def detect_similarity_joins(plan: LogicalPlan) -> LogicalPlan:
    """Recognize σ[edist(?x, ?y) < k](L ⋈ R) as a similarity join.

    When a selection directly above a join compares two variables from
    opposite sides with a bounded edit distance, replace the pair with the
    logical :class:`SimilarityJoin`, unlocking the q-gram physical strategy
    (paper §2: "similarity operators (e.g., similarity join)").
    """
    plan = _map_children(plan, detect_similarity_joins)
    if not isinstance(plan, Selection) or not isinstance(plan.child, Join):
        return plan
    parsed = _parse_edist_var_pair(plan.predicate)
    if parsed is None:
        return plan
    var_a, var_b, max_distance = parsed
    join = plan.child
    left_vars = join.left.output_variables()
    right_vars = join.right.output_variables()
    if var_a.name in left_vars and var_b.name in right_vars:
        left_var, right_var = var_a, var_b
    elif var_b.name in left_vars and var_a.name in right_vars:
        left_var, right_var = var_b, var_a
    else:
        return plan
    return SimilarityJoin(join.left, join.right, left_var, right_var, max_distance)


def _parse_edist_var_pair(expr: Expression):
    """Match ``edist(?a, ?b) < k`` / ``<= k`` with two variables; return
    ``(a, b, k)`` as an inclusive bound, or None."""
    from repro.vql.ast import Comparison, FunctionCall, Literal, Var

    if not isinstance(expr, Comparison) or expr.op not in ("<", "<="):
        return None
    call, bound = expr.left, expr.right
    if not isinstance(call, FunctionCall) or call.name != "edist":
        return None
    if not isinstance(bound, Literal) or isinstance(bound.value, str):
        return None
    if len(call.args) != 2:
        return None
    a, b = call.args
    if not isinstance(a, Var) or not isinstance(b, Var):
        return None
    k = int(bound.value) - 1 if expr.op == "<" else int(bound.value)
    if k < 0:
        return None
    return a, b, k


# ---------------------------------------------------------------------------
# TopN fusion
# ---------------------------------------------------------------------------


def fuse_top_n(plan: LogicalPlan) -> LogicalPlan:
    plan = _map_children(plan, fuse_top_n)
    if (isinstance(plan, Limit) and plan.count is not None and isinstance(plan.child, OrderBy)):
        return TopN(plan.child.child, plan.child.items, n=plan.count, offset=plan.offset)
    return plan


# ---------------------------------------------------------------------------
# Structural helper
# ---------------------------------------------------------------------------


def _map_children(plan: LogicalPlan, transform) -> LogicalPlan:
    """Rebuild ``plan`` with ``transform`` applied to each child."""
    if isinstance(plan, PatternScan):
        return plan
    if isinstance(plan, Selection):
        return Selection(transform(plan.child), plan.predicate)
    if isinstance(plan, Projection):
        return Projection(transform(plan.child), plan.variables, plan.distinct)
    if isinstance(plan, Join):
        return Join(transform(plan.left), transform(plan.right))
    if isinstance(plan, LeftJoin):
        return LeftJoin(transform(plan.left), transform(plan.right))
    if isinstance(plan, SimilarityJoin):
        return SimilarityJoin(
            transform(plan.left),
            transform(plan.right),
            plan.left_variable,
            plan.right_variable,
            plan.max_distance,
        )
    if isinstance(plan, Union):
        return Union(tuple(transform(c) for c in plan.inputs))
    if isinstance(plan, OrderBy):
        return OrderBy(transform(plan.child), plan.items)
    if isinstance(plan, Limit):
        return Limit(transform(plan.child), plan.count, plan.offset)
    if isinstance(plan, TopN):
        return TopN(transform(plan.child), plan.items, plan.n, plan.offset)
    if isinstance(plan, Skyline):
        return Skyline(transform(plan.child), plan.items)
    raise TypeError(f"unknown plan node {type(plan).__name__}")
