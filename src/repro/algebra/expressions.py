"""Filter-expression evaluation and analysis.

Two jobs:

* **Evaluation** — :func:`evaluate` computes an expression under a binding
  (SPARQL-style error semantics: anything touching an unbound variable
  evaluates to ``None``, and a ``None`` predicate is treated as *not
  satisfied*).

* **Analysis** — :func:`extract_constraints` decomposes the AND-connected
  part of a filter into sargable constraints the planner can push into index
  scans: value ranges on one variable, string-prefix constraints, and the
  similarity constraint ``edist(?v, 'text') < k`` that activates the q-gram
  strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import VQLError
from repro.strings import edit_distance
from repro.vql.ast import (
    BoolOp,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    Not,
    Var,
)

Binding = Mapping[str, Any]


# ---------------------------------------------------------------------------
# Built-in functions
# ---------------------------------------------------------------------------


def _fn_edist(a: Any, b: Any) -> int | None:
    if not isinstance(a, str) or not isinstance(b, str):
        return None
    return edit_distance(a, b)


def _fn_contains(haystack: Any, needle: Any) -> bool | None:
    if not isinstance(haystack, str) or not isinstance(needle, str):
        return None
    return needle in haystack


def _fn_prefix(text: Any, prefix: Any) -> bool | None:
    if not isinstance(text, str) or not isinstance(prefix, str):
        return None
    return text.startswith(prefix)


def _fn_length(text: Any) -> int | None:
    return len(text) if isinstance(text, str) else None


def _fn_lower(text: Any) -> str | None:
    return text.lower() if isinstance(text, str) else None


def _fn_upper(text: Any) -> str | None:
    return text.upper() if isinstance(text, str) else None


def _fn_abs(x: Any) -> float | int | None:
    return abs(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else None


FUNCTIONS: dict[str, Callable[..., Any]] = {
    "edist": _fn_edist,
    "contains": _fn_contains,
    "prefix": _fn_prefix,
    "length": _fn_length,
    "lower": _fn_lower,
    "upper": _fn_upper,
    "abs": _fn_abs,
}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(expr: Expression, binding: Binding) -> Any:
    """Evaluate ``expr`` under ``binding``; ``None`` signals an error value."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Var):
        return binding.get(expr.name)
    if isinstance(expr, Comparison):
        return _compare(expr.op, evaluate(expr.left, binding), evaluate(expr.right, binding))
    if isinstance(expr, Not):
        inner = evaluate(expr.operand, binding)
        return None if inner is None else not _truthy(inner)
    if isinstance(expr, BoolOp):
        return _bool_op(expr, binding)
    if isinstance(expr, FunctionCall):
        function = FUNCTIONS.get(expr.name)
        if function is None:
            raise VQLError(f"unknown function {expr.name!r}")
        args = [evaluate(arg, binding) for arg in expr.args]
        if any(arg is None for arg in args):
            return None
        return function(*args)
    raise TypeError(f"not an expression: {expr!r}")


def replace_terms(expr: Expression, old: tuple[Expression, ...], new: Expression) -> Expression:
    """``expr`` with every subexpression equal to one of ``old`` replaced by ``new``."""
    if expr in old:
        return new
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op, replace_terms(expr.left, old, new), replace_terms(expr.right, old, new)
        )
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, tuple(replace_terms(o, old, new) for o in expr.operands))
    if isinstance(expr, Not):
        return Not(replace_terms(expr.operand, old, new))
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(replace_terms(a, old, new) for a in expr.args))
    return expr


def check_functions(expr: Expression) -> None:
    """Raise :class:`VQLError` naming the first function ``expr`` calls that
    is not built in, so a query fails before it runs rather than on the
    first row that reaches the call."""
    if isinstance(expr, FunctionCall) and expr.name not in FUNCTIONS:
        raise VQLError(f"unknown function {expr.name!r}")
    for operand in _operands(expr):
        check_functions(operand)


def _operands(expr: Expression) -> tuple[Expression, ...]:
    if isinstance(expr, Comparison):
        return (expr.left, expr.right)
    if isinstance(expr, BoolOp):
        return expr.operands
    if isinstance(expr, Not):
        return (expr.operand,)
    if isinstance(expr, FunctionCall):
        return expr.args
    return ()


def satisfies(expr: Expression, binding: Binding) -> bool:
    """Filter semantics: true iff the expression evaluates to a truthy value."""
    return _truthy(evaluate(expr, binding))


def _truthy(value: Any) -> bool:
    return bool(value) and value is not None


def _bool_op(expr: BoolOp, binding: Binding) -> bool | None:
    """SPARQL three-valued logic for AND/OR."""
    saw_error = False
    if expr.op == "and":
        for operand in expr.operands:
            value = evaluate(operand, binding)
            if value is None:
                saw_error = True
            elif not _truthy(value):
                return False
        return None if saw_error else True
    if expr.op == "or":
        for operand in expr.operands:
            value = evaluate(operand, binding)
            if value is None:
                saw_error = True
            elif _truthy(value):
                return True
        return None if saw_error else False
    raise VQLError(f"unknown boolean operator {expr.op!r}")


def _compare(op: str, left: Any, right: Any) -> bool | None:
    if left is None or right is None:
        return None
    left_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_num = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_num != right_num:
        # Mixed types: only (in)equality is defined, and values are unequal.
        if op == "=":
            return False
        if op == "!=":
            return True
        return None
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise VQLError(f"unknown comparison operator {op!r}")


# ---------------------------------------------------------------------------
# Sargable-constraint extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeConstraint:
    """``var <op> literal`` — pushable into an A#v range scan."""

    variable: str
    op: str  # =, !=, <, <=, >, >=
    value: Any


@dataclass(frozen=True)
class PrefixConstraint:
    """``prefix(?var, 'text')`` — pushable into a prefix scan."""

    variable: str
    prefix: str


@dataclass(frozen=True)
class SubstringConstraint:
    """``contains(?var, 'text')`` — answerable via the q-gram index."""

    variable: str
    substring: str


@dataclass(frozen=True)
class EdistConstraint:
    """``edist(?var, 'text') < k`` — the q-gram similarity constraint."""

    variable: str
    text: str
    max_distance: int


Constraint = RangeConstraint | PrefixConstraint | SubstringConstraint | EdistConstraint

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def extract_constraints(expr: Expression) -> list[Constraint]:
    """Sargable constraints implied by ``expr`` (conjunctive part only).

    Constraints are *necessary* conditions: every result row satisfies each
    returned constraint, so index scans restricted by them never lose
    answers.  Disjunctions and NOT are conservatively ignored.
    """
    constraints: list[Constraint] = []
    _collect(expr, constraints)
    return constraints


def _collect(expr: Expression, out: list[Constraint]) -> None:
    if isinstance(expr, BoolOp) and expr.op == "and":
        for operand in expr.operands:
            _collect(operand, out)
        return
    if isinstance(expr, Comparison):
        _collect_comparison(expr, out)
        return
    if isinstance(expr, FunctionCall):
        constraint = _function_constraint(expr)
        if constraint is not None:
            out.append(constraint)


def _collect_comparison(expr: Comparison, out: list[Constraint]) -> None:
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(right, Var) and isinstance(left, Literal):
        left, right, op = right, left, _FLIP[op]
    if isinstance(left, Var) and isinstance(right, Literal):
        out.append(RangeConstraint(left.name, op, right.value))
        return
    # edist(?v, 'text') < k  /  <= k-1 styles
    if isinstance(left, FunctionCall) and isinstance(right, Literal):
        constraint = _edist_bound(left, op, right.value)
        if constraint is not None:
            out.append(constraint)
        return
    if isinstance(right, FunctionCall) and isinstance(left, Literal):
        constraint = _edist_bound(right, _FLIP[op], left.value)
        if constraint is not None:
            out.append(constraint)


def _edist_bound(call: FunctionCall, op: str, bound: Any) -> EdistConstraint | None:
    if call.name != "edist" or not isinstance(bound, (int, float)) or isinstance(bound, bool):
        return None
    var, text = _var_and_text(call)
    if var is None:
        return None
    if op == "<":
        k = int(bound) - 1 if float(bound).is_integer() else int(bound)
    elif op == "<=":
        k = int(bound)
    elif op == "=":
        k = int(bound)
    else:
        return None
    if k < 0:
        k = -1  # unsatisfiable; scans may return nothing
    return EdistConstraint(var, text, k)


def _var_and_text(call: FunctionCall) -> tuple[str | None, str]:
    if len(call.args) != 2:
        return None, ""
    a, b = call.args
    if isinstance(a, Var) and isinstance(b, Literal) and isinstance(b.value, str):
        return a.name, b.value
    if isinstance(b, Var) and isinstance(a, Literal) and isinstance(a.value, str):
        return b.name, a.value
    return None, ""


def _function_constraint(call: FunctionCall) -> Constraint | None:
    if call.name == "prefix":
        var, text = _var_and_text(call)
        if var is not None:
            return PrefixConstraint(var, text)
    if call.name == "contains":
        var, text = _var_and_text(call)
        if var is not None:
            return SubstringConstraint(var, text)
    return None
