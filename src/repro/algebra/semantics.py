"""Shared evaluation semantics for logical operators.

Both the centralized reference executor (:mod:`repro.algebra.reference`) and
the distributed physical operators (:mod:`repro.physical`) implement the same
algebra; this module holds the single source of truth for binding
compatibility, pattern matching, sort keys and skyline dominance so the two
executors cannot drift apart (tests assert they agree).

Pattern matching is compiled.  :func:`pattern_matcher` turns a triple
pattern into a function of one triple, with one straight-line test per
literal and per repeated variable, and caches it by pattern.  Operators
resolve a pattern's matcher once per execution and call it per triple;
:func:`match_pattern` is the one-call form, for callers that match a few
triples.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import lru_cache
from typing import Any

from repro.triples.triple import Triple
from repro.vql.ast import Literal, OrderItem, SkylineItem, TriplePattern, Var

Binding = dict[str, Any]


#: A compiled pattern: a triple's binding, or ``None`` when it does not match.
Matcher = Callable[[Triple], Binding | None]

_POSITIONS = ("oid", "attribute", "value")


@lru_cache(maxsize=1024)
def pattern_matcher(pattern: TriplePattern) -> Matcher:
    """``pattern`` compiled into straight-line code: one test per literal and
    per repeated variable, then the binding.

    A term compares with ``!=`` exactly as unification does: a literal
    against the triple's value at its position, a repeated variable's later
    position against its first, which also supplies the bound value.  The
    binding's keys follow the variables' first positions.  Matchers are
    cached by pattern; equal patterns match alike, so a cached matcher
    serves every pattern equal to its own.
    """
    namespace: dict[str, object] = {}
    tests: list[str] = []
    first: dict[str, str] = {}  # variable -> the local holding its first value
    for position, (term, field) in enumerate(
        zip((pattern.subject, pattern.predicate, pattern.object), _POSITIONS)
    ):
        local = f"triple.{field}"
        if isinstance(term, Var):
            if term.name in first:
                tests.append(f"{first[term.name]} != {local}")
            else:
                first[term.name] = local
        elif isinstance(term, Literal):
            namespace[f"_literal{position}"] = term.value
            tests.append(f"_literal{position} != {local}")
        else:  # pragma: no cover - parser only produces Var/Literal
            raise TypeError(f"unexpected term {term!r}")
    body = [f"    if {test}:\n        return None" for test in tests]
    items = ", ".join(f"{name!r}: {local}" for name, local in first.items())
    body.append(f"    return {{{items}}}")
    exec("def match(triple):\n" + "\n".join(body), namespace)
    return namespace["match"]  # type: ignore[return-value]


def match_pattern(pattern: TriplePattern, triple: Triple) -> Binding | None:
    """Unify a triple against a pattern; return the binding or ``None``."""
    return pattern_matcher(pattern)(triple)


def compatible(a: Binding, b: Binding) -> bool:
    """True when two bindings agree on every shared variable."""
    if len(b) < len(a):
        a, b = b, a
    return all(b.get(name, value) == value for name, value in a.items() if name in b)


def merge_bindings(a: Binding, b: Binding) -> Binding:
    """Union of two compatible bindings."""
    merged = dict(a)
    merged.update(b)
    return merged


def join_key(binding: Binding, variables: Iterable[str]) -> tuple:
    """Hashable key of a binding on the given join variables."""
    return tuple(binding.get(name) for name in variables)


def bound_variables(rows: Iterable[Binding]) -> set[str]:
    """Every variable bound in at least one of ``rows``."""
    names: set[str] = set()
    for row in rows:
        names.update(row)
    return names


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------


def _orderable(value: Any) -> tuple[int, Any]:
    """Total order across mixed types: numbers first, then strings, then None.

    Returns a (type-rank, value) pair usable as a sort key component.
    """
    if value is None:
        return (2, 0)
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, value)


def order_sort_key(items: tuple[OrderItem, ...]):
    """Sort-key function implementing ORDER BY with ASC/DESC per item."""

    def key(binding: Binding):
        parts = []
        for item in items:
            rank, value = _orderable(binding.get(item.variable.name))
            if item.descending:
                if rank == 0:
                    parts.append((-rank, -value))
                elif rank == 1:
                    parts.append((-rank, _Reversed(value)))
                else:
                    parts.append((-rank, 0))
            else:
                parts.append((rank, value))
        return tuple(parts)

    return key


class _Reversed:
    """Wrapper inverting the comparison order of a string."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


# ---------------------------------------------------------------------------
# Skyline dominance
# ---------------------------------------------------------------------------


def skyline_values(binding: Binding, items: tuple[SkylineItem, ...]) -> tuple | None:
    """Numeric dimension vector of a binding, or None if any dimension is
    missing or non-numeric (such bindings take no part in the skyline)."""
    values = []
    for item in items:
        value = binding.get(item.variable.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        values.append(value)
    return tuple(values)


def dominates(a: tuple, b: tuple, items: tuple[SkylineItem, ...]) -> bool:
    """True when vector ``a`` dominates ``b``: at least as good everywhere,
    strictly better somewhere (MIN: smaller is better; MAX: larger)."""
    strictly_better = False
    for value_a, value_b, item in zip(a, b, items):
        if item.maximize:
            if value_a < value_b:
                return False
            if value_a > value_b:
                strictly_better = True
        else:
            if value_a > value_b:
                return False
            if value_a < value_b:
                strictly_better = True
    return strictly_better


def skyline_of(bindings: list[Binding], items: tuple[SkylineItem, ...]) -> list[Binding]:
    """Block-nested-loop skyline: the non-dominated subset of ``bindings``."""
    window: list[tuple[tuple, Binding]] = []
    for binding in bindings:
        vector = skyline_values(binding, items)
        if vector is None:
            continue
        dominated = False
        survivors: list[tuple[tuple, Binding]] = []
        for existing_vector, existing in window:
            if dominates(existing_vector, vector, items):
                dominated = True
                survivors = window
                break
            if not dominates(vector, existing_vector, items):
                survivors.append((existing_vector, existing))
        if dominated:
            continue
        survivors.append((vector, binding))
        window = survivors
    return [binding for _vector, binding in window]
