"""Shared evaluation semantics for logical operators.

Both the centralized reference executor (:mod:`repro.algebra.reference`) and
the distributed physical operators (:mod:`repro.physical`) implement the same
algebra; this module holds the single source of truth for binding
compatibility, pattern matching, sort keys and skyline dominance so the two
executors cannot drift apart (tests assert they agree).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.triples.triple import Triple
from repro.vql.ast import Literal, OrderItem, SkylineItem, TriplePattern, Var

Binding = dict[str, Any]


def match_pattern(pattern: TriplePattern, triple: Triple) -> Binding | None:
    """Unify a triple against a pattern; return the binding or ``None``."""
    binding: Binding = {}
    for term, value in (
        (pattern.subject, triple.oid),
        (pattern.predicate, triple.attribute),
        (pattern.object, triple.value),
    ):
        if isinstance(term, Var):
            bound = binding.get(term.name, _UNSET)
            if bound is _UNSET:
                binding[term.name] = value
            elif bound != value:
                return None
        elif isinstance(term, Literal):
            if term.value != value:
                return None
        else:  # pragma: no cover - parser only produces Var/Literal
            raise TypeError(f"unexpected term {term!r}")
    return binding


_UNSET = object()


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
