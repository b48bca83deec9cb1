"""The logical algebra (paper §2).

    "The algebra supports traditional 'relational' operators (π, σ, ⋈, ...)
     as well as special operators needed to query the distributed triple
     storage. ... we extend the set of operators by special operators like
     similarity operators (e.g., similarity join) and ranking operators
     (e.g., top-N, skyline)."

Logical plans are immutable trees of the dataclasses below.  They say *what*
to compute; the physical layer (:mod:`repro.physical`) supplies several
executable strategies per logical operator and the optimizer picks among
them.  Operators work on *bindings* (variable → value mappings), the
universal-relation analogue of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.vql.ast import (
    Expression,
    OrderItem,
    SkylineItem,
    TriplePattern,
    Var,
)


class LogicalPlan:
    """Base class for logical operators."""

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def output_variables(self) -> set[str]:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Multi-line plan rendering, one operator per line."""
        lines = [("  " * indent) + self._label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__

    def walk(self) -> Iterator["LogicalPlan"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class PatternScan(LogicalPlan):
    """Produce bindings from triples matching one pattern.

    ``filters`` are residual predicates over this pattern's variables that
    rewrites pushed down; physical scans evaluate them for free where the
    data lives.
    """

    pattern: TriplePattern
    filters: tuple[Expression, ...] = ()

    def output_variables(self) -> set[str]:
        return self.pattern.variables()

    def _label(self) -> str:
        extra = f" | {' AND '.join(str(f) for f in self.filters)}" if self.filters else ""
        return f"PatternScan {self.pattern}{extra}"


@dataclass(frozen=True)
class Selection(LogicalPlan):
    """σ — keep bindings satisfying the predicate."""

    child: LogicalPlan
    predicate: Expression

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def output_variables(self) -> set[str]:
        return self.child.output_variables()

    def _label(self) -> str:
        return f"Selection σ[{self.predicate}]"


@dataclass(frozen=True)
class Projection(LogicalPlan):
    """π — restrict bindings to the given variables (empty = keep all)."""

    child: LogicalPlan
    variables: tuple[Var, ...]
    distinct: bool = False

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def output_variables(self) -> set[str]:
        if not self.variables:
            return self.child.output_variables()
        return {v.name for v in self.variables}

    def _label(self) -> str:
        names = ", ".join(str(v) for v in self.variables) if self.variables else "*"
        return f"Projection π[{names}]{' DISTINCT' if self.distinct else ''}"


@dataclass(frozen=True)
class Join(LogicalPlan):
    """⋈ — natural join on the shared variables of both inputs."""

    left: LogicalPlan
    right: LogicalPlan

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def join_variables(self) -> set[str]:
        return self.left.output_variables() & self.right.output_variables()

    def output_variables(self) -> set[str]:
        return self.left.output_variables() | self.right.output_variables()

    def _label(self) -> str:
        shared = ", ".join(sorted(self.join_variables())) or "⨯ (cartesian)"
        return f"Join ⋈[{shared}]"


@dataclass(frozen=True)
class LeftJoin(LogicalPlan):
    """Left outer join — OPTIONAL groups; unmatched left rows survive."""

    left: LogicalPlan
    right: LogicalPlan

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def join_variables(self) -> set[str]:
        return self.left.output_variables() & self.right.output_variables()

    def output_variables(self) -> set[str]:
        return self.left.output_variables() | self.right.output_variables()

    def _label(self) -> str:
        return f"LeftJoin ⟕[{', '.join(sorted(self.join_variables()))}]"


@dataclass(frozen=True)
class SimilarityJoin(LogicalPlan):
    """Similarity join: match bindings whose string values are within an
    edit-distance bound (paper: "similarity operators (e.g., similarity join)")."""

    left: LogicalPlan
    right: LogicalPlan
    left_variable: Var
    right_variable: Var
    max_distance: int

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def output_variables(self) -> set[str]:
        return self.left.output_variables() | self.right.output_variables()

    def _label(self) -> str:
        return (
            f"SimilarityJoin ⋈~[edist({self.left_variable}, {self.right_variable})"
            f" <= {self.max_distance}]"
        )


@dataclass(frozen=True)
class Union(LogicalPlan):
    """∪ — bag union of same-shaped inputs (DISTINCT handled by projection)."""

    inputs: tuple[LogicalPlan, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return self.inputs

    def output_variables(self) -> set[str]:
        result: set[str] = set()
        for child in self.inputs:
            result |= child.output_variables()
        return result

    def _label(self) -> str:
        return f"Union ∪ ({len(self.inputs)} inputs)"


@dataclass(frozen=True)
class OrderBy(LogicalPlan):
    """Sort bindings by the given keys."""

    child: LogicalPlan
    items: tuple[OrderItem, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def output_variables(self) -> set[str]:
        return self.child.output_variables()

    def _label(self) -> str:
        return f"OrderBy [{', '.join(str(i) for i in self.items)}]"


@dataclass(frozen=True)
class Limit(LogicalPlan):
    """Keep ``count`` bindings after skipping ``offset``."""

    child: LogicalPlan
    count: int | None
    offset: int = 0

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def output_variables(self) -> set[str]:
        return self.child.output_variables()

    def _label(self) -> str:
        return f"Limit [{self.count}{f' OFFSET {self.offset}' if self.offset else ''}]"


@dataclass(frozen=True)
class TopN(LogicalPlan):
    """Ranking operator: the ``n`` best bindings under the sort keys.

    Logically OrderBy+Limit, but kept as its own operator because the
    distributed implementation differs fundamentally (per-peer heaps,
    merge at the coordinator)."""

    child: LogicalPlan
    items: tuple[OrderItem, ...]
    n: int
    offset: int = 0

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def output_variables(self) -> set[str]:
        return self.child.output_variables()

    def _label(self) -> str:
        return f"TopN [{', '.join(str(i) for i in self.items)}; n={self.n}]"


@dataclass(frozen=True)
class Skyline(LogicalPlan):
    """Ranking operator: Pareto-optimal bindings under the dimensions.

    A binding dominates another when it is at least as good in every
    dimension and strictly better in one (MIN = smaller is better,
    MAX = larger is better).  The skyline keeps the non-dominated set."""

    child: LogicalPlan
    items: tuple[SkylineItem, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def output_variables(self) -> set[str]:
        return self.child.output_variables()

    def _label(self) -> str:
        return f"Skyline [{', '.join(str(i) for i in self.items)}]"
