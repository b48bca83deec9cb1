"""Distributed ranking operators: top-N and skyline (paper §2-4).

Both come in two strategies, the difference E6 measures:

* ``naive`` — ship every input row to the coordinator, rank there;
* ``local-prune`` — each producing peer ranks *its own* rows first and ships
  only what can still matter globally (top-N: its local best n+offset rows;
  skyline: its local skyline), then the coordinator merges.  Correct because
  both operators are *distributive*: a row dominated/outranked locally can
  never enter the global answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.semantics import Binding, order_sort_key, skyline_of
from repro.physical.base import ExecutionContext, OpResult, PhysicalOperator, gather
from repro.vql.ast import OrderItem, SkylineItem


@dataclass
class TopNOp(PhysicalOperator):
    """The n best rows under the sort keys."""

    child: PhysicalOperator
    items: tuple[OrderItem, ...]
    n: int
    offset: int = 0
    prune: bool = True  # local-prune vs naive

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    @property
    def strategy(self) -> str:  # type: ignore[override]
        return "local-prune" if self.prune else "naive"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        key = order_sort_key(self.items)
        keep = self.n + self.offset

        def best(rows: list[Binding]) -> list[Binding]:
            return sorted(rows, key=key)[:keep]

        return gather(
            ctx,
            (self.child,),
            "topn-ship",
            lambda rows: best(rows)[self.offset :],
            local=best if self.prune else None,
        )

    def _label(self) -> str:
        keys = ", ".join(str(i) for i in self.items)
        return f"TopNOp[{self.strategy}] n={self.n} by {keys}"


@dataclass
class SkylineOp(PhysicalOperator):
    """Pareto-optimal rows under the MIN/MAX dimensions."""

    child: PhysicalOperator
    items: tuple[SkylineItem, ...]
    prune: bool = True

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    @property
    def strategy(self) -> str:  # type: ignore[override]
        return "local-prune" if self.prune else "naive"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        local = self._skyline if self.prune else None
        return gather(ctx, (self.child,), "skyline-ship", self._skyline, local=local)

    def _skyline(self, rows: list[Binding]) -> list[Binding]:
        return skyline_of(rows, self.items)

    def _label(self) -> str:
        dims = ", ".join(str(i) for i in self.items)
        return f"SkylineOp[{self.strategy}] of {dims}"
