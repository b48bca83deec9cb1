"""Mutant Query Plans (paper §2, ref. [7] Papadimos & Maier).

A mutant query plan is a *self-contained message*: the still-unevaluated
parts of a query plan plus the partial results produced so far.  The plan
travels through the overlay; each peer that receives it evaluates whatever it
can locally, grafts the results into the plan, re-optimizes the remainder,
and forwards it.  UniStore extends the concept with DHT-aware operator
selection at every hop.

This module defines the plan state object.  A migration message is charged
by the rows the plan carries (see :mod:`repro.mqp.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import PatternScan
from repro.algebra.semantics import Binding
from repro.vql.ast import Expression


@dataclass
class MutantQueryPlan:
    """The migrating query state: pending work + embedded partial results."""

    pending: list[PatternScan]
    residual_filters: list[Expression] = field(default_factory=list)
    bindings: list[Binding] | None = None  # None = no pattern evaluated yet
    location: str = ""  # peer id currently holding the plan

    def is_done(self) -> bool:
        return not self.pending
