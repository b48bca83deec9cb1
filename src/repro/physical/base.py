"""Physical-operator infrastructure.

    "For each logical operator there are several physical implementations
     available ... They differ in the kind of used indexes, applied routing
     strategy, parallelism, etc."  (paper §2)

A physical operator's :meth:`execute` returns an :class:`OpResult` in
*produce form*: the result bindings grouped by the peer currently holding
them, plus the causal trace up to that state.  Consumers then decide the data
flow — ship everything to the coordinator, re-hash to rendezvous peers, prune
locally first — and account the shipping themselves.  This is what lets the
three join strategies and the two ranking strategies differ in measurable
messages/latency while computing identical results.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.net.trace import Trace
from repro.algebra.expressions import satisfies
from repro.algebra.semantics import (
    Binding,
    Matcher,
    bound_variables,
    compatible,
    merge_bindings,
    pattern_matcher,
)
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.triples.index import probe_key
from repro.triples.store import DistributedTripleStore, stored_matches
from repro.vql.ast import Expression, TriplePattern, expression_variables


@dataclass
class ExecutionContext:
    """Everything a physical operator needs to run.

    ``coordinator`` is the query-issuing peer (the paper's demonstration
    laptop); all final results are delivered there.
    """

    store: DistributedTripleStore
    coordinator: PGridPeer
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    @property
    def pnet(self) -> PGridNetwork:
        return self.store.pnet


@dataclass
class OpResult:
    """Bindings grouped by the peer holding them, plus the cost so far.

    ``trace`` is the causal cost up to this state.  ``complete`` turns
    False when part of the answer was lost to an unreachable region, and
    stays False above it.  A result at the coordinator holds one group
    there, or none when empty.  Only :func:`gather` and
    :func:`coordinator_result` build one, so traces and ``complete``
    compose there.
    """

    groups: list[tuple[str, list[Binding]]]
    trace: Trace = Trace.ZERO
    complete: bool = True

    def all_bindings(self) -> list[Binding]:
        rows: list[Binding] = []
        for _peer_id, bindings in self.groups:
            rows.extend(bindings)
        return rows

    def total_rows(self) -> int:
        return sum(len(bindings) for _peer, bindings in self.groups)

    def in_place(self, step: Callable[[list[Binding]], list[Binding]]) -> "OpResult":
        """``step`` applied to each peer's rows where they are (no traffic);
        peers left without rows drop out."""
        groups = [(peer_id, kept) for peer_id, rows in self.groups if (kept := step(rows))]
        return OpResult(groups, self.trace, self.complete)

    def shipped_to(self, ctx: ExecutionContext, dest_id: str, kind: str = "ship") -> "OpResult":
        """Move every group to one peer (parallel sends, sized by payload).

        The sends go through :meth:`PGridNetwork.ship_many`, so under
        event-driven execution the shipping wave fans out concurrently on
        the simulated clock and completes at the slowest group's arrival.
        """
        rows: list[Binding] = []
        sends: list[tuple[str, str, str, int]] = []
        for peer_id, bindings in self.groups:
            rows.extend(bindings)
            if peer_id != dest_id and bindings:
                sends.append((peer_id, dest_id, kind, len(bindings)))
        trace = self.trace.then(ctx.pnet.ship_many(sends)) if sends else self.trace
        return OpResult(groups=[(dest_id, rows)], trace=trace, complete=self.complete)

    def at_coordinator(self, ctx: ExecutionContext, kind: str) -> "OpResult":
        return self.shipped_to(ctx, ctx.coordinator.node_id, kind=kind)


def coordinator_result(
    ctx: ExecutionContext, rows: list[Binding], trace: Trace, complete: bool = True
) -> OpResult:
    """A result whose ``rows`` are all at the coordinator."""
    return OpResult([(ctx.coordinator.node_id, rows)] if rows else [], trace, complete)


def gather(
    ctx: ExecutionContext,
    inputs: Sequence["PhysicalOperator"],
    kind: str,
    combine: Callable[..., list[Binding]] = list,
    local: Callable[[list[Binding]], list[Binding]] | None = None,
) -> OpResult:
    """Run ``inputs``, ship their rows to the coordinator and return
    ``combine(rows of input 1, rows of input 2, ...)`` there (by default
    the one input's rows).

    ``local`` first runs on each peer's rows of each input, where they are
    (top-N pruning, say), so only what it keeps is shipped.  Every input
    executes before any input ships.  The result's trace runs the inputs'
    shipped traces in parallel; it is complete when every input is.
    """
    results = [op.execute(ctx) for op in inputs]
    if local is not None:
        results = [result.in_place(local) for result in results]
    return ship_home(ctx, results, kind, combine)


def ship_home(
    ctx: ExecutionContext,
    results: Sequence[OpResult],
    kind: str,
    combine: Callable[..., list[Binding]],
) -> OpResult:
    """:func:`gather`'s second half, for inputs that already ran: ship each
    result's rows to the coordinator and return ``combine(rows...)`` there."""
    homes = [result.at_coordinator(ctx, kind) for result in results]
    return coordinator_result(
        ctx,
        combine(*(home.all_bindings() for home in homes)),
        Trace.parallel([home.trace for home in homes]),
        all(home.complete for home in homes),
    )


class FilterCheck:
    """A conjunction of filters that evaluates each one-variable filter once
    per distinct value of its variable.

    A filter mentioning exactly one variable depends on a row only through
    that variable's value, so its verdict is remembered per value.  Values
    are looked up by ``==``, which is sound for row values (strings and
    numbers; triples reject booleans) because no built-in function or
    comparison tells ``1`` from ``1.0``.  Filters over several variables,
    or none, run on every row.
    ``check(row)`` evaluates the filters in order and stops at the first
    failure, so it answers exactly ``all(satisfies(f, row) for f in
    filters)``.  Verdicts live as long as the instance: one operator
    execution.
    """

    def __init__(self, filters: tuple[Expression, ...] | list[Expression]):
        # (filter, its only variable or None, verdict per value)
        self._steps: list[tuple[Expression, str | None, dict]] = []
        for expr in filters:
            names = expression_variables(expr)
            variable = next(iter(names)) if len(names) == 1 else None
            self._steps.append((expr, variable, {}))

    def __call__(self, binding: Binding) -> bool:
        for expr, variable, verdicts in self._steps:
            if variable is None:
                if not satisfies(expr, binding):
                    return False
            elif not self._verdict(expr, variable, verdicts, binding.get(variable)):
                return False
        return True

    def constrains(self, variable: str) -> bool:
        """True when some filter mentions ``variable`` and nothing else."""
        return any(name == variable for _expr, name, _verdicts in self._steps)

    def value_passes(self, variable: str, value) -> bool:
        """Whether ``value`` passes every filter that mentions only ``variable``."""
        return all(
            self._verdict(expr, name, verdicts, value)
            for expr, name, verdicts in self._steps
            if name == variable
        )

    def settle(self, expr: Expression, value, verdict: bool) -> None:
        """Record ``expr``'s verdict for ``value`` of its only variable, known
        to the caller without evaluating ``expr``."""
        for step_expr, variable, verdicts in self._steps:
            if step_expr is expr and variable is not None:
                verdicts[value] = verdict

    @staticmethod
    def _verdict(expr: Expression, variable: str, verdicts: dict, value) -> bool:
        verdict = verdicts.get(value)
        if verdict is None:
            verdict = verdicts[value] = satisfies(expr, {variable: value})
        return verdict


def match_postings(
    entries,
    match: Matcher,
    variable: str,
    value,
    check: FilterCheck,
) -> list[Binding]:
    """Bindings produced by the index postings under one probe key.

    Keeps the :func:`~repro.triples.store.stored_matches` bindings whose
    ``variable`` equals the probed ``value`` and that pass ``check``.
    Equality is the join's own, so a non-string value probing the OID index
    under its string form matches no OID, exactly as in the reference
    executor.

    Called by :func:`probe_join` with one matcher and one ``check`` for all
    probe values.
    """
    return [
        binding
        for binding in stored_matches(entries, match)
        if binding.get(variable) == value and check(binding)
    ]


def probe_join(
    ctx: ExecutionContext,
    rows: list[Binding],
    pattern: TriplePattern,
    filters: tuple[Expression, ...],
    variable: str,
    start: PGridPeer,
    message_kind: str,
) -> tuple[list[Binding], Trace]:
    """Join ``rows`` with ``pattern`` by probing its index once per distinct
    value of ``variable`` (:func:`~repro.triples.index.probe_key`).

    All probe keys go through one :meth:`PGridNetwork.lookup_many` from
    ``start``, so keys whose responsible regions coincide share a route and
    a reply.  The index-nested-loop join and the MQP probe step both run
    this, so their probes and matching cannot drift.
    """
    keys = {
        value: probe_key(pattern, variable, value)
        for value in {row[variable] for row in rows if variable in row}
    }
    entries_by_key: dict[str, list] = {}
    trace = Trace.ZERO
    if keys:
        entries_by_key, trace = ctx.pnet.lookup_many(keys.values(), start=start, kind=message_kind)
    match = pattern_matcher(pattern)
    check = FilterCheck(filters)
    matches = {
        value: match_postings(entries_by_key.get(key, []), match, variable, value, check)
        for value, key in keys.items()
    }
    # A match agrees with its row on ``variable``; only another shared
    # variable needs the compatibility check.
    shared = (pattern.variables() - {variable}) & bound_variables(rows)
    joined = [
        merge_bindings(row, found)
        for row in rows
        for found in matches.get(row.get(variable), ())
        if not shared or compatible(row, found)
    ]
    return joined, trace


class PhysicalOperator(ABC):
    """Base class; subclasses are the concrete strategies."""

    #: Short strategy name used in EXPLAIN output and benchmarks.
    strategy: str = ""

    @abstractmethod
    def execute(self, ctx: ExecutionContext) -> OpResult:
        """Run the operator and return results in produce form."""

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def explain(self, indent: int = 0) -> str:
        lines = [("  " * indent) + self._label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        name = type(self).__name__
        return f"{name}[{self.strategy}]" if self.strategy else name
