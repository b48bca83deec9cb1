"""Physical join strategies (paper §2/§4: "identical queries ... different
performance results depending on the current data load, network state").

Three implementations of the logical ⋈, differing in data flow:

* :class:`ShipJoin` — both inputs ship to the coordinator, which hash-joins
  locally.  Latency = slower input + one shipping wave; total traffic carries
  *all* rows of both sides.  Best when inputs are small or the coordinator
  needs everything anyway.

* :class:`IndexNestedLoopJoin` — only the left input runs; for each distinct
  join value, the right pattern is resolved with a direct A#v (or OID) index
  lookup.  Traffic ∝ distinct left values × O(log N); unbeatable for small,
  selective left sides, hopeless for large fan-out.

* :class:`RehashJoin` — the PIER-style symmetric re-hash: every producer
  ships each of its rows' join groups *directly* to the rendezvous peer
  responsible for the join value's key; rendezvous peers join their share and
  send only matches to the coordinator.  Traffic ∝ |L|+|R| but fully
  parallel, and non-matching rows never cross the coordinator's link.

All three compute exactly the multiset the reference executor computes; only
cost differs — that is what experiment E4 sweeps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.errors import PlanningError, RoutingError
from repro.net.scheduler import ChainSpec, PartialChain, then_send
from repro.net.trace import Trace
from repro.algebra.semantics import Binding, bound_variables, compatible, join_key, merge_bindings
from repro.physical.base import ExecutionContext, OpResult, PhysicalOperator, probe_join
from repro.pgrid.routing import point_key, route_hops
from repro.triples.index import probe_variable, v_key
from repro.vql.ast import Expression, TriplePattern


@dataclass
class _JoinBase(PhysicalOperator):
    left: PhysicalOperator
    right: PhysicalOperator

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    @staticmethod
    def _shared_variables(left_rows: list[Binding], right_rows: list[Binding]) -> list[str]:
        return sorted(bound_variables(left_rows) & bound_variables(right_rows))


@dataclass
class ShipJoin(_JoinBase):
    """Ship both sides to the coordinator, hash join locally."""

    join_variables: tuple[str, ...] = ()

    strategy = "ship"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        left_result = self.left.execute(ctx)
        right_result = self.right.execute(ctx)
        left_home = left_result.at_coordinator(ctx, kind="join-ship")
        right_home = right_result.at_coordinator(ctx, kind="join-ship")
        left_rows = left_home.all_bindings()
        right_rows = right_home.all_bindings()
        shared = list(self.join_variables) or self._shared_variables(left_rows, right_rows)
        joined = _hash_join(left_rows, right_rows, shared)
        trace = Trace.parallel([left_home.trace, right_home.trace])
        return OpResult(
            groups=[(ctx.coordinator.node_id, joined)] if joined else [],
            trace=trace,
            complete=left_result.complete and right_result.complete,
        )


@dataclass
class IndexNestedLoopJoin(_JoinBase):
    """Left side runs; right side is resolved by per-value index lookups.

    ``right`` must be a *pattern spec* — this strategy does not execute the
    right operator; it probes the right pattern's index directly
    (:func:`~repro.triples.index.probe_key`), so the shared variable must be
    the right pattern's subject or object.
    """

    right_pattern: TriplePattern | None = None
    right_filters: tuple[Expression, ...] = ()

    strategy = "index-nl"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        if self.right_pattern is None:
            raise PlanningError("IndexNestedLoopJoin needs the right pattern spec")
        left_result = self.left.execute(ctx).at_coordinator(ctx, kind="join-ship")
        left_rows = left_result.all_bindings()
        if not left_rows:
            # An empty outer side joins to nothing; there is no position to
            # probe (and no need to).
            return OpResult([], left_result.trace, left_result.complete)
        variable = probe_variable(self.right_pattern, bound_variables(left_rows))
        if variable is None:
            raise PlanningError(
                "IndexNestedLoopJoin: shared variable must be the right pattern's "
                "subject or object"
            )
        joined, probe_trace = probe_join(
            ctx,
            left_rows,
            self.right_pattern,
            self.right_filters,
            variable,
            ctx.coordinator,
            "join-lookup",
        )
        return OpResult(
            groups=[(ctx.coordinator.node_id, joined)] if joined else [],
            trace=left_result.trace.then(probe_trace),
            complete=left_result.complete,
        )

    def _label(self) -> str:
        return f"IndexNestedLoopJoin[{self.right_pattern}]"


@dataclass
class RehashJoin(_JoinBase):
    """Symmetric re-hash join at rendezvous peers (Mutant-Query-Plan style
    distributed join; cf. PIER)."""

    join_variables: tuple[str, ...] = ()

    strategy = "rehash"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        left_result = self.left.execute(ctx)
        right_result = self.right.execute(ctx)
        left_rows_all = left_result.all_bindings()
        right_rows_all = right_result.all_bindings()
        shared = list(self.join_variables) or self._shared_variables(left_rows_all, right_rows_all)
        if not shared:
            # Cartesian products cannot rendezvous — fall back to shipping.
            ship = ShipJoin(self.left, self.right)
            return ship.execute(ctx)

        arrivals: dict[str, dict[str, list[tuple[Binding, bool]]]] = defaultdict(
            lambda: defaultdict(list)
        )
        complete = left_result.complete and right_result.complete
        # First pass: discover every bucket's route (no messages yet), so the
        # shipping wave can then be charged as one wave in whichever execution
        # model is active.  Partial hops of failed routes are accounted (they
        # were sent) but the wave does not wait for them.
        chains: list[ChainSpec] = []
        failed_routes: list[PartialChain] = []
        for result, is_left in ((left_result, True), (right_result, False)):
            for peer_id, rows in result.groups:
                by_value: dict[tuple, list[Binding]] = defaultdict(list)
                for row in rows:
                    if any(name not in row for name in shared):
                        continue
                    by_value[join_key(row, shared)].append(row)
                producer = ctx.pnet.net.nodes[peer_id]
                for value_key, bucket in by_value.items():
                    # Point routing: every producer must land in the SAME
                    # leaf group for a value, even when the trie is split
                    # deeper than the rendezvous key.
                    rendezvous_key = point_key(v_key(_rendezvous_value(value_key)))
                    try:
                        dest, hops = route_hops(producer, rendezvous_key, rng=ctx.rng)
                    except RoutingError as error:
                        complete = False
                        failed_routes.append((error.hops, "join-rehash", 1))
                        continue
                    # Routing may land on any replica of the responsible
                    # group; both sides must meet at the SAME peer, so
                    # canonicalize to the group's smallest online member
                    # (one extra intra-group hop when needed).
                    candidates = [dest.node_id, *dest.online_replicas()]
                    rendezvous_id = min(candidates)
                    if rendezvous_id != dest.node_id:
                        sends = [(dest.node_id, rendezvous_id, "join-rehash", len(bucket))]
                    elif dest is not producer:
                        sends = [(producer.node_id, dest.node_id, "join-rehash", len(bucket))]
                    else:
                        sends = []
                    chains.append(ChainSpec(hops, "join-rehash", 1, then_send(sends)))
                    for row in bucket:
                        arrivals[rendezvous_id][str(value_key)].append((row, is_left))

        arrival_trace = ctx.pnet.run_chains(chains, untracked=failed_routes)
        base = Trace.parallel([left_result.trace, right_result.trace]).then(arrival_trace)

        joined_all: list[Binding] = []
        result_sends: list[tuple[str, str, str, int]] = []
        for dest_id, by_value in arrivals.items():
            local_matches: list[Binding] = []
            for _value, pairs in by_value.items():
                lefts = [row for row, is_left in pairs if is_left]
                rights = [row for row, is_left in pairs if not is_left]
                local_matches.extend(_hash_join(lefts, rights, shared))
            if local_matches:
                result_sends.append(
                    (dest_id, ctx.coordinator.node_id, "join-result", len(local_matches))
                )
                joined_all.extend(local_matches)
        trace = base.then(ctx.pnet.ship_many(result_sends)) if result_sends else base
        return OpResult(
            groups=[(ctx.coordinator.node_id, joined_all)] if joined_all else [],
            trace=trace,
            complete=complete,
        )


def _rendezvous_value(value_key: tuple) -> str:
    """Deterministic string form of a join key for rendezvous routing."""
    return "\x03".join(repr(v) for v in value_key)


def _hash_join(
    left_rows: list[Binding], right_rows: list[Binding], shared: list[str]
) -> list[Binding]:
    """:func:`hash_join` building its table over the smaller side.  A cross
    product (no ``shared`` variable) keeps its sides, and so its order."""
    if shared and len(right_rows) < len(left_rows):
        left_rows, right_rows = right_rows, left_rows
    return hash_join(left_rows, right_rows, shared)


def hash_join(
    left_rows: list[Binding], right_rows: list[Binding], shared: list[str]
) -> list[Binding]:
    """Join on the ``shared`` variables: a table over ``left_rows``, probed
    by each right row in order; the cross product when ``shared`` is empty."""
    if not shared:
        return [merge_bindings(l, r) for l in left_rows for r in right_rows]
    table: dict[tuple, list[Binding]] = defaultdict(list)
    for row in left_rows:
        table[join_key(row, shared)].append(row)
    result: list[Binding] = []
    for row in right_rows:
        for match in table.get(join_key(row, shared), ()):
            if compatible(match, row):
                result.append(merge_bindings(match, row))
    return result
