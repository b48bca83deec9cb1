"""The UniStore facade — the system a user of the platform sees (paper §4).

One object bundles the whole stack of Fig. 1: P-Grid overlay, triple storage
with the three default indexes (+ optional q-gram index), VQL parsing,
logical planning/rewriting, cost-based physical planning, and three execution
modes:

* ``optimized``  — coordinator-driven execution of the cheapest physical plan;
* ``mqp``        — the same physical plan with every join group run as a
  mutant query plan, re-optimized at each peer it visits;
* ``reference``  — centralized ground-truth evaluation (testing/debugging).

Schema mappings are ordinary metadata triples; with ``expand_mappings=True``
a query's attribute names are transparently widened to their known
correspondences ("or even automatically by the system", §2).
"""

from __future__ import annotations

import itertools
import random

from repro.net.latency import LatencyModel
from repro.net.trace import Trace
from repro.algebra.plan_builder import build_plan
from repro.algebra.reference import execute_reference
from repro.algebra.rewrite import rewrite
from repro.core.logging import QueryLog
from repro.core.results import QueryResult
from repro.optimizer.planner import Planner, PlannerConfig
from repro.optimizer.statistics import CatalogStatistics
from repro.pgrid.construction import build_network
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.physical.base import ExecutionContext
from repro.triples.mappings import MappingCatalog, SchemaMapping
from repro.triples.store import DistributedTripleStore
from repro.triples.triple import Triple, Value
from repro.vql.ast import GroupPattern, Literal, Query, TriplePattern
from repro.vql.parser import parse


class UniStore:
    """A DHT-based universal storage instance."""

    def __init__(
        self,
        pnet: PGridNetwork,
        enable_qgram_index: bool = False,
        qgram_q: int = 3,
        qgram_attributes: set[str] | None = None,
        seed: int = 0,
    ):
        self.pnet = pnet
        self.store = DistributedTripleStore(
            pnet,
            enable_qgram_index=enable_qgram_index,
            qgram_q=qgram_q,
            qgram_attributes=qgram_attributes,
        )
        self.mappings = MappingCatalog(self.store)
        self.rng = random.Random(seed ^ 0xD1CE)
        self.log = QueryLog()
        self._stats: CatalogStatistics | None = None
        self._oid_counter = itertools.count(1)

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        num_peers: int,
        latency_model: LatencyModel | None = None,
        replication: int = 2,
        fanout: int = 4,
        seed: int = 0,
        enable_qgram_index: bool = False,
        qgram_q: int = 3,
        qgram_attributes: set[str] | None = None,
    ) -> "UniStore":
        """Stand up a fresh overlay of ``num_peers`` peers, ready for inserts."""
        pnet = build_network(
            num_peers,
            latency_model=latency_model,
            seed=seed,
            fanout=fanout,
            replication=replication,
            split_by="population",
        )
        return cls(
            pnet,
            enable_qgram_index=enable_qgram_index,
            qgram_q=qgram_q,
            qgram_attributes=qgram_attributes,
            seed=seed,
        )

    # -- data ingestion ----------------------------------------------------------

    def new_oid(self, prefix: str = "oid") -> str:
        """System-generated OID ("the OID is system generated", §2)."""
        return f"{prefix}:{next(self._oid_counter):08d}"

    def insert_tuple(self, values: dict[str, Value], oid: str | None = None) -> tuple[str, Trace]:
        """Vertically decompose and publish one logical tuple; returns its OID."""
        oid = oid or self.new_oid()
        _triples, trace = self.store.insert_tuple(oid, values)
        self._stats = None
        return oid, trace

    def insert_tuples(
        self,
        tuples: list[dict[str, Value]],
        oid_prefix: str = "oid",
        start: PGridPeer | None = None,
    ) -> tuple[list[str], Trace]:
        """Message-accounted batched ingest of many logical tuples.

        All postings of the batch are published through one
        destination-grouped bulk insert, so routed messages per tuple shrink
        as the batch grows (contrast :meth:`bulk_load_tuples`, which is an
        oracle placement with no messages at all).  ``start`` pins the
        ingesting gateway peer; by default a random online peer ingests.
        Returns the generated OIDs and the combined trace.
        """
        batch: list[tuple[str, dict[str, Value]]] = []
        oids: list[str] = []
        for values in tuples:
            oid = self.new_oid(oid_prefix)
            oids.append(oid)
            batch.append((oid, values))  # None values dropped by decomposition
        _triples, trace = self.store.insert_tuples_batch(batch, start=start)
        self._stats = None
        return oids, trace

    def insert_triple(self, triple: Triple) -> Trace:
        """Publish one RDF-style triple ("RDF data can be stored seamlessly")."""
        trace = self.store.insert(triple)
        self._stats = None
        return trace

    def add_mapping(self, source: str, target: str, confidence: float = 1.0) -> Trace:
        """Publish a schema correspondence ``source -> target`` (§2 mappings).

        Stored as ordinary metadata triples; queries executed with
        ``expand_mappings=True`` widen attribute names along these edges.
        Returns the publication trace.
        """
        trace = self.mappings.add(SchemaMapping(source, target, confidence))
        self._stats = None
        return trace

    def bulk_load_tuples(
        self, tuples: list[dict[str, Value]], oid_prefix: str = "oid"
    ) -> list[str]:
        """Oracle placement of many tuples (setup only; no routed messages)."""
        triples: list[Triple] = []
        oids: list[str] = []
        for values in tuples:
            oid = self.new_oid(oid_prefix)
            oids.append(oid)
            for attribute, value in values.items():
                if value is not None:
                    triples.append(Triple(oid, attribute, value))
        self.store.bulk_insert(triples)
        self._stats = None
        return oids

    def rebalance(self, capacity: int | None = None) -> int:
        """Run P-Grid's storage-threshold load balancing (paper ref. [2]).

        Deepens the trie where postings are dense so no peer holds more than
        ``capacity`` entries (default: 4x the fair share).  Returns the
        number of group splits performed.
        """
        from repro.pgrid.load_balancing import rebalance as pgrid_rebalance

        if capacity is None:
            total = sum(p.load for p in self.pnet.peers)
            capacity = max(8, 4 * total // max(1, len(self.pnet.peers)))
        splits = pgrid_rebalance(self.pnet, capacity=capacity)
        self._stats = None
        return splits

    # -- statistics -----------------------------------------------------------------

    @property
    def statistics(self) -> CatalogStatistics:
        """Catalog statistics the optimizer costs plans against (cached;
        invalidated automatically by every ingest/rebalance)."""
        if self._stats is None:
            self._stats = CatalogStatistics.from_store(self.store)
        return self._stats

    def refresh_statistics(self) -> CatalogStatistics:
        """Force-rebuild the catalog statistics and return them."""
        self._stats = None
        return self.statistics

    # -- execution model ---------------------------------------------------------

    def event_driven(self, simulator=None, load=None, hints=False):
        """Scope event-driven (simulated-time) execution for this store.

        Inside the ``with`` block every routed operation — query fan-outs,
        index probes, range showers, ingest — runs as discrete events on a
        shared simulated clock, so parallel fan-outs complete at the
        *measured* max of their branches instead of the analytically
        composed one::

            with store.event_driven() as sched:
                result = store.execute(vql)
            result.trace.completion_time  # absolute instant on sched's clock

        ``load`` attaches a :class:`~repro.load.model.LoadModel`: peers get
        per-message-kind service times and FIFO work queues, so answer times
        include queueing delay at hot peers (latency = link + queue +
        service) and per-peer utilization shows up in
        ``sched.load.snapshot()`` and the stats frames.

        Two load-control knobs ride on the model
        (:mod:`repro.load.shedding`): ``LoadModel(..., admission=policy)``
        lets saturated peers reject work past a queue-depth cap, and
        ``hints=True`` attaches a queue-depth hint registry so every message
        piggybacks its sender's smoothed depth — the information the
        ``least-busy`` diffusion policy and reject retries act on.
        """
        return self.pnet.event_driven(simulator=simulator, load=load, hints=hints)

    @property
    def replica_diffusion(self) -> str:
        """Read-diffusion policy over replica groups.

        One of ``"none"`` | ``"random"`` | ``"least-busy"`` (piggybacked
        hints, falling back to the oracle then to random when unavailable) |
        ``"least-busy-oracle"`` (simulator-side baseline).
        """
        return self.pnet.replica_diffusion

    @replica_diffusion.setter
    def replica_diffusion(self, policy: str) -> None:
        from repro.load.diffusion import POLICIES

        if policy not in POLICIES:
            raise ValueError(f"unknown diffusion policy {policy!r} (use one of {POLICIES})")
        self.pnet.replica_diffusion = policy

    # -- querying ----------------------------------------------------------------------

    def execute(
        self,
        vql_text: str,
        mode: str = "optimized",
        config: PlannerConfig | None = None,
        coordinator: PGridPeer | None = None,
        expand_mappings: bool = False,
    ) -> QueryResult:
        """Parse and run a VQL query; see the class docstring for modes."""
        query = parse(vql_text)
        expansion_trace = Trace.ZERO
        if expand_mappings:
            query, expansion_trace = self._expand_query(query)

        coordinator = coordinator or self.pnet.random_online_peer(self.rng)
        ctx = ExecutionContext(store=self.store, coordinator=coordinator, rng=self.rng)

        logical = rewrite(build_plan(query))
        if mode == "reference":
            rows = execute_reference(logical, self._all_triples())
            result = QueryResult(rows, plan=logical.explain())
        elif mode in ("optimized", "mqp"):
            physical = self._planner(config, mutant=mode == "mqp").plan(logical)
            op_result = physical.execute(ctx)
            result = QueryResult(
                op_result.all_bindings(),
                trace=op_result.trace,
                plan=physical.explain(),
                complete=op_result.complete,
            )
        else:
            raise ValueError(f"unknown execution mode {mode!r}")

        result.variables = tuple(v.name for v in query.select)
        result.trace = expansion_trace.then(result.trace)
        result.mode = mode
        self.log.record(
            text=vql_text,
            mode=mode,
            plan=result.plan,
            messages=result.trace.messages,
            hops=result.trace.hops,
            latency=result.trace.latency,
            rows=len(result.rows),
            complete=result.complete,
        )
        return result

    def explain(self, vql_text: str, config: PlannerConfig | None = None) -> str:
        """Logical and physical plan text without executing."""
        query = parse(vql_text)
        logical = rewrite(build_plan(query))
        physical = self._planner(config).plan(logical)
        return f"-- logical --\n{logical.explain()}\n-- physical --\n{physical.explain()}"

    def _planner(self, config: PlannerConfig | None, mutant: bool = False) -> Planner:
        return Planner(
            self.statistics,
            config or PlannerConfig(),
            qgram_available=self.store.enable_qgram_index,
            qgram_q=self.store.qgram_q,
            mutant=mutant,
        )

    # -- mapping expansion ----------------------------------------------------------------

    def _expand_query(self, query: Query) -> tuple[Query, Trace]:
        """Widen literal predicates to their mapped equivalents (UNION of groups)."""
        traces: list[Trace] = []
        new_groups: list[GroupPattern] = []
        for group in query.groups:
            alternatives_per_pattern: list[list[TriplePattern]] = []
            for pattern in group.patterns:
                alternatives = [pattern]
                if isinstance(pattern.predicate, Literal) and isinstance(
                    pattern.predicate.value, str
                ):
                    names, trace = self.mappings.expansions(pattern.predicate.value)
                    traces.append(trace)
                    for name in names:
                        alternatives.append(
                            TriplePattern(pattern.subject, Literal(name), pattern.object)
                        )
                alternatives_per_pattern.append(alternatives)
            combos = list(itertools.product(*alternatives_per_pattern))
            if len(combos) > 16:  # avoid exponential blow-up on dense mappings
                combos = combos[:16]
            for combo in combos:
                new_groups.append(GroupPattern(tuple(combo), group.filters, group.optionals))
        expanded = Query(
            select=query.select,
            groups=tuple(new_groups),
            distinct=query.distinct or len(new_groups) > len(query.groups),
            order_by=query.order_by,
            skyline=query.skyline,
            limit=query.limit,
            offset=query.offset,
        )
        return expanded, Trace.parallel(traces) if traces else Trace.ZERO

    # -- ground truth -------------------------------------------------------------------------

    def _all_triples(self) -> list[Triple]:
        """Every distinct triple in the overlay (via the A#v postings)."""
        from repro.triples.index import av_index_range
        from repro.triples.store import stored_triples

        return list(stored_triples(self.pnet.all_entries(av_index_range())))
