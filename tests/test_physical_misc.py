"""Flow/blocking physical operators and the OID-cluster star scan."""

import random

import pytest

from repro.bench import ConferenceWorkload
from repro.errors import PlanningError
from repro.physical import (
    CollectOp,
    ExecutionContext,
    FilterOp,
    IndexRange,
    LeftJoinOp,
    LimitOp,
    OidClusterScan,
    ProjectOp,
    SortOp,
    UnionOp,
)
from repro.pgrid import build_network
from repro.triples import DistributedTripleStore, Triple
from repro.triples.index import av_attribute_range
from repro.vql import parse
from repro.vql.ast import Literal, OrderItem, TriplePattern, Var


@pytest.fixture(scope="module")
def env():
    # OIDs with spread first characters so they hash to different trie leaves.
    # fmt: off
    triples = [
        Triple("a-p1", "name", "Alice"), Triple("a-p1", "age", 30),
        Triple("a-p1", "city", "Berlin"),
        Triple("m-p2", "name", "Bob"), Triple("m-p2", "age", 25),
        Triple("z-p3", "name", "Cara"), Triple("z-p3", "age", 40),
        Triple("z-p3", "city", "Basel"),
        # multi-valued attribute on a-p1
        Triple("a-p1", "likes", "tea"), Triple("a-p1", "likes", "coffee"),
    ]
    # fmt: on
    # Shape the trie by the actual posting keys (P-Grid's balanced steady
    # state) so the tiny dataset still spans several leaves.
    from repro.triples import av_key, oid_key, v_key

    keys = []
    for t in triples:
        keys += [oid_key(t.oid), av_key(t.attribute, t.value), v_key(t.value)]
    pnet = build_network(24, data_keys=keys, replication=1, seed=31, split_by="data")
    store = DistributedTripleStore(pnet)
    store.bulk_insert(triples)
    ctx = ExecutionContext(store, pnet.peers[0], random.Random(31))
    return store, ctx


def _names(result):
    return sorted(r.get("n") for r in result.all_bindings())


def scan(attr, var="n", subject="a"):
    pattern = TriplePattern(Var(subject), Literal(attr), Var(var))
    return IndexRange(pattern, (), av_attribute_range(attr), "attribute-scan")


class TestFlowOperators:
    def test_filter_in_place_costs_nothing_extra(self, env):
        store, ctx = env
        import random as _random
        from dataclasses import replace as _replace

        base = scan("age", var="v")
        # Identical rng seeds make the two shower fan-outs byte-identical,
        # so the filter's zero network cost is directly observable.
        baseline = base.execute(_replace(ctx, rng=_random.Random(99)))
        filtered = FilterOp(base, parse_filter("?v > 28")).execute(
            _replace(ctx, rng=_random.Random(99))
        )
        assert sorted(r["v"] for r in filtered.all_bindings()) == [30, 40]
        assert filtered.trace.messages == baseline.trace.messages

    def test_project_prunes_columns_in_place(self, env):
        _store, ctx = env
        result = ProjectOp(scan("age", var="v"), (Var("v"),)).execute(ctx)
        for row in result.all_bindings():
            assert set(row) == {"v"}

    def test_project_distinct_gathers(self, env):
        _store, ctx = env
        result = ProjectOp(
            scan("likes", var="v"), (Var("v"),), distinct=True
        ).execute(ctx)
        assert sorted(r["v"] for r in result.all_bindings()) == ["coffee", "tea"]
        assert len(result.groups) <= 1  # centralized after dedup

    def test_sort_and_limit(self, env):
        _store, ctx = env
        ordered = SortOp(scan("age", var="v"), (OrderItem(Var("v"), descending=True),))
        result = LimitOp(ordered, count=2).execute(ctx)
        assert [r["v"] for r in result.all_bindings()] == [40, 30]

    def test_limit_offset(self, env):
        _store, ctx = env
        ordered = SortOp(scan("age", var="v"), (OrderItem(Var("v")),))
        result = LimitOp(ordered, count=2, offset=1).execute(ctx)
        assert [r["v"] for r in result.all_bindings()] == [30, 40]

    def test_collect_delivers_to_coordinator(self, env):
        _store, ctx = env
        result = CollectOp(scan("name")).execute(ctx)
        assert len(result.groups) == 1
        assert result.groups[0][0] == ctx.coordinator.node_id


class TestSetOperators:
    def test_union_pools_groups(self, env):
        _store, ctx = env
        result = UnionOp((scan("name"), scan("city", var="n"))).execute(ctx)
        assert _names(result) == sorted(["Alice", "Bob", "Cara", "Berlin", "Basel"])

    def test_left_join_keeps_unmatched(self, env):
        _store, ctx = env
        result = LeftJoinOp(scan("name"), scan("city", var="c")).execute(ctx)
        by_name = {r["n"]: r.get("c") for r in result.all_bindings()}
        assert by_name == {"Alice": "Berlin", "Cara": "Basel", "Bob": None}


class TestOidClusterScan:
    def _star(self, *attrs, filters=()):
        patterns = tuple(
            TriplePattern(Var("a"), Literal(attr), Var(f"v{i}"))
            for i, attr in enumerate(attrs)
        )
        return OidClusterScan(patterns=patterns, filters=filters, subject_variable="a")

    def test_star_joins_attributes(self, env):
        _store, ctx = env
        result = self._star("name", "age").execute(ctx)
        rows = {(r["v0"], r["v1"]) for r in result.all_bindings()}
        assert rows == {("Alice", 30), ("Bob", 25), ("Cara", 40)}

    def test_star_requires_all_attributes(self, env):
        _store, ctx = env
        result = self._star("name", "city").execute(ctx)
        rows = {(r["v0"], r["v1"]) for r in result.all_bindings()}
        assert rows == {("Alice", "Berlin"), ("Cara", "Basel")}  # Bob has no city

    def test_multivalued_attribute_products(self, env):
        _store, ctx = env
        result = self._star("name", "likes").execute(ctx)
        rows = {(r["v0"], r["v1"]) for r in result.all_bindings()}
        assert rows == {("Alice", "tea"), ("Alice", "coffee")}

    def test_rows_stay_distributed(self, env):
        _store, ctx = env
        result = self._star("name", "age").execute(ctx)
        assert len(result.groups) >= 2  # not centralized

    def test_filters_applied_locally(self, env):
        _store, ctx = env
        result = self._star("name", "age", filters=(parse_filter("?v1 >= 30"),)).execute(ctx)
        assert sorted(r["v0"] for r in result.all_bindings()) == ["Alice", "Cara"]

    def test_literal_object_acts_as_filter(self, env):
        _store, ctx = env
        star = OidClusterScan(
            patterns=(
                TriplePattern(Var("a"), Literal("name"), Var("n")),
                TriplePattern(Var("a"), Literal("age"), Literal(25)),
            ),
            subject_variable="a",
        )
        result = star.execute(ctx)
        assert [r["n"] for r in result.all_bindings()] == ["Bob"]

    def test_rejects_mismatched_subject(self, env):
        _store, ctx = env
        star = OidClusterScan(
            patterns=(TriplePattern(Var("b"), Literal("name"), Var("n")),),
            subject_variable="a",
        )
        with pytest.raises(PlanningError):
            star.execute(ctx)

    def test_rejects_empty_pattern_list(self, env):
        _store, ctx = env
        with pytest.raises(PlanningError):
            OidClusterScan(patterns=(), subject_variable="a").execute(ctx)


class TestPlannerStarIntegration:
    def test_star_query_planned_and_correct(self):
        from repro import UniStore

        store = UniStore.build(num_peers=32, replication=2, seed=32)
        workload = ConferenceWorkload(
            num_authors=20, num_publications=30, num_conferences=8, seed=32
        )
        workload.load_into(store)
        vql = (
            "SELECT ?n, ?g WHERE {(?a,'name',?n) (?a,'age',?g) "
            "(?a,'num_of_pubs',?c)}"
        )
        optimized = store.execute(vql)
        reference = store.execute(vql, mode="reference")
        assert sorted(map(repr, optimized.rows)) == sorted(map(repr, reference.rows))

    def test_selective_star_prefers_probes(self):
        """A star with a very selective equality should NOT pay a full OID
        sweep under traffic-weighted costing."""
        from repro import UniStore
        from repro.optimizer import PlannerConfig

        store = UniStore.build(num_peers=32, replication=2, seed=33)
        workload = ConferenceWorkload(
            num_authors=20, num_publications=30, num_conferences=8, seed=33
        )
        workload.load_into(store)
        name = workload.people[0]["name"]
        vql = (f"SELECT ?g WHERE {{(?a,'name',?n) (?a,'age',?g) FILTER ?n = '{name}'}}")
        plan = store.explain(vql, config=PlannerConfig(latency_weight=0.0, message_weight=1.0))
        assert "OidClusterScan" not in plan.split("-- physical --")[1]


def parse_filter(text: str):
    query = parse(f"SELECT ?x WHERE {{(?x,'a',?v) FILTER {text}}}")
    return query.groups[0].filters[0]
