"""Statistics, cost model, and the cost-based planner's strategy choices."""

import pytest

from repro.algebra import build_plan, rewrite
from repro.bench import ConferenceWorkload
from repro.errors import PlanningError
from repro.optimizer import CatalogStatistics, Cost, CostModel, Planner, PlannerConfig
from repro.pgrid import build_network
from repro.physical import (
    IndexLookup,
    IndexNestedLoopJoin,
    IndexRange,
    QGramScan,
    RehashJoin,
    ShipJoin,
)
from repro.triples import DistributedTripleStore
from repro.triples.index import (
    av_attribute_range,
    av_index_range,
    av_key,
    av_string_prefix_range,
    av_value_range,
    oid_key,
    v_key,
)
from repro.vql import parse
from repro.vql.ast import Literal, TriplePattern, Var


@pytest.fixture(scope="module")
def stats_env():
    pnet = build_network(32, replication=2, seed=55, split_by="population")
    store = DistributedTripleStore(pnet, enable_qgram_index=True)
    workload = ConferenceWorkload(num_authors=30, num_publications=60, num_conferences=12, seed=55)
    store.bulk_insert(workload.all_triples())
    stats = CatalogStatistics.from_store(store)
    return store, stats


class TestStatistics:
    def test_counts(self, stats_env):
        store, stats = stats_env
        assert stats.num_peers == 32
        assert stats.num_groups == 16
        assert stats.replication == pytest.approx(2.0)
        assert stats.total_triples > 0
        assert stats.attribute_count("age") == 30

    def test_numeric_min_max(self, stats_env):
        _store, stats = stats_env
        age = stats.attributes["age"]
        assert 24 <= age.numeric_min <= age.numeric_max <= 65

    def test_eq_selectivity(self, stats_env):
        _store, stats = stats_env
        sel = stats.eq_selectivity("age")
        assert 0 < sel <= 1
        assert sel == pytest.approx(1 / stats.attribute_distinct("age"))

    def test_range_selectivity_interpolates(self, stats_env):
        _store, stats = stats_env
        full = stats.range_selectivity("age", None, None)
        half = stats.range_selectivity("age", None, 44)
        assert full == pytest.approx(1.0)
        assert 0 < half < 1

    def test_unknown_attribute(self, stats_env):
        _store, stats = stats_env
        assert stats.attribute_count("nope") == 0
        assert stats.eq_selectivity("nope") == 0.0

    def test_pattern_estimates_ordered_by_boundness(self, stats_env):
        _store, stats = stats_env
        bound_both = TriplePattern(Var("s"), Literal("age"), Literal(30))
        bound_attr = TriplePattern(Var("s"), Literal("age"), Var("v"))
        unbound = TriplePattern(Var("s"), Var("p"), Var("o"))
        assert (
            stats.estimate_pattern(bound_both)
            <= stats.estimate_pattern(bound_attr)
            <= stats.estimate_pattern(unbound)
        )

    def test_expected_hops_logarithmic(self, stats_env):
        _store, stats = stats_env
        assert stats.expected_hops() == pytest.approx(4.0)  # log2(16 groups)


class TestCostModel:
    def test_cost_composition(self):
        a = Cost(10, 0.5)
        b = Cost(5, 0.2)
        assert a.then(b) == Cost(15, 0.7)
        assert a.alongside(b) == Cost(15, 0.5)

    def test_lookup_cheaper_than_broadcast(self, stats_env):
        _store, stats = stats_env
        model = CostModel(stats)
        lookup = model.lookup()
        broadcast = model.range_scan(1.0, "shower", stats.total_triples)
        assert model.value(lookup) < model.value(broadcast)

    def test_shower_faster_sequential_cheaper_messages(self, stats_env):
        _store, stats = stats_env
        model = CostModel(stats)
        shower = model.range_scan(0.5, "shower", 100)
        sequential = model.range_scan(0.5, "sequential", 100)
        assert shower.latency < sequential.latency

    def test_value_weights(self, stats_env):
        _store, stats = stats_env
        latency_first = CostModel(stats, latency_weight=1.0, message_weight=0.0)
        message_first = CostModel(stats, latency_weight=0.0, message_weight=1.0)
        cost = Cost(messages=100, latency=0.1)
        assert latency_first.value(cost) == pytest.approx(0.1)
        assert message_first.value(cost) == pytest.approx(100)


class TestScanSelection:
    def _scan_for(self, stats_env, vql):
        store, stats = stats_env
        planner = Planner(stats, qgram_available=True)
        logical = rewrite(build_plan(parse(vql)))
        physical = planner.plan(logical)
        return physical

    def _find(self, physical, klass):
        stack = [physical]
        while stack:
            node = stack.pop()
            if isinstance(node, klass):
                return node
            stack.extend(node.children())
        return None

    def test_bound_subject_uses_oid_index(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?p WHERE {('person:000001',?p,?o)}")
        scan = self._find(plan, IndexLookup)
        assert scan.strategy == "oid-lookup"
        assert scan.key == oid_key("person:000001")

    def test_bound_pred_obj_uses_av_lookup(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?s WHERE {(?s,'age',30)}")
        scan = self._find(plan, IndexLookup)
        assert scan.strategy == "av-lookup"
        assert scan.key == av_key("age", 30)

    def test_equality_filter_becomes_point_range(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v = 30}")
        scan = self._find(plan, IndexRange)
        assert scan.strategy == "av-range"
        assert scan.key_range == av_value_range("age", 30, 30)

    def test_range_filter_becomes_range_scan(self, stats_env):
        plan = self._scan_for(
            stats_env, "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v >= 30 AND ?v < 40}"
        )
        scan = self._find(plan, IndexRange)
        assert scan.strategy == "av-range"
        assert scan.key_range == av_value_range("age", 30, 40, True, False)

    def test_prefix_filter_becomes_prefix_scan(self, stats_env):
        plan = self._scan_for(
            stats_env,
            "SELECT ?s WHERE {(?s,'confname',?v) FILTER prefix(?v,'ICDE')}",
        )
        scan = self._find(plan, IndexRange)
        assert scan.strategy == "av-prefix"
        assert scan.key_range == av_string_prefix_range("confname", "ICDE")

    def test_edist_filter_uses_qgram_index(self, stats_env):
        plan = self._scan_for(
            stats_env,
            "SELECT ?s WHERE {(?s,'confname',?v) FILTER edist(?v,'ICDE 2003')<2}",
        )
        scan = self._find(plan, QGramScan)
        assert (scan.text, scan.max_distance) == ("ICDE 2003", 1)

    def test_edist_without_qgram_index_scans_attribute(self, stats_env):
        store, stats = stats_env
        planner = Planner(stats, qgram_available=False)
        logical = rewrite(build_plan(parse(
            "SELECT ?s WHERE {(?s,'confname',?v) FILTER edist(?v,'ICDE 2003')<2}"
        )))
        physical = planner.plan(logical)
        scan = self._find(physical, IndexRange)
        assert scan.strategy == "attribute-scan"
        assert scan.key_range == av_attribute_range("confname")
        assert not self._find(physical, QGramScan)

    def test_bound_object_uses_v_index(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?s,?p WHERE {(?s,?p,'ICDE')}")
        scan = self._find(plan, IndexLookup)
        assert (scan.strategy, scan.key) == ("v-lookup", v_key("ICDE"))

    def test_nothing_bound_broadcasts(self, stats_env):
        plan = self._scan_for(stats_env, "SELECT ?s WHERE {(?s,?p,?o)}")
        scan = self._find(plan, IndexRange)
        assert scan.strategy == "broadcast"
        assert scan.key_range == av_index_range()


class TestJoinSelection:
    JOIN_QUERY = ("SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g = 30}")

    def test_forced_strategies_apply(self, stats_env):
        store, stats = stats_env
        logical = rewrite(build_plan(parse(self.JOIN_QUERY)))
        for forced, klass in [
            ("ship", ShipJoin),
            ("index-nl", IndexNestedLoopJoin),
            ("rehash", RehashJoin),
        ]:
            planner = Planner(stats, PlannerConfig(join_strategy=forced))
            physical = planner.plan(logical)
            found = TestScanSelection._find(self, physical, klass)
            assert found is not None, forced

    def test_cost_weights_change_join_choice(self, stats_env):
        """Latency-dominant costing tolerates shipping (parallel waves);
        message-dominant costing prefers probing a selective left side —
        the optimizer's answer depends on what the cost model optimizes,
        exactly the "beneficial in special situations" story of §3."""
        store, stats = stats_env
        vql = "SELECT ?g WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?n = 'x'}"
        logical = rewrite(build_plan(parse(vql)))
        by_messages = Planner(
            stats, PlannerConfig(latency_weight=0.0, message_weight=1.0)
        ).plan(logical)
        assert TestScanSelection._find(self, by_messages, IndexNestedLoopJoin)
        by_latency = Planner(
            stats, PlannerConfig(latency_weight=1.0, message_weight=0.0)
        ).plan(logical)
        # Latency-optimal plans avoid the sequential probe wave: either ship
        # both sides in parallel or answer the star in one OID-index pass.
        from repro.physical import OidClusterScan

        assert TestScanSelection._find(self, by_latency, ShipJoin) or (
            TestScanSelection._find(self, by_latency, OidClusterScan)
        )
        assert not TestScanSelection._find(self, by_latency, IndexNestedLoopJoin)

    def test_invalid_forced_strategy_raises(self, stats_env):
        store, stats = stats_env
        # Cartesian product: rehash/index-nl are inapplicable.
        vql = "SELECT ?x WHERE {(?a,'series',?x) (?b,'areaname',?y)}"
        planner = Planner(stats, PlannerConfig(join_strategy="index-nl"))
        with pytest.raises(PlanningError):
            planner.plan(rewrite(build_plan(parse(vql))))

    def test_forced_range_algorithm_propagates(self, stats_env):
        store, stats = stats_env
        planner = Planner(stats, PlannerConfig(range_algorithm="sequential"))
        physical = planner.plan(rewrite(build_plan(parse(
            "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v > 30}"
        ))))
        scan = TestScanSelection._find(self, physical, IndexRange)
        assert (scan.strategy, scan.algorithm) == ("av-range", "sequential")


class TestPlanExecution:
    """Planned physical plans must execute correctly end to end."""

    def test_all_forced_join_strategies_same_answer(self, stats_env):
        import random

        from repro.physical.base import ExecutionContext

        store, stats = stats_env
        ctx = ExecutionContext(store, store.pnet.peers[0], random.Random(1))
        logical = rewrite(build_plan(parse(TestJoinSelection.JOIN_QUERY)))
        answers = []
        for forced in ("ship", "index-nl", "rehash"):
            planner = Planner(stats, PlannerConfig(join_strategy=forced))
            physical = planner.plan(logical)
            result = physical.execute(ctx)
            answers.append(
                sorted(
                    tuple(sorted((k, repr(v)) for k, v in row.items()))
                    for row in result.all_bindings()
                )
            )
        assert answers[0] == answers[1] == answers[2]
