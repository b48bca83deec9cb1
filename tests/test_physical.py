"""Physical operators: every strategy must agree with the reference executor
and differ only in cost."""

import random

import pytest

from repro.algebra import build_plan, execute_reference, rewrite
from repro.algebra.expressions import satisfies
from repro.bench import ConferenceWorkload
from repro.errors import PlanningError
from repro.algebra.operators import PatternScan
from repro.optimizer import CatalogStatistics, Planner
from repro.physical import (
    ExecutionContext,
    IndexNestedLoopJoin,
    IndexRange,
    NaiveSimilarityJoin,
    OidClusterScan,
    OpResult,
    QGramScan,
    QGramSimilarityJoin,
    RehashJoin,
    ShipJoin,
    SkylineOp,
    TopNOp,
)
from repro.physical.scans import SCAN_NAMES
from repro.triples import DistributedTripleStore, Triple
from repro.triples.index import (
    INDEX_TAG,
    IndexKind,
    av_attribute_range,
    av_index_range,
    av_key,
    av_string_prefix_range,
    av_value_range,
    oid_key,
    probe_index,
    probe_key,
    probe_variable,
    v_key,
    v_string_prefix_range,
    v_value_range,
)
from repro.pgrid import build_network
from repro.pgrid.keys import KeyRange
from repro.vql import parse
from repro.vql.ast import Literal, OrderItem, SkylineItem, TriplePattern, Var


@pytest.fixture(scope="module")
def env():
    """A loaded distributed store + its ground-truth triples + a context."""
    pnet = build_network(32, replication=2, seed=77, split_by="population")
    store = DistributedTripleStore(pnet, enable_qgram_index=True)
    workload = ConferenceWorkload(num_authors=25, num_publications=50, num_conferences=10, seed=77)
    triples = workload.all_triples()
    store.bulk_insert(triples)
    ctx = ExecutionContext(
        store=store,
        coordinator=pnet.peers[0],
        rng=random.Random(77),
    )
    return store, triples, ctx


def _canonical(rows):
    """Order-insensitive row comparison form (dict repr depends on insertion)."""
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


def reference_rows(vql, triples):
    return _canonical(execute_reference(rewrite(build_plan(parse(vql))), triples))


def rows_of(result: OpResult):
    return _canonical(result.all_bindings())


def attribute_scan(pattern):
    """Scan every triple of the pattern's (literal) predicate."""
    key_range = av_attribute_range(str(pattern.predicate.value))
    return IndexRange(pattern, (), key_range, "attribute-scan")


def planned_scan(store, vql):
    """The scan the planner picks for the single pattern of ``vql``."""
    node = rewrite(build_plan(parse(vql)))
    while not isinstance(node, PatternScan):
        (node,) = node.children()
    planner = Planner(CatalogStatistics.from_store(store), qgram_available=True)
    return planner.plan_scan(node).op


def index_of(place) -> IndexKind:
    """The one index whose key subtree holds ``place``, a key or a KeyRange.

    Stored values carry no index of their own: a reader learns an entry's
    index only from where it read, so every key and range must stay inside
    exactly one tag's subtree.
    """

    def holds(subtree: KeyRange) -> bool:
        if isinstance(place, str):
            return subtree.contains(place)
        below_hi = subtree.canonical_hi is None or (
            place.canonical_hi is not None and place.canonical_hi <= subtree.canonical_hi
        )
        return subtree.canonical_lo <= place.canonical_lo and below_hi

    (kind,) = [kind for kind, tag in INDEX_TAG.items() if holds(KeyRange.subtree(tag))]
    return kind


@pytest.fixture()
def reads(env, monkeypatch):
    """Every key and KeyRange the operators read from ``env``'s overlay."""
    import repro.physical.scans as scans

    store, _triples, _ctx = env
    pnet = store.pnet
    places = []

    def recording(real, read_places):
        def read(*args, **kwargs):
            places.extend(read_places(*args))
            return real(*args, **kwargs)

        return read

    monkeypatch.setattr(pnet, "lookup", recording(pnet.lookup, lambda key, *_: [key]))
    monkeypatch.setattr(pnet, "lookup_at", recording(pnet.lookup_at, lambda key, *_: [key]))
    monkeypatch.setattr(pnet, "lookup_many", recording(pnet.lookup_many, lambda keys, *_: keys))
    for name in ("range_query_shower_groups", "range_query_sequential_groups"):
        ranged = recording(getattr(scans, name), lambda _pnet, key_range, *_: [key_range])
        monkeypatch.setattr(scans, name, ranged)
    return places


class TestScans:
    def test_oid_lookup(self, env):
        store, triples, ctx = env
        some_oid = triples[0].oid
        scan = planned_scan(store, f"SELECT ?p,?o WHERE {{('{some_oid}',?p,?o)}}")
        assert scan.strategy == "oid-lookup"
        assert scan.key == oid_key(some_oid)
        expected = [{"p": t.attribute, "o": t.value} for t in triples if t.oid == some_oid]
        assert rows_of(scan.execute(ctx)) == _canonical(expected)

    def test_av_lookup(self, env):
        store, triples, ctx = env
        year = next(t.value for t in triples if t.attribute == "year")
        scan = planned_scan(store, f"SELECT ?s WHERE {{(?s,'year',{year})}}")
        assert scan.strategy == "av-lookup"
        assert scan.key == av_key("year", year)
        expected = [{"s": t.oid} for t in triples if t.attribute == "year" and t.value == year]
        assert rows_of(scan.execute(ctx)) == _canonical(expected)

    def test_av_range(self, env):
        store, triples, ctx = env
        scan = planned_scan(store, "SELECT ?s,?v WHERE {(?s,'age',?v) FILTER ?v >= 30 AND ?v < 40}")
        assert scan.strategy == "av-range"
        assert scan.key_range == av_value_range("age", 30, 40, True, False)
        expected = [
            {"s": t.oid, "v": t.value}
            for t in triples
            if t.attribute == "age" and 30 <= t.value < 40
        ]
        assert rows_of(scan.execute(ctx)) == _canonical(expected)

    def test_av_range_sequential_same_rows(self, env):
        store, _triples, ctx = env
        pattern = TriplePattern(Var("s"), Literal("age"), Var("v"))
        key_range = av_value_range("age", 30, 50)
        shower = IndexRange(pattern, (), key_range, "av-range", "shower")
        sequential = IndexRange(pattern, (), key_range, "av-range", "sequential")
        assert rows_of(shower.execute(ctx)) == rows_of(sequential.execute(ctx))

    def test_no_range_algorithm_runs_the_shower(self, env):
        store, _triples, ctx = env
        pattern = TriplePattern(Var("s"), Var("a"), Var("v"))

        def cost(algorithm):
            scan = IndexRange(pattern, (), KeyRange("01", "10"), "attribute-scan", algorithm)
            trace = scan.execute(ExecutionContext(store, ctx.coordinator, random.Random(7))).trace
            return trace.messages, trace.hops

        assert cost(None) == cost("shower") != cost("sequential")

    def test_av_prefix(self, env):
        store, triples, ctx = env
        scan = planned_scan(
            store, "SELECT ?s,?v WHERE {(?s,'confname',?v) FILTER prefix(?v,'ICDE')}"
        )
        assert scan.strategy == "av-prefix"
        assert scan.key_range == av_string_prefix_range("confname", "ICDE")
        expected = [
            {"s": t.oid, "v": t.value}
            for t in triples
            if t.attribute == "confname" and str(t.value).startswith("ICDE")
        ]
        assert rows_of(scan.execute(ctx)) == _canonical(expected)

    def test_attribute_scan(self, env):
        store, triples, ctx = env
        scan = planned_scan(store, "SELECT ?s,?v WHERE {(?s,'series',?v)}")
        assert scan.strategy == "attribute-scan"
        assert scan.key_range == av_attribute_range("series")
        expected = [{"s": t.oid, "v": t.value} for t in triples if t.attribute == "series"]
        assert rows_of(scan.execute(ctx)) == _canonical(expected)

    def test_v_lookup(self, env):
        store, triples, ctx = env
        value = next(t.value for t in triples if t.attribute == "series")
        scan = planned_scan(store, f"SELECT ?s,?p WHERE {{(?s,?p,'{value}')}}")
        assert (scan.strategy, scan.key) == ("v-lookup", v_key(value))
        expected = [{"s": t.oid, "p": t.attribute} for t in triples if t.value == value]
        assert rows_of(scan.execute(ctx)) == _canonical(expected)

    def test_v_range(self, env):
        store, triples, ctx = env
        scan = planned_scan(store, "SELECT * WHERE {(?s,?p,?v) FILTER ?v > 30 AND ?v <= 40}")
        assert scan.strategy == "v-range"
        assert scan.key_range == v_value_range(30, 40, False, True)
        expected = [
            {"s": t.oid, "p": t.attribute, "v": t.value}
            for t in triples
            if isinstance(t.value, (int, float)) and 30 < t.value <= 40
        ]
        assert rows_of(scan.execute(ctx)) == _canonical(expected)

    def test_v_prefix(self, env):
        store, triples, ctx = env
        scan = planned_scan(store, "SELECT * WHERE {(?s,?p,?v) FILTER prefix(?v,'ICDE')}")
        assert scan.strategy == "v-prefix"
        assert scan.key_range == v_string_prefix_range("ICDE")
        expected = [
            {"s": t.oid, "p": t.attribute, "v": t.value}
            for t in triples
            if isinstance(t.value, str) and t.value.startswith("ICDE")
        ]
        assert rows_of(scan.execute(ctx)) == _canonical(expected)

    def test_broadcast_scan_returns_everything(self, env):
        store, triples, ctx = env
        scan = planned_scan(store, "SELECT * WHERE {(?s,?p,?o)}")
        assert scan.strategy == "broadcast"
        assert scan.key_range == av_index_range()
        assert scan.execute(ctx).total_rows() == len(triples)

    def test_explain_keeps_strategy_names(self, env):
        store, _triples, _ctx = env
        scan = planned_scan(store, "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v >= 30 AND ?v < 40}")
        assert scan.explain() == "AvRangeScan (?s,'age',?v) | ?v >= 30 AND ?v < 40"
        lookup = planned_scan(store, "SELECT ?s WHERE {(?s,'age',30)}")
        assert lookup.explain() == "AvLookupScan (?s,'age',30)"

    def test_qgram_scan_matches_filtered_attribute_scan(self, env):
        store, triples, ctx = env
        target = next(str(t.value) for t in triples if t.attribute == "published_in")
        pattern = TriplePattern(Var("s"), Literal("published_in"), Var("v"))
        qgram = QGramScan(pattern, (), text=target, max_distance=2).execute(ctx)
        from repro.strings import edit_distance

        expected = [
            {"s": t.oid, "v": t.value}
            for t in triples
            if t.attribute == "published_in"
            and edit_distance(str(t.value), target) <= 2
        ]
        assert rows_of(qgram) == _canonical(expected)

    @pytest.mark.parametrize(
        "condition", ["edist(?v,'{t}') < 3", "edist(?v,'{t}') = 1", "2 > edist('{t}',?v)"]
    )
    def test_qgram_scan_computes_each_distance_once(self, env, monkeypatch, condition):
        from repro.algebra import expressions

        store, triples, ctx = env
        target = next(str(t.value) for t in triples if t.attribute == "published_in")
        condition = condition.format(t=target)
        scan = planned_scan(store, f"SELECT * WHERE {{(?s,'published_in',?v) FILTER {condition}}}")
        assert isinstance(scan, QGramScan)
        unfiltered = QGramScan(scan.pattern, (), scan.text, scan.max_distance).execute(ctx)
        expected = [
            row
            for row in unfiltered.all_bindings()
            if all(satisfies(f, row) for f in scan.filters)
        ]
        calls = []
        real = expressions.edit_distance
        monkeypatch.setattr(
            expressions, "edit_distance", lambda a, b: calls.append((a, b)) or real(a, b)
        )
        assert scan.execute(ctx).all_bindings() == expected  # rows and their order
        assert calls == []

    def test_qgram_scan_message_bound(self, env):
        import math

        store, triples, ctx = env
        target = next(str(t.value) for t in triples if t.attribute == "published_in")
        pattern = TriplePattern(Var("s"), Literal("published_in"), Var("v"))
        qgram = QGramScan(pattern, (), text=target, max_distance=1).execute(ctx)
        # O(|grams| * log N): each gram is one parallel lookup + reply.
        groups = len(store.pnet.leaf_groups())
        grams = len(target) + 3 - 1
        assert qgram.trace.messages <= grams * (2 * math.log2(groups) + 3)
        # Latency stays that of ONE lookup (parallel probes).
        assert qgram.trace.hops <= 2 * math.log2(groups) + 3

    def test_qgram_scan_falls_back_when_filter_vacuous(self, env):
        store, triples, ctx = env
        pattern = TriplePattern(Var("s"), Literal("series"), Var("v"))
        # k too large for the string length: the count filter is vacuous.
        result = QGramScan(pattern, (), text="IC", max_distance=5).execute(ctx)
        expected = [{"s": t.oid, "v": t.value} for t in triples if t.attribute == "series"]
        assert result.total_rows() == len(expected)

    def test_scan_requires_correct_literals(self, env):
        store, _triples, ctx = env
        var_pattern = TriplePattern(Var("s"), Var("p"), Var("o"))
        with pytest.raises(PlanningError):
            QGramScan(var_pattern, (), text="ICDE", max_distance=1).execute(ctx)
        with pytest.raises(PlanningError):
            probe_key(var_pattern, "p", "age")  # no index is keyed by a predicate
        numeric_subject = planned_scan(store, "SELECT ?p WHERE {(42,?p,?o)}")
        assert numeric_subject.key == oid_key("42")  # OIDs are strings: it matches none
        assert numeric_subject.execute(ctx).groups == []


class TestIndexSubtrees:
    """The invariant that lets a stored value be the bare triple: every key
    and range an operator reads lies inside exactly one index's subtree."""

    STRATEGIES = [
        ("oid-lookup", "SELECT ?p,?o WHERE {('{oid}',?p,?o)}", IndexKind.OID),
        ("av-lookup", "SELECT ?s WHERE {(?s,'age',30)}", IndexKind.AV),
        ("v-lookup", "SELECT ?s,?p WHERE {(?s,?p,'ICDE')}", IndexKind.V),
        ("av-range", "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v >= 30 AND ?v < 40}", IndexKind.AV),
        ("av-range", "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v > 30}", IndexKind.AV),
        ("av-range", "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v <= 40}", IndexKind.AV),
        ("av-range", "SELECT ?s WHERE {(?s,'age',?v) FILTER ?v = 30}", IndexKind.AV),
        (
            "av-prefix",
            "SELECT ?s WHERE {(?s,'confname',?v) FILTER prefix(?v,'ICDE')}",
            IndexKind.AV,
        ),
        ("attribute-scan", "SELECT ?s WHERE {(?s,'series',?v)}", IndexKind.AV),
        ("v-range", "SELECT * WHERE {(?s,?p,?v) FILTER ?v > 30 AND ?v <= 40}", IndexKind.V),
        ("v-range", "SELECT * WHERE {(?s,?p,?v) FILTER ?v > 30}", IndexKind.V),
        ("v-range", "SELECT * WHERE {(?s,?p,?v) FILTER ?v < 'M'}", IndexKind.V),
        ("v-prefix", "SELECT * WHERE {(?s,?p,?v) FILTER prefix(?v,'ICDE')}", IndexKind.V),
        ("broadcast", "SELECT * WHERE {(?s,?p,?o)}", IndexKind.AV),
    ]

    def test_every_strategy_is_covered(self):
        assert {strategy for strategy, _vql, _kind in self.STRATEGIES} == set(SCAN_NAMES)

    @pytest.mark.parametrize("strategy, vql, kind", STRATEGIES)
    @pytest.mark.parametrize("algorithm", ["shower", "sequential"])
    def test_scan_reads_one_index(self, env, reads, strategy, vql, kind, algorithm):
        store, triples, ctx = env
        scan = planned_scan(store, vql.replace("{oid}", triples[0].oid))
        assert scan.strategy == strategy
        planned = scan.key if hasattr(scan, "key") else scan.key_range
        assert index_of(planned) is kind
        if hasattr(scan, "algorithm"):
            scan.algorithm = algorithm
        scan.execute(ctx)
        assert reads and all(index_of(place) is kind for place in reads)

    @pytest.mark.parametrize("max_distance, kind", [(1, IndexKind.QGRAM), (5, IndexKind.AV)])
    def test_qgram_scan_reads_one_index(self, env, reads, max_distance, kind):
        """Gram probes read the q-gram index; the short-query fallback the
        attribute's A#v subtree."""
        _store, triples, ctx = env
        target = next(str(t.value) for t in triples if t.attribute == "published_in")
        pattern = TriplePattern(Var("s"), Literal("published_in"), Var("v"))
        scan = QGramScan(pattern, (), text=target[:3], max_distance=max_distance)
        scan.execute(ctx)
        assert reads and all(index_of(place) is kind for place in reads)

    def test_oid_cluster_scan_reads_the_oid_index(self, env, reads):
        _store, _triples, ctx = env
        patterns = (
            TriplePattern(Var("a"), Literal("name"), Var("n")),
            TriplePattern(Var("a"), Literal("age"), Var("g")),
        )
        OidClusterScan(patterns, (), "a").execute(ctx)
        assert reads and all(index_of(place) is IndexKind.OID for place in reads)

    @pytest.mark.parametrize(
        "right, kind",
        [
            ("(?a,'age',?g)", IndexKind.OID),
            ("(?p,'title',?t)", IndexKind.AV),
            ("(?p,?q,?t)", IndexKind.V),
        ],
    )
    def test_join_probes_read_one_index(self, env, reads, right, kind):
        _store, _triples, ctx = env
        left = attribute_scan(TriplePattern(Var("a"), Literal("has_published"), Var("t")))
        (right_pattern,) = parse(f"SELECT * WHERE {{{right}}}").groups[0].patterns
        IndexNestedLoopJoin(left, left, right_pattern=right_pattern).execute(ctx)
        scanned, *probed = reads
        assert index_of(scanned) is IndexKind.AV
        assert probed and all(index_of(place) is kind for place in probed)


class TestJoinStrategies:
    @pytest.fixture()
    def join_parts(self, env):
        _store, triples, ctx = env
        left = attribute_scan(TriplePattern(Var("a"), Literal("has_published"), Var("t")))
        right_pattern = TriplePattern(Var("p"), Literal("title"), Var("t"))
        right = attribute_scan(right_pattern)
        expected = reference_rows(
            "SELECT * WHERE {(?a,'has_published',?t) (?p,'title',?t)}", triples
        )
        return ctx, left, right, right_pattern, expected

    def test_ship_join(self, join_parts):
        ctx, left, right, _rp, expected = join_parts
        result = ShipJoin(left, right).execute(ctx)
        assert rows_of(result) == expected

    def test_index_nl_join(self, join_parts):
        ctx, left, right, right_pattern, expected = join_parts
        result = IndexNestedLoopJoin(left, right, right_pattern=right_pattern).execute(ctx)
        assert rows_of(result) == expected

    def test_rehash_join(self, join_parts):
        ctx, left, right, _rp, expected = join_parts
        result = RehashJoin(left, right).execute(ctx)
        assert rows_of(result) == expected

    def test_strategies_have_different_costs(self, join_parts):
        ctx, left, right, right_pattern, _expected = join_parts
        ship = ShipJoin(left, right).execute(ctx)
        nl = IndexNestedLoopJoin(left, right, right_pattern=right_pattern).execute(ctx)
        rehash = RehashJoin(left, right).execute(ctx)
        costs = {ship.trace.messages, nl.trace.messages, rehash.trace.messages}
        assert len(costs) >= 2, "strategies should differ in traffic"

    def test_join_on_subject_via_oid_probe(self, env):
        _store, triples, ctx = env
        left = attribute_scan(TriplePattern(Var("a"), Literal("name"), Var("n")))
        right_pattern = TriplePattern(Var("a"), Literal("age"), Var("g"))
        result = IndexNestedLoopJoin(
            left, attribute_scan(right_pattern), right_pattern=right_pattern
        ).execute(ctx)
        expected = reference_rows("SELECT * WHERE {(?a,'name',?n) (?a,'age',?g)}", triples)
        assert rows_of(result) == expected

    def test_oid_probe_coerces_non_string_join_values(self):
        """A non-string join value probes the OID index under its string
        form without error, and then matches no OID — the reference join's
        answer, since OIDs are strings."""
        pnet = build_network(16, replication=2, seed=78, split_by="population")
        store = DistributedTripleStore(pnet)
        triples = [
            Triple("42", "name", "answer-tuple"),
            Triple("q:1", "answer", 42),
            Triple("q:2", "answer", "42"),
        ]
        store.bulk_insert(triples)
        ctx = ExecutionContext(store, pnet.peers[0], random.Random(78))
        left = attribute_scan(TriplePattern(Var("q"), Literal("answer"), Var("x")))
        right_pattern = TriplePattern(Var("x"), Literal("name"), Var("n"))
        result = IndexNestedLoopJoin(
            left, attribute_scan(right_pattern), right_pattern=right_pattern
        ).execute(ctx)
        assert result.all_bindings() == [{"q": "q:2", "x": "42", "n": "answer-tuple"}]
        assert rows_of(result) == reference_rows(
            "SELECT * WHERE {(?q,'answer',?x) (?x,'name',?n)}", triples
        )

    def test_rehash_falls_back_on_cartesian(self, env):
        _store, _triples, ctx = env
        left = attribute_scan(TriplePattern(Var("a"), Literal("series"), Var("x")))
        right = attribute_scan(TriplePattern(Var("b"), Literal("areaname"), Var("y")))
        result = RehashJoin(left, right).execute(ctx)
        ship = ShipJoin(left, right).execute(ctx)
        assert rows_of(result) == rows_of(ship)

    def test_rehash_fallback_costs_what_ship_join_costs(self):
        """With no shared variable the rehash join ships the inputs it already
        ran, so on the same overlay it sends exactly ShipJoin's messages and
        its trace counts every one of them."""
        left = attribute_scan(TriplePattern(Var("a"), Literal("series"), Var("x")))
        right = attribute_scan(TriplePattern(Var("b"), Literal("confname"), Var("y")))
        runs = []
        for join in (RehashJoin(left, right), ShipJoin(left, right)):
            pnet = build_network(32, replication=2, seed=77, split_by="population")
            store = DistributedTripleStore(pnet)
            workload = ConferenceWorkload(
                num_authors=25, num_publications=50, num_conferences=10, seed=77
            )
            store.bulk_insert(workload.all_triples())
            ctx = ExecutionContext(store=store, coordinator=pnet.peers[0], rng=random.Random(77))
            with pnet.net.frame() as frame:
                result = join.execute(ctx)
            assert result.trace.messages == frame.messages
            runs.append((frame.messages, dict(frame.by_kind), rows_of(result)))
        assert len(runs[0][2]) == 100
        assert runs[0] == runs[1]


class TestProbeKey:
    """One rule picks the index a bound variable probes, for the index-NL
    join and the MQP probe step alike."""

    @pytest.mark.parametrize(
        "pattern, variable, value, expected",
        [
            pytest.param("(?x,'name',?n)", "x", "42", (oid_key("42"), "oid"), id="subject"),
            pytest.param("(?x,'name',?n)", "x", 42, (oid_key("42"), "oid"), id="subject-numeric"),
            pytest.param(
                "(?q,'age',?x)", "x", 42, (av_key("age", 42), "av"), id="object-literal-predicate"
            ),
            pytest.param("(?q,?p,?x)", "x", 42, (v_key(42), "v"), id="object-variable-predicate"),
            pytest.param("(?x,?p,?x)", "x", "a", (oid_key("a"), "oid"), id="subject-first"),
        ],
    )
    def test_probe_key(self, pattern, variable, value, expected):
        (pattern,) = parse(f"SELECT * WHERE {{{pattern}}}").groups[0].patterns
        key, kind = expected
        assert probe_key(pattern, variable, value) == key
        assert index_of(key) is probe_index(pattern, variable) is IndexKind(kind)

    def test_bound_subject_is_probed_before_bound_object(self):
        pattern = TriplePattern(Var("a"), Literal("age"), Var("b"))
        assert probe_variable(pattern, {"a", "b"}) == "a"
        assert probe_variable(pattern, {"b", "c"}) == "b"
        assert probe_variable(pattern, {"c"}) is None

    @pytest.fixture(scope="class")
    def unistore(self):
        from repro import UniStore

        store = UniStore.build(num_peers=16, seed=78)
        triples = [Triple(str(40 + i), "name", f"n{i}") for i in range(12)]
        triples += [Triple(f"p:{i}", "age", 40 + i) for i in range(12)]
        triples += [
            Triple("q:1", "answer", 42),
            Triple("q:2", "answer", "43"),
            Triple("q:3", "answer", 44.0),
        ]
        store.store.bulk_insert(triples)
        return store

    @pytest.mark.parametrize(
        "right, method",
        [("(?x,'name',?n)", "probe-oid"), ("(?y,'age',?x)", "probe-av"), ("(?y,?p,?x)", "probe-v")],
    )
    def test_index_nl_and_mqp_equal_reference(self, unistore, right, method):
        from repro.optimizer import PlannerConfig

        vql = f"SELECT * WHERE {{(?q,'answer',?x) {right}}}"
        reference = _canonical(unistore.execute(vql, mode="reference").rows)
        index_nl = unistore.execute(vql, config=PlannerConfig(join_strategy="index-nl"))
        mqp = unistore.execute(vql, mode="mqp")
        assert "IndexNestedLoopJoin" in index_nl.plan
        assert f"mqp: {method} " in mqp.plan
        assert _canonical(index_nl.rows) == reference
        assert _canonical(mqp.rows) == reference


class TestSimilarityJoins:
    def test_naive_and_qgram_agree(self, env):
        _store, triples, ctx = env
        left = attribute_scan(TriplePattern(Var("p"), Literal("published_in"), Var("c")))
        right_pattern = TriplePattern(Var("k"), Literal("confname"), Var("cn"))
        naive = NaiveSimilarityJoin(
            left, attribute_scan(right_pattern), Var("c"), Var("cn"), 1
        ).execute(ctx)
        qgram = QGramSimilarityJoin(
            left,
            right_pattern=right_pattern,
            left_variable=Var("c"),
            right_variable=Var("cn"),
            max_distance=1,
        ).execute(ctx)
        assert rows_of(naive) == rows_of(qgram)
        assert naive.total_rows() > 0  # typos guarantee fuzzy matches


class TestRanking:
    def test_topn_prune_equals_naive(self, env):
        _store, _triples, ctx = env
        child = attribute_scan(TriplePattern(Var("a"), Literal("age"), Var("v")))
        items = (OrderItem(Var("v"), descending=True),)
        pruned = TopNOp(child, items, n=5, prune=True).execute(ctx)
        naive = TopNOp(child, items, n=5, prune=False).execute(ctx)
        assert [r["v"] for r in pruned.all_bindings()] == [r["v"] for r in naive.all_bindings()]

    def test_topn_prune_ships_fewer_bytes(self, env):
        store, _triples, ctx = env
        child = attribute_scan(TriplePattern(Var("a"), Literal("age"), Var("v")))
        items = (OrderItem(Var("v")),)
        before = store.pnet.net.stats.bytes
        TopNOp(child, items, n=2, prune=True).execute(ctx)
        pruned_bytes = store.pnet.net.stats.bytes - before
        before = store.pnet.net.stats.bytes
        TopNOp(child, items, n=2, prune=False).execute(ctx)
        naive_bytes = store.pnet.net.stats.bytes - before
        assert pruned_bytes < naive_bytes

    def test_skyline_prune_equals_naive(self, env):
        _store, triples, ctx = env
        base_left = attribute_scan(TriplePattern(Var("a"), Literal("age"), Var("g")))
        base_right_pattern = TriplePattern(Var("a"), Literal("num_of_pubs"), Var("n"))
        child = IndexNestedLoopJoin(
            base_left, attribute_scan(base_right_pattern), right_pattern=base_right_pattern
        )
        items = (SkylineItem(Var("g"), maximize=False), SkylineItem(Var("n"), maximize=True))
        pruned = SkylineOp(child, items, prune=True).execute(ctx)
        naive = SkylineOp(child, items, prune=False).execute(ctx)
        assert rows_of(pruned) == rows_of(naive)

    def test_skyline_result_is_nondominated(self, env):
        from repro.algebra.semantics import dominates, skyline_values

        _store, _triples, ctx = env
        child = attribute_scan(TriplePattern(Var("a"), Literal("age"), Var("v")))
        items = (SkylineItem(Var("v"), maximize=False),)
        result = SkylineOp(child, items).execute(ctx)
        vectors = [skyline_values(r, items) for r in result.all_bindings()]
        for a in vectors:
            assert not any(dominates(b, a, items) for b in vectors)
