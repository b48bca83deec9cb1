"""Per-peer tuple index and per-value filter verdicts.

The star scan over the tuple index must give the rows, in the same order, of
evaluating the star on every tuple of every peer's OID postings; filter
verdicts remembered per value must equal evaluating every row; and a cached
index must never outlive a change to its peer's store.
"""

import contextlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import UniStore
from repro.algebra.expressions import satisfies
from repro.algebra.semantics import match_pattern
from repro.physical import ExecutionContext, OidClusterScan
from repro.physical.base import FilterCheck
from repro.pgrid import build_network
from repro.pgrid.keys import KeyRange
from repro.pgrid.range_query import range_query_shower_groups
from repro.triples import (
    INDEX_TAG,
    DistributedTripleStore,
    IndexKind,
    Triple,
    oid_key,
)
from repro.triples.local_index import tuple_index
from repro.vql.ast import (
    BoolOp,
    Comparison,
    FunctionCall,
    Literal,
    Not,
    TriplePattern,
    Var,
    expression_variables,
)

# Code points above 255 encode like 255, so "aĀ" and "aā" share one OID key
# and their postings interleave under it.
OIDS = ["a", "aĀ", "aā", "m", "mĀ", "z"]
ATTRIBUTES = ["name", "age", "tag"]
VALUES = ["x", "xy", "y", 0, 1, 1.0, 2, 2.5]
OID_SUBTREE = KeyRange.subtree(INDEX_TAG[IndexKind.OID])
# Variables come up more often than literals, so most stars produce rows.
OBJECTS = [Var("o1"), Var("o2")] * 3 + [Var("s")]
OBJECTS += [Literal(value) for value in ("x", 1, 1.0, True, 2.5)]

FILTERS = [
    Comparison(">", Var("o1"), Literal(1)),
    Comparison("<", Var("o1"), Literal(1.0)),
    Comparison("=", Var("o1"), Literal(True)),
    Comparison("=", Var("o2"), Literal("x")),
    FunctionCall("prefix", (Var("o1"), Literal("x"))),
    Comparison("<=", FunctionCall("edist", (Var("o2"), Literal("xy"))), Literal(1)),
    Not(Comparison("=", Var("s"), Literal("m"))),
    Comparison("=", Var("unbound"), Literal(1)),
    # over several variables
    Comparison("=", Var("o1"), Var("o2")),
    BoolOp(
        "or",
        (Comparison(">=", Var("o1"), Literal(2)), Comparison("=", Var("p"), Literal("tag"))),
    ),
    # over none
    Comparison("=", Literal(1), Literal(1.0)),
]


@pytest.fixture(scope="module")
def overlay():
    keys = [oid_key(oid) for oid in OIDS] * 3
    pnet = build_network(8, data_keys=keys, replication=1, seed=3, split_by="data")
    return DistributedTripleStore(pnet)


def per_entry_star(patterns, filters, groups):
    """Oracle: the star scan that regroups every peer's OID postings per query."""
    result = []
    for peer_id, entries in groups:
        by_oid: dict[str, list[Triple]] = {}
        seen = set()
        for entry in entries:
            triple = entry.value
            if not isinstance(triple, Triple) or triple.as_tuple() in seen:
                continue
            seen.add(triple.as_tuple())
            by_oid.setdefault(triple.oid, []).append(triple)
        bindings = []
        for triples in by_oid.values():
            bindings.extend(_star_rows(patterns, filters, triples))
        if bindings:
            result.append((peer_id, bindings))
    return result


def _star_rows(patterns, filters, triples):
    partial = [{}]
    for pattern in patterns:
        matches = [b for t in triples if (b := match_pattern(pattern, t)) is not None]
        merged = []
        for base in partial:
            for match in matches:
                if all(base.get(k, v) == v for k, v in match.items() if k in base):
                    merged.append({**base, **match})
        partial = merged
    return [b for b in partial if all(satisfies(f, b) for f in filters)]


def _exact(groups):
    """Groups with each row as its repr: tells 1 from 1.0 and key order apart."""
    return [(peer_id, [repr(row) for row in rows]) for peer_id, rows in groups]


triples_st = st.lists(
    st.builds(Triple, st.sampled_from(OIDS), st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES)),
    min_size=10,
    max_size=40,
)
patterns_st = st.lists(
    st.builds(
        TriplePattern,
        st.just(Var("s")),
        st.one_of(st.sampled_from(ATTRIBUTES).map(Literal), st.just(Var("p"))),
        st.sampled_from(OBJECTS),
    ),
    min_size=1,
    max_size=3,
)


def _assert_matches_oracle(overlay, triples, patterns, filters, seed):
    for peer in overlay.pnet.peers:
        peer.store.clear()
    overlay.bulk_insert(triples)
    start = overlay.pnet.peers[0]
    groups, _trace, _complete = range_query_shower_groups(
        overlay.pnet, OID_SUBTREE, start=start, rng=random.Random(seed)
    )
    expected = _exact(per_entry_star(patterns, filters, groups))
    scan = OidClusterScan(patterns=tuple(patterns), filters=tuple(filters), subject_variable="s")
    for _ in range(2):  # the second run answers from the cached indexes
        ctx = ExecutionContext(overlay, start, random.Random(seed))
        assert _exact(scan.execute(ctx).groups) == expected
    return expected


class TestStarScanAgainstPerEntryOracle:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        triples=triples_st,
        patterns=patterns_st,
        filters=st.lists(st.sampled_from(FILTERS), max_size=2),
        seed=st.integers(0, 3),
    )
    def test_rows_and_order_equal(self, overlay, triples, patterns, filters, seed):
        _assert_matches_oracle(overlay, triples, patterns, filters, seed)

    def test_filtered_candidates_keep_ordinal_order(self, overlay):
        # Value order (2 before 1) differs from OID order on the shared key.
        triples = [
            Triple(oid, attribute, value)
            for oid, age in (("a", 2), ("aĀ", 1), ("aā", 2))
            for attribute, value in (("age", age), ("name", oid))
        ]
        star = [
            TriplePattern(Var("s"), Literal("age"), Var("o1")),
            TriplePattern(Var("s"), Literal("name"), Var("o2")),
        ]
        rows = _assert_matches_oracle(overlay, triples, star, [FILTERS[0]], seed=0)
        assert sum(len(group) for _peer, group in rows) == 2
        rows = _assert_matches_oracle(overlay, triples, star, [FILTERS[2]], seed=0)
        assert rows == []  # `?o1 = true` holds for no number

    def test_index_lists_follow_ordinals_across_a_shared_key(self, overlay):
        for peer in overlay.pnet.peers:
            peer.store.clear()
        # "aĀ" is seen first, but "aā" gets 'age' first.
        overlay.bulk_insert(
            [
                Triple("aĀ", "name", "x"),
                Triple("aā", "age", 1),
                Triple("aā", "name", "x"),
                Triple("aĀ", "age", 1.0),
                Triple("aĀ", "age", 1),
            ]
        )
        peer = next(p for p in overlay.pnet.peers if p.store.scan(KeyRange.subtree(oid_key("a"))))
        entries = peer.store.scan(OID_SUBTREE)
        index = tuple_index(peer.store, entries)
        assert list(index.triples) == ["aĀ", "aā"]
        assert index.by_attribute["age"] == ["aĀ", "aā"]
        assert index.values["age"] == {1.0: ["aĀ", "aā"]}  # 1 and 1.0 are one key
        assert [t.value for t in index.attributes["aĀ"]["age"]] == [1.0]  # (aĀ, age, 1) dedups
        assert tuple_index(peer.store, entries) is index
        peer.store.delete(entries[0].key, entries[0].item_id)
        assert tuple_index(peer.store, peer.store.scan(OID_SUBTREE)) is not index


class TestFilterCheck:
    @given(
        filters=st.lists(st.sampled_from(FILTERS), max_size=4),
        rows=st.lists(
            st.dictionaries(
                st.sampled_from(["s", "o1", "o2", "p"]),
                st.sampled_from(VALUES + OIDS + ATTRIBUTES),
            ),
            max_size=12,
        ),
    )
    def test_equals_evaluating_every_row(self, filters, rows):
        check = FilterCheck(filters)
        for row in rows:
            assert check(row) == all(satisfies(f, row) for f in filters)
        for variable in ("s", "o1", "o2", "p"):
            own = [f for f in filters if expression_variables(f) == {variable}]
            assert check.constrains(variable) == bool(own)
            for value in VALUES + OIDS:
                expected = all(satisfies(f, {variable: value}) for f in own)
                assert check.value_passes(variable, value) == expected


STAR = "SELECT ?p, ?n, ?y WHERE {(?p,'name',?n) (?p,'year',?y) (?p,'city',?c) FILTER ?y >= 2001}"


@pytest.mark.parametrize("event_driven", [False, True], ids=["trace", "event"])
def test_star_scan_follows_every_write(event_driven):
    store = UniStore.build(num_peers=16, replication=2, seed=5)
    oids, _trace = store.insert_tuples(
        [{"name": f"n{i}", "year": 2000 + i % 4, "city": f"c{i % 3}"} for i in range(40)]
    )

    def agree():
        optimized = store.execute(STAR)
        assert "OidClusterScan" in optimized.plan
        reference = store.execute(STAR, mode="reference")
        assert sorted(map(repr, optimized.rows)) == sorted(map(repr, reference.rows))
        return len(optimized.rows)

    scope = store.event_driven() if event_driven else contextlib.nullcontext()
    with scope:
        rows = agree()
        store.insert_tuple({"name": "new", "year": 2003, "city": "c0"})
        assert agree() == rows + 1
        store.store.update_value(Triple(oids[5], "year", 2001), 1999)
        assert agree() == rows
        for attribute, value in (("name", "n7"), ("year", 2003), ("city", "c1")):
            store.store.delete(Triple(oids[7], attribute, value))
        assert agree() == rows - 1
        assert store.rebalance(capacity=40) > 0
        assert agree() == rows - 1
