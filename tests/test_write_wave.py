"""Every routed write is one write wave (``PGridNetwork.write``).

A triple lives under one key per index (OID, A#v, v, plus its q-grams when
its attribute is indexed), in different leaf groups.  A triple insert,
``update_value`` and delete route every posting first and write only once
every route is known, so a write that cannot reach one of its groups raises
with every index answering as before, and a write that returns leaves every
index answering the new state.  The checks compare with a dict oracle, not
with ``mode="reference"`` alone: the reference executor reads the A#v
subtree of the live overlay, so it is only as right as that one index.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import UniStore
from repro.errors import RoutingError
from repro.net.network import Network
from repro.net.trace import Trace
from repro.pgrid import bulk_load, encode_string
from repro.pgrid.construction import balanced_paths, wire_routing_tables
from repro.pgrid.load_balancing import rebalance
from repro.pgrid.merge import join_peer, merge_overlays
from repro.pgrid.network import PGridNetwork
from repro.triples.index import v_key
from repro.triples.mappings import MappingCatalog, SchemaMapping
from repro.triples.triple import Triple

MODES = ("reference", "optimized", "mqp")


def canonical(rows) -> list[str]:
    return sorted(repr(sorted(row.items())) for row in rows)


def answers(store: UniStore, query: str) -> dict[str, list[str]]:
    return {mode: canonical(store.execute(query, mode=mode).rows) for mode in MODES}


# ---------------------------------------------------------------------------
# A write whose v group is down
# ---------------------------------------------------------------------------

P1_QUERIES = {
    "SELECT ?p, ?a WHERE {(?p,?a,2004)}": [{"p": "p1", "a": "year"}],
    "SELECT ?p WHERE {(?p,'year',2004)}": [{"p": "p1"}],
    "SELECT ?y WHERE {('p1','year',?y)}": [{"y": 2004}],
}


def p1_store() -> UniStore:
    store = UniStore.build(24, replication=2, seed=3)
    store.store.insert_tuple("p1", {"title": "alpha", "year": 2004})
    return store


@pytest.mark.parametrize("write", ["delete", "update_value"])
def test_a_write_that_cannot_reach_the_v_group_changes_no_index(write):
    store = p1_store()
    year = Triple("p1", "year", 2004)
    group = store.pnet.responsible_group(v_key(2004))
    for peer in group:
        peer.fail()
    with pytest.raises(RoutingError):
        if write == "delete":
            store.store.delete(year)
        else:
            store.store.update_value(year, 2005)
    for peer in group:
        peer.recover()
    for query, rows in P1_QUERIES.items():
        assert answers(store, query) == dict.fromkeys(MODES, canonical(rows)), query
    assert answers(store, "SELECT ?p WHERE {(?p,'year',2005)}") == dict.fromkeys(MODES, [])


def test_an_update_that_cannot_reach_its_new_v_group_changes_no_index():
    """The new value's v posting lands in a group the removals do not touch
    (numbers and strings file under different v subtrees)."""
    store = p1_store()
    group = store.pnet.responsible_group(v_key("zebra"))
    assert not set(group) & set(store.pnet.responsible_group(v_key(2004)))
    for peer in group:
        peer.fail()
    with pytest.raises(RoutingError):
        store.store.update_value(Triple("p1", "year", 2004), "zebra")
    for peer in group:
        peer.recover()
    for query, rows in P1_QUERIES.items():
        assert answers(store, query) == dict.fromkeys(MODES, canonical(rows)), query


def test_update_to_the_same_value_keeps_the_triple_under_every_index():
    store = p1_store()
    year = Triple("p1", "year", 2004)
    store.store.update_value(year, 2004)
    for key, item_id, _triple in store.store.postings(year):
        for peer in store.pnet.responsible_group(key):
            entry = peer.store.get_entry(key, item_id)
            assert entry is not None and entry.value == year
    for query, rows in P1_QUERIES.items():
        assert answers(store, query) == dict.fromkeys(MODES, canonical(rows)), query


def test_an_update_is_one_wave_over_the_old_and_new_keys():
    store = p1_store()
    old, new = Triple("p1", "year", 2004), Triple("p1", "year", 2005)
    keys = {key for t in (old, new) for key, _item_id, _t in store.store.postings(t)}
    assert len(keys) == 5  # the old and new OID postings share a key
    with store.pnet.net.frame() as frame:
        _new, trace = store.store.update_value(old, new.value)
    assert trace.messages == frame.messages
    assert set(frame.by_kind) == {"update"}


# ---------------------------------------------------------------------------
# Property: failed groups x tuple insert, update_value and triple delete
# ---------------------------------------------------------------------------

OIDS = ["p0", "p1", "p2"]
#: Strings and numbers live in different v groups of a 24-peer overlay, so
#: an update between them writes to a group its removals do not touch.
VALUES = ["alpha", "zebra", 2004, -7]


def expected_postings(store: UniStore, oracle: dict[str, dict]) -> dict[tuple[str, str], Triple]:
    return {
        (key, item_id): triple
        for oid, values in oracle.items()
        for attribute, value in values.items()
        for key, item_id, triple in store.store.postings(Triple(oid, attribute, value))
    }


def assert_matches(store: UniStore, oracle: dict[str, dict]) -> None:
    """Every replica of every index, and every query mode, answer ``oracle``."""
    expected = expected_postings(store, oracle)
    for peer in store.pnet.peers:
        for entry in peer.store:
            assert expected.get((entry.key, entry.item_id)) == entry.value, peer.node_id
    for (key, item_id), triple in expected.items():
        for peer in store.pnet.responsible_group(key):
            entry = peer.store.get_entry(key, item_id)
            assert entry is not None and entry.value == triple, peer.node_id

    facts = [(oid, a, v) for oid, values in oracle.items() for a, v in values.items()]
    queries = {}
    for attribute in ("title", "year"):
        rows = [{"p": o, "v": v} for o, a, v in facts if a == attribute]
        queries[f"SELECT ?p, ?v WHERE {{(?p,'{attribute}',?v)}}"] = rows
    for value in VALUES:
        rows = [{"p": o, "a": a} for o, a, v in facts if v == value]
        queries[f"SELECT ?p, ?a WHERE {{(?p,?a,{value!r})}}"] = rows
    for oid in OIDS:
        rows = [{"a": a, "v": v} for o, a, v in facts if o == oid]
        queries[f"SELECT ?a, ?v WHERE {{('{oid}',?a,?v)}}"] = rows
    for query, rows in queries.items():
        assert answers(store, query) == dict.fromkeys(MODES, canonical(rows)), query


@st.composite
def writes(draw):
    """A list of ``(operation, failed group indexes)``, drawn against an
    oracle kept alongside so updates and deletes name live facts."""
    oracle = {"p0": {"title": "alpha", "year": 2004}}
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        live = [(oid, a) for oid, values in oracle.items() for a in values]
        free = [oid for oid in OIDS if oid not in oracle]
        kinds = ["insert"] * bool(free) + ["update", "delete"] * bool(live)
        kind = draw(st.sampled_from(kinds))
        if kind == "insert":
            oid = draw(st.sampled_from(free))
            values = {"title": draw(st.sampled_from(VALUES)), "year": draw(st.sampled_from(VALUES))}
            step = (kind, oid, values)
        else:
            oid, attribute = draw(st.sampled_from(live))
            step = (kind, oid, attribute, draw(st.sampled_from(VALUES)))
        failed = draw(st.sets(st.integers(0, 11), max_size=3))
        steps.append((step, failed))
        apply(oracle, step)  # the draw assumes success; the test re-derives
    return steps


def apply(oracle: dict[str, dict], step) -> None:
    if step[0] == "insert":
        oracle[step[1]] = dict(step[2])
    elif step[0] == "update":
        oracle[step[1]][step[2]] = step[3]
    else:
        del oracle[step[1]][step[2]]
        if not oracle[step[1]]:
            del oracle[step[1]]


def run_write(store: UniStore, oracle: dict[str, dict], step) -> None:
    if step[0] == "insert":
        store.store.insert_tuple(step[1], step[2])
    elif step[0] == "update":
        _kind, oid, attribute, value = step
        store.store.update_value(Triple(oid, attribute, oracle[oid][attribute]), value)
    else:
        _kind, oid, attribute, _value = step
        store.store.delete(Triple(oid, attribute, oracle[oid][attribute]))


@pytest.mark.parametrize("event_mode", [False, True], ids=["trace", "event"])
@given(seed=st.integers(0, 200), steps=writes())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_write_changes_every_index_or_none(event_mode, seed, steps):
    store = UniStore.build(24, replication=2, seed=seed, enable_qgram_index=True)
    store.store.qgram_attributes = {"title"}
    oracle: dict[str, dict] = {}
    store.store.insert_tuple("p0", {"title": "alpha", "year": 2004})
    apply(oracle, ("insert", "p0", {"title": "alpha", "year": 2004}))
    groups = sorted(store.pnet.leaf_groups().items())
    for step, failed in steps:
        if step[0] != "insert" and (step[1] not in oracle or step[2] not in oracle[step[1]]):
            continue  # an earlier step that named this fact raised
        if step[0] == "insert" and step[1] in oracle:
            continue
        down = [peer for index in failed for peer in groups[index % len(groups)][1]]
        for peer in down:
            peer.fail()
        try:
            if event_mode:
                with store.event_driven():
                    run_write(store, oracle, step)
            else:
                run_write(store, oracle, step)
        except RoutingError:
            pass
        else:
            apply(oracle, step)
        finally:
            for peer in down:
                peer.recover()
        assert_matches(store, oracle)


# ---------------------------------------------------------------------------
# Writers on the wave: MappingCatalog.add and merge_overlays
# ---------------------------------------------------------------------------


def stored(pnet: PGridNetwork, with_versions: bool = False) -> set[tuple]:
    return {
        (e.key, e.item_id, e.value, e.version) if with_versions else (e.key, e.item_id, e.value)
        for peer in pnet.peers
        for e in peer.store
    }


@pytest.mark.parametrize("seed", [3, 46, 71])
def test_mapping_add_is_one_wave(seed):
    """The same stored union as three parallel triple inserts, in fewer messages."""
    mapping = SchemaMapping("dblp:title", "ilm:papertitle", 0.9)
    new, old = (UniStore.build(32, replication=2, seed=seed) for _ in range(2))
    with new.pnet.net.frame() as new_frame:
        trace = MappingCatalog(new.store).add(mapping)
    with old.pnet.net.frame() as old_frame:
        triples = [Triple(mapping.oid(), a, v) for a, v in mapping.fields().items()]
        Trace.parallel([old.store.insert(t) for t in triples])
    assert trace.messages == new_frame.messages
    assert stored(new.pnet) == stored(old.pnet)
    assert new_frame.messages < old_frame.messages


def two_overlays(seed: int) -> tuple[PGridNetwork, PGridNetwork]:
    shared = Network(seed=seed)
    a, b = PGridNetwork(shared, seed=seed), PGridNetwork(shared, seed=seed + 1)
    for pnet, name, size in ((a, "a", 8), (b, "b", 6)):
        for index in range(size):
            pnet.add_peer(f"{name}-{index}")
        paths = balanced_paths(size // 2)
        for index, peer in enumerate(pnet.peers):
            peer.set_path(paths[index % len(paths)])
        wire_routing_tables(pnet)
        items = [(encode_string(f"{name}{i}"), f"{name}{i}", f"{name}{i}") for i in range(12)]
        bulk_load(pnet, items)
    return a, b


def merge_one_insert_per_entry(a, b, capacity, rng):
    """``merge_overlays`` as it was: one routed insert per drained entry."""
    for old_peer in list(b.peers):
        entries = list(old_peer.store)
        old_peer.store.clear()
        old_peer.fail()
        newcomer, _trace = join_peer(a, f"{old_peer.node_id}-merged", rng=rng)
        for entry in entries:
            a.insert(
                entry.key, entry.value, item_id=entry.item_id, start=newcomer, version=entry.version
            )
    rebalance(a, capacity=capacity)
    return a


@pytest.mark.parametrize("seed", [22, 57])
def test_merge_republishes_each_drained_peer_as_one_wave(seed):
    """The same stored union, versions kept, in fewer messages."""
    new_a, new_b = two_overlays(seed)
    old_a, old_b = two_overlays(seed)
    with new_a.net.frame() as new_frame:
        merge_overlays(new_a, new_b, capacity=50, rng=random.Random(seed))
    with old_a.net.frame() as old_frame:
        merge_one_insert_per_entry(old_a, old_b, 50, random.Random(seed))
    assert stored(new_a, with_versions=True) == stored(old_a, with_versions=True)
    assert {e.item_id for e in new_a.all_entries()} >= {f"b{i}" for i in range(12)}
    assert new_frame.messages < old_frame.messages
