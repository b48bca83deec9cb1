"""Replica state has one owner: the ``DataStore`` transfer primitives.

Every maintenance path (writes, anti-entropy, splits, migrations, joins and
the bootstrap exchange) moves stored entries through ``DataStore.merge``,
``retain``, ``copy_from`` and ``newest``.  These tests run each path on one
of two identical overlays and, on its twin, a per-entry reference loop kept
here (the shape each path had before the primitives existed).  Both twins
must end with the same stores (iteration order, values, versions), the same
paths, replica lists and routing tables, the same message ledger and the
same RNG states.
"""

from __future__ import annotations

import random
from collections import defaultdict
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import UniStore
from repro.errors import NodeUnreachableError, RoutingError
from repro.net.scheduler import then_send
from repro.pgrid import build_network, bulk_load, encode_string
from repro.pgrid.construction import bootstrap_exchange, exchange
from repro.pgrid.datastore import DataStore, Entry, newest
from repro.pgrid.keys import KeyRange, common_prefix_length, flip, responsible
from repro.pgrid.load_balancing import migrate_peer, split_group
from repro.pgrid.merge import join_peer
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.routing import point_key, route
from repro.pgrid.updates import anti_entropy_round, sync_pair

SLOW = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------------
# Reference loops: one entry at a time through put/delete/clear/partition
# ---------------------------------------------------------------------------


def ref_sync_pair(a, b):
    moved = 0
    for entry in list(a.store):
        if b.store.put(entry):
            moved += 1
    for entry in list(b.store):
        if a.store.put(entry):
            moved += 1
    return moved


def ref_anti_entropy_round(pnet, rng):
    transferred = 0
    for peer in pnet.online_peers():
        partners = peer.online_replicas()
        if not partners:
            continue
        partner_id = rng.choice(partners)
        partner = pnet.net.nodes[partner_id]
        try:
            pnet.ship(peer.node_id, partner_id, "anti-entropy", size=1)
            moved = ref_sync_pair(peer, partner)
            pnet.ship(partner_id, peer.node_id, "anti-entropy", size=max(1, moved))
            transferred += moved
        except NodeUnreachableError:
            continue
    return transferred


def ref_split_group(pnet, path):
    group = [p for p in pnet.peers if p.path == path]
    if len(group) < 2:
        return False
    group.sort(key=lambda p: p.node_id)
    half = len(group) // 2
    zeros, ones = group[:half], group[half:]
    level = len(path)
    for side, bit in ((zeros, "0"), (ones, "1")):
        for peer in side:
            peer.set_path(path + bit)
    for peer in zeros + ones:
        keep, give = peer.store.partition(path + "0")
        wanted = keep if peer.path[level] == "0" else give
        unwanted = give if wanted is keep else keep
        peer.store.clear()
        for entry in wanted:
            peer.store.put(entry)
        if unwanted:
            target = ones[0] if peer in zeros else zeros[0]
            pnet.ship(peer.node_id, target.node_id, "balance", len(unwanted))
            for entry in unwanted:
                target.store.put(entry)
    for side, other in ((zeros, ones), (ones, zeros)):
        for peer in side:
            peer.replicas = [p.node_id for p in side if p is not peer]
            for ref in other:
                peer.routing.add(level, ref.node_id)
    for side in (zeros, ones):
        merged = {}
        for peer in side:
            for entry in peer.store:
                identity = (entry.key, entry.item_id)
                current = merged.get(identity)
                if current is None or entry.version > current.version:
                    merged[identity] = entry
        for peer in side:
            for entry in merged.values():
                peer.store.put(entry)
    return True


def ref_migrate_peer(pnet, donor, target_path):
    group = [p for p in pnet.peers if p.path == target_path and p is not donor]
    host = group[0]
    for former in pnet.peers:
        if former is not donor and former.path == donor.path:
            former.remove_replica(donor.node_id)
    donor.set_path(target_path)
    donor.store.clear()
    transferred = 0
    for entry in host.store:
        donor.store.put(entry)
        transferred += 1
    pnet.ship(host.node_id, donor.node_id, "balance", max(1, transferred))
    donor.routing = type(donor.routing)(fanout=pnet.fanout)
    donor.adopt_refs(host)
    donor.replicas = []
    for member in group:
        member.add_replica(donor.node_id)
        donor.add_replica(member.node_id)


def ref_join_peer(pnet, node_id, rng):
    contact = pnet.random_online_peer(rng)
    newcomer = pnet.add_peer(node_id, path="")
    target_key = "".join(rng.choice("01") for _ in range(24))
    hop = pnet.ship(newcomer.node_id, contact.node_id, "join", size=1)
    host, trace = route(contact, target_key, kind="join", rng=rng, runner=pnet)
    trace = hop.then(trace)
    newcomer.set_path(host.path)
    copied = 0
    for entry in host.store:
        newcomer.store.put(entry)
        copied += 1
    trace = trace.then(pnet.ship(host.node_id, newcomer.node_id, "join", size=max(1, copied)))
    newcomer.adopt_refs(host)
    for member_id in [host.node_id, *host.online_replicas()]:
        member = pnet.net.nodes[member_id]
        member.add_replica(newcomer.node_id)
        newcomer.add_replica(member_id)
    return newcomer, trace


def ref_exchange(p, q, capacity, max_depth=16, _depth=0):
    cpl = common_prefix_length(p.path, q.path)
    if p.path == q.path:
        if p.load + q.load > capacity and len(p.path) < max_depth:
            _ref_split_pair(p, q)
        else:
            _ref_sync_replicas(p, q)
        return
    if cpl == min(len(p.path), len(q.path)):
        shorter, longer = (p, q) if len(p.path) < len(q.path) else (q, p)
        level = len(shorter.path)
        shorter.set_path(shorter.path + flip(longer.path[level]))
        shorter.routing.add(level, longer.node_id)
        longer.routing.add(level, shorter.node_id)
        _ref_shed_misplaced(shorter, longer)
        _ref_shed_misplaced(longer, shorter)
        return
    p.routing.add(cpl, q.node_id)
    q.routing.add(cpl, p.node_id)
    _ref_shed_misplaced(p, q)
    _ref_shed_misplaced(q, p)
    if _depth < 2:
        for a, b in ((p, q), (q, p)):
            refs = b.valid_refs(cpl) if cpl < len(b.path) else []
            candidates = [r for r in refs if r != a.node_id]
            if candidates:
                partner = a.network.nodes[candidates[0]]
                if isinstance(partner, PGridPeer) and partner.online:
                    a.network.send(a.node_id, partner.node_id, "exchange", 1)
                    ref_exchange(a, partner, capacity, max_depth, _depth + 1)


def _ref_split_pair(p, q):
    base = p.path
    level = len(base)
    p.set_path(base + "0")
    q.set_path(base + "1")
    p.routing.add(level, q.node_id)
    q.routing.add(level, p.node_id)
    p.remove_replica(q.node_id)
    q.remove_replica(p.node_id)
    p_keep, p_give = p.store.partition(p.path)
    q_give, q_keep = q.store.partition(p.path)
    p.store.clear()
    q.store.clear()
    for entry in p_keep + q_give:
        p.store.put(entry)
    for entry in q_keep + p_give:
        q.store.put(entry)
    if p_give or q_give:
        p.network.send(p.node_id, q.node_id, "exchange", max(1, len(p_give)))
        q.network.send(q.node_id, p.node_id, "exchange", max(1, len(q_give)))


def _ref_sync_replicas(p, q):
    p.add_replica(q.node_id)
    q.add_replica(p.node_id)
    transferred = 0
    for entry in list(p.store):
        transferred += q.store.put(entry)
    for entry in list(q.store):
        transferred += p.store.put(entry)
    p.adopt_refs(q)
    q.adopt_refs(p)
    if transferred:
        p.network.send(p.node_id, q.node_id, "exchange", transferred)


def _ref_shed_misplaced(giver, taker):
    moved = [
        entry
        for entry in list(giver.store)
        if not responsible(giver.path, entry.key) and responsible(taker.path, entry.key)
    ]
    if not moved:
        return
    for entry in moved:
        giver.store.delete(entry.key, entry.item_id)
        taker.store.put(entry)
    giver.network.send(giver.node_id, taker.node_id, "exchange", len(moved))


def ref_bootstrap_exchange(pnet, rounds, capacity, rng, max_depth=16):
    for _round in range(rounds):
        peers = pnet.online_peers()
        rng.shuffle(peers)
        for left, right in zip(peers[0::2], peers[1::2]):
            left.network.send(left.node_id, right.node_id, "exchange", 1)
            ref_exchange(left, right, capacity, max_depth=max_depth)


def ref_insert(pnet, key, value, item_id, start):
    version = pnet.next_version()
    entry = Entry(key=key, item_id=item_id, value=value, version=version)
    destination, trace = route(start, point_key(key), kind="insert", runner=pnet)
    destination.store.put(entry)
    pushes = []
    for replica_id in destination.online_replicas():
        pnet.net.nodes[replica_id].store.put(entry)
        pushes.append((destination.node_id, replica_id, "insert", 1))
    return trace.then(pnet.ship_many(pushes)) if pushes else trace


def ref_insert_many(pnet, items, start):
    by_key = defaultdict(list)
    for key, item_id, value in items:
        by_key[key].append((item_id, value))
    chains = []
    for destination, region_keys, hops in pnet._route_regions(by_key, start, "insert"):
        entries = [
            Entry(key=key, item_id=item_id, value=value, version=pnet.next_version())
            for key in region_keys
            for item_id, value in by_key[key]
        ]
        for entry in entries:
            destination.store.put(entry)
        pushes = []
        for replica_id in destination.online_replicas():
            replica = pnet.net.nodes[replica_id]
            for entry in entries:
                replica.store.put(entry)
            pushes.append((destination.node_id, replica_id, "insert", len(entries)))
        chains.append((hops, "insert", len(entries), then_send(pushes)))
    return pnet.run_chains(chains)


def ref_delete(pnet, key, item_id, start):
    destination, trace = route(start, point_key(key), kind="delete", runner=pnet)
    removed = destination.store.delete(key, item_id)
    pushes = []
    for replica_id in destination.online_replicas():
        removed = pnet.net.nodes[replica_id].store.delete(key, item_id) or removed
        pushes.append((destination.node_id, replica_id, "delete", 1))
    if pushes:
        trace = trace.then(pnet.ship_many(pushes))
    return removed, trace


def ref_all_entries(pnet, key_range=None):
    seen = {}
    for peer in pnet.peers:
        for entry in peer.store if key_range is None else peer.store.scan(key_range):
            identity = (entry.key, entry.item_id)
            existing = seen.get(identity)
            if existing is None or entry.version > existing.version:
                seen[identity] = entry
    return list(seen.values())


NEW = SimpleNamespace(
    sync_pair=sync_pair,
    anti_entropy_round=anti_entropy_round,
    split_group=split_group,
    migrate_peer=migrate_peer,
    join_peer=lambda pnet, node_id, rng: join_peer(pnet, node_id, rng=rng),
    exchange=exchange,
    bootstrap_exchange=lambda pnet, rounds, capacity, rng: bootstrap_exchange(
        pnet, rounds, capacity=capacity, rng=rng
    ),
    insert=lambda pnet, key, value, item_id, start: pnet.insert(
        key, value, item_id=item_id, start=start
    ),
    insert_many=lambda pnet, items, start: pnet.insert_many(items, start=start),
    delete=lambda pnet, key, item_id, start: pnet.delete(key, item_id, start=start),
    all_entries=lambda pnet, key_range=None: pnet.all_entries(key_range),
)
REF = SimpleNamespace(
    sync_pair=ref_sync_pair,
    anti_entropy_round=ref_anti_entropy_round,
    split_group=ref_split_group,
    migrate_peer=ref_migrate_peer,
    join_peer=ref_join_peer,
    exchange=ref_exchange,
    bootstrap_exchange=ref_bootstrap_exchange,
    insert=ref_insert,
    insert_many=ref_insert_many,
    delete=ref_delete,
    all_entries=ref_all_entries,
)

# ---------------------------------------------------------------------------
# Twin overlays
# ---------------------------------------------------------------------------

WORDS = st.lists(st.text(alphabet="abcd", min_size=1, max_size=4), min_size=1, max_size=40)
WRITES = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]), st.integers(0, 60)), max_size=12
)


def _identity(word: str) -> tuple[str, str]:
    return encode_string(word), f"id-{word}"


def overlay(num_peers, replication, split_by, seed, words, writes):
    """A bulk-loaded overlay whose replicas diverged: routed writes ran
    while one peer was offline, then it came back."""
    items = [(*_identity(word), word) for word in words]
    pnet = build_network(
        num_peers,
        [key for key, _item, _value in items],
        replication=replication,
        seed=seed,
        split_by=split_by,
    )
    bulk_load(pnet, items)
    offline = pnet.peers[seed % num_peers]
    offline.fail()
    for index, (kind, pick) in enumerate(writes):
        key, item_id = _identity(words[pick % len(words)])
        try:
            if kind == "insert":
                pnet.insert(key, f"new{index}", item_id=f"new{index}")
            elif kind == "update":
                pnet.update(key, item_id, f"v{index}")
            else:
                pnet.delete(key, item_id)
        except RoutingError:  # the key's whole group is the offline peer
            pass
    offline.recover()
    return pnet


def snapshot(pnet: PGridNetwork):
    peers = [
        (
            peer.node_id,
            peer.path,
            peer.online,
            list(peer.replicas),
            [(level, peer.routing.refs(level)) for level in peer.routing.levels()],
            [(e.key, e.item_id, e.value, e.version) for e in peer.store],
        )
        for peer in pnet.peers
    ]
    total = pnet.net.stats.total
    return (
        peers,
        dict(total.by_kind),
        dict(total.bytes_by_kind),
        pnet.rng.getstate(),
        pnet.net.rng.getstate(),
        pnet._clock,
    )


def _groups_of_two(pnet):
    return sorted(path for path, peers in pnet.leaf_groups().items() if len(peers) >= 2)


def run_op(op: str, pick: int, pnet: PGridNetwork, impl):
    """Run one maintenance path on ``pnet`` with ``impl``; return its result."""
    peers = pnet.peers
    if op == "sync_pair":
        paths = _groups_of_two(pnet)
        if not paths:
            return None
        a, b = pnet.leaf_groups()[paths[pick % len(paths)]][:2]
        return impl.sync_pair(a, b)
    if op == "anti_entropy":
        return impl.anti_entropy_round(pnet, random.Random(pick))
    if op == "split":
        paths = _groups_of_two(pnet)
        return impl.split_group(pnet, paths[pick % len(paths)]) if paths else None
    if op == "migrate":
        paths = _groups_of_two(pnet)
        targets = [path for path in sorted(pnet.leaf_groups()) if path not in paths[:1]]
        if not paths or not targets:
            return None
        donor = pnet.leaf_groups()[paths[0]][-1]
        impl.migrate_peer(pnet, donor, targets[pick % len(targets)])
        return donor.node_id
    if op == "join":
        newcomer, trace = impl.join_peer(pnet, f"newcomer-{len(peers)}", random.Random(pick))
        return newcomer.node_id, trace
    if op == "exchange":
        p, q = peers[pick % len(peers)], peers[(pick // len(peers) + 1) % len(peers)]
        if p is q:
            return None
        return impl.exchange(p, q, pick % 40 + 1)
    if op == "all_entries":
        whole = [(e.key, e.item_id, e.version) for e in impl.all_entries(pnet)]
        subtree = KeyRange.subtree(format(pick % 8, "03b"))
        ranged = [(e.key, e.item_id, e.version) for e in impl.all_entries(pnet, subtree)]
        return whole, ranged
    # Routed writes, with one peer offline so that it misses the push.
    offline = peers[pick % len(peers)]
    offline.fail()
    start = next(peer for peer in peers if peer.online)
    key, item_id = _identity("abcd"[pick % 4] * (1 + pick % 3))
    try:
        if op == "insert":
            return impl.insert(pnet, key, f"w{pick}", item_id, start)
        if op == "insert_many":
            words = ("a", "bb", "ccc", "dd", "b" * (1 + pick % 5))
            return impl.insert_many(pnet, [(*_identity(word), word) for word in words], start)
        return impl.delete(pnet, key, item_id, start)
    except RoutingError:
        return "RoutingError"
    finally:
        offline.recover()


OPS = [
    "sync_pair",
    "anti_entropy",
    "split",
    "migrate",
    "join",
    "exchange",
    "all_entries",
    "insert",
    "insert_many",
    "delete",
]


@given(
    num_peers=st.integers(2, 16),
    replication=st.integers(1, 3),
    split_by=st.sampled_from(["population", "data"]),
    seed=st.integers(0, 500),
    words=WORDS,
    writes=WRITES,
    ops=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 10_000)), min_size=1, max_size=4),
)
@SLOW
def test_maintenance_paths_match_the_reference_loops(
    num_peers, replication, split_by, seed, words, writes, ops
):
    new = overlay(num_peers, replication, split_by, seed, words, writes)
    ref = overlay(num_peers, replication, split_by, seed, words, writes)
    assert snapshot(new) == snapshot(ref)
    for op, pick in ops:
        assert run_op(op, pick, new, NEW) == run_op(op, pick, ref, REF), op
        assert snapshot(new) == snapshot(ref), op


@given(
    num_peers=st.integers(2, 24),
    words=st.lists(st.text(alphabet="abcd", min_size=1, max_size=4), min_size=1, max_size=80),
    rounds=st.integers(1, 10),
    capacity=st.integers(1, 8),
    seed=st.integers(0, 500),
)
@SLOW
def test_bootstrap_exchange_matches_the_reference_loops(num_peers, words, rounds, capacity, seed):
    """The decentralized construction from empty paths, with each peer
    starting from its own share of the data (so shedding moves entries)."""

    def fresh():
        pnet = PGridNetwork(seed=seed)
        for index in range(num_peers):
            pnet.add_peer(f"peer-{index:02d}")
        for index, word in enumerate(words):
            key, item_id = _identity(word)
            pnet.peers[index % num_peers].store.put(Entry(key, item_id, word, index))
        return pnet

    new, ref = fresh(), fresh()
    NEW.bootstrap_exchange(new, rounds, capacity, random.Random(seed))
    REF.bootstrap_exchange(ref, rounds, capacity, random.Random(seed))
    assert snapshot(new) == snapshot(ref)


# ---------------------------------------------------------------------------
# Local caches over a store see every change
# ---------------------------------------------------------------------------

ENTRIES = st.builds(
    Entry,
    key=st.text(alphabet="01", max_size=4),
    item_id=st.sampled_from("abc"),
    value=st.integers(0, 3),
    version=st.integers(0, 3),
)
STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), ENTRIES),
        st.tuples(st.just("merge"), st.lists(ENTRIES, max_size=4)),
        st.tuples(st.just("delete"), ENTRIES),
        st.tuples(st.just("retain"), st.text(alphabet="01", max_size=3), st.booleans()),
        st.tuples(st.just("copy_from"), st.lists(ENTRIES, max_size=4)),
        st.tuples(st.just("clear")),
    ),
    max_size=12,
)


@given(STORE_OPS)
@settings(max_examples=200, deadline=None)
def test_every_change_moves_the_revision(ops):
    store = DataStore()
    for op, *args in ops:
        before = [(e.key, e.item_id, e.value, e.version) for e in store]
        revision = store.revision
        if op == "put":
            store.put(args[0])
        elif op == "merge":
            store.merge(args[0])
        elif op == "delete":
            store.delete(args[0].key, args[0].item_id)
        elif op == "retain":
            store.retain(*args)
        elif op == "copy_from":
            other = DataStore()
            other.merge(args[0])
            store.copy_from(other)
        else:
            store.clear()
        if [(e.key, e.item_id, e.value, e.version) for e in store] != before:
            assert store.revision != revision, op
        # The sorted key index stays exact: newest() over the store is the store.
        assert newest([store]) == list(store)
        assert store.keys() == sorted(store.keys())


STAR = "SELECT ?p, ?n, ?y WHERE {(?p,'name',?n) (?p,'year',?y) (?p,'city',?c) FILTER ?y >= 2001}"


def test_star_query_follows_split_and_migration():
    store = UniStore.build(num_peers=16, replication=3, seed=5)
    store.insert_tuples(
        [{"name": f"n{i}", "year": 2000 + i % 4, "city": f"c{i % 3}"} for i in range(60)]
    )
    pnet = store.pnet

    def agree():
        optimized = store.execute(STAR)
        assert "OidClusterScan" in optimized.plan
        reference = store.execute(STAR, mode="reference")
        assert sorted(map(repr, optimized.rows)) == sorted(map(repr, reference.rows))
        return len(optimized.rows)

    rows = agree()  # every peer the star reaches caches its tuple index
    path = max(_groups_of_two(pnet), key=lambda p: max(x.load for x in pnet.leaf_groups()[p]))
    assert split_group(pnet, path)
    assert agree() == rows
    # A peer that cached an index over other data becomes a copy of a split side.
    donor = max(
        (p for p in pnet.peers if len(pnet.leaf_groups()[p.path]) >= 2 and p.load),
        key=lambda p: (p.load, p.node_id),
    )
    migrate_peer(pnet, donor, path + "0")
    assert agree() == rows
