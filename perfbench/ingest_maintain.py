"""``ingest-maintain``: one client writing through churn, with upkeep passes.

Setup shapes a 128-peer trie (replication 2) to the keys of a bulk-loaded
base of publication tuples.  The timed region runs in event-driven mode
without a load model, so the event twins of ``insert_many``,
``lookup_many`` and ``delete`` do the routing.  It is a sequence of
*epochs*; each epoch

1. takes a few replicas offline (never a whole group, never the gateway),
2. runs the counted operations through one gateway peer: routed ``insert_tuples``
   batches, ``update_value`` calls, tuple deletes and ``by_oids`` reads,
3. brings the replicas back and runs one ``anti_entropy_round``,
4. every second epoch, runs a ``rebalance`` pass at a storage threshold
   just above the heaviest group of the base.

The client moves to the next gateway (in a fixed order) every epoch.  A
gateway's route cache fixes the paths most of its operations take, so with
a single gateway for the whole run the simulated latencies would mostly
measure which routes that one cache happened to learn.

Background work (the churn of step 1, and steps 3-4) counts toward the
wall time, not the ops.  New OIDs extend the base's OID range, so the OID
group is the one that overflows and the splits are the same for every seed.

Checks, outside the timed region: with every peer online, convergence
rounds, then verification reads (``by_oids`` per touched tuple and
``by_attribute_value`` per touched value) against a dict oracle.  A read
that disagrees counts as a failed operation; the run goes on.
"""

from __future__ import annotations

import contextlib
import random
import time

from perfbench.common import (
    DEPLOYMENT_SEED,
    Measured,
    fix_link_latencies,
    frame_layer_figures,
    peak_rss_mb,
    route_cache_totals,
)

#: ``--seconds`` per epoch: 25 epochs at 30 s.  An epoch takes about 0.4
#: wall seconds, but past about 30 epochs the OID range crosses a digit
#: boundary and a rebalance cascade takes minutes, so the count stays low.
EPOCH_SECONDS = 1.2

SIZES = {
    "full": {"peers": 128, "base": 1000, "churn": 4, "batch": 16, "sample": 100},
    "smoke": {"peers": 32, "base": 100, "churn": 2, "batch": 5, "sample": 10},
}

#: Counted operations per epoch, in seeded order.
EPOCH_OPS = {"insert": 6, "update": 3, "delete": 4, "read": 3}
READ_WIDTH = 8
REBALANCE_EVERY = 2
#: Storage threshold as a multiple of the heaviest group after setup.
CAPACITY_FACTOR = 1.05
CONVERGENCE_ROUNDS = 3
OID_PREFIX = "t"
AREAS_ATTRIBUTE = "classified_in"


def setup(size: str):
    from repro import UniStore
    from repro.bench.workloads import ingest_tuples
    from repro.net.latency import PlanetLabLatency
    from repro.pgrid import build_network
    from repro.triples.store import DistributedTripleStore
    from repro.triples.triple import triples_from_tuple

    cfg = SIZES[size]
    base = ingest_tuples(cfg["base"], seed=DEPLOYMENT_SEED)
    # UniStore numbers OIDs "<prefix>:<counter>" from 1; shape the trie to
    # the postings those OIDs will have.
    oids = [f"{OID_PREFIX}:{index:08d}" for index in range(1, len(base) + 1)]
    shaper = DistributedTripleStore(None)
    keys = [
        key
        for oid, values in zip(oids, base)
        for triple in triples_from_tuple(oid, values)
        for key, _item, _posting in shaper.postings(triple)
    ]
    pnet = build_network(
        cfg["peers"],
        data_keys=keys,
        split_by="data",
        replication=2,
        seed=DEPLOYMENT_SEED,
        latency_model=PlanetLabLatency(median=0.04, sigma=0.3, jitter=0.01),
    )
    store = UniStore(pnet, seed=DEPLOYMENT_SEED)
    if store.bulk_load_tuples(base, OID_PREFIX) != oids:
        raise RuntimeError("bulk load assigned unexpected OIDs")
    oracle = {oid: dict(values) for oid, values in zip(oids, base)}
    fix_link_latencies(pnet)
    capacity = int(CAPACITY_FACTOR * max(peer.load for peer in pnet.peers))
    return store, oracle, capacity


def run(
    state,
    seed: int,
    seconds: float,
    size: str,
    region=contextlib.nullcontext,
    between=lambda: None,
) -> Measured:
    from repro.bench.workloads import AREAS, ingest_tuples
    from repro.pgrid.load_balancing import rebalance
    from repro.pgrid.updates import anti_entropy_round
    from repro.triples.triple import Triple

    store, oracle, capacity = state
    cfg = SIZES[size]
    pnet = store.pnet
    gateways = pnet.peers[:: max(1, len(pnet.peers) // 32)]
    gateway = gateways[0]
    rng = random.Random(f"ingest-maintain/{seed}")
    epochs = max(2, round(seconds / EPOCH_SECONDS))
    inserted = epochs * EPOCH_OPS["insert"] * cfg["batch"]
    fresh = ingest_tuples(inserted, seed=DEPLOYMENT_SEED + 1 + seed)
    known = list(oracle)  # every OID ever written, live or deleted
    touched_oids: set[str] = set()
    touched_values: set[tuple[str, object]] = set()

    def live_oid() -> str:
        while True:
            oid = rng.choice(known)
            if oid in oracle:
                return oid

    def insert_op():
        batch = [fresh.pop() for _ in range(cfg["batch"])]
        new_oids, trace = store.insert_tuples(batch, oid_prefix=OID_PREFIX, start=gateway)
        for oid, values in zip(new_oids, batch):
            oracle[oid] = dict(values)
        known.extend(new_oids)
        touched_oids.update(new_oids)
        return trace

    def update_op():
        oid = live_oid()
        old = oracle[oid][AREAS_ATTRIBUTE]
        new = rng.choice([area for area in AREAS if area != old])
        _triple, trace = store.store.update_value(
            Triple(oid, AREAS_ATTRIBUTE, old), new, start=gateway
        )
        oracle[oid][AREAS_ATTRIBUTE] = new
        touched_oids.add(oid)
        touched_values.update({(AREAS_ATTRIBUTE, old), (AREAS_ATTRIBUTE, new)})
        return trace

    def delete_op():
        oid = live_oid()
        values = oracle.pop(oid)
        trace = None
        for attribute, value in values.items():
            step = store.store.delete(Triple(oid, attribute, value), start=gateway)
            trace = step if trace is None else trace.then(step)
        touched_oids.add(oid)
        touched_values.add(("title", values["title"]))
        return trace

    def read_op():
        _found, trace = store.store.by_oids(rng.sample(known, READ_WIDTH), start=gateway)
        return trace

    operations = {"insert": insert_op, "update": update_op, "delete": delete_op, "read": read_op}
    plan = []
    for _ in range(epochs):
        kinds = [kind for kind, count in EPOCH_OPS.items() for _ in range(count)]
        rng.shuffle(kinds)
        plan.append(kinds)

    walls: list[float] = []
    op_pieces: list[int] = []
    by_kind: dict[str, list[int]] = {}
    sim_latencies: list[float] = []
    hops: list[int] = []
    failed = 0
    problems: list[str] = []
    splits = 0
    anti_entropy_entries = 0
    deliveries = 0
    cache_before = route_cache_totals(pnet)
    with pnet.net.frame() as frame, region():
        for epoch, kinds in enumerate(plan):
            between()
            t0 = time.perf_counter()
            gateway = gateways[epoch % len(gateways)]
            offline = _churn(pnet, gateway, cfg["churn"], rng)
            with store.event_driven() as scheduler:
                # Churn and scheduler set-up are background work, not the
                # first operation's.
                walls.append(time.perf_counter() - t0)
                for kind in kinds:
                    between()
                    t0 = time.perf_counter()
                    try:
                        trace = operations[kind]()
                    except Exception as error:  # a failed operation is reported, not fatal
                        failed += 1
                        problems.append(f"{kind} raised {error!r}")
                        trace = None
                    walls.append(time.perf_counter() - t0)
                    if trace is None:
                        continue
                    op_pieces.append(len(walls) - 1)
                    by_kind.setdefault(kind, []).append(len(sim_latencies))
                    sim_latencies.append(trace.latency)
                    hops.append(trace.hops)
                between()
                t0 = time.perf_counter()
                deliveries += len(scheduler.log)
            for peer in offline:
                peer.recover()
            anti_entropy_entries += anti_entropy_round(pnet, rng)
            if epoch % REBALANCE_EVERY == REBALANCE_EVERY - 1:
                splits += rebalance(pnet, capacity)
            walls.append(time.perf_counter() - t0)
    rss = peak_rss_mb()
    cache_after = route_cache_totals(pnet)
    ops = sum(len(kinds) for kinds in plan)

    # Output check (outside the timed region), every peer online.
    gateway = gateways[0]
    for _ in range(CONVERGENCE_ROUNDS):
        anti_entropy_round(pnet, rng)
    checks = sorted(touched_oids) + rng.sample(sorted(set(known) - touched_oids), cfg["sample"])
    mismatches = {"by_oids": 0, "by_attribute_value": 0}
    for oid in checks:
        found, _trace = store.store.by_oids([oid], start=gateway)
        got = {(t.attribute, t.value) for t in found[oid]}
        if got != set(oracle.get(oid, {}).items()):
            mismatches["by_oids"] += 1
    for attribute, value in sorted(touched_values, key=repr):
        found, _trace = store.store.by_attribute_value(attribute, value, start=gateway)
        expected = {oid for oid, values in oracle.items() if values.get(attribute) == value}
        if {t.oid for t in found} != expected:
            mismatches["by_attribute_value"] += 1
    verification_reads = len(checks) + len(touched_values)

    layer = frame_layer_figures(frame, ops, cache_before, cache_after)
    layer.update(
        {
            "pgrid.splits": splits,
            "pgrid.anti_entropy_entries": anti_entropy_entries,
            "pgrid.hops_per_op": sum(hops) / len(hops) if hops else 0.0,
            "net.deliveries_per_op": deliveries / ops,
            "deliveries": deliveries,
        }
    )
    stale = sum(mismatches.values())
    return Measured(
        ops=ops,
        walls=walls,
        messages=frame.messages,
        sim_latencies=sim_latencies,
        attempted=ops + verification_reads,
        failed=failed + stale,
        correct=not problems,
        peak_rss_mb=rss,
        op_pieces=op_pieces,
        extra={
            "epochs": epochs,
            "splits": splits,
            "verification_reads": verification_reads,
            "verification_mismatches": mismatches,
            "op_classes": by_kind,
        },
        layer=layer,
        problems=problems,
    )


def _churn(pnet, gateway, count: int, rng: random.Random) -> list:
    """Take ``count`` replicas offline, each from a group that keeps a member."""
    groups = pnet.leaf_groups()
    candidates = [
        peer
        for path in sorted(groups)
        if sum(member.online for member in groups[path]) >= 2
        for peer in groups[path]
        if peer is not gateway and peer.online
    ]
    offline = []
    used_paths = set()
    for peer in rng.sample(candidates, len(candidates)):
        if len(offline) == count:
            break
        if peer.path in used_paths:
            continue
        used_paths.add(peer.path)
        peer.fail()
        offline.append(peer)
    return offline
