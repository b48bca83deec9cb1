"""E9 — "an update functionality with lose consistency guarantees"
(paper §2, ref. [4] Datta et al., "Updates in Highly Unreliable, Replicated
Peer-to-Peer Systems").

128 peers, replication 4.  A fraction of peers goes offline; 60 stored facts
are updated (push phase reaches online replicas only); the offline peers
come back; anti-entropy rounds (pull phase) reconcile.  Reported: staleness
(fraction of replica copies behind the latest version) after the push and
after each gossip round — the claim is convergence, not instant consistency.

E9b (batched ingest) measures the write-path counterpart: routed messages
per tuple when tuples are published through the destination-grouped bulk
inserts at batch sizes 1 / 10 / 100.  Set ``UNISTORE_QUICK=1`` for the CI
smoke configuration (smaller overlay; same tuple count and batch sizes).
"""

from __future__ import annotations

import os
import random
import string


from repro import UniStore
from repro.bench import ResultTable, batched, ingest_tuples
from repro.net.churn import ChurnModel
from repro.pgrid import (
    anti_entropy_round,
    build_network,
    bulk_load,
    encode_string,
    staleness,
)

from conftest import emit

QUICK = bool(os.environ.get("UNISTORE_QUICK"))

NUM_PEERS = 128
REPLICATION = 4
NUM_FACTS = 60
OFFLINE_FRACTIONS = [0.0, 0.2, 0.4, 0.6]
MAX_ROUNDS = 8

INGEST_PEERS = 32 if QUICK else 64
INGEST_TUPLES = 100
BATCH_SIZES = [1, 10, 100]


def _facts(seed: int) -> list[str]:
    rng = random.Random(seed)
    return sorted(
        {"".join(rng.choice(string.ascii_lowercase) for _ in range(7)) for _ in range(NUM_FACTS)}
    )


def _diverged_overlay(fraction: float):
    """A fresh overlay whose replicas diverged: ``fraction`` of the peers
    were offline while every fact got a second version, then came back.

    Returns ``(pnet, keys)``; the offline replicas still hold version 1.
    """
    pnet = build_network(NUM_PEERS, replication=REPLICATION, seed=91, split_by="population")
    words = _facts(91)
    keys = [encode_string(w) for w in words]
    bulk_load(pnet, [(k, w, f"v1:{w}") for k, w in zip(keys, words)])

    churn = ChurnModel(pnet.peers, seed=91)
    churn.fail_fraction(fraction)
    for key, word in zip(keys, words):
        try:
            pnet.update(key, word, f"v2:{word}")
        except Exception:
            continue  # whole group offline: the update itself fails
    churn.recover_all()
    return pnet, keys


def test_e9_updates_converge_via_anti_entropy(benchmark):
    table = ResultTable(
        "E9: update staleness under partial availability (128 peers, r=4)",
        ["offline %", "stale after push", *[f"round {i}" for i in range(1, 5)]],
    )
    trajectories = {}
    for fraction in OFFLINE_FRACTIONS:
        pnet, keys = _diverged_overlay(fraction)
        trajectory = [staleness(pnet, keys)]
        for _round in range(MAX_ROUNDS):
            if trajectory[-1] == 0.0:
                break
            anti_entropy_round(pnet)
            trajectory.append(staleness(pnet, keys))
        trajectories[fraction] = trajectory
        padded = trajectory[1:5] + [0.0] * max(0, 4 - len(trajectory[1:5]))
        table.add_row(int(fraction * 100), trajectory[0], *padded)
    emit(table)

    # Claims: no failures => push alone is consistent; with failures the
    # push leaves staleness proportional to the offline fraction, and
    # anti-entropy drives it monotonically to (near) zero.
    assert trajectories[0.0][0] == 0.0
    assert trajectories[0.2][0] > 0.0
    assert trajectories[0.6][0] > trajectories[0.2][0]
    for fraction, trajectory in trajectories.items():
        assert all(b <= a + 1e-9 for a, b in zip(trajectory, trajectory[1:])), (
            f"staleness not monotone for {fraction}: {trajectory}"
        )
        assert trajectory[-1] <= 0.02, (
            f"anti-entropy failed to converge for {fraction}: {trajectory}"
        )

    # Time reconciliation itself: each round runs on a freshly diverged
    # overlay, so it merges what the offline replicas missed.
    moved = []
    benchmark.pedantic(
        lambda pnet: moved.append(anti_entropy_round(pnet)),
        setup=lambda: ((_diverged_overlay(0.4)[0],), {}),
        rounds=3,
        iterations=1,
    )
    assert moved and all(moved), moved


def test_e9b_batched_ingest_messages_per_tuple(benchmark):
    """Destination-grouped batching amortizes routing across the batch.

    The same 100 tuples are ingested from one gateway peer at batch sizes
    1 / 10 / 100; routed messages per tuple must drop at least 2x between
    size 1 and size 100, while the stored data stays identical.
    """
    table = ResultTable(
        f"E9b: batched ingest cost ({INGEST_PEERS} peers, r=2, "
        f"{INGEST_TUPLES} tuples, 12 postings each)",
        ["batch size", "messages", "msg/tuple"],
    )
    per_tuple: dict[int, float] = {}
    entry_counts: dict[int, int] = {}
    bench_store = None
    for batch_size in BATCH_SIZES:
        store = UniStore.build(num_peers=INGEST_PEERS, replication=2, seed=7)
        gateway = store.pnet.peers[0]
        tuples = ingest_tuples(INGEST_TUPLES, seed=7)
        with store.pnet.net.frame() as frame:
            for chunk in batched(tuples, batch_size):
                store.insert_tuples(chunk, start=gateway)
        per_tuple[batch_size] = frame.messages / INGEST_TUPLES
        entry_counts[batch_size] = len(store.pnet.all_entries())
        table.add_row(batch_size, frame.messages, round(per_tuple[batch_size], 1))
        if batch_size == BATCH_SIZES[-1]:
            bench_store = store
    emit(table)

    # Identical data lands in the overlay regardless of batch size.
    assert len(set(entry_counts.values())) == 1
    # The batching win the tentpole claims: >= 2x fewer messages per tuple.
    assert per_tuple[100] * 2 <= per_tuple[1], per_tuple
    assert per_tuple[10] < per_tuple[1], per_tuple

    extra = ingest_tuples(10, seed=77)
    benchmark.pedantic(
        lambda: bench_store.insert_tuples(extra, start=bench_store.pnet.peers[0]),
        rounds=3,
        iterations=1,
    )
