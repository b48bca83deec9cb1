"""Oracle bulk load, range-restricted global scans and catalog statistics.

``bulk_load`` sorts the entries once and hands each leaf group one slice of
them; these tests hold it to a per-entry placement that asks every peer
whether it is responsible.  ``all_entries(key_range)`` and
``CatalogStatistics.from_store`` are held to full rescans of the store.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import UniStore
from repro.bench import ConferenceWorkload
from repro.net.network import Network
from repro.optimizer.statistics import AttributeStats, CatalogStatistics
from repro.pgrid import build_network, bulk_load
from repro.pgrid.datastore import Entry
from repro.pgrid.keys import KeyRange, responsible
from repro.pgrid.network import PGridNetwork
from repro.triples.index import INDEX_TAG, IndexKind
from repro.triples.triple import Triple

SLOW = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Short bit strings: the empty key, keys shorter than deep paths, and keys
#: with trailing zeros (which denote the same point as their trimmed form).
KEYS = st.text(alphabet="01", max_size=10)

#: Few item ids, so one identity repeats inside a load and across loads.
ITEMS = st.lists(
    st.tuples(KEYS, st.sampled_from(["a", "b", "c"]), st.integers(0, 99)), max_size=40
)


def oracle_load(pnet: PGridNetwork, items) -> None:
    """Per-entry placement: every peer responsible for the key stores it."""
    for key, item_id, value in items:
        entry = Entry(key=key, item_id=item_id, value=value, version=pnet.next_version())
        for peer in pnet.peers:
            if responsible(peer.path, key):
                peer.store.put(entry)


def stores(pnet: PGridNetwork) -> list:
    """Every peer's store: iteration order, identities, versions, key index."""
    return [
        (
            peer.node_id,
            peer.path,
            [(e.key, e.item_id, e.value, e.version) for e in peer.store],
            list(peer.store._sorted_keys),
            peer.store.revision,
        )
        for peer in pnet.peers
    ]


def twin_networks(num_peers, replication, split_by, data_keys, seed):
    return [
        build_network(
            num_peers,
            data_keys=data_keys,
            replication=replication,
            split_by=split_by,
            seed=seed,
        )
        for _ in range(2)
    ]


class TestPlacement:
    @given(
        num_peers=st.integers(1, 24),
        replication=st.integers(1, 3),
        split_by=st.sampled_from(["data", "population"]),
        first=ITEMS,
        second=ITEMS,
        seed=st.integers(0, 1000),
    )
    @SLOW
    def test_matches_per_entry_placement(
        self, num_peers, replication, split_by, first, second, seed
    ):
        data_keys = [key for key, _item, _value in first]
        loaded, oracle = twin_networks(num_peers, replication, split_by, data_keys, seed)
        assert loaded.trie_paths() == oracle.trie_paths()
        for items in (first, second):
            bulk_load(loaded, items)
            oracle_load(oracle, items)
        assert stores(loaded) == stores(oracle)
        assert loaded.next_version() == oracle.next_version()

    def test_deep_trie_short_and_trailing_zero_keys(self):
        # All keys denote the point 0, so the data split drives one branch
        # to the depth cap and every key is shorter than the deepest path.
        items = [("", "a", 1), ("0", "b", 2), ("000", "c", 3), ("1", "d", 4), ("00", "a", 5)]
        data_keys = [key for key, _item, _value in items]
        loaded, oracle = twin_networks(16, 2, "data", data_keys, seed=3)
        assert max(len(path) for path in loaded.trie_paths()) > 3
        bulk_load(loaded, items)
        oracle_load(oracle, items)
        assert stores(loaded) == stores(oracle)
        assert sum(peer.load for peer in loaded.peers) == 2 * len(items)

    def test_repeated_identity_keeps_the_last_version(self):
        pnet = build_network(4, replication=2, seed=1, split_by="population")
        bulk_load(pnet, [("0110", "x", "old"), ("0110", "x", "new")])
        bulk_load(pnet, [("1", "y", "only"), ("01100", "x", "other key")])
        holders = pnet.responsible_group("0110")
        assert len(holders) == 2
        for peer in holders:
            assert [e.value for e in peer.store.get("0110")] == ["new"]
            assert peer.store.get_entry("0110", "x").version == 2


def partial_overlay(paths: list[str]) -> PGridNetwork:
    pnet = PGridNetwork(Network(seed=0))
    for index, path in enumerate(paths):
        pnet.add_peer(f"peer-{index}", path=path)
    return pnet


class TestCoverage:
    @pytest.mark.parametrize(
        "paths, keys",
        [
            (["0", "10"], ["0", "11"]),  # above the last group
            (["00", "1"], ["000", "0101", "1"]),  # in a gap between groups
            (["1"], ["0", "1"]),  # below the first group
        ],
    )
    def test_uncovered_key(self, paths, keys):
        pnet = partial_overlay(paths)
        with pytest.raises(LookupError, match="no responsible group"):
            bulk_load(pnet, [(key, key, None) for key in keys])

    @pytest.mark.parametrize(
        "paths, key",
        [(["0", "00", "1"], "0001"), (["", "1"], "11"), (["01", "011", "0111"], "0111")],
    )
    def test_overlapping_paths(self, paths, key):
        pnet = partial_overlay(paths)
        with pytest.raises(LookupError, match="two groups"):
            bulk_load(pnet, [(key, "x", None)])


def diverged_overlay() -> PGridNetwork:
    """Sixteen peers, r=2, whose replicas disagree after routed writes."""
    rng = random.Random(5)
    keys = ["".join(rng.choice("01") for _ in range(rng.randint(0, 12))) for _ in range(120)]
    pnet = build_network(16, data_keys=keys, replication=2, seed=5)
    bulk_load(pnet, [(key, f"i{index}", index) for index, key in enumerate(keys)])
    offline = pnet.peers[3]
    offline.fail()
    for index, key in enumerate(keys[:60]):
        if index % 2:
            pnet.update(key, f"i{index}", -index)
        else:
            pnet.insert(key, index, item_id=f"r{index}")
    offline.recover()
    return pnet


class TestRangedEntries:
    def test_replicas_diverged(self):
        pnet = diverged_overlay()
        versions: dict[tuple[str, str], set[int]] = {}
        for peer in pnet.peers:
            for entry in peer.store:
                versions.setdefault((entry.key, entry.item_id), set()).add(entry.version)
        assert any(len(found) > 1 for found in versions.values())

    def test_range_equals_filtered_full_scan(self):
        pnet = diverged_overlay()
        full = pnet.all_entries()
        rng = random.Random(9)
        ranges = [KeyRange.everything(), KeyRange.at_least("1"), KeyRange("", "0")]
        ranges += [KeyRange.subtree(path) for path in pnet.trie_paths()[:6]]
        for _ in range(20):
            lo, hi = sorted("".join(rng.choice("01") for _ in range(6)) for _ in range(2))
            ranges.append(KeyRange(lo, hi))
        for key_range in ranges:
            expected = [e for e in full if key_range.contains(e.key)]
            assert pnet.all_entries(key_range) == expected, key_range


def full_rescan_statistics(store: UniStore) -> tuple[int, int, dict[str, AttributeStats]]:
    """Catalog figures from every entry of the overlay, A#v-tagged triples kept."""
    attributes: dict[str, AttributeStats] = {}
    distinct: dict[str, set] = {}
    oids: set[str] = set()
    total = 0
    for entry in store.pnet.all_entries():
        triple = entry.value
        if not isinstance(triple, Triple) or not entry.key.startswith(INDEX_TAG[IndexKind.AV]):
            continue
        total += 1
        oids.add(triple.oid)
        attr = attributes.setdefault(triple.attribute, AttributeStats())
        attr.count += 1
        distinct.setdefault(triple.attribute, set()).add(triple.value)
        if isinstance(triple.value, str):
            attr.string_count += 1
            attr.avg_string_length += len(triple.value)
        else:
            attr.numeric_count += 1
            value = float(triple.value)
            if attr.numeric_min is None or value < attr.numeric_min:
                attr.numeric_min = value
            if attr.numeric_max is None or value > attr.numeric_max:
                attr.numeric_max = value
    for name, attr in attributes.items():
        attr.distinct = len(distinct[name])
        if attr.string_count:
            attr.avg_string_length /= attr.string_count
    return total, len(oids), attributes


def assert_statistics_match(store: UniStore) -> None:
    stats = CatalogStatistics.from_store(store.store)
    total, distinct_oids, attributes = full_rescan_statistics(store)
    assert (stats.total_triples, stats.distinct_oids) == (total, distinct_oids)
    assert stats.attributes == attributes


class TestStatistics:
    def test_bulk_loaded_store(self, conference_store):
        assert_statistics_match(conference_store)

    def test_after_routed_ingest_churn_and_rebalance(self):
        store = UniStore.build(24, replication=2, seed=8, enable_qgram_index=True)
        ConferenceWorkload(num_authors=12, num_publications=30, seed=8).load_into(store)
        store.pnet.peers[2].fail()
        store.insert_tuples(
            [{"title": f"routed {index}", "year": 2000 + index} for index in range(8)]
        )
        store.pnet.peers[2].recover()
        store.rebalance(capacity=40)
        assert_statistics_match(store)


DIGEST_SCRIPT = """
import hashlib
from repro import UniStore
from repro.bench import ConferenceWorkload

store = UniStore.build(16, replication=2, seed=4, enable_qgram_index=True)
ConferenceWorkload(num_authors=10, num_publications=20, seed=4).load_into(store)
digest = hashlib.sha256()
for peer in store.pnet.peers:
    digest.update(peer.node_id.encode())
    for entry in peer.store:
        digest.update(f"{entry.key}|{entry.item_id}|{entry.version}".encode())
print(digest.hexdigest())
"""


def test_qgram_load_independent_of_hash_seed():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        digests.add(completed.stdout.strip())
    assert len(digests) == 1
