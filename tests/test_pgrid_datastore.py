"""Per-peer datastore: versioned upserts, range scans, partitioning, digests."""

import random
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgrid import build_network, bulk_load, encode_string
from repro.pgrid.datastore import DataStore, Entry, fingerprint, newest
from repro.pgrid.keys import KeyRange
from repro.pgrid.updates import anti_entropy_round, sync_pair
from repro.triples.local_index import tuple_index

KEYS = st.text(alphabet="01", min_size=1, max_size=8)
# Any key, the empty one included; trailing zeros make distinct keys share a point.
ANY_KEYS = st.builds(
    lambda key, zeros: key + "0" * zeros, st.text(alphabet="01", max_size=6), st.integers(0, 3)
)


def key_fraction(key: str) -> Fraction:
    """Oracle: the point a key denotes, as an exact binary fraction."""
    return sum((Fraction(1, 2**i) for i, bit in enumerate(key, 1) if bit == "1"), Fraction(0))


def _store_of(keys: list[str]) -> DataStore:
    store = DataStore()
    for index, key in enumerate(keys):
        store.put(Entry(key=key, item_id=f"i{index % 3}", value=key, version=0))
    return store


def _identities(entries) -> list[tuple[str, str]]:
    return [(e.key, e.item_id) for e in entries]


def _entry(key, item="x", value=None, version=0):
    return Entry(key=key, item_id=item, value=value if value is not None else key, version=version)


class TestPutGet:
    def test_put_and_get(self):
        store = DataStore()
        assert store.put(_entry("0101"))
        assert [e.value for e in store.get("0101")] == ["0101"]

    def test_multiple_items_one_key(self):
        store = DataStore()
        store.put(_entry("01", item="a"))
        store.put(_entry("01", item="b"))
        assert len(store.get("01")) == 2
        assert len(store) == 2

    def test_version_upgrade(self):
        store = DataStore()
        store.put(_entry("01", version=1, value="old"))
        assert store.put(_entry("01", version=2, value="new"))
        assert store.get_entry("01", "x").value == "new"

    def test_stale_version_ignored(self):
        store = DataStore()
        store.put(_entry("01", version=5, value="current"))
        assert not store.put(_entry("01", version=3, value="stale"))
        assert store.get_entry("01", "x").value == "current"

    def test_equal_version_idempotent(self):
        store = DataStore()
        store.put(_entry("01", version=1))
        assert not store.put(_entry("01", version=1))
        assert len(store) == 1

    def test_delete(self):
        store = DataStore()
        store.put(_entry("01"))
        assert store.delete("01", "x")
        assert not store.delete("01", "x")
        assert store.get("01") == []
        assert len(store) == 0

    def test_retain(self):
        store = DataStore()
        store.put(_entry("00", item="keep"))
        store.put(_entry("01", item="drop"))
        removed = store.retain("00")
        assert _identities(removed) == [("01", "drop")]
        assert [e.item_id for e in store] == ["keep"]
        assert _identities(store.retain("00", inside=False)) == [("00", "keep")]
        assert len(store) == 0 and store.keys() == []

    def test_merge_counts_changes(self):
        store = DataStore()
        twice = _entry("01", version=1)
        assert store.merge([twice, _entry("01", "b"), twice]) == 2
        assert store.merge([_entry("01", version=2, value="new"), _entry("01", version=0)]) == 1
        assert store.get_entry("01", "x").value == "new"
        assert [e.item_id for e in store] == ["x", "b"]

    def test_copy_from(self):
        source, store = _store_of(["1", "0", "01"]), _store_of(["11"])
        assert store.copy_from(source) == 3
        assert list(store) == list(source)
        source.put(_entry("111"))
        assert len(store) == 3  # an independent copy

    def test_newest_keeps_first_seen_order(self):
        old, new, other = _entry("1", "a", version=1), _entry("1", "a", "n", 2), _entry("0", "b")
        assert newest([[old, other], [new, old]]) == [new, other]

    def test_iteration_sorted_by_key(self):
        store = DataStore()
        for key in ["11", "00", "01"]:
            store.put(_entry(key))
        assert [e.key for e in store] == ["00", "01", "11"]

    def test_clear(self):
        store = DataStore()
        store.put(_entry("01"))
        store.clear()
        assert len(store) == 0 and store.keys() == []


class TestRevision:
    def test_moves_on_every_change(self):
        store = DataStore()
        revisions = [store.revision]

        def changed():
            revisions.append(store.revision)
            return revisions[-1] != revisions[-2]

        assert store.put(_entry("01", "a")) and changed()  # new key
        assert store.put(_entry("01", "b")) and changed()  # new item under a key
        assert store.put(_entry("01", "a", version=1)) and changed()  # newer version
        assert store.delete("01", "b") and changed()
        assert len(store.retain("01", inside=False)) == 1 and changed()
        assert store.merge([_entry("01", "a", version=2), _entry("11")]) == 2 and changed()
        assert store.copy_from(_store_of(["0"])) == 1 and changed()
        store.put(_entry("10"))
        changed()
        store.clear()
        assert changed()

    def test_still_on_no_op_calls(self):
        store = DataStore()
        store.put(_entry("01", "a", version=2))
        before = store.revision
        assert not store.put(_entry("01", "a", version=2))  # same version
        assert not store.put(_entry("01", "a", version=1))  # older version
        assert not store.delete("01", "missing")
        assert not store.delete("11", "a")
        assert store.retain("") == []
        assert store.retain("1", inside=False) == []
        assert store.merge([_entry("01", "a", version=1)]) == 0
        assert store.revision == before


class TestScan:
    def test_scan_subtree(self):
        store = DataStore()
        for key in ["000", "010", "011", "100"]:
            store.put(_entry(key))
        found = store.scan(KeyRange.subtree("01"))
        assert sorted(e.key for e in found) == ["010", "011"]

    def test_scan_everything(self):
        store = DataStore()
        for key in ["0", "10", "111"]:
            store.put(_entry(key))
        assert len(store.scan(KeyRange.everything())) == 3

    def test_scan_zero_padded_edge(self):
        # "01" and "010" denote the same point; both must be found at the low edge.
        store = DataStore()
        store.put(_entry("01"))
        store.put(_entry("010"))
        found = store.scan(KeyRange("010", "011"))
        assert sorted(e.key for e in found) == ["01", "010"]

    def test_partition(self):
        store = DataStore()
        for key in ["000", "001", "010", "011"]:
            store.put(_entry(key))
        zeros, ones = store.partition("000".rstrip("0") or "00")  # prefix "00"
        zeros, ones = store.partition("00")
        assert sorted(e.key for e in zeros) == ["000", "001"]
        assert sorted(e.key for e in ones) == ["010", "011"]

    @given(st.lists(KEYS, max_size=30), KEYS, KEYS)
    @settings(max_examples=100)
    def test_scan_matches_naive_filter(self, keys, lo, hi):
        if key_fraction(lo) > key_fraction(hi):
            lo, hi = hi, lo
        store = DataStore()
        for index, key in enumerate(keys):
            store.put(Entry(key=key, item_id=f"i{index}", value=key, version=0))
        key_range = KeyRange(lo, hi if key_fraction(hi) > key_fraction(lo) else None)
        upper = key_fraction(hi) if key_range.hi is not None else Fraction(1)
        got = sorted((e.key, e.item_id) for e in store.scan(key_range))
        expected = sorted(
            (e.key, e.item_id) for e in store if key_fraction(lo) <= key_fraction(e.key) < upper
        )
        assert got == expected


class TestAgainstFractionOracle:
    """scan/partition select by exact points and keep iteration order."""

    @given(st.lists(ANY_KEYS, max_size=30), ANY_KEYS, st.none() | ANY_KEYS)
    @settings(max_examples=200)
    def test_scan_membership_and_order(self, keys, lo, hi):
        store = _store_of(keys)
        lower = key_fraction(lo)
        upper = Fraction(1) if hi is None else key_fraction(hi)
        expected = [e for e in store if lower <= key_fraction(e.key) < upper]
        assert _identities(store.scan(KeyRange(lo, hi))) == _identities(expected)

    @given(st.lists(ANY_KEYS, max_size=30), ANY_KEYS)
    @settings(max_examples=200)
    def test_partition_membership_and_order(self, keys, prefix):
        store = _store_of(keys)
        lower = key_fraction(prefix)
        upper = lower + Fraction(1, 2 ** len(prefix))
        inside = [e for e in store if lower <= key_fraction(e.key) < upper]
        outside = [e for e in store if not lower <= key_fraction(e.key) < upper]
        keep, give = store.partition(prefix)
        assert _identities(keep) == _identities(inside)
        assert _identities(give) == _identities(outside)

    @given(st.lists(ANY_KEYS, max_size=30), ANY_KEYS, st.booleans())
    @settings(max_examples=200)
    def test_retain_membership_and_order(self, keys, prefix, inside):
        store = _store_of(keys)
        keep, give = store.partition(prefix)
        if not inside:
            keep, give = give, keep
        assert _identities(store.retain(prefix, inside)) == _identities(give)
        assert _identities(store) == _identities(keep)
        assert store.keys() == sorted({e.key for e in keep})


# Small identity and version domains, so stores often share entries.
ENTRIES = st.builds(
    Entry,
    key=st.text(alphabet="01", max_size=3),
    item_id=st.sampled_from("abc"),
    value=st.integers(0, 2),
    version=st.integers(0, 3),
)
STORE_OPS = st.one_of(
    st.tuples(st.just("put"), ENTRIES),
    st.tuples(st.just("merge"), st.lists(ENTRIES, max_size=5)),
    st.tuples(st.just("delete"), ENTRIES),
    st.tuples(st.just("retain"), st.text(alphabet="01", max_size=3), st.booleans()),
    st.tuples(st.just("copy_from"), st.lists(ENTRIES, max_size=5), st.booleans()),
    st.tuples(st.just("clear")),
)


def _filled(entries, with_digest=False) -> DataStore:
    store = DataStore()
    store.merge(entries)
    if with_digest:
        store.digest()
    return store


def _apply(store: DataStore, op) -> None:
    name, *args = op
    if name == "put":
        store.put(args[0])
    elif name == "merge":
        store.merge(args[0])
    elif name == "delete":
        store.delete(args[0].key, args[0].item_id)
    elif name == "retain":
        store.retain(*args)
    elif name == "copy_from":
        store.copy_from(_filled(*args))
    else:
        store.clear()


def _versioned(store: DataStore) -> set[tuple[str, str, int]]:
    return {(e.key, e.item_id, e.version) for e in store}


class TestDigest:
    """``len`` and ``digest`` are kept current by every primitive."""

    @given(st.lists(STORE_OPS, max_size=14), st.integers(0, 14))
    @settings(max_examples=300)
    def test_matches_a_recomputation_after_every_step(self, ops, first_digest):
        store = DataStore()
        for step, op in enumerate([None, *ops]):
            if op is not None:
                _apply(store, op)
            if step == first_digest:
                store.digest()  # from here on the primitives maintain it
            assert len(store) == sum(1 for _ in store)
            if step >= first_digest:
                assert store.digest() == sum(fingerprint(e) for e in store)

    @given(st.lists(ENTRIES, max_size=8), st.lists(ENTRIES, max_size=8), st.booleans())
    @settings(max_examples=300)
    def test_equal_exactly_when_a_two_way_merge_moves_nothing(self, left, right, twin):
        if twin:  # the same entries in another order, sometimes with one more
            right = random.Random(len(left)).sample(left, len(left)) + right[:1]
        a, b = _filled(left, with_digest=True), _filled(right)
        agree = a.digest() == b.digest()
        assert agree == (_versioned(a) == _versioned(b))
        moved = b.merge(a) + a.merge(b)
        assert agree == (moved == 0)
        assert a.digest() == b.digest() and len(a) == len(b)

    @given(st.lists(ENTRIES, max_size=8), st.lists(ENTRIES, max_size=8))
    @settings(max_examples=200)
    def test_sync_pair_equals_the_full_merge(self, left, right):
        a, b = SimpleNamespace(store=_filled(left)), SimpleNamespace(store=_filled(right))
        full_a, full_b = _filled(left), _filled(right)
        moved = full_b.merge(full_a) + full_a.merge(full_b)
        revisions = (a.store.revision, b.store.revision)
        assert sync_pair(a, b) == moved
        assert list(a.store) == list(full_a) and list(b.store) == list(full_b)
        if moved == 0:
            assert (a.store.revision, b.store.revision) == revisions
        assert sync_pair(a, b) == 0  # replicas now agree

    def test_opposite_version_moves_do_not_cancel(self):
        # One identity a version up, another a version down: with unsquared
        # tuple hashes the two sums agree for about one pair in five.
        for n in range(64):
            older = _filled([_entry(f"0{n:b}", "a", version=2), _entry(f"1{n:b}", "b", version=1)])
            newer = _filled([_entry(f"0{n:b}", "a", version=3), _entry(f"1{n:b}", "b", version=0)])
            assert older.digest() != newer.digest()

    def test_computed_only_when_first_asked(self):
        store = _filled([_entry("01", "a"), _entry("10", "b", version=2)])
        assert store._digest is None and len(store) == 2
        store.clear()
        assert store._digest == 0 and len(store) == 0

    def test_agreeing_replicas_keep_revisions_and_local_index_caches(self):
        pnet = build_network(8, replication=2, seed=1, split_by="population")
        bulk_load(pnet, [(encode_string(w), w, w) for w in ("ant", "bee", "cat", "dog")])
        key = encode_string("cat")
        first, second = pnet.responsible_group(key)
        second.fail()
        pnet.update(key, "cat", "lynx")
        second.recover()
        assert anti_entropy_round(pnet, random.Random(0)) >= 1
        assert anti_entropy_round(pnet, random.Random(1)) == 0
        indexes = [tuple_index(p.store, list(p.store)) for p in (first, second)]
        revisions = [first.store.revision, second.store.revision]
        assert sync_pair(first, second) == 0
        assert [first.store.revision, second.store.revision] == revisions
        for peer, index in zip((first, second), indexes):
            assert tuple_index(peer.store, list(peer.store)) is index
