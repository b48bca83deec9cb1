"""Per-peer local storage, and the one owner of replica state.

Each P-Grid peer owns a :class:`DataStore`: a versioned key/value multi-map
with a sorted key index for range scans.  Entries are identified by
``(key, item_id)`` — inserting a newer version of the same identity replaces
the old one (this is what the update protocol of paper ref. [4] relies on),
while distinct items may share a key (many triples can hash to one key).

Every copy, hand-off and merge of stored entries between peers goes through
this module, so the rule "which entries move, and which version wins" is
written once: :meth:`DataStore.merge` (newest version wins),
:meth:`DataStore.retain` (hand off what a peer no longer covers),
:meth:`DataStore.copy_from` (a joining or migrating replica) and
:func:`newest` (the newest version per identity over several stores).

The same primitives keep two summaries of the contents current: the entry
count (so ``len`` is O(1)) and, once :meth:`DataStore.digest` has been asked
for, a fingerprint of the stored ``(key, item_id, version)`` set.  Anti-entropy
compares fingerprints to skip replicas that already agree (see
:func:`repro.pgrid.updates.sync_pair`).  The fingerprint uses ``hash()``,
which ``PYTHONHASHSEED`` salts per process, so it only ever decides whether
to merge; no simulated figure reads it.

Keys are binary key strings (see :mod:`repro.pgrid.keys`); values are opaque
to this layer (the triple layer stores index postings here).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Iterator

from repro.pgrid.keys import KeyRange


@dataclass(frozen=True, slots=True)
class Entry:
    """One stored item: identity ``(key, item_id)``, payload ``value``, ``version``."""

    key: str
    item_id: str
    value: Any
    version: int = 0


class DataStore:
    """Sorted, versioned local store of one peer."""

    def __init__(self) -> None:
        self._by_key: dict[str, dict[str, Entry]] = {}
        self._sorted_keys: list[str] = []
        self._count = 0
        #: Sum of :func:`fingerprint` over the entries; None until
        #: :meth:`digest` first computes it, so bulk loads never pay for it.
        self._digest: int | None = None
        #: Bumped by every call that changes the contents, so local caches
        #: over the store (see :mod:`repro.triples.local_index`) can tell
        #: whether they are still valid.
        self.revision = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Entry]:
        for key in self._sorted_keys:
            yield from self._by_key[key].values()

    def digest(self) -> int:
        """Fingerprint of the stored ``(key, item_id, version)`` set.

        Two stores with equal digests hold the same identities at the same
        versions (up to a hash collision), so merging them both ways would
        move nothing.  Computed on the first call, then kept current by every
        primitive that changes the store.
        """
        if self._digest is None:
            self._digest = sum(map(fingerprint, self))
        return self._digest

    def put(self, entry: Entry) -> bool:
        """Insert or upgrade one entry; True when the store changed (see :meth:`merge`)."""
        return self.merge((entry,)) == 1

    def merge(self, entries: Iterable[Entry]) -> int:
        """Insert or upgrade each entry, in order; return how many changed the store.

        An entry changes the store when its identity is new or its version is
        strictly newer than the stored one.  Older or equal versions of an
        existing identity are ignored — this makes replica synchronisation
        idempotent and order-insensitive.  The revision moves by the count.
        """
        by_key = self._by_key
        digest = self._digest
        changed = upgraded = 0
        for entry in entries:
            items = by_key.get(entry.key)
            if items is None:
                bisect.insort(self._sorted_keys, entry.key)
                by_key[entry.key] = {entry.item_id: entry}
            else:
                existing = items.get(entry.item_id)
                if existing is not None:
                    if existing.version >= entry.version:
                        continue
                    upgraded += 1
                    if digest is not None:
                        digest -= fingerprint(existing)
                items[entry.item_id] = entry
            if digest is not None:
                digest += fingerprint(entry)
            changed += 1
        self._count += changed - upgraded
        self._digest = digest
        self.revision += changed
        return changed

    def delete(self, key: str, item_id: str) -> bool:
        """Remove one identity; returns True when it existed."""
        items = self._by_key.get(key)
        if not items or item_id not in items:
            return False
        entry = items.pop(item_id)
        self._count -= 1
        if self._digest is not None:
            self._digest -= fingerprint(entry)
        if not items:
            del self._by_key[key]
            index = bisect.bisect_left(self._sorted_keys, key)
            del self._sorted_keys[index]
        self.revision += 1
        return True

    def get(self, key: str) -> list[Entry]:
        """All entries stored exactly under ``key``."""
        items = self._by_key.get(key)
        return list(items.values()) if items else []

    def get_entry(self, key: str, item_id: str) -> Entry | None:
        items = self._by_key.get(key)
        return items.get(item_id) if items else None

    def scan(self, key_range: KeyRange) -> list[Entry]:
        """All entries whose key lies in the half-open ``key_range``, in key order.

        The matching keys are one contiguous run of the sorted key index:
        bisecting for the range's canonical bounds finds both ends exactly
        (see :mod:`repro.pgrid.keys`), so the cost is ``O(log n + k)`` with no
        per-key check.
        """
        start, stop = self._bounds(key_range)
        return self._entries(self._sorted_keys[start:stop])

    def partition(self, prefix_zero: str) -> tuple[list[Entry], list[Entry]]:
        """Split all entries into (covered by ``prefix_zero``, the rest), in key order.

        Used when a replica group splits its path: the '0'-side keeps the
        first list, the '1'-side the second.
        """
        start, stop = self._bounds(KeyRange.subtree(prefix_zero))
        keys = self._sorted_keys
        return self._entries(keys[start:stop]), self._entries(keys[:start] + keys[stop:])

    def _bounds(self, key_range: KeyRange) -> tuple[int, int]:
        """Slice ``[start, stop)`` of the sorted key index that ``key_range`` covers."""
        keys = self._sorted_keys
        start = bisect.bisect_left(keys, key_range.canonical_lo)
        if key_range.canonical_hi is None:
            return start, len(keys)
        return start, bisect.bisect_left(keys, key_range.canonical_hi, start)

    def _entries(self, keys: list[str]) -> list[Entry]:
        return [entry for key in keys for entry in self._by_key[key].values()]

    def keys(self) -> list[str]:
        """Sorted list of distinct keys (copy)."""
        return list(self._sorted_keys)

    def clear(self) -> None:
        self._by_key.clear()
        self._sorted_keys.clear()
        self._count = 0
        self._digest = 0
        self.revision += 1

    def retain(self, prefix: str, inside: bool = True) -> list[Entry]:
        """Keep only the entries in the subtree of ``prefix`` (with ``inside=False``,
        those outside it); remove and return the others, in key order.  Like
        :meth:`partition`, two bisects of the sorted key index find the subtree."""
        start, stop = self._bounds(KeyRange.subtree(prefix))
        keys = self._sorted_keys
        sides = keys[start:stop], keys[:start] + keys[stop:]
        kept, dropped = sides if inside else sides[::-1]
        handed = self._entries(dropped)
        for key in dropped:
            del self._by_key[key]
        self._sorted_keys = kept
        self._count -= len(handed)
        if self._digest is not None:
            self._digest -= sum(map(fingerprint, handed))
        self.revision += len(handed)
        return handed

    def copy_from(self, other: "DataStore") -> int:
        """Replace the contents with ``other``'s, in its order; return the entry count."""
        self._by_key = {key: dict(items) for key, items in other._by_key.items()}
        self._sorted_keys = list(other._sorted_keys)
        self._count = other._count
        self._digest = other._digest
        self.revision += 1
        return self._count


def fingerprint(entry: Entry) -> int:
    """One entry's share of :meth:`DataStore.digest`: its versioned identity's
    hash, squared.

    The square matters.  A tuple's hash is close to linear in its last
    element, so with plain hashes one identity moving up a version and
    another moving down often cancel in the sum; squaring breaks that
    linearity.
    """
    hashed = hash((entry.key, entry.item_id, entry.version))
    return hashed * hashed


def newest(sources: Iterable[Iterable[Entry]]) -> list[Entry]:
    """The newest version of each identity over ``sources``, in first-seen order."""
    seen: dict[tuple[str, str], Entry] = {}
    for entry in chain.from_iterable(sources):
        existing = seen.get((entry.key, entry.item_id))
        if existing is None or entry.version > existing.version:
            seen[entry.key, entry.item_id] = entry
    return list(seen.values())
