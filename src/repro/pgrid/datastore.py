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
        #: Bumped by every call that changes the contents, so local caches
        #: over the store (see :mod:`repro.triples.local_index`) can tell
        #: whether they are still valid.
        self.revision = 0

    def __len__(self) -> int:
        return sum(len(items) for items in self._by_key.values())

    def __iter__(self) -> Iterator[Entry]:
        for key in self._sorted_keys:
            yield from self._by_key[key].values()

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
        changed = 0
        for entry in entries:
            items = by_key.get(entry.key)
            if items is None:
                bisect.insort(self._sorted_keys, entry.key)
                by_key[entry.key] = {entry.item_id: entry}
            else:
                existing = items.get(entry.item_id)
                if existing is not None and existing.version >= entry.version:
                    continue
                items[entry.item_id] = entry
            changed += 1
        self.revision += changed
        return changed

    def delete(self, key: str, item_id: str) -> bool:
        """Remove one identity; returns True when it existed."""
        items = self._by_key.get(key)
        if not items or item_id not in items:
            return False
        del items[item_id]
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
        self.revision += len(handed)
        return handed

    def copy_from(self, other: "DataStore") -> int:
        """Replace the contents with ``other``'s, in its order; return the entry count."""
        self._by_key = {key: dict(items) for key, items in other._by_key.items()}
        self._sorted_keys = list(other._sorted_keys)
        self.revision += 1
        return len(self)


def newest(sources: Iterable[Iterable[Entry]]) -> list[Entry]:
    """The newest version of each identity over ``sources``, in first-seen order."""
    seen: dict[tuple[str, str], Entry] = {}
    for entry in chain.from_iterable(sources):
        existing = seen.get((entry.key, entry.item_id))
        if existing is None or entry.version > existing.version:
            seen[entry.key, entry.item_id] = entry
    return list(seen.values())
