"""Per-peer tuple index over the OID postings one peer holds.

All postings of one OID hash to the same OID-index key, so a peer's slice of
the OID subtree holds *complete* tuples and can answer a star over one
subject locally (paper §2, "efficient reproduction of origin data").  The
:class:`TupleIndex` regroups that slice into tuples once, and adds the two
inverted lists a star scan needs to skip tuples that cannot match:
``attribute -> [oid]`` and ``attribute -> value -> [oid]``.

The index is a cache of local state, not part of the overlay: it is built by
the first star scan that reaches a peer, reused while the peer's
:attr:`DataStore.revision` is unchanged, and rebuilt after any write.  No
write path builds or updates it, and it sends nothing, so simulated cost is
unaffected.  It holds references to the stored :class:`Triple` objects,
which are immutable, not copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from repro.pgrid.datastore import DataStore, Entry
from repro.triples.store import stored_triples
from repro.triples.triple import Triple, Value


@dataclass
class TupleIndex:
    """The tuples of one peer's OID postings, in first-seen order.

    An OID's *ordinal* is the position of its first posting among the
    peer's entries; every OID list here is in ordinal order, so evaluating
    candidates in list order yields rows in entry order.
    """

    revision: int
    #: oid -> its deduplicated triples, in entry order (dict order = ordinal).
    triples: dict[str, list[Triple]]
    #: oid -> attribute -> that attribute's triples, in entry order.
    attributes: dict[str, dict[str, list[Triple]]]
    #: oid -> ordinal.
    ordinal: dict[str, int]
    #: attribute -> oids having it.
    by_attribute: dict[str, list[str]]
    #: attribute -> value -> oids having that value (values compare by ``==``).
    values: dict[str, dict[Value, list[str]]]


_INDEXES: WeakKeyDictionary[DataStore, TupleIndex] = WeakKeyDictionary()


def tuple_index(store: DataStore, entries: list[Entry]) -> TupleIndex:
    """The tuple index of ``store``, whose OID-subtree entries are ``entries``.

    Built from ``entries`` when ``store`` has none yet or has changed since
    (its revision moved); otherwise the cached index is returned as is.
    """
    index = _INDEXES.get(store)
    if index is None or index.revision != store.revision:
        index = _build(entries, store.revision)
        _INDEXES[store] = index
    return index


def _build(entries: list[Entry], revision: int) -> TupleIndex:
    triples: dict[str, list[Triple]] = {}
    for triple in stored_triples(entries):
        triples.setdefault(triple.oid, []).append(triple)

    attributes: dict[str, dict[str, list[Triple]]] = {}
    by_attribute: dict[str, list[str]] = {}
    values: dict[str, dict[Value, list[str]]] = {}
    # Walking OIDs in ordinal order keeps every list in ordinal order even
    # when OIDs sharing one key interleave their entries; an OID's additions
    # to one list are contiguous, so checking the last element deduplicates.
    for oid, own in triples.items():
        grouped: dict[str, list[Triple]] = {}
        for triple in own:
            grouped.setdefault(triple.attribute, []).append(triple)
        attributes[oid] = grouped
        for attribute, group in grouped.items():
            by_attribute.setdefault(attribute, []).append(oid)
            by_value = values.setdefault(attribute, {})
            for triple in group:
                oids = by_value.setdefault(triple.value, [])
                if not oids or oids[-1] != oid:
                    oids.append(oid)
    ordinal = {oid: position for position, oid in enumerate(triples)}
    return TupleIndex(revision, triples, attributes, ordinal, by_attribute, values)
