"""The distributed triple store — the paper's "Triple Manager" + "Storage
Service" pair (Fig. 1, layers 2-3).

``DistributedTripleStore`` publishes each triple under the three default
indexes (plus, optionally, a q-gram similarity index over string values).
The stored value under every index key is the :class:`Triple` itself; the
key's 2-bit tag (:data:`~repro.triples.index.INDEX_TAG`) says which index
an entry belongs to.  :func:`stored_triples` and :func:`stored_matches` are
the decoders of stored values: the first yields the distinct triples of
some entries, the second the matches of the distinct triples a matcher
accepts.  Both skip values that are not a ``Triple`` (an application may
store its own values in the same overlay).

The physical query operators do not read through this class: they call the
overlay's :meth:`~repro.pgrid.network.PGridNetwork.lookup_at` and
:meth:`~repro.pgrid.network.PGridNetwork.lookup_many` and the shower /
sequential range groups directly, and decode with :func:`stored_matches`.
Here live:

* maintenance — :meth:`insert`/:meth:`insert_tuple`/:meth:`insert_tuples_batch`,
  :meth:`update_value` and :meth:`delete`, each one write wave
  (:meth:`~repro.pgrid.network.PGridNetwork.write`), so a write that cannot
  reach one of its index keys changes no index; oracle :meth:`bulk_insert`
  for benchmark setup;
* reads — :meth:`by_oid`/:meth:`by_oids` and :meth:`by_attribute_value`,
  used by the schema-mapping layer (:mod:`repro.triples.mappings`).
  :meth:`by_value`, :meth:`attribute_range`, :meth:`attribute_all`,
  :meth:`attribute_prefix`, :meth:`value_range`, :meth:`value_prefix` and
  :meth:`qgram_postings` have no caller in the package; they stay because
  the wall-clock tracer (``perfbench/tracing.py``) wraps every read by name.

Every method returns the causal :class:`~repro.net.trace.Trace` alongside its
result, so upper layers can compose full query-plan costs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import TypeVar

from repro.errors import StorageError
from repro.net.trace import Trace
from repro.pgrid.construction import bulk_load
from repro.pgrid.datastore import Entry
from repro.pgrid.keys import KeyRange
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.range_query import range_query_sequential, range_query_shower
from repro.strings.qgrams import qgrams
from repro.triples.index import (
    IndexKind,
    av_attribute_range,
    av_key,
    av_string_prefix_range,
    av_value_range,
    oid_key,
    qgram_key,
    triple_keys,
    v_key,
    v_string_prefix_range,
    v_value_range,
)
from repro.triples.triple import Triple, Value, triples_from_tuple


#: ``kind.value`` per index kind, read from a dict: ``Enum.value`` goes
#: through a descriptor, and bulk loads build one item id per posting.
_KIND_TAG = {kind: kind.value for kind in IndexKind}

T = TypeVar("T")


def _item_id(kind: IndexKind, identity: str, extra: str = "") -> str:
    """DHT item id of a posting of the triple with ``identity``."""
    suffix = f"\x03{extra}" if extra else ""
    return f"{_KIND_TAG[kind]}\x03{identity}{suffix}"


def stored_triples(entries: Iterable[Entry]) -> Iterator[Triple]:
    """The distinct triples stored in ``entries``, in first-seen order.

    Values that are not a :class:`Triple` are skipped.  Which index an
    entry belongs to is its key's tag, so a reader that stays inside one
    index's subtree needs nothing else to decode it.
    """
    seen: set[Triple] = set()
    for entry in entries:
        triple = entry.value
        if isinstance(triple, Triple) and triple not in seen:
            seen.add(triple)
            yield triple


def stored_matches(entries: Iterable[Entry], match: Callable[[Triple], T | None]) -> list[T]:
    """``match``'s results for the distinct triples stored in ``entries``
    that it accepts (returns other than ``None`` for), in first-seen order.

    Values that are not a :class:`Triple` are skipped.  Only accepted
    triples are deduplicated; equal triples are accepted alike, so the
    results and their order are those of matching :func:`stored_triples`.
    """
    found: dict[Triple, T] = {}  # keeps the first of equal triples
    for entry in entries:
        triple = entry.value
        if isinstance(triple, Triple) and (result := match(triple)) is not None:
            found.setdefault(triple, result)
    return list(found.values())


class DistributedTripleStore:
    """Triple storage layer over a P-Grid overlay."""

    def __init__(
        self,
        pnet: PGridNetwork,
        enable_qgram_index: bool = False,
        qgram_q: int = 3,
        qgram_attributes: set[str] | None = None,
    ):
        self.pnet = pnet
        self.enable_qgram_index = enable_qgram_index
        self.qgram_q = qgram_q
        self.qgram_attributes = qgram_attributes

    # -- posting construction --------------------------------------------------

    def postings(self, triple: Triple) -> list[tuple[str, str, Triple]]:
        """All ``(key, item_id, triple)`` a triple is published under.

        Q-gram postings follow the grams' first occurrence in the value, so
        the order (and the versions a load assigns) never depends on hashing.
        """
        identity = triple.identity()
        oid, av, v = triple_keys(triple.oid, triple.attribute, triple.value)
        entries = [
            (oid, _item_id(IndexKind.OID, identity), triple),
            (av, _item_id(IndexKind.AV, identity), triple),
            (v, _item_id(IndexKind.V, identity), triple),
        ]
        if self._qgram_indexed(triple):
            assert isinstance(triple.value, str)
            for gram in dict.fromkeys(qgrams(triple.value, q=self.qgram_q)):
                entries.append(
                    (qgram_key(gram), _item_id(IndexKind.QGRAM, identity, gram), triple)
                )
        return entries

    def _qgram_indexed(self, triple: Triple) -> bool:
        if not self.enable_qgram_index or not isinstance(triple.value, str):
            return False
        return self.qgram_attributes is None or triple.attribute in self.qgram_attributes

    # -- maintenance -------------------------------------------------------------

    def insert(self, triple: Triple, start: PGridPeer | None = None) -> Trace:
        """Publish one triple under all its indexes (one grouped bulk insert).

        All postings travel through :meth:`PGridNetwork.insert_many`, so
        postings whose keys land in the same region share a single route.
        """
        return self.pnet.insert_many(self.postings(triple), start=start)

    def insert_tuple(
        self, oid: str, values: dict[str, Value], start: PGridPeer | None = None
    ) -> tuple[list[Triple], Trace]:
        """Vertically decompose and publish a logical tuple."""
        return self.insert_tuples_batch([(oid, values)], start=start)

    def insert_tuples_batch(
        self,
        tuples: list[tuple[str, dict[str, Value]]],
        start: PGridPeer | None = None,
    ) -> tuple[list[Triple], Trace]:
        """Message-accounted batch publish of many ``(oid, values)`` tuples.

        Every posting of the whole batch goes through ONE destination-grouped
        bulk insert, so the routed messages amortize across tuples — the
        batched-ingest lever of the E9b benchmark (contrast with
        :meth:`bulk_insert`, which is an *oracle* placement without messages).
        """
        triples: list[Triple] = []
        items: list[tuple[str, str, Triple]] = []
        for oid, values in tuples:
            decomposed = triples_from_tuple(oid, values)
            triples.extend(decomposed)
            for triple in decomposed:
                items.extend(self.postings(triple))
        return triples, self.pnet.insert_many(items, start=start)

    def bulk_insert(self, triples: list[Triple]) -> None:
        """Oracle placement of many triples (no routing messages); setup only."""
        bulk_load(self.pnet, [posting for triple in triples for posting in self.postings(triple)])

    def delete(self, triple: Triple, start: PGridPeer | None = None) -> Trace:
        """Withdraw a triple from every index (one write wave of removals)."""
        return self.pnet.write(removals=self._removals(triple), start=start, kind="delete")[1]

    def update_value(
        self, triple: Triple, new_value: Value, start: PGridPeer | None = None
    ) -> tuple[Triple, Trace]:
        """Replace the value of a fact (same OID + attribute).

        One write wave removes every posting of the old triple and writes
        every posting of the new one.  The old and new OID postings share a
        key, so they share a route; removals apply before puts, so an update
        to the same value keeps the triple.
        """
        replacement = Triple(triple.oid, triple.attribute, new_value)
        puts = [(*posting, None) for posting in self.postings(replacement)]
        _changed, trace = self.pnet.write(puts, self._removals(triple), start=start, kind="update")
        return replacement, trace

    def _removals(self, triple: Triple) -> list[tuple[str, str]]:
        return [(key, item_id) for key, item_id, _triple in self.postings(triple)]

    # -- exact retrieval -----------------------------------------------------------

    def by_oid(self, oid: str, start: PGridPeer | None = None) -> tuple[list[Triple], Trace]:
        """All triples of one logical tuple ("efficient reproduction of origin data")."""
        by_oid, trace = self.by_oids([oid], start=start)
        return by_oid[oid], trace

    def by_oids(
        self, oids, start: PGridPeer | None = None
    ) -> tuple[dict[str, list[Triple]], Trace]:
        """Reassemble many logical tuples with one grouped multi-key lookup.

        OIDs whose index keys share a responsible region cost one route and
        one reply between them; returns ``(triples_by_oid, trace)``.
        """
        keys = {oid: oid_key(oid) for oid in oids}
        entries_by_key, trace = self.pnet.lookup_many(keys.values(), start=start)
        return {
            oid: sorted(stored_triples(entries_by_key.get(key, [])))
            for oid, key in keys.items()
        }, trace

    def by_attribute_value(
        self, attribute: str, value: Value, start: PGridPeer | None = None
    ) -> tuple[list[Triple], Trace]:
        """Triples with ``attribute == value`` via the A#v index."""
        entries, trace = self.pnet.lookup(av_key(attribute, value), start=start)
        return sorted(stored_triples(entries)), trace

    def by_value(self, value: Value, start: PGridPeer | None = None) -> tuple[list[Triple], Trace]:
        """Triples with the given value under *any* attribute, via the v index."""
        entries, trace = self.pnet.lookup(v_key(value), start=start)
        return sorted(stored_triples(entries)), trace

    # -- ordered retrieval -----------------------------------------------------------

    def attribute_range(
        self,
        attribute: str,
        low: Value | None = None,
        high: Value | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        algorithm: str = "shower",
        start: PGridPeer | None = None,
    ) -> tuple[list[Triple], Trace, bool]:
        """Triples with ``low <op> attribute.value <op> high`` (A#v range scan)."""
        key_range = av_value_range(attribute, low, high, low_inclusive, high_inclusive)
        return self._range(key_range, algorithm, start)

    def attribute_all(
        self, attribute: str, algorithm: str = "shower", start: PGridPeer | None = None
    ) -> tuple[list[Triple], Trace, bool]:
        """Every triple of one attribute (full A#v subtree scan)."""
        return self._range(av_attribute_range(attribute), algorithm, start)

    def attribute_prefix(
        self,
        attribute: str,
        prefix: str,
        algorithm: str = "shower",
        start: PGridPeer | None = None,
    ) -> tuple[list[Triple], Trace, bool]:
        """Triples whose string value starts with ``prefix`` (per attribute)."""
        key_range = av_string_prefix_range(attribute, prefix)
        return self._range(key_range, algorithm, start)

    def value_range(
        self,
        low: Value | None = None,
        high: Value | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        algorithm: str = "shower",
        start: PGridPeer | None = None,
    ) -> tuple[list[Triple], Trace, bool]:
        """Attribute-agnostic value range over the v index."""
        key_range = v_value_range(low, high, low_inclusive, high_inclusive)
        return self._range(key_range, algorithm, start)

    def value_prefix(
        self, prefix: str, algorithm: str = "shower", start: PGridPeer | None = None
    ) -> tuple[list[Triple], Trace, bool]:
        """Prefix search over all string values, attribute unknown."""
        return self._range(v_string_prefix_range(prefix), algorithm, start)

    # -- q-gram index access (used by the similarity operators) -----------------------

    def qgram_postings(
        self, gram: str, start: PGridPeer | None = None
    ) -> tuple[list[Triple], Trace]:
        """All triples indexed under one q-gram."""
        if not self.enable_qgram_index:
            raise StorageError("q-gram index is not enabled on this store")
        entries, trace = self.pnet.lookup(qgram_key(gram), start=start)
        return sorted(stored_triples(entries)), trace

    # -- internals ---------------------------------------------------------------------

    def _range(
        self,
        key_range: KeyRange,
        algorithm: str,
        start: PGridPeer | None,
    ) -> tuple[list[Triple], Trace, bool]:
        if algorithm == "shower":
            entries, trace, complete = range_query_shower(self.pnet, key_range, start=start)
        elif algorithm == "sequential":
            entries, trace, complete = range_query_sequential(self.pnet, key_range, start=start)
        else:
            raise ValueError(f"unknown range algorithm {algorithm!r}")
        return sorted(stored_triples(entries)), trace, complete
