"""The distributed triple store — the paper's "Triple Manager" + "Storage
Service" pair (Fig. 1, layers 2-3).

``DistributedTripleStore`` publishes each triple under the three default
indexes (plus, optionally, a q-gram similarity index over string values) and
offers the retrieval primitives the physical query operators build on:

* exact access — :meth:`by_oid`/:meth:`by_oids`, :meth:`by_attribute_value`,
  :meth:`by_value`;
* ordered access — :meth:`attribute_range` (``Ai >= vi`` queries),
  :meth:`attribute_prefix`, :meth:`value_prefix` (substring/prefix search);
* maintenance — :meth:`insert`/:meth:`insert_tuple`/:meth:`insert_tuples_batch`
  (all message-accounted through the overlay's destination-grouped bulk
  inserts), :meth:`update_value`, :meth:`delete`, and oracle
  :meth:`bulk_insert` for benchmark setup.

Every method returns the causal :class:`~repro.net.trace.Trace` alongside its
result, so upper layers can compose full query-plan costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError
from repro.net.trace import Trace
from repro.pgrid.construction import bulk_load
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


@dataclass(frozen=True, slots=True)
class Posting:
    """What is physically stored in the DHT: an index-tagged triple copy."""

    kind: IndexKind
    triple: Triple


#: ``kind.value`` per index kind, read from a dict: ``Enum.value`` goes
#: through a descriptor, and bulk loads build one item id per posting.
_KIND_TAG = {kind: kind.value for kind in IndexKind}


def _item_id(kind: IndexKind, identity: str, extra: str = "") -> str:
    """DHT item id of a posting of the triple with ``identity``."""
    suffix = f"\x03{extra}" if extra else ""
    return f"{_KIND_TAG[kind]}\x03{identity}{suffix}"


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

    def postings(self, triple: Triple) -> list[tuple[str, str, Posting]]:
        """All ``(key, item_id, posting)`` a triple is published under.

        Q-gram postings follow the grams' first occurrence in the value, so
        the order (and the versions a load assigns) never depends on hashing.
        """
        identity = triple.identity()
        oid, av, v = triple_keys(triple.oid, triple.attribute, triple.value)
        entries = [
            (oid, _item_id(IndexKind.OID, identity), Posting(IndexKind.OID, triple)),
            (av, _item_id(IndexKind.AV, identity), Posting(IndexKind.AV, triple)),
            (v, _item_id(IndexKind.V, identity), Posting(IndexKind.V, triple)),
        ]
        if self._qgram_indexed(triple):
            assert isinstance(triple.value, str)
            posting = Posting(IndexKind.QGRAM, triple)
            for gram in dict.fromkeys(qgrams(triple.value, q=self.qgram_q)):
                entries.append(
                    (qgram_key(gram), _item_id(IndexKind.QGRAM, identity, gram), posting)
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
        triples = triples_from_tuple(oid, values)
        items = [posting for t in triples for posting in self.postings(t)]
        return triples, self.pnet.insert_many(items, start=start)

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
        items: list[tuple[str, str, Posting]] = []
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
        """Withdraw a triple from every index."""
        start = start or self.pnet.random_online_peer()
        branches = []
        for key, item_id, _posting in self.postings(triple):
            _removed, trace = self.pnet.delete(key, item_id, start=start)
            branches.append(trace)
        return Trace.parallel(branches)

    def update_value(
        self, triple: Triple, new_value: Value, start: PGridPeer | None = None
    ) -> tuple[Triple, Trace]:
        """Replace the value of a fact (same OID + attribute).

        The OID-index posting is versioned in place; the old A#v / v /
        q-gram postings move to new keys, so they are deleted and re-inserted.
        """
        replacement = Triple(triple.oid, triple.attribute, new_value)
        delete_trace = self.delete(triple, start=start)
        insert_trace = self.insert(replacement, start=start)
        return replacement, Trace.parallel([delete_trace, insert_trace])

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
            oid: self._triples(entries_by_key.get(key, []), IndexKind.OID)
            for oid, key in keys.items()
        }, trace

    def by_attribute_value(
        self, attribute: str, value: Value, start: PGridPeer | None = None
    ) -> tuple[list[Triple], Trace]:
        """Triples with ``attribute == value`` via the A#v index."""
        entries, trace = self.pnet.lookup(av_key(attribute, value), start=start)
        return self._triples(entries, IndexKind.AV), trace

    def by_value(self, value: Value, start: PGridPeer | None = None) -> tuple[list[Triple], Trace]:
        """Triples with the given value under *any* attribute, via the v index."""
        entries, trace = self.pnet.lookup(v_key(value), start=start)
        return self._triples(entries, IndexKind.V), trace

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
        return self._range(key_range, IndexKind.AV, algorithm, start)

    def attribute_all(
        self, attribute: str, algorithm: str = "shower", start: PGridPeer | None = None
    ) -> tuple[list[Triple], Trace, bool]:
        """Every triple of one attribute (full A#v subtree scan)."""
        return self._range(av_attribute_range(attribute), IndexKind.AV, algorithm, start)

    def attribute_prefix(
        self,
        attribute: str,
        prefix: str,
        algorithm: str = "shower",
        start: PGridPeer | None = None,
    ) -> tuple[list[Triple], Trace, bool]:
        """Triples whose string value starts with ``prefix`` (per attribute)."""
        key_range = av_string_prefix_range(attribute, prefix)
        return self._range(key_range, IndexKind.AV, algorithm, start)

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
        return self._range(key_range, IndexKind.V, algorithm, start)

    def value_prefix(
        self, prefix: str, algorithm: str = "shower", start: PGridPeer | None = None
    ) -> tuple[list[Triple], Trace, bool]:
        """Prefix search over all string values, attribute unknown."""
        return self._range(v_string_prefix_range(prefix), IndexKind.V, algorithm, start)

    # -- q-gram index access (used by the similarity operators) -----------------------

    def qgram_postings(
        self, gram: str, start: PGridPeer | None = None
    ) -> tuple[list[Triple], Trace]:
        """All triples indexed under one q-gram."""
        if not self.enable_qgram_index:
            raise StorageError("q-gram index is not enabled on this store")
        entries, trace = self.pnet.lookup(qgram_key(gram), start=start)
        return self._triples(entries, IndexKind.QGRAM), trace

    # -- internals ---------------------------------------------------------------------

    def _range(
        self,
        key_range: KeyRange,
        kind: IndexKind,
        algorithm: str,
        start: PGridPeer | None,
    ) -> tuple[list[Triple], Trace, bool]:
        if algorithm == "shower":
            entries, trace, complete = range_query_shower(self.pnet, key_range, start=start)
        elif algorithm == "sequential":
            entries, trace, complete = range_query_sequential(self.pnet, key_range, start=start)
        else:
            raise ValueError(f"unknown range algorithm {algorithm!r}")
        return self._triples(entries, kind), trace, complete

    @staticmethod
    def _triples(entries, kind: IndexKind) -> list[Triple]:
        """Extract, filter by index kind, and deduplicate triples from entries."""
        seen: set[tuple[str, str, Value]] = set()
        result: list[Triple] = []
        for entry in entries:
            posting = entry.value
            if not isinstance(posting, Posting) or posting.kind is not kind:
                continue
            key = posting.triple.as_tuple()
            if key in seen:
                continue
            seen.add(key)
            result.append(posting.triple)
        return sorted(result)
