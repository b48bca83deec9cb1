"""Schema mappings as queryable metadata (paper §2).

    "Additionally, we allow to store triples representing a simple kind of
     schema mappings in order to overcome schema heterogeneities.  This
     additional metadata can be queried explicitly by the user – or even
     automatically by the system."

A correspondence ``source ≡ target`` is stored as an ordinary logical tuple
under the reserved ``map:`` namespace::

    (mapping-oid, 'map:src',  'dblp:confname')
    (mapping-oid, 'map:dst',  'ilm:conference')
    (mapping-oid, 'map:conf', 0.9)

so it travels through the very same indexes and operators as instance data —
"operators can be applied to all levels of data (instance, schema and
metadata)".  :class:`MappingCatalog` is the convenience wrapper used by the
query planner for automatic query expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.trace import Trace
from repro.triples.store import DistributedTripleStore
from repro.triples.triple import triples_from_tuple

#: Attribute names of the mapping meta-schema.
MAP_SRC = "map:src"
MAP_DST = "map:dst"
MAP_CONF = "map:conf"


@dataclass(frozen=True)
class SchemaMapping:
    """One attribute correspondence with a confidence score."""

    source: str
    target: str
    confidence: float = 1.0

    def oid(self) -> str:
        return f"map~{self.source}~{self.target}"

    def fields(self) -> dict[str, str | float]:
        """The correspondence as a logical tuple's attribute values."""
        return {MAP_SRC: self.source, MAP_DST: self.target, MAP_CONF: self.confidence}


class MappingCatalog:
    """Publish and resolve schema mappings through the triple store."""

    def __init__(self, store: DistributedTripleStore):
        self.store = store

    def add(self, mapping: SchemaMapping) -> Trace:
        """Publish a correspondence (both directions are derivable): its three
        triples' postings travel as one write wave."""
        _triples, trace = self.store.insert_tuple(mapping.oid(), mapping.fields())
        return trace

    def bulk_add(self, mappings: list[SchemaMapping]) -> None:
        """Oracle placement of many mappings (benchmark/test setup)."""
        self.store.bulk_insert(
            [t for mapping in mappings for t in triples_from_tuple(mapping.oid(), mapping.fields())]
        )

    def equivalents(
        self, attribute: str, min_confidence: float = 0.0
    ) -> tuple[list[SchemaMapping], Trace]:
        """All correspondences touching ``attribute`` (either direction).

        Resolved with two A#v lookups (``map:src = attribute`` and
        ``map:dst = attribute``) followed by OID lookups to fetch each
        mapping's remaining triples — i.e. metadata is queried with exactly
        the instance-data machinery.
        """
        src_triples, src_trace = self.store.by_attribute_value(MAP_SRC, attribute)
        dst_triples, dst_trace = self.store.by_attribute_value(MAP_DST, attribute)
        trace = Trace.parallel([src_trace, dst_trace])

        mappings: list[SchemaMapping] = []
        branches: list[Trace] = []
        for hit in src_triples + dst_triples:
            triples, oid_trace = self.store.by_oid(hit.oid)
            branches.append(oid_trace)
            fields = {t.attribute: t.value for t in triples}
            if MAP_SRC not in fields or MAP_DST not in fields:
                continue
            mapping = SchemaMapping(
                source=str(fields[MAP_SRC]),
                target=str(fields[MAP_DST]),
                confidence=float(fields.get(MAP_CONF, 1.0)),
            )
            if mapping.confidence >= min_confidence and mapping not in mappings:
                mappings.append(mapping)
        if branches:
            trace = trace.then(Trace.parallel(branches))
        return mappings, trace

    def expansions(self, attribute: str, min_confidence: float = 0.0) -> tuple[list[str], Trace]:
        """Attribute names equivalent to ``attribute`` (excluding itself)."""
        mappings, trace = self.equivalents(attribute, min_confidence)
        names: list[str] = []
        for mapping in mappings:
            other = mapping.target if mapping.source == attribute else mapping.source
            if other != attribute and other not in names:
                names.append(other)
        return names, trace
