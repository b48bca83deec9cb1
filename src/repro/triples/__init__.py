"""Triple storage layer (paper §2, Fig. 1 layer 3).

Vertical (RDF-style) decomposition of logical tuples into ``(OID, A, v)``
triples, published under the three default indexes (OID, A#v, v) of an
order-preserving DHT, plus schema mappings stored and queried as ordinary
triples.
"""

from repro.triples.index import (
    INDEX_TAG,
    IndexKind,
    av_attribute_range,
    av_key,
    av_string_prefix_range,
    av_value_range,
    oid_key,
    qgram_key,
    v_key,
    v_string_prefix_range,
    v_value_range,
)
from repro.triples.mappings import (
    MAP_CONF,
    MAP_DST,
    MAP_SRC,
    MappingCatalog,
    SchemaMapping,
)
from repro.triples.store import DistributedTripleStore, stored_triples
from repro.triples.triple import (
    Triple,
    Value,
    triples_from_tuple,
    tuple_from_triples,
)

__all__ = [
    "Triple",
    "Value",
    "triples_from_tuple",
    "tuple_from_triples",
    "DistributedTripleStore",
    "stored_triples",
    "IndexKind",
    "INDEX_TAG",
    "oid_key",
    "av_key",
    "v_key",
    "qgram_key",
    "av_attribute_range",
    "av_value_range",
    "av_string_prefix_range",
    "v_value_range",
    "v_string_prefix_range",
    "MappingCatalog",
    "SchemaMapping",
    "MAP_SRC",
    "MAP_DST",
    "MAP_CONF",
]
