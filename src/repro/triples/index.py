"""The three default indexes (paper §2, Fig. 2).

    "By default, we index each triple on the OID, Ai#vi (the concatenation
     of Ai and vi), and vi."

Each index gets its own 2-bit tag prefix so the three posting families live
in disjoint subtrees of the P-Grid key space:

* ``OID`` (tag 00) — reassemble a logical tuple from its unique key;
* ``A#v`` (tag 01) — exact and *range* access on a known attribute
  (``Ai >= vi`` maps to a contiguous key range because the value encoding is
  order preserving);
* ``v``  (tag 10) — access by value when the attribute is unknown
  ("queries on an arbitrary attribute"), including substring/prefix search.

The q-gram similarity index (tag 11, :func:`qgram_key`) shares this tag
registry; :class:`repro.triples.store.DistributedTripleStore` publishes its
postings and :class:`repro.physical.scans.QGramScan` probes them.

The tag is the only record of an entry's index: every index stores the
:class:`~repro.triples.triple.Triple` itself, and every key or range a
reader uses is built by a function here, inside one tag's subtree.

Probing a pattern once one of its variables is bound follows one rule
(:func:`probe_index`): a bound subject probes the OID index; a bound object
probes A#v when the predicate is a literal and v otherwise.
"""

from __future__ import annotations

from enum import Enum
from typing import Collection

from repro.pgrid.hashing import (
    KEY_SEPARATOR,
    after_key,
    encode_string,
    encode_value,
)
from repro.errors import PlanningError
from repro.pgrid.keys import KeyRange
from repro.triples.triple import Value
from repro.vql.ast import Literal, TriplePattern, Var


class IndexKind(str, Enum):
    """One of the indexes; its :data:`INDEX_TAG` prefixes every key it files."""

    OID = "oid"
    AV = "av"
    V = "v"
    QGRAM = "qgram"


#: 2-bit key-space tags per index family.
INDEX_TAG = {
    IndexKind.OID: "00",
    IndexKind.AV: "01",
    IndexKind.V: "10",
    IndexKind.QGRAM: "11",
}

#: Bit encoding of the attribute/value separator character.
_SEP_BITS = encode_string(KEY_SEPARATOR)


def oid_key(oid: str) -> str:
    """DHT key of a triple under the OID index."""
    return INDEX_TAG[IndexKind.OID] + encode_string(oid)


def av_key(attribute: str, value: Value) -> str:
    """DHT key of a triple under the A#v index."""
    return _av_prefix(attribute) + encode_value(value)


def v_key(value: Value) -> str:
    """DHT key of a triple under the v index."""
    return INDEX_TAG[IndexKind.V] + encode_value(value)


def triple_keys(oid: str, attribute: str, value: Value) -> tuple[str, str, str]:
    """The OID, A#v and v keys of one triple, encoding its value once."""
    value_bits = encode_value(value)
    return oid_key(oid), _av_prefix(attribute) + value_bits, INDEX_TAG[IndexKind.V] + value_bits


def _av_prefix(attribute: str) -> str:
    """Key prefix shared by every A#v posting of ``attribute``."""
    return INDEX_TAG[IndexKind.AV] + encode_string(attribute) + _SEP_BITS


def qgram_key(gram: str) -> str:
    """DHT key of a q-gram posting."""
    return INDEX_TAG[IndexKind.QGRAM] + encode_string(gram)


def av_index_range() -> KeyRange:
    """Key range covering the whole A#v index: one posting per stored triple."""
    return KeyRange.subtree(INDEX_TAG[IndexKind.AV])


def av_attribute_range(attribute: str) -> KeyRange:
    """Key range covering *all* postings of one attribute in the A#v index."""
    return KeyRange.subtree(_av_prefix(attribute))


def av_value_range(
    attribute: str,
    low: Value | None = None,
    high: Value | None = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> KeyRange:
    """Key range for ``low <op> attribute <op> high`` in the A#v index.

    Open bounds fall back to the attribute subtree's edges.  Exclusive /
    inclusive bounds are realized with :func:`after_key`, which is exact
    because values cannot contain the reserved low code points.
    """
    subtree = av_attribute_range(attribute)
    prefix = subtree.lo
    if low is None:
        lo_key = subtree.lo
    else:
        lo_key = prefix + encode_value(low)
        if not low_inclusive:
            lo_key = after_key(lo_key)
    if high is None:
        hi_key = subtree.hi
    else:
        hi_key = prefix + encode_value(high)
        hi_key = after_key(hi_key) if high_inclusive else hi_key
    return KeyRange(lo_key, hi_key)


def av_string_prefix_range(attribute: str, prefix_text: str) -> KeyRange:
    """Key range for string values of ``attribute`` starting with ``prefix_text``."""
    # "1" is the string type tag inside encode_value.
    return KeyRange.subtree(_av_prefix(attribute) + "1" + encode_string(prefix_text))


def v_value_range(
    low: Value | None = None,
    high: Value | None = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> KeyRange:
    """Key range over the v index for attribute-agnostic value ranges."""
    tag = INDEX_TAG[IndexKind.V]
    subtree = KeyRange.subtree(tag)
    lo_key = subtree.lo if low is None else tag + encode_value(low)
    if low is not None and not low_inclusive:
        lo_key = after_key(lo_key)
    if high is None:
        hi_key = subtree.hi
    else:
        hi_key = tag + encode_value(high)
        hi_key = after_key(hi_key) if high_inclusive else hi_key
    return KeyRange(lo_key, hi_key)


def v_string_prefix_range(prefix_text: str) -> KeyRange:
    """Key range over the v index for string values starting with ``prefix_text``."""
    return KeyRange.subtree(INDEX_TAG[IndexKind.V] + "1" + encode_string(prefix_text))


def probe_index(pattern: TriplePattern, variable: str) -> IndexKind | None:
    """The index that answers ``pattern`` once ``variable`` is bound.

    OID when ``variable`` is the subject; A#v when it is the object and the
    predicate is a literal, v when the predicate is a variable.  None when
    ``variable`` is neither subject nor object: no index can be probed.
    """
    if isinstance(pattern.subject, Var) and pattern.subject.name == variable:
        return IndexKind.OID
    if isinstance(pattern.object, Var) and pattern.object.name == variable:
        return IndexKind.AV if isinstance(pattern.predicate, Literal) else IndexKind.V
    return None


def probe_variable(pattern: TriplePattern, bound: Collection[str]) -> str | None:
    """The bound variable to probe ``pattern`` through: its subject if bound,
    else its object, else None."""
    for term in (pattern.subject, pattern.object):
        if isinstance(term, Var) and term.name in bound:
            return term.name
    return None


def probe_key(pattern: TriplePattern, variable: str, value: Value) -> str:
    """The key that answers ``pattern`` with ``variable`` = ``value``, in the
    index :func:`probe_index` picks.

    OIDs are strings, so an OID probe uses ``str(value)``: every join value
    has a key, and a non-string value then matches no OID, as in a join.
    """
    kind = probe_index(pattern, variable)
    if kind is IndexKind.OID:
        return oid_key(str(value))
    if kind is IndexKind.AV:
        return av_key(str(pattern.predicate.value), value)  # type: ignore[union-attr]
    if kind is IndexKind.V:
        return v_key(value)
    raise PlanningError(f"no index answers {pattern} through ?{variable}")
