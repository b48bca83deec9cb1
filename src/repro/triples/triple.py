"""The triple data model (paper §2).

UniStore follows the universal relation model with vertical (RDF-style)
storage: a relational tuple ``(OID, v1, ..., vn)`` of schema
``R(A1, ..., An)`` becomes ``n`` triples ``(OID, Ai, vi)``.  Attribute names
may carry a namespace prefix (``ns:attr``) to distinguish relations; the OID
is system generated and only groups the triples of one logical tuple.

Values are strings or numbers.  Characters with code points < 3 are reserved
by the key encoding (q-gram pad ``\\x01``, attribute/value separator
``\\x02``) and rejected here — this is what makes inclusive range bounds
exact (see :func:`repro.pgrid.hashing.after_key`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError

#: Value types a triple may carry.
Value = str | int | float

#: Lowest character code allowed in OIDs, attribute names and string values.
MIN_CHAR = "\x03"


def _check_text(text: str, what: str) -> str:
    if text and min(text) < MIN_CHAR:
        raise StorageError(f"{what} contains reserved control characters: {text!r}")
    return text


@dataclass(frozen=True, order=True, slots=True)
class Triple:
    """One ``(OID, attribute, value)`` fact."""

    oid: str
    attribute: str
    value: Value

    def __post_init__(self) -> None:
        if not self.oid:
            raise StorageError("triple OID must be non-empty")
        if not self.attribute:
            raise StorageError("triple attribute must be non-empty")
        _check_text(self.oid, "OID")
        _check_text(self.attribute, "attribute")
        if isinstance(self.value, str):
            _check_text(self.value, "value")
        elif isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            raise StorageError(
                f"unsupported value type {type(self.value).__name__!r} "
                "(strings and numbers only)"
            )

    @property
    def namespace(self) -> str | None:
        """Namespace prefix of the attribute (``'ns'`` in ``'ns:attr'``), if any."""
        head, sep, _tail = self.attribute.partition(":")
        return head if sep else None

    @property
    def local_name(self) -> str:
        """Attribute name without its namespace prefix."""
        _head, sep, tail = self.attribute.partition(":")
        return tail if sep else self.attribute

    def identity(self) -> str:
        """Stable identity string for deduplication in the DHT.

        Includes the value: attributes may be multi-valued (Fig. 3's
        ``has_published`` edges), so ``(oid, attribute)`` alone is not a key.
        A value update removes the old triple's postings and writes the new
        one's, in one write wave
        (:meth:`DistributedTripleStore.update_value`), not by identity
        collision.  An integral float is written as its int, because
        equality treats ``1`` and ``1.0`` as the same triple.
        """
        value = self.value
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return f"{self.oid}\x03{self.attribute}\x03{value!r}"

    def as_tuple(self) -> tuple[str, str, Value]:
        return (self.oid, self.attribute, self.value)


def triples_from_tuple(oid: str, values: dict[str, Value]) -> list[Triple]:
    """Vertical decomposition: one triple per non-null attribute.

    ``None`` values are skipped entirely — the paper notes that vertical
    storage "supersedes the explicit representation of null values".
    """
    return [
        Triple(oid=oid, attribute=attribute, value=value)
        for attribute, value in values.items()
        if value is not None
    ]


def tuple_from_triples(triples: list[Triple]) -> tuple[str, dict[str, Value]]:
    """Recompose a logical tuple from the triples sharing one OID."""
    if not triples:
        raise StorageError("cannot recompose a tuple from zero triples")
    oids = {t.oid for t in triples}
    if len(oids) != 1:
        raise StorageError(f"triples belong to {len(oids)} different OIDs")
    return triples[0].oid, {t.attribute: t.value for t in triples}
