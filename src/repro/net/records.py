"""Append-only record tables stored column by column.

The event kernel logs one record per delivered message
(:attr:`EventScheduler.log <repro.net.scheduler.EventScheduler.log>`) and
the load model one per serviced message (:attr:`LoadModel.samples
<repro.load.model.LoadModel.samples>`), for the whole run.  Kept as a list
of record objects, every record would stay on the heap and every full
garbage collection would rescan all of them.  A :class:`RecordTable`
keeps each field of a record type in its own column instead:

* a float field in an ``array('d')``, with NaN standing for ``None``;
* an int field in an ``array('q')``;
* a name field (a node id or a message kind) in an ``array('q')`` of
  indices into the table's name list, so a repeated string is stored once.

Arrays hold raw machine values and are not tracked by the garbage
collector, so a table adds no Python object per record.  Appending takes
the field values and builds nothing; reading (iteration, indexing,
slicing, ``==``, ``repr``) builds the record objects on demand, equal to
the ones a list would have held.
"""

from __future__ import annotations

from array import array
from dataclasses import fields
from math import nan
from typing import Callable, Generic, Iterator, TypeVar

R = TypeVar("R")


class RecordTable(Generic[R]):
    """Records of one dataclass type, stored column-wise; reads like a list.

    ``names`` and ``ints`` name the record's string and int fields; every
    other field is a float (or ``None``).  ``append(*values)`` appends one
    record, given as its field values in the record's field order.  It is
    built once per table as straight-line code over the columns, the way
    :mod:`dataclasses` builds an ``__init__``, so an append runs no loop.
    """

    __slots__ = ("_record", "_columns", "_index", "_names", "_kinds", "append")

    def __init__(self, record: type[R], names: tuple[str, ...], ints: tuple[str, ...]):
        self._record = record
        #: One code per field, in field order: name, int or float.
        self._kinds = tuple(
            "n" if f.name in names else "i" if f.name in ints else "f" for f in fields(record)
        )
        self._columns = tuple(array("d" if kind == "f" else "q") for kind in self._kinds)
        self._index: dict[str, int] = {}
        self._names: list[str] = []
        self.append = self._compile_append([f.name for f in fields(record)])

    def _compile_append(self, field_names: list[str]) -> Callable[..., None]:
        """The ``append`` of this table: one column put per field, no loop."""
        index = self._index
        namespace = {"_index": index, "_setdefault": index.setdefault, "_nan": nan}
        body = []
        for position, (name, kind) in enumerate(zip(field_names, self._kinds)):
            namespace[f"_put{position}"] = self._columns[position].append
            if kind == "n":  # a name is stored as its index in the name list
                value = f"_setdefault({name}, len(_index))"
            elif kind == "i":
                value = name
            else:
                value = f"_nan if {name} is None else {name}"
            body.append(f"    _put{position}({value})")
        exec(f"def append({', '.join(field_names)}):\n" + "\n".join(body), namespace)
        return namespace["append"]

    def clear(self) -> None:
        """Drop every record (and the name list)."""
        for column in self._columns:
            del column[:]
        self._index.clear()
        self._names.clear()

    def __len__(self) -> int:
        return len(self._columns[0])

    def _build(self, row: tuple) -> R:
        """The record of one row of raw column values."""
        names = self._names
        if len(names) != len(self._index):
            names[:] = self._index  # dicts keep insertion order: index → name
        values = [
            names[value] if kind == "n" else None if value != value else value  # NaN: None
            for kind, value in zip(self._kinds, row)
        ]
        return self._record(*values)

    def __iter__(self) -> Iterator[R]:
        return map(self._build, zip(*self._columns))

    def __getitem__(self, key: int | slice) -> R | list[R]:
        if isinstance(key, slice):
            return [self._build(row) for row in zip(*(column[key] for column in self._columns))]
        return self._build(tuple(column[key] for column in self._columns))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordTable):
            other = list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like a list

    def __repr__(self) -> str:
        return repr(list(self))
