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
from typing import Generic, Iterator, TypeVar

R = TypeVar("R")


class RecordTable(Generic[R]):
    """Records of one dataclass type, stored column-wise; reads like a list.

    ``names`` and ``ints`` name the record's string and int fields; every
    other field is a float (or ``None``).  :meth:`append` takes the field
    values in the record's field order.
    """

    __slots__ = ("_record", "_columns", "_name_puts", "_value_puts", "_index", "_names", "_kinds")

    def __init__(self, record: type[R], names: tuple[str, ...], ints: tuple[str, ...]):
        self._record = record
        #: One code per field, in field order: name, int or float.
        self._kinds = tuple(
            "n" if f.name in names else "i" if f.name in ints else "f" for f in fields(record)
        )
        self._columns = tuple(array("d" if kind == "f" else "q") for kind in self._kinds)
        puts = [(position, column.append) for position, column in enumerate(self._columns)]
        self._name_puts = tuple(put for put, kind in zip(puts, self._kinds) if kind == "n")
        self._value_puts = tuple(put for put, kind in zip(puts, self._kinds) if kind != "n")
        self._index: dict[str, int] = {}
        self._names: list[str] = []

    def append(self, *values) -> None:
        """Append one record, given as its field values in field order."""
        index = self._index
        for position, put in self._name_puts:
            put(index.setdefault(values[position], len(index)))
        for position, put in self._value_puts:
            value = values[position]
            put(nan if value is None else value)

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
