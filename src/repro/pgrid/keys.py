"""Binary key space of the P-Grid trie.

Keys and peer paths are strings over ``{'0','1'}``.  Semantically a *key* is a
point in the unit interval ``[0, 1)`` (the binary fraction ``0.k1 k2 k3 ...``)
and a *path* π denotes the interval ``[π, π + 2^-|π|)``: the set of all keys
having π as a prefix.  A set of paths is a valid P-Grid partition when those
intervals tile the whole space (prefix-free, Kraft sum 1).

Missing trailing bits count as ``0``, so keys of unequal length compare as
the binary fractions they denote.  That needs no arithmetic, because of one
invariant of the *canonical form* ``key.rstrip("0")``:

* two canonical forms compare lexicographically exactly as their points do;
* every other key denoting the same point is its canonical form plus zeros,
  so it sorts at or after that form.

Hence, for any key ``k`` and bound ``b``, ``k >= canonical(b)`` as strings
iff the point of ``k`` is at or above the point of ``b``.  :class:`KeyRange`
compares through canonical bounds, and a plainly sorted key list answers a
range with two bisects (:meth:`repro.pgrid.datastore.DataStore.scan`).
"""

from __future__ import annotations

BITS = ("0", "1")


def validate_key(key: str) -> str:
    """Return ``key`` unchanged if it is a (possibly empty) bit string."""
    if any(c not in "01" for c in key):
        raise ValueError(f"not a binary key: {key!r}")
    return key


def flip(bit: str) -> str:
    """Return the complementary bit."""
    if bit == "0":
        return "1"
    if bit == "1":
        return "0"
    raise ValueError(f"not a bit: {bit!r}")


def common_prefix_length(a: str, b: str) -> int:
    """Length of the longest common prefix of two bit strings."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def canonical(key: str) -> str:
    """The canonical form of ``key``: the shortest key denoting the same point."""
    return key.rstrip("0")


def compare_keys(a: str, b: str) -> int:
    """Three-way compare of two keys as binary fractions (-1, 0, +1).

    ``"01" == "010"`` because both denote the point 0.01₂.
    """
    a, b = canonical(a), canonical(b)
    return (a > b) - (a < b)


def responsible(path: str, key: str) -> bool:
    """True when a peer with ``path`` is responsible for ``key``.

    A peer covers a key iff the key's point lies in the path's interval,
    i.e. the key (padded with zeros) starts with the path.
    """
    if len(key) >= len(path):
        return key.startswith(path)
    return path == key + "0" * (len(path) - len(key))


class KeyRange:
    """A half-open key interval ``[lo, hi)`` over points in ``[0, 1)``.

    ``hi is None`` means "to the end of the key space".  All physical range
    operators and the overlays' range-query algorithms take one of these.
    ``lo``/``hi`` stay as given, because callers extend them into longer keys
    and route to them; every comparison uses their canonical forms
    ``canonical_lo``/``canonical_hi``.
    """

    __slots__ = ("lo", "hi", "canonical_lo", "canonical_hi")

    def __init__(self, lo: str, hi: str | None):
        self.lo = validate_key(lo)
        self.hi = validate_key(hi) if hi is not None else None
        self.canonical_lo = canonical(self.lo)
        self.canonical_hi = canonical(self.hi) if self.hi is not None else None

    @classmethod
    def subtree(cls, prefix: str) -> "KeyRange":
        """The interval covered by all keys with the given bit prefix."""
        return cls(prefix, increment_path(prefix))

    @classmethod
    def at_least(cls, key: str) -> "KeyRange":
        """``[key, end-of-space)``."""
        return cls(key, None)

    @classmethod
    def everything(cls) -> "KeyRange":
        return cls("", None)

    def contains(self, key: str) -> bool:
        # ``key`` itself compares to a canonical bound as its canonical form does.
        return self.canonical_lo <= key and (self.canonical_hi is None or key < self.canonical_hi)

    def intersects_path(self, path: str) -> bool:
        """True when the subtree of ``path`` overlaps this interval."""
        starts_below_hi = self.canonical_hi is None or canonical(path) < self.canonical_hi
        above = increment_path(path)  # already canonical: it ends in '1'
        return starts_below_hi and (above is None or self.canonical_lo < above)

    def is_empty(self) -> bool:
        return self.canonical_hi is not None and self.canonical_lo >= self.canonical_hi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyRange):
            return NotImplemented
        return (self.canonical_lo, self.canonical_hi) == (other.canonical_lo, other.canonical_hi)

    def __hash__(self) -> int:
        return hash((self.canonical_lo, self.canonical_hi))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hi = "END" if self.hi is None else self.hi
        return f"KeyRange[{self.lo!r}, {hi!r})"


def increment_path(path: str) -> str | None:
    """Smallest key strictly above the interval of ``path`` (``None`` at the top).

    Used by the sequential range-query traversal to step to the next leaf:
    the returned key is the left edge of the neighbouring subtree.
    """
    trimmed = path.rstrip("1")
    if not trimmed:
        return None
    return trimmed[:-1] + "1"


def is_prefix_free(paths: list[str]) -> bool:
    """True when no path is a prefix of another (distinct peers' intervals disjoint)."""
    unique = sorted(set(paths))
    for first, second in zip(unique, unique[1:]):
        if second.startswith(first):
            return False
    return True


def is_complete_partition(paths: list[str]) -> bool:
    """True when the set of paths tiles the whole key space.

    Checks prefix-freeness plus the Kraft equality ``sum 2^-|π| == 1``, in
    integers scaled by ``2^L`` for the longest path length ``L``.
    The empty set is not a partition; a single empty path (whole space) is.
    """
    unique = set(paths)
    if not unique:
        return False
    if not is_prefix_free(list(unique)):
        return False
    depth = max(len(p) for p in unique)
    return sum(1 << (depth - len(p)) for p in unique) == 1 << depth
