"""A Chord node: identifier, finger table, successor list, local store.

Identifiers live on a ``2**m`` ring (default m=32).  Data keys are placed by
*consistent hashing* — ``sha1(key) mod 2**m`` — which deliberately destroys
key order; that is the property the E8 experiment contrasts with P-Grid's
order-preserving placement.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

from repro.net.node import Node

if TYPE_CHECKING:
    from repro.net.network import Network

#: Ring size exponent: identifiers are in [0, 2**M_BITS).
M_BITS = 32
RING = 1 << M_BITS


def chord_hash(value: str) -> int:
    """Consistent hash of a string onto the identifier ring."""
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % RING


def in_interval(x: int, lo: int, hi: int, inclusive_hi: bool = True) -> bool:
    """Ring-interval membership test for ``(lo, hi]`` (or ``(lo, hi)``).

    Handles wrap-around: when ``lo == hi`` the interval is the full ring.
    """
    if lo == hi:
        return True
    if lo < hi:
        return (lo < x <= hi) if inclusive_hi else (lo < x < hi)
    wrapped = x > lo or x < hi
    return wrapped or (inclusive_hi and x == hi)


class ChordNode(Node):
    """One node on the Chord ring."""

    def __init__(self, node_id: str, network: "Network", ring_id: int):
        super().__init__(node_id, network)
        self.ring_id = ring_id % RING
        #: finger[k] covers ring_id + 2**k; entries are node ids.
        self.fingers: list[str] = []
        #: First ``r`` successors, for routing fault tolerance & replication.
        self.successors: list[str] = []
        #: key-id -> {data key -> value}; values placed by consistent hashing.
        self.store: dict[int, dict[str, Any]] = {}

    def put_local(self, key: str, value: Any) -> None:
        self.store.setdefault(chord_hash(key), {})[key] = value

    def get_local(self, key: str) -> Any | None:
        return self.store.get(chord_hash(key), {}).get(key)

    @property
    def load(self) -> int:
        return sum(len(bucket) for bucket in self.store.values())
