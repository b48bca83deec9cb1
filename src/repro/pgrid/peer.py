"""P-Grid peers.

A peer sits at a leaf of the virtual binary trie (paper §2): it has a *path*
(bit string), stores the data items whose keys fall under that path, and keeps

* a **routing table**: for every level ``i < len(path)``, references to peers
  whose paths start with ``path[:i] + flip(path[i])`` — i.e. peers covering
  the complementary subtree at that level, enabling prefix routing; and
* a **replica list**: peers sharing its exact path (P-Grid's structural
  replication), which carry the same data.

References may go stale when the referenced peer extends or changes its path;
they are validated at use time (:meth:`RoutingTable.valid_refs`) and pruned
lazily, mirroring P-Grid's lazy repair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.net.node import Node
from repro.pgrid.datastore import DataStore
from repro.pgrid.keys import flip, validate_key

if TYPE_CHECKING:
    from repro.net.network import Network

#: Default maximum number of references kept per routing level.
DEFAULT_FANOUT = 4


class RoutingTable:
    """Per-level references of one peer."""

    def __init__(self, fanout: int = DEFAULT_FANOUT):
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.fanout = fanout
        self._levels: dict[int, list[str]] = {}

    def refs(self, level: int) -> list[str]:
        """Current references at ``level`` (copy)."""
        return list(self._levels.get(level, ()))

    def add(self, level: int, peer_id: str) -> None:
        refs = self._levels.setdefault(level, [])
        if peer_id not in refs:
            refs.append(peer_id)
            del refs[self.fanout :]

    def remove(self, level: int, peer_id: str) -> None:
        refs = self._levels.get(level)
        if refs and peer_id in refs:
            refs.remove(peer_id)

    def truncate(self, depth: int) -> None:
        """Drop all levels ``>= depth`` (used when a peer shortens/changes path)."""
        for level in [lv for lv in self._levels if lv >= depth]:
            del self._levels[level]

    def levels(self) -> list[int]:
        return sorted(self._levels)


class PGridPeer(Node):
    """One P-Grid peer: path + routing table + replica list + datastore."""

    def __init__(
        self,
        node_id: str,
        network: "Network",
        path: str = "",
        fanout: int = DEFAULT_FANOUT,
    ):
        super().__init__(node_id, network)
        from repro.pgrid.routing import RouteCache  # deferred: routing imports peer

        self.path = validate_key(path)
        self.routing = RoutingTable(fanout=fanout)
        self.replicas: list[str] = []  # peer ids sharing self.path (excluding self)
        self.store = DataStore()
        self.route_cache = RouteCache()

    # -- trie position -------------------------------------------------------

    def required_prefix(self, level: int) -> str:
        """Path prefix a level-``level`` reference must have."""
        if level >= len(self.path):
            raise ValueError(f"peer {self.node_id} has no level {level}")
        return self.path[:level] + flip(self.path[level])

    def set_path(self, path: str) -> None:
        """Change the peer's trie position, keeping still-consistent refs.

        Levels at or beyond the first bit where the old and new path differ
        are dropped; shallower levels keep the same required prefix and stay
        valid.
        """
        path = validate_key(path)
        keep = 0
        for old_bit, new_bit in zip(self.path, path):
            if old_bit != new_bit:
                break
            keep += 1
        self.routing.truncate(keep)
        self.path = path

    # -- references ----------------------------------------------------------

    def valid_refs(self, level: int) -> list[str]:
        """References at ``level`` that still match the required prefix.

        Stale references (peer moved, or disappeared from the network) are
        pruned as a side effect — P-Grid's lazy repair.  Offline peers are
        *not* pruned (they may come back) but are filtered from the result.
        """
        prefix = self.required_prefix(level)
        usable: list[str] = []
        for ref_id in self.routing.refs(level):
            ref = self.network.nodes.get(ref_id)
            if ref is None or not isinstance(ref, PGridPeer) or not ref.path.startswith(prefix):
                self.routing.remove(level, ref_id)
                continue
            if ref.online:
                usable.append(ref_id)
        return usable

    def add_replica(self, peer_id: str) -> None:
        if peer_id != self.node_id and peer_id not in self.replicas:
            self.replicas.append(peer_id)

    def remove_replica(self, peer_id: str) -> None:
        if peer_id in self.replicas:
            self.replicas.remove(peer_id)

    def online_replicas(self) -> list[str]:
        """Replica ids that are currently online and still share our path."""
        result = []
        for rid in list(self.replicas):
            peer = self.network.nodes.get(rid)
            if peer is None or not isinstance(peer, PGridPeer) or peer.path != self.path:
                self.replicas.remove(rid)
                continue
            if peer.online:
                result.append(rid)
        return result

    # -- storage -------------------------------------------------------------

    @property
    def load(self) -> int:
        """Number of locally stored entries (the load-balancing currency)."""
        return len(self.store)

    def adopt_refs(self, other: "PGridPeer", levels: Iterable[int] | None = None) -> None:
        """Copy routing references from ``other`` for the given levels.

        Only levels where both peers share the same required prefix make
        sense; callers pass levels accordingly (e.g. replicas copy all).
        """
        wanted = set(levels) if levels is not None else None
        for level in other.routing.levels():
            if wanted is not None and level not in wanted:
                continue
            for ref in other.routing.refs(level):
                if ref != self.node_id:
                    self.routing.add(level, ref)
