"""Range queries over the P-Grid key space (paper §2).

Because P-Grid's hash function is order preserving, a key range maps to a
contiguous band of trie leaves.  Two classic algorithms are implemented, the
trade-off the paper's cost-model/strategy discussion builds on:

* **sequential (min-max) traversal** — route to the leaf holding the lower
  bound, then walk leaf-by-leaf to the right.  Messages ≈ log N + L,
  *latency* ≈ (log N + L) hops because the walk is serial (L = number of
  leaves intersecting the range).

* **shower** — the query fans out down the trie: each receiving peer serves
  its local slice and forwards sub-ranges to references covering the other
  intersecting subtrees, in parallel.  Messages are comparable, but the
  critical path stays logarithmic, so latency is much lower for wide ranges.

Both return ``(entries, trace, complete)`` — ``complete`` is False when some
subtree was unreachable (all its replicas offline), matching the paper's
best-effort guarantee discussion.

The shower's fan-out tree is chosen once, without sending anything
(:func:`_expand_shower`), and then sent as one
:class:`~repro.net.scheduler.ChainSpec` per tree edge through
:meth:`PGridNetwork.run_chains`, the one chain form both execution models
share.  An edge's arrival serves the child's slice and returns the child's
own edges; in collect mode the edge's reply carries the subtree's result
back once the subtree completed.  In event-driven mode
(:meth:`PGridNetwork.event_driven`) sibling subtrees therefore race each
other and the query completes when the last result funnels back.  Both
models send the identical tree, so message counts agree; each draws latency
jitter in its own order (depth first, or firing order).  The sequential
walk is a series of routes through the same chains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.net.scheduler import ChainSpec
from repro.net.trace import Trace
from repro.pgrid.datastore import Entry
from repro.pgrid.keys import KeyRange, increment_path
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.routing import point_key, route

#: Bound on the leaves one sequential walk visits.
MAX_SEQUENTIAL_LEAVES = 4096


def range_query_shower(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
) -> tuple[list[Entry], Trace, bool]:
    """Parallel (shower) range query; results funnel back to the initiator."""
    return _shower(pnet, key_range, start, rng, kind, collect=True, groups=None)


def range_query_shower_groups(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
) -> tuple[list[tuple[str, list[Entry]]], Trace, bool]:
    """Shower range query in *produce* mode: results stay at the serving peers.

    Returns ``(groups, trace, complete)`` where groups are
    ``(peer_id, entries)`` pairs; the trace covers the forward fan-out only.
    Physical operators use this to choose their own data flow afterwards.
    """
    groups: list[tuple[str, list[Entry]]] = []
    _entries, trace, complete = _shower(
        pnet, key_range, start, rng, kind, collect=False, groups=groups
    )
    return groups, trace, complete


def _shower(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None,
    rng: random.Random | None,
    kind: str,
    collect: bool,
    groups: list[tuple[str, list[Entry]]] | None,
) -> tuple[list[Entry], Trace, bool]:
    """Expand the fan-out tree, then run it as one chain per edge.

    An edge's arrival serves the child's slice and returns the child's own
    edges.  With ``collect`` the edge's reply carries the child's subtree
    result back (sized by it) once the subtree completed, merging it into
    the parent's entries on arrival; otherwise results stay at the serving
    peers and are appended to ``groups``.
    """
    start = start or pnet.random_online_peer()
    tree = _expand_shower(pnet, start, key_range, cover="", rng=rng or pnet.rng)

    def serve(node: _ShowerNode, entries: list[Entry]) -> list[ChainSpec]:
        if groups is not None and node.local:
            groups.append((node.peer.node_id, node.local))
        if collect:
            entries.extend(node.local)
        return [edge(node.peer.node_id, child, entries) for child in node.children]

    def edge(parent_id: str, child: _ShowerNode, entries: list[Entry]) -> ChainSpec:
        found: list[Entry] = []
        child_id = child.peer.node_id
        reply = None
        if collect:
            reply = ChainSpec(
                [(child_id, parent_id)], kind, max(1, child.found), lambda _t: entries.extend(found)
            )
        return ChainSpec([(parent_id, child_id)], kind, 1, lambda _t: serve(child, found), reply)

    entries: list[Entry] = []
    trace = pnet.run_chains(serve(tree, entries))
    return entries, trace, tree.complete


@dataclass
class _ShowerNode:
    """One visited peer in a pre-expanded shower fan-out tree."""

    peer: PGridPeer
    local: list[Entry]
    #: Entries in this node's whole subtree (the size of its reply).
    found: int
    children: list["_ShowerNode"] = field(default_factory=list)
    complete: bool = True


def _expand_shower(
    pnet: PGridNetwork,
    peer: PGridPeer,
    key_range: KeyRange,
    cover: str,
    rng: random.Random,
) -> _ShowerNode:
    """Choose the fan-out tree without sending anything.

    ``peer``'s own leaf lies inside ``cover``; for every complementary
    subtree at levels >= len(cover) that intersects the range, one
    reference is drawn to cover that subtree.  Both execution models
    interpret the same tree (and therefore send the identical messages);
    only *when* each edge fires differs.
    """
    local = peer.store.scan(key_range)
    node = _ShowerNode(peer=peer, local=local, found=len(local))
    for level in range(len(cover), len(peer.path)):
        subtree = peer.required_prefix(level)
        if not key_range.intersects_path(subtree):
            continue
        refs = peer.valid_refs(level)
        if not refs:
            node.complete = False
            continue
        ref_id = rng.choice(refs)
        child_peer = pnet.net.nodes[ref_id]
        assert isinstance(child_peer, PGridPeer)
        child = _expand_shower(pnet, child_peer, key_range, subtree, rng)
        node.children.append(child)
        node.complete = node.complete and child.complete
        node.found += child.found
    return node


def range_query_sequential_groups(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
) -> tuple[list[tuple[str, list[Entry]]], Trace, bool]:
    """Sequential traversal in *produce* mode (rows stay at the leaves)."""
    groups: list[tuple[str, list[Entry]]] = []
    _entries, trace, complete = _sequential_walk(
        pnet, key_range, start, rng, kind, groups=groups, collect=False
    )
    return groups, trace, complete


def range_query_sequential(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
) -> tuple[list[Entry], Trace, bool]:
    """Sequential (min-max) range traversal, left edge to right edge."""
    return _sequential_walk(
        pnet, key_range, start, rng, kind, groups=None, collect=True
    )


def _sequential_walk(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None,
    rng: random.Random | None,
    kind: str,
    groups: list[tuple[str, list[Entry]]] | None,
    collect: bool,
) -> tuple[list[Entry], Trace, bool]:
    start = start or pnet.random_online_peer()
    rng = rng or pnet.rng
    entries: list[Entry] = []
    complete = True

    try:
        current, trace = route(start, _left_edge(key_range.lo), kind=kind, rng=rng, runner=pnet)
    except RoutingError as error:
        return [], getattr(error, "trace", Trace.ZERO), False

    for visited in range(1, MAX_SEQUENTIAL_LEAVES + 1):
        local = current.store.scan(key_range)
        if groups is not None and local:
            groups.append((current.node_id, local))
        entries.extend(local)
        next_key = increment_path(current.path)
        if next_key is None or not key_range.contains(next_key):
            break
        if visited == MAX_SEQUENTIAL_LEAVES:
            # The bound stops the walk short of the range's right edge.
            complete = False
            break
        try:
            current, hop_trace = route(
                current, _left_edge(next_key), kind=kind, rng=rng, runner=pnet
            )
        except RoutingError as error:
            trace = trace.then(getattr(error, "trace", Trace.ZERO))
            complete = False
            break
        trace = trace.then(hop_trace)

    # Ship the collected result back to the initiator.
    if collect and current is not start:
        trace = trace.then(
            pnet.ship(current.node_id, start.node_id, kind, size=max(1, len(entries)))
        )
    return entries, trace, complete


def _left_edge(key: str) -> str:
    """Zero-pad a short key so routing lands on the *leftmost* leaf covering it.

    Routing toward the bare prefix may stop at any peer inside the prefix's
    subtree; the sequential traversal needs the left edge specifically.
    """
    return point_key(key)
