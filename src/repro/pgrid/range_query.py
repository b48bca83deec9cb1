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
(:func:`_expand_shower`), and then interpreted in the active execution model:
a depth-first trace interpreter composes the edges with ``Trace.parallel``,
and in event-driven mode (:meth:`PGridNetwork.event_driven`) every edge
departs when its parent actually received the query, sibling subtrees race
each other, and the query completes when the last result funnels back.  The
tree (which references are chosen) is identical in both models, so message
counts agree; each interpreter draws latency jitter in its own order (depth
first, or firing order).  The sequential walk is a series of routes, each
charged through :meth:`PGridNetwork.run_chains`, the one chain form both
models share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.net.network import Network
from repro.net.scheduler import EventScheduler
from repro.net.trace import Trace
from repro.pgrid.datastore import Entry
from repro.pgrid.keys import KeyRange, increment_path
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.routing import point_key, route


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
    """Expand the fan-out tree, then interpret it in the active model.

    With ``collect`` the results flow back along the fan-out tree (one send
    per edge, sized by the subtree's result); otherwise they stay at the
    serving peers and are appended to ``groups``.
    """
    start = start or pnet.random_online_peer()
    tree = _expand_shower(pnet, start, key_range, cover="", rng=rng or pnet.rng)
    if pnet.scheduler is None:
        entries, trace = _trace_shower(pnet.net, tree, kind, collect, groups)
    else:
        entries, trace = _event_shower(pnet.scheduler, tree, kind, collect, groups)
    return entries, trace, tree.complete


@dataclass
class _ShowerNode:
    """One visited peer in a pre-expanded shower fan-out tree."""

    peer: PGridPeer
    cover: str
    local: list[Entry]
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
    node = _ShowerNode(peer=peer, cover=cover, local=peer.store.scan(key_range))
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
    return node


def _trace_shower(
    net: Network,
    node: _ShowerNode,
    kind: str,
    collect: bool,
    groups: list[tuple[str, list[Entry]]] | None,
) -> tuple[list[Entry], Trace]:
    """Depth-first trace interpreter: each edge is sent when it is visited."""
    if groups is not None and node.local:
        groups.append((node.peer.node_id, node.local))
    entries = list(node.local) if collect else []
    branches: list[Trace] = []
    for child in node.children:
        hop = net.send(node.peer.node_id, child.peer.node_id, kind, size=1)
        child_entries, child_trace = _trace_shower(net, child, kind, collect, groups)
        branch = hop.then(child_trace)
        if collect:
            # Results return along the tree edge; size reflects the payload.
            back = net.send(child.peer.node_id, node.peer.node_id, kind, max(1, len(child_entries)))
            branch = branch.then(back)
            entries.extend(child_entries)
        branches.append(branch)
    return entries, Trace.parallel(branches)


def _event_shower(
    scheduler: EventScheduler,
    tree: _ShowerNode,
    kind: str,
    collect: bool,
    groups: list[tuple[str, list[Entry]]] | None,
) -> tuple[list[Entry], Trace]:
    """Run a shower fan-out as interleaved events on the simulated clock.

    Each tree edge departs at the instant its parent received the query, so
    sibling subtrees race; with ``collect`` the results funnel back along
    the tree and a node completes when its slowest child's reply lands.
    The returned trace carries the *measured* latency and completion time,
    with the messages and critical-path hops counted as they are sent.
    """
    start_time = scheduler.now
    outcome: dict = {"messages": 0}

    def finished(entries: list[Entry], time: float, hops: int) -> None:
        outcome.update(entries=entries, time=time, hops=hops)

    _schedule_shower_node(scheduler, tree, start_time, kind, collect, groups, outcome, finished)
    scheduler.run()
    completion = outcome["time"]
    trace = Trace(
        messages=outcome["messages"],
        hops=outcome["hops"],
        latency=completion - start_time,
        completion_time=completion,
    )
    return outcome["entries"], trace


def _schedule_shower_node(
    scheduler: EventScheduler,
    node: _ShowerNode,
    at: float,
    kind: str,
    collect: bool,
    groups: list[tuple[str, list[Entry]]] | None,
    outcome: dict,
    on_done,
) -> None:
    """Serve ``node`` at instant ``at``; call ``on_done(entries, time, hops)``.

    Runs inside the event loop: forward edges to all children depart at
    ``at`` concurrently, every child recursively schedules its own subtree
    on arrival, and (with ``collect``) the node completes when the last
    funnel-back reply has been delivered.  ``hops`` is the subtree's
    critical path; every message sent is counted in ``outcome``.
    """
    if groups is not None and node.local:
        groups.append((node.peer.node_id, node.local))
    entries = list(node.local) if collect else []
    if not node.children:
        on_done(entries, at, 0)
        return
    pending = {"count": len(node.children), "finish": at, "hops": 0}

    def merged(child_entries: list[Entry], time: float, hops: int) -> None:
        if collect:
            entries.extend(child_entries)
        pending["count"] -= 1
        pending["finish"] = max(pending["finish"], time)
        pending["hops"] = max(pending["hops"], hops)
        if pending["count"] == 0:
            on_done(entries, pending["finish"], pending["hops"])

    def child_done(child: _ShowerNode, child_entries: list[Entry], time: float, hops: int) -> None:
        if collect:
            # Results return along the tree edge; size reflects the payload.
            outcome["messages"] += 1
            scheduler.send_at(
                time,
                child.peer.node_id,
                node.peer.node_id,
                kind,
                max(1, len(child_entries)),
                on_delivered=lambda arrival: merged(child_entries, arrival, hops + 2),
            )
        else:
            merged(child_entries, time, hops + 1)

    for child in node.children:

        def arrived(time: float, child: _ShowerNode = child) -> None:
            _schedule_shower_node(
                scheduler,
                child,
                time,
                kind,
                collect,
                groups,
                outcome,
                lambda child_entries, done_time, hops, child=child: child_done(
                    child, child_entries, done_time, hops
                ),
            )

        outcome["messages"] += 1
        scheduler.send_at(at, node.peer.node_id, child.peer.node_id, kind, 1, on_delivered=arrived)


def range_query_sequential_groups(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
    max_leaves: int = 4096,
) -> tuple[list[tuple[str, list[Entry]]], Trace, bool]:
    """Sequential traversal in *produce* mode (rows stay at the leaves)."""
    groups: list[tuple[str, list[Entry]]] = []
    _entries, trace, complete = _sequential_walk(
        pnet, key_range, start, rng, kind, max_leaves, groups=groups, collect=False
    )
    return groups, trace, complete


def range_query_sequential(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None = None,
    rng: random.Random | None = None,
    kind: str = "range",
    max_leaves: int = 4096,
) -> tuple[list[Entry], Trace, bool]:
    """Sequential (min-max) range traversal, left edge to right edge."""
    return _sequential_walk(
        pnet, key_range, start, rng, kind, max_leaves, groups=None, collect=True
    )


def _sequential_walk(
    pnet: PGridNetwork,
    key_range: KeyRange,
    start: PGridPeer | None,
    rng: random.Random | None,
    kind: str,
    max_leaves: int,
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

    for _step in range(max_leaves):
        local = current.store.scan(key_range)
        if groups is not None and local:
            groups.append((current.node_id, local))
        entries.extend(local)
        next_key = increment_path(current.path)
        if next_key is None or not key_range.contains(next_key):
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
