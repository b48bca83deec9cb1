"""Driven lookups as chains, held to the hop walker they replaced.

The drivers' engine runs each lookup leg as one ``ChainSpec``: the routed
hops, an arrival that reads the store and returns the ``result`` reply
chain, and an ``on_lost`` handler that hands a lost hop over to a retry or
a re-routed leg.  :class:`ReferenceEngine` is a copy of the engine it
replaced, which walked every route hop by hop through raw ``send_at``
callbacks and replayed failed routes with a routine of its own.  Without
churn both engines must produce the identical scheduler log, every
``OpRecord`` field, load-model snapshot and stats frame, for open and
closed loop, every diffusion policy, and admission control and hints on
and off.

Under churn the two differ by one rule only, pinned below: a failed
route's replay now ends at its first lost hop like any chain, so it stops
when a peer dies before serving it, and a rejected replay hop is NACKed
rather than parked.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.errors import RoutingError
from repro.load import (
    ClosedLoopDriver,
    LoadModel,
    OpenLoopDriver,
    ServiceProfile,
    ThresholdAdmission,
    draw_speed_factors,
)
from repro.load.diffusion import diffuse_route, pick_member
from repro.load.drivers import (
    LOOKUP_KIND,
    MAX_REJECT_RETRIES,
    MAX_REROUTES,
    RESULT_KIND,
    OpRecord,
    _DriverBase,
)
from repro.net import ConstantLatency, Network, PlanetLabLatency
from repro.net.churn import ChurnEvent, generate_session_trace
from repro.pgrid import build_network, bulk_load, encode_string
from repro.pgrid.network import PGridNetwork
from repro.pgrid.peer import PGridPeer
from repro.pgrid.routing import point_key, route_hops

_WORD_RNG = random.Random(2024)
WORDS = sorted({"".join(_WORD_RNG.choice("abcdefghij") for _ in range(6)) for _ in range(60)})
ITEMS = [(encode_string(w), f"id-{w}", w) for w in WORDS]
KEYS = [key for key, _id, _value in ITEMS]
DIFFUSION = ["none", "random", "least-busy", "least-busy-oracle"]


class ReferenceEngine:
    """The drivers' engine before legs became chains: a ``send_at`` hop walker."""

    def __init__(
        self,
        pnet: PGridNetwork,
        rng: random.Random,
        diffusion: str = "none",
    ):
        if pnet.scheduler is None:
            raise ValueError("drivers need event-driven execution: use pnet.event_driven()")
        self.pnet = pnet
        self.scheduler = pnet.scheduler
        self.rng = rng
        self.diffusion = diffusion
        self.records: list[OpRecord] = []

    # -- lifecycle -----------------------------------------------------------

    def launch(self, record: OpRecord, start: PGridPeer, on_done=None) -> None:
        """Start one operation now; ``on_done(record)`` fires at completion."""
        self.records.append(record)
        self._route_leg(record, start, start, self.scheduler.now, on_done)

    def _finish(self, record: OpRecord, time: float, ok: bool, error: str | None, on_done) -> None:
        record.completed = time
        record.ok = ok
        record.error = error
        if on_done is not None:
            on_done(record)

    # -- routing legs --------------------------------------------------------

    def _route_leg(
        self,
        record: OpRecord,
        current: PGridPeer,
        origin: PGridPeer,
        time: float,
        on_done,
    ) -> None:
        """Discover (and maybe diffuse) a route from ``current``, then walk it."""
        try:
            destination, hops = route_hops(current, point_key(record.key), rng=self.rng)
        except RoutingError as error:
            # The partial hops were travelled before the dead end; account
            # them as an untracked chain so message totals stay honest.
            self._account_partial(getattr(error, "hops", []), time)
            self._finish(record, time, ok=False, error=str(error), on_done=on_done)
            return
        destination, hops = diffuse_route(
            destination,
            hops,
            policy=self.diffusion,
            rng=self.rng,
            load=self.scheduler.load,
            now=time,
            hints=self.pnet.net.hints,
            observer=origin.node_id,
        )
        self._walk(record, destination, hops, 0, origin, time, on_done)

    def _account_partial(self, hops: list[tuple[str, str]], time: float) -> None:
        """Replay the hops of a failed route, liveness-checked per hop.

        Unlike ``scheduler.chain`` this stops (instead of raising inside the
        simulator) when churn kills a hop's destination before the message
        reaches it, so one dead-end route can never crash the whole run.
        """

        def step(index: int, at: float) -> None:
            if index == len(hops):
                return
            src_id, dst_id = hops[index]
            dst = self.pnet.net.nodes.get(dst_id)
            if dst is None or not dst.online:
                return
            self.scheduler.send_at(
                at, src_id, dst_id, LOOKUP_KIND, 1, on_delivered=lambda t: step(index + 1, t)
            )

        step(0, time)

    def _walk(
        self,
        record: OpRecord,
        destination: PGridPeer,
        hops: list[tuple[str, str]],
        index: int,
        origin: PGridPeer,
        time: float,
        on_done,
    ) -> None:
        """Traverse one hop, re-validating liveness at every delivery."""
        if index == len(hops):
            self._arrive(record, destination, origin, time, on_done)
            return
        src_id, dst_id = hops[index]
        dst = self.pnet.net.nodes.get(dst_id)
        if dst is None or not dst.online or not isinstance(dst, PGridPeer):
            self._reroute(record, src_id, origin, time, on_done)
            return

        def delivered(at: float) -> None:
            if not dst.online:
                # The peer died while the message was in flight or queued;
                # its drained work is redone from the previous hop.
                self._reroute(record, src_id, origin, at, on_done)
                return
            self._walk(record, destination, hops, index + 1, origin, at, on_done)

        def rejected(at: float) -> None:
            self._rejected(record, src_id, dst_id, destination, hops, index, origin, at, on_done)

        self.scheduler.send_at(
            time, src_id, dst_id, LOOKUP_KIND, 1, on_delivered=delivered, on_rejected=rejected
        )

    def _rejected(
        self,
        record: OpRecord,
        src_id: str,
        dst_id: str,
        destination: PGridPeer,
        hops: list[tuple[str, str]],
        index: int,
        origin: PGridPeer,
        time: float,
        on_done,
    ) -> None:
        """The peer at ``dst_id`` shed this operation's hop; retry elsewhere.

        A reject at the *final* hop retries another member of the responsible
        replica group (every member holds the data); a reject at a transit
        hop re-routes from the last live peer, where hint-aware reference
        choice steers the new route around the saturated peer.  Both paths
        are bounded by :data:`MAX_REJECT_RETRIES`; exhausting the budget
        fails the operation *reported* (``error="rejected"``), never
        silently.
        """
        record.rejections += 1
        record.rejected_by += (dst_id,)
        if record.rejections > MAX_REJECT_RETRIES:
            self._finish(
                record, time, ok=False, error="rejected: retry budget exhausted", on_done=on_done
            )
            return
        src = self.pnet.net.nodes.get(src_id)
        if src is None or not src.online:
            self._reroute(record, src_id, origin, time, on_done)
            return
        final_hop = index == len(hops) - 1 and dst_id == destination.node_id
        if final_hop:
            alternative = self._alternative_member(record, destination, src_id)
            if alternative is not None:
                self._walk(
                    record,
                    alternative,
                    [(src_id, alternative.node_id)],
                    0,
                    origin,
                    time,
                    on_done,
                )
                return
            self._finish(
                record, time, ok=False, error="rejected: no replica admitted", on_done=on_done
            )
            return
        # Transit-hop reject: route again from the sender.
        self._route_leg(record, src, origin, time, on_done)

    def _alternative_member(
        self, record: OpRecord, destination: PGridPeer, chooser_id: str
    ) -> PGridPeer | None:
        """An untried replica-group member to retry a shed read at.

        The chooser is the peer that received the reject NACK and sends the
        retry hop; its hint table is ranked when a registry is attached (the
        NACK itself just delivered the rejector's depth to it, and on the
        common cache-hit direct route the chooser *is* the reply-fed
        gateway).  The oracle ranks under the ``least-busy-oracle``
        diffusion policy; otherwise the pick is uniform.
        """
        from repro.pgrid.replication import online_group  # deferred: pgrid imports load

        members = [p for p in online_group(destination) if p.node_id not in record.rejected_by]
        if not members:
            return None
        hints = self.pnet.net.hints
        if self.diffusion == "least-busy-oracle":
            policy = "least-busy-oracle"
        elif hints is not None:
            policy = "least-busy"
        else:
            policy = "random"
        return pick_member(
            members,
            policy,
            rng=self.rng,
            load=self.scheduler.load,
            now=self.scheduler.now,
            hints=hints,
            observer=chooser_id,
        )

    def _reroute(self, record: OpRecord, from_id: str, origin: PGridPeer, time, on_done) -> None:
        """Re-route after a mid-flight failure, from the last live hop."""
        record.reroutes += 1
        if record.reroutes > MAX_REROUTES:
            self._finish(record, time, ok=False, error="too many reroutes", on_done=on_done)
            return
        peer = self.pnet.net.nodes.get(from_id)
        if peer is None or not peer.online or not isinstance(peer, PGridPeer):
            peer = origin if origin.online else None
        if peer is None:
            self._finish(record, time, ok=False, error="initiator offline", on_done=on_done)
            return
        self._route_leg(record, peer, origin, time, on_done)

    # -- destination work ----------------------------------------------------

    def _arrive(
        self, record: OpRecord, destination: PGridPeer, origin: PGridPeer, time: float, on_done
    ) -> None:
        entries = destination.store.get(record.key)
        record.entries = len(entries)
        if destination is origin:
            self._finish(record, time, ok=True, error=None, on_done=on_done)
            return
        if not origin.online:
            self._finish(record, time, ok=False, error="initiator offline", on_done=on_done)
            return

        def replied(at: float) -> None:
            self._finish(record, at, ok=True, error=None, on_done=on_done)

        self.scheduler.send_at(
            time,
            destination.node_id,
            origin.node_id,
            RESULT_KIND,
            max(1, len(entries)),
            on_delivered=replied,
        )


def _reference(monkeypatch):
    """Make every driver run on the reference engine."""
    monkeypatch.setattr(
        _DriverBase,
        "_engine",
        lambda self: ReferenceEngine(self.pnet, self.rng, diffusion=self.diffusion),
    )


def _drive(loop, diffusion, admission, hints, latency, churn=False):
    """One seeded driver run; every figure the two engines must agree on."""
    pnet = build_network(48, replication=3, seed=31, split_by="population", latency_model=latency)
    bulk_load(pnet, ITEMS)
    model = LoadModel(
        ServiceProfile({"lookup": 0.004, "result": 0.0002}),
        speeds=draw_speed_factors([p.node_id for p in pnet.peers], seed=3),
        admission=ThresholdAdmission(2) if admission else None,
    )
    sessions = None
    if churn:
        peer_ids = [p.node_id for p in pnet.peers]
        sessions = generate_session_trace(peer_ids, 0.5, 0.4, 0.1, rng=random.Random(42))
    with pnet.net.frame() as frame, pnet.event_driven(load=model, hints=hints) as sched:
        if loop == "open":
            driver = OpenLoopDriver(
                pnet, KEYS, rate=500, horizon=0.5, key_skew=1.1, diffusion=diffusion, seed=11
            )
        else:
            driver = ClosedLoopDriver(
                pnet,
                KEYS,
                clients=24,
                ops_per_client=8,
                think_time=0.001,
                key_skew=1.1,
                diffusion=diffusion,
                seed=11,
            )
        records = driver.run(churn_trace=sessions)
        assert sched.pending() == 0
    return {
        "log": list(sched.log),
        "records": [dataclasses.astuple(record) for record in records],
        "model": model.snapshot(),
        "frame": frame.snapshot(),
        "rngs": (pnet.net.rng.getstate(), driver.rng.getstate()),
    }


@pytest.mark.parametrize("hints", [False, True], ids=["no-hints", "hints"])
@pytest.mark.parametrize("admission", [False, True], ids=["no-admission", "admission"])
@pytest.mark.parametrize("diffusion", DIFFUSION)
@pytest.mark.parametrize("loop", ["open", "closed"])
def test_chains_match_the_hop_walker(monkeypatch, loop, diffusion, admission, hints):
    latency = ConstantLatency(0.01)
    subject = _drive(loop, diffusion, admission, hints, latency)
    _reference(monkeypatch)
    reference = _drive(loop, diffusion, admission, hints, latency)
    assert subject == reference
    if admission:  # the case sheds, retries and re-routes
        assert any(record[7] for record in subject["records"])  # rejections


@pytest.mark.parametrize("loop", ["open", "closed"])
def test_chains_match_the_hop_walker_under_jitter(monkeypatch, loop):
    subject = _drive(loop, "least-busy", True, True, PlanetLabLatency())
    _reference(monkeypatch)
    assert subject == _drive(loop, "least-busy", True, True, PlanetLabLatency())


def test_chains_match_the_hop_walker_through_reroutes(monkeypatch):
    """Peers die mid-flight: legs lost at departure or before service
    re-route from the previous hop exactly as the walker did."""
    subject = _drive("open", "random", True, True, ConstantLatency(0.01), churn=True)
    assert sum(record[6] for record in subject["records"]) > 0  # reroutes
    _reference(monkeypatch)
    assert subject == _drive("open", "random", True, True, ConstantLatency(0.01), churn=True)


# ---------------------------------------------------------------------------
# The failed-route replay rule
# ---------------------------------------------------------------------------


def _dead_end_overlay():
    """a(0) -> b(10) -> c(110) -> e(1110) -> d(1111, offline): a lookup of
    d's key from ``a`` dead-ends at ``e`` after three hops."""
    pnet = PGridNetwork(Network(latency_model=ConstantLatency(0.01)))
    for node_id, path in [("a", "0"), ("b", "10"), ("c", "110"), ("e", "1110"), ("d", "1111")]:
        pnet.add_peer(node_id, path)
    for src, level, dst in [("a", 0, "b"), ("b", 1, "c"), ("c", 2, "e"), ("e", 3, "d")]:
        pnet.peer(src).routing.add(level, dst)
    pnet.peer("d").fail()
    return pnet


def _dead_end_run(churn=(), admission=None):
    pnet = _dead_end_overlay()
    model = LoadModel(ServiceProfile({LOOKUP_KIND: 0.001}), admission=admission)
    with pnet.event_driven(load=model) as sched:
        driver = ClosedLoopDriver(
            pnet, ["1111"], clients=1, ops_per_client=1, gateways=[pnet.peer("a")], seed=0
        )
        (record,) = driver.run(churn_trace=list(churn))
        pending = sched.pending()
    return record, [(d.src, d.dst, d.kind) for d in sched.log], pending


def test_failed_route_replay_runs_to_the_dead_end():
    record, log, pending = _dead_end_run()
    assert not record.ok and record.error.startswith("no route")
    assert log == [("a", "b", "lookup"), ("b", "c", "lookup"), ("c", "e", "lookup")]
    assert pending == 0


@pytest.mark.parametrize("engine", ["chains", "reference"])
def test_replay_ends_at_a_peer_that_died_before_serving_it(monkeypatch, engine):
    """``c`` dies while b->c is in flight.  The replay, a chain with a lost-hop
    handler, ends there; the reference walker sent on from the dead peer."""
    if engine == "reference":
        _reference(monkeypatch)
    record, log, pending = _dead_end_run([ChurnEvent(time=0.015, node_id="c", online=False)])
    assert not record.ok
    walked = [("a", "b", "lookup"), ("b", "c", "lookup")]
    assert log == (walked if engine == "chains" else walked + [("c", "e", "lookup")])
    assert pending == 0


@pytest.mark.parametrize("engine", ["chains", "reference"])
def test_rejected_replay_hop_is_nacked_not_parked(monkeypatch, engine):
    """``b`` admits nothing.  The replay's first hop is NACKed and the replay
    ends; the reference walker parked it until it was forced in."""
    if engine == "reference":
        _reference(monkeypatch)
    record, log, pending = _dead_end_run(admission={"b": ThresholdAdmission(0)})
    assert not record.ok
    if engine == "chains":
        assert log == [("a", "b", "lookup"), ("b", "a", "reject")]
    else:
        assert log == [("a", "b", "lookup"), ("b", "c", "lookup"), ("c", "e", "lookup")]
    assert pending == 0
