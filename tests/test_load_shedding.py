"""Load shedding and piggybacked queue-depth hints.

Covers the PR 5 load-control loop end to end:

* the threshold admission policy and the ``NodeQueue.offer`` gate — a
  declined job never mutates the queue;
* scheduler semantics: rejects NACK the sender (an accounted message),
  handler-less rejects park-and-retry so no work is lost, force-admission
  after ``MAX_PARK_ROUNDS``;
* hint piggybacking: every delivery stamps the sender's advertised depth,
  tables decay, and the staleness invariant holds (a hypothesis property:
  a hint never exceeds the subject's true peak depth since the piggyback
  that produced it);
* conservation under a shedding overlay: every driven operation ends
  completed-ok or failed-with-error, never silently lost;
* the PR 4 byte-identity acceptance criterion: with ``admission=None`` and
  hints off, the scheduler's event sequence is unchanged.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.load import (
    HintRegistry,
    HintTable,
    LoadModel,
    NodeQueue,
    OpenLoopDriver,
    ServiceProfile,
    ThresholdAdmission,
    pick_least_hinted,
    pick_member,
    summarize,
)
from repro.net import ConstantLatency, Network, ZeroLatency
from repro.net.scheduler import MAX_PARK_ROUNDS, PARK_PENALTY
from repro.pgrid import build_network, bulk_load, encode_string
from repro.pgrid.datastore import Entry
from repro.pgrid.network import PGridNetwork

_WORD_RNG = random.Random(512)
WORDS = sorted(
    {
        "".join(_WORD_RNG.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))
        for _ in range(24)
    }
)
ITEMS = [(encode_string(w), f"id-{w}", f"val-{w}") for w in WORDS]
KEYS = [key for key, _id, _value in ITEMS]


class TestAdmissionPolicies:
    def test_threshold(self):
        policy = ThresholdAdmission(max_depth=2)
        assert policy.decide(0) == "accept"
        assert policy.decide(1) == "accept"
        assert policy.decide(2) == "reject"
        assert ThresholdAdmission(max_depth=0).decide(0) == "reject"

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdAdmission(-1)


class TestNodeQueueOffer:
    def test_accept_matches_admit(self):
        gated, plain = NodeQueue(policy=ThresholdAdmission(8)), NodeQueue()
        verdict, start, finish, depth = gated.offer(1.0, 0.5)
        assert verdict == "accept"
        assert (start, finish, depth) == plain.admit(1.0, 0.5)
        assert gated.busy_until == plain.busy_until

    def test_reject_leaves_queue_untouched(self):
        queue = NodeQueue(policy=ThresholdAdmission(1))
        queue.admit(0.0, 1.0)
        before = (queue.busy_until, queue.jobs, queue.busy_time, queue.max_depth)
        verdict, start, finish, depth = queue.offer(0.1, 1.0)
        assert verdict == "reject"
        assert (start, finish) == (0.1, 0.1)
        assert depth == 1
        assert (queue.busy_until, queue.jobs, queue.busy_time, queue.max_depth) == before
        assert queue.rejected == 1 and queue.deferred == 0

    def test_no_policy_accepts_everything(self):
        queue = NodeQueue()
        for i in range(20):
            verdict, *_ = queue.offer(float(i) * 1e-3, 1.0)
            assert verdict == "accept"
        assert queue.rejected == queue.deferred == 0

    def test_advertised_depth_is_conservative(self):
        queue = NodeQueue()
        for i in range(6):
            queue.admit(0.0, 1.0)
        # EWMA lags below the instantaneous depth while it climbs...
        assert queue.advertised_depth(0.0) <= queue.depth_at(0.0)
        # ...and after the backlog drains the advertisement drops to 0 even
        # though the EWMA still remembers the spike: never overstate.
        assert queue.depth_at(100.0) == 0
        assert queue.advertised_depth(100.0) == 0.0
        assert queue.ewma_depth > 0.0


class TestHintTables:
    def test_decay_and_unknown(self):
        table = HintTable(half_life=1.0)
        assert table.depth("x", 5.0) == 0.0
        table.observe("x", 8.0, at=10.0)
        assert table.depth("x", 10.0) == pytest.approx(8.0)
        assert table.depth("x", 11.0) == pytest.approx(4.0)
        assert table.depth("x", 13.0) == pytest.approx(1.0)
        # Older observations never overwrite newer ones.
        table.observe("x", 99.0, at=9.0)
        assert table.raw("x") == (8.0, 10.0)

    def test_registry_clock_and_tables(self):
        registry = HintRegistry(half_life=2.0)
        registry.observe("a", "b", 4.0, at=1.0)
        registry.observe("c", "b", 6.0, at=3.0)
        assert registry.clock == 3.0
        assert registry.observations == 2
        # Per-observer: a's view of b decayed to clock, c's is fresh.
        assert registry.depth("a", "b") == pytest.approx(4.0 * 0.5)
        assert registry.depth("c", "b") == pytest.approx(6.0)
        assert registry.depth("nobody", "b") == 0.0

    def test_pick_least_hinted_matches_rng_choice_when_unknown(self):
        registry = HintRegistry()
        candidates = ["p1", "p2", "p3"]
        expected = random.Random(42).choice(candidates)
        assert pick_least_hinted(candidates, "me", registry, random.Random(42)) == expected
        registry.observe("me", "p1", 5.0, at=0.0)
        registry.observe("me", "p3", 2.0, at=0.0)
        # p2 never heard from reads 0.0 — the optimistic minimum.
        assert pick_least_hinted(candidates, "me", registry, random.Random(0)) == "p2"


@given(
    services=st.lists(st.floats(0.05, 2.0, allow_nan=False), min_size=2, max_size=30),
    gaps=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=30),
    piggyback_every=st.integers(1, 5),
    query_offset=st.floats(0.0, 5.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_property_hint_never_exceeds_peak_depth_since_piggyback(
    services, gaps, piggyback_every, query_offset
):
    """The staleness invariant: a stored hint, decayed or not, is always
    <= the subject's true peak queue depth since the piggyback instant."""
    queue = NodeQueue()
    registry = HintRegistry(half_life=0.3)
    jobs: list[tuple[float, float]] = []  # (arrival, finish) ground truth
    now = 0.0
    last_piggyback: float | None = None
    for index, (service, gap) in enumerate(zip(services, gaps)):
        now += gap
        start, finish, _depth = queue.admit(now, service)
        jobs.append((now, finish))
        if index % piggyback_every == 0:
            registry.observe("gw", "n", queue.advertised_depth(now), at=now)
            last_piggyback = now
    if last_piggyback is None:
        return
    query_at = last_piggyback + query_offset

    def true_depth(t: float) -> int:
        return sum(1 for arrival, finish in jobs if arrival <= t < finish)

    # Depth is piecewise constant, changing only at arrivals/finishes: the
    # peak over [piggyback, query] is attained at one of those instants.
    instants = [last_piggyback, query_at] + [
        t
        for arrival, finish in jobs
        for t in (arrival, finish)
        if last_piggyback <= t <= query_at
    ]
    peak = max(true_depth(t) for t in instants)
    hint = registry.depth("gw", "n", now=query_at)
    assert hint <= peak + 1e-9
    # And the advertisement itself never overstates the instantaneous depth.
    assert registry.tables["gw"].raw("n")[0] <= true_depth(last_piggyback) + 1e-9


def _tiny_overlay():
    """Hand-built 3-peer trie with pinned links (PR 4's test shape)."""
    pnet = PGridNetwork(Network(latency_model=ZeroLatency(), seed=0))
    a = pnet.add_peer("a", "00")
    b = pnet.add_peer("b", "01")
    c = pnet.add_peer("c", "1")
    a.routing.add(0, "c")
    a.routing.add(1, "b")
    b.routing.add(0, "c")
    b.routing.add(1, "a")
    c.routing.add(0, "a")
    pnet.net.set_link_latency("a", "b", 0.2)
    pnet.net.set_link_latency("a", "c", 0.5)
    b.store.put(Entry(key="011", item_id="x", value="vb", version=1))
    c.store.put(Entry(key="10", item_id="y", value="vc", version=1))
    return pnet, a


class TestSchedulerShedding:
    def test_reject_nacks_the_sender(self):
        pnet, a = _tiny_overlay()
        model = LoadModel(
            ServiceProfile({"ping": 1.0}),
            admission={"c": ThresholdAdmission(1)},
        )
        with pnet.event_driven(load=model) as sched:
            done, nacked = [], []
            sched.send_at(0.0, "a", "c", "ping", on_delivered=done.append)
            sched.send_at(
                0.0, "a", "c", "ping", on_delivered=done.append, on_rejected=nacked.append
            )
            sched.run()
        # First arrival (0.5) admitted, finishes 1.5.  Second arrival sees
        # depth 1 >= max_depth -> rejected; the NACK travels c -> a (0.5)
        # and the handler fires at 1.0.
        assert done == [pytest.approx(1.5)]
        assert nacked == [pytest.approx(1.0)]
        assert model.queue("c").jobs == 1 and model.queue("c").rejected == 1
        assert model.snapshot()["c"]["rejected"] == 1
        snap = pnet.net.stats.total.snapshot()
        assert snap["rejects"] == 1
        assert snap["by_kind"]["reject"] == 1  # the NACK is a real message

    def test_handlerless_reject_is_parked_not_lost(self):
        pnet, a = _tiny_overlay()
        model = LoadModel(ServiceProfile({"ping": 1.0}), admission={"c": ThresholdAdmission(1)})
        with pnet.event_driven(load=model) as sched:
            done = []
            sched.send_at(0.0, "a", "c", "ping", on_delivered=done.append)
            sched.send_at(0.0, "a", "c", "ping", on_delivered=done.append)
            sched.run()
        # The shed job is re-offered every PARK_PENALTY seconds while the
        # first job (0.5 -> 1.5) is in service, forced in after
        # MAX_PARK_ROUNDS rounds (0.58), and queues behind it: done at 2.5.
        assert MAX_PARK_ROUNDS * PARK_PENALTY < 1.0
        assert done == [pytest.approx(1.5), pytest.approx(2.5)]
        assert model.queue("c").jobs == 2
        assert pnet.net.stats.total.total_rejects == 1
        assert "deferrals" in pnet.net.stats.total.snapshot()

    def test_parked_job_admitted_once_the_queue_drains(self):
        """A parked job the policy admits before the forced round goes in at
        the first re-offer that finds the queue below its cap."""
        pnet, a = _tiny_overlay()
        service = 2.5 * PARK_PENALTY
        model = LoadModel(ServiceProfile({"ping": service}), admission={"c": ThresholdAdmission(1)})
        with pnet.event_driven(load=model) as sched:
            done = []
            sched.send_at(0.0, "a", "c", "ping", on_delivered=done.append)
            sched.send_at(0.0, "a", "c", "ping", on_delivered=done.append)
            sched.run()
        # Declined at 0.5 (reject), 0.51 and 0.52 (deferrals); admitted by
        # the policy at 0.53, after the first job finished at 0.525.
        assert model.queue("c").rejected == 1
        assert model.queue("c").deferred == 2
        assert done == [
            pytest.approx(0.5 + service),
            pytest.approx(0.5 + 3 * PARK_PENALTY + service),
        ]

    def test_parked_reject_counts_once(self):
        """Regression: one shed message = one reject, park rounds = defers."""
        pnet, a = _tiny_overlay()
        model = LoadModel(ServiceProfile({"ping": 1.0}), admission={"c": ThresholdAdmission(1)})
        with pnet.event_driven(load=model) as sched:
            sched.send_at(0.0, "a", "c", "ping")
            sched.send_at(0.0, "a", "c", "ping")
            sched.run()
        # The second message was declined at 0.5 (the reject) and at each of
        # the following re-offers until the forced round: one rejection,
        # MAX_PARK_ROUNDS - 1 park-round deferrals.
        assert model.queue("c").rejected == 1
        assert model.queue("c").deferred == MAX_PARK_ROUNDS - 1
        assert pnet.net.stats.total.total_rejects == 1
        assert pnet.net.stats.total.total_deferrals == MAX_PARK_ROUNDS - 1

    def test_park_time_visible_in_service_stats(self):
        """Regression: the queue measures wait from the network arrival, so
        time spent parked by admission control is not invisible."""
        pnet, a = _tiny_overlay()
        # Depth cap 0 declines *everything*: only the forced admission after
        # MAX_PARK_ROUNDS lets the job through.
        model = LoadModel(ServiceProfile({"ping": 1.0}), admission={"c": ThresholdAdmission(0)})
        with pnet.event_driven(load=model):
            pnet.scheduler.send_at(0.0, "a", "c", "ping")
            pnet.scheduler.run()
        parked = pytest.approx(MAX_PARK_ROUNDS * PARK_PENALTY)
        (sample,) = model.samples
        assert model.queue("c").total_wait == parked
        assert model.snapshot()["c"]["wait"] == parked
        assert sample.wait == parked
        assert model.snapshot()["c"]["sojourn"] == pytest.approx(sample.wait + 1.0)

    def test_hint_piggyback_on_deliveries(self):
        pnet, a = _tiny_overlay()
        model = LoadModel(ServiceProfile({"ping": 1.0}))
        with pnet.event_driven(load=model, hints=True) as sched:
            registry = pnet.net.hints
            assert registry is not None
            sched.send_at(0.0, "a", "c", "ping")
            sched.run()
            # c heard from a: a's queue is empty, so the hint reads 0.
            assert registry.depth("c", "a") == 0.0
            # Now c is busy; a message c -> a advertises its depth.
            sched.send_at(1.0, "c", "a", "pong")
            sched.run()
            assert registry.depth("a", "c", now=1.0) > 0.0
            assert all(d.hint is not None for d in sched.log)
        assert pnet.net.hints is None  # detached with the scheduler


class TestPickMember:
    def test_oracle_vs_hints_vs_random(self):
        pnet, a = _tiny_overlay()
        b, c = pnet.peer("b"), pnet.peer("c")
        model = LoadModel(ServiceProfile({"ping": 1.0}))
        model.admit("c", 0.0, "ping")  # c is busy until 1.0
        members = [b, c]
        oracle = pick_member(members, "least-busy-oracle", load=model, now=0.5)
        assert oracle is b
        registry = HintRegistry()
        registry.observe("gw", "b", 7.0, at=0.5)
        hinted = pick_member(
            members, "least-busy", hints=registry, observer="gw", rng=random.Random(0)
        )
        assert hinted is c  # gw heard b is deep; c (unheard) reads 0
        # least-busy without hints falls back to the oracle (PR 4 behaviour).
        assert pick_member(members, "least-busy", load=model, now=0.5) is b


class TestByteIdentityWithPR4:
    """Acceptance criterion: admission=None + hints off == PR 4 exactly."""

    def _run(self, *, admission=None, hints=False, profile=True):
        pnet = build_network(
            32,
            replication=2,
            seed=91,
            split_by="population",
            latency_model=ConstantLatency(0.05),
        )
        bulk_load(pnet, ITEMS)
        model = LoadModel(
            ServiceProfile({"lookup": 0.002} if profile else {}), admission=admission
        )
        with pnet.event_driven(load=model, hints=hints) as sched:
            results, lookup_trace = pnet.lookup_many(KEYS, start=pnet.peers[0])
            insert_trace = pnet.insert_many(
                [(encode_string(f"shed{i}"), f"sid{i}", i) for i in range(8)],
                start=pnet.peers[1],
            )
        found = {k: {(e.item_id, e.value) for e in v} for k, v in results.items()}
        return list(sched.log), lookup_trace, insert_trace, found

    def test_admission_none_and_hints_off_change_nothing(self):
        baseline = self._run()
        explicit = self._run(admission=None, hints=False)
        assert baseline == explicit
        # The Delivery records carry no hint metadata when hints are off —
        # the log shape PR 4 produced.
        assert all(d.hint is None for d in baseline[0])

    def test_accept_all_policy_is_invisible(self):
        baseline = self._run()
        gated = self._run(admission=ThresholdAdmission(10**9))
        assert baseline == gated

    def test_hints_on_stamps_metadata_but_preserves_results(self):
        baseline = self._run()
        hinted = self._run(hints=True)
        assert hinted[3] == baseline[3]  # same entries found
        assert all(d.hint is not None for d in hinted[0])


class TestDriverConservation:
    """Rejected operations are retried or reported — never silently lost."""

    def _shedding_overlay(self, seed=17):
        pnet = build_network(
            24,
            replication=3,
            seed=seed,
            split_by="population",
            latency_model=ConstantLatency(0.01),
        )
        bulk_load(pnet, ITEMS)
        return pnet

    def _drive(self, pnet, model, hints, diffusion="random", rate=400.0):
        with pnet.event_driven(load=model, hints=hints):
            driver = OpenLoopDriver(
                pnet,
                KEYS,
                rate=rate,
                horizon=0.5,
                key_skew=1.2,
                gateways=[pnet.peers[0]],
                diffusion=diffusion,
                seed=5,
            )
            return driver.run()

    def _aggressive_model(self, pnet):
        gateway = pnet.peers[0].node_id
        policy = ThresholdAdmission(1)
        admission = {p.node_id: policy for p in pnet.peers if p.node_id != gateway}
        return LoadModel(ServiceProfile({"lookup": 0.01}), admission=admission)

    def test_rejecting_overlay_conserves_every_op(self):
        pnet = self._shedding_overlay()
        model = self._aggressive_model(pnet)
        records = self._drive(pnet, model, hints=True)
        assert records, "driver produced no operations"
        assert all(r.completed is not None for r in records), "an op was lost"
        stats = summarize(records)
        assert stats["ok"] + stats["failed"] == stats["ops"]
        assert stats["rejections"] > 0, "the aggressive policy never shed"
        for record in records:
            if not record.ok:
                assert record.error, "failures must be reported with a reason"
        assert pnet.net.stats.total.total_rejects > 0

    def test_reject_retries_reach_other_replicas(self):
        pnet = self._shedding_overlay(seed=29)
        model = self._aggressive_model(pnet)
        records = self._drive(pnet, model, hints=True, diffusion="least-busy")
        rejected = [r for r in records if r.rejections]
        assert rejected, "expected some shed operations"
        recovered = [r for r in rejected if r.ok]
        assert recovered, "no shed operation ever succeeded on another replica"
