"""Open-loop arrivals, one pending at a time, held to the eager schedule.

:meth:`OpenLoopDriver.run` draws every arrival instant and then every key
up front, but keeps only one arrival on the event heap: each arrival
schedules the next one before it launches.  :class:`EagerOpenLoopDriver`
is a copy of the run it replaced, which put the whole run's arrivals on
the heap before the first one fired.

A lazily scheduled arrival takes a later tie-break sequence number than
its eager twin, so only an event at exactly the same float instant could
fire in another order.  The tests below show that none does: with
admission control, hints and churn each on and off, both runs give the
same records, scheduler log, service samples, stats frame, load-model
snapshot and RNG states.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.bench.workloads import poisson_arrivals
from repro.load import (
    LoadModel,
    OpenLoopDriver,
    ServiceProfile,
    ThresholdAdmission,
    draw_speed_factors,
)
from repro.load.drivers import OpRecord
from repro.net import ConstantLatency, PlanetLabLatency
from repro.net.churn import generate_session_trace
from repro.net.simulator import EventSimulator
from repro.pgrid import build_network, bulk_load, encode_string

_WORD_RNG = random.Random(2024)
WORDS = sorted({"".join(_WORD_RNG.choice("abcdefghij") for _ in range(6)) for _ in range(60)})
ITEMS = [(encode_string(w), f"id-{w}", w) for w in WORDS]
KEYS = [key for key, _id, _value in ITEMS]


class EagerOpenLoopDriver(OpenLoopDriver):
    """The open-loop run before arrivals were lazy: all of them on the heap."""

    def run(self, churn_trace=None):
        engine = self._engine()
        scheduler = engine.scheduler
        self._apply_churn(engine, churn_trace)
        start_time = scheduler.now
        for index, offset in enumerate(poisson_arrivals(self.rng, self.rate, self.horizon)):
            t = start_time + offset
            record = OpRecord(index=index, key=self._pick_key(), issued=t)

            def fire(record: OpRecord = record) -> None:
                engine.launch(record, self._pick_gateway())

            scheduler.sim.schedule_at(t, fire)
        scheduler.run()
        return engine.records


def _track_peak_pending(sim: EventSimulator) -> list[int]:
    """Record the most events ``sim`` ever holds; read it as ``peak[0]``."""
    peak = [0]
    push = sim.schedule_at

    def schedule_at(time, handler, *args):
        push(time, handler, *args)
        peak[0] = max(peak[0], sim.pending())

    sim.schedule_at = schedule_at  # shadows the method for this instance only
    return peak


def _drive(driver_type, admission, hints, churn, latency=None, rate=500, horizon=0.5):
    """One seeded open-loop run; every figure the two drivers must agree on."""
    pnet = build_network(
        48,
        replication=3,
        seed=31,
        split_by="population",
        latency_model=latency or ConstantLatency(0.01),
    )
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
    sim = EventSimulator()
    sim.run(until=0.25)  # a run that starts on a clock already past zero
    peak = _track_peak_pending(sim)
    with pnet.net.frame() as frame, pnet.event_driven(sim, load=model, hints=hints) as sched:
        driver = driver_type(
            pnet, KEYS, rate=rate, horizon=horizon, key_skew=1.1, diffusion="least-busy", seed=11
        )
        records = driver.run(churn_trace=sessions)
        assert sched.pending() == 0
    figures = {
        "log": list(sched.log),
        "samples": list(model.samples),
        "records": [dataclasses.astuple(record) for record in records],
        "model": model.snapshot(),
        "frame": frame.snapshot(),
        "rngs": (pnet.net.rng.getstate(), driver.rng.getstate()),
    }
    return figures, peak[0]


@pytest.mark.parametrize("churn", [False, True], ids=["no-churn", "churn"])
@pytest.mark.parametrize("hints", [False, True], ids=["no-hints", "hints"])
@pytest.mark.parametrize("admission", [False, True], ids=["no-admission", "admission"])
def test_lazy_arrivals_match_the_eager_schedule(admission, hints, churn):
    lazy, _peak = _drive(OpenLoopDriver, admission, hints, churn)
    eager, _peak = _drive(EagerOpenLoopDriver, admission, hints, churn)
    assert lazy == eager
    assert len(lazy["records"]) > 200
    if admission:
        assert any(record[7] for record in lazy["records"])  # rejections
    if churn:
        assert any(record[6] for record in lazy["records"])  # reroutes


def test_lazy_arrivals_match_the_eager_schedule_under_jitter():
    lazy, _peak = _drive(OpenLoopDriver, True, True, True, latency=PlanetLabLatency())
    eager, _peak = _drive(EagerOpenLoopDriver, True, True, True, latency=PlanetLabLatency())
    assert lazy == eager


def test_heap_holds_one_pending_arrival():
    """500/s over 10 s: the eager run queues all ~5,000 arrivals at once; the
    lazy one holds one arrival plus the messages in flight."""
    lazy, lazy_peak = _drive(OpenLoopDriver, False, False, False, rate=500, horizon=10.0)
    assert len(lazy["records"]) > 4500
    assert lazy_peak < 100
    _eager, eager_peak = _drive(EagerOpenLoopDriver, False, False, False, rate=500, horizon=10.0)
    assert eager_peak >= len(lazy["records"])
