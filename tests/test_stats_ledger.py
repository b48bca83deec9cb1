"""The stats ledger: one set of counters, frames as views of it.

``NetworkStats`` counts each delivery, reject and deferral once, and a
``StatsFrame`` reads the ledger's counts minus those at its opening, frozen
when its block ends.  The property below holds every frame, read inside and
after its block, to a copy of the recorder this replaced: a global frame
plus a stack of open frames, each updated on every message.
"""

from collections import Counter
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network

KINDS = ["lookup", "insert", "result", "reject"]
NODES = ["a", "b", "c"]


@dataclass
class RecorderFrame:
    """The per-frame recorder every open frame used to keep (per-peer shed
    counters included; the figures compared are their totals)."""

    messages: int = 0
    bytes: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    rejects: Counter = field(default_factory=Counter)
    deferrals: Counter = field(default_factory=Counter)

    def record(self, kind, size):
        self.messages += 1
        self.bytes += size
        self.by_kind[kind] += 1
        self.bytes_by_kind[kind] += size

    def figures(self):
        return (
            self.messages,
            self.bytes,
            dict(self.by_kind),
            dict(self.bytes_by_kind),
            sum(self.rejects.values()),
            sum(self.deferrals.values()),
        )


class RecorderLedger:
    """The global frame plus the stack of open frames, each fed every event."""

    def __init__(self):
        self.total = RecorderFrame()
        self.frames = []

    def _all(self):
        return [self.total, *self.frames]

    def record(self, kind, size):
        for frame in self._all():
            frame.record(kind, size)

    def record_reject(self, node_id):
        for frame in self._all():
            frame.rejects[node_id] += 1

    def record_defer(self, node_id):
        for frame in self._all():
            frame.deferrals[node_id] += 1

    def reset(self):
        self.total = RecorderFrame()


def figures(frame):
    return (
        frame.messages,
        frame.bytes,
        dict(frame.by_kind),
        dict(frame.bytes_by_kind),
        frame.total_rejects,
        frame.total_deferrals,
    )


def expected_snapshot(recorder):
    snap = {
        "messages": recorder.messages,
        "bytes": recorder.bytes,
        "by_kind": dict(recorder.by_kind),
    }
    *_, rejects, deferrals = recorder.figures()
    if rejects:
        snap["rejects"] = rejects
    if deferrals:
        snap["deferrals"] = deferrals
    return snap


EVENTS = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(KINDS), st.integers(0, 9)),
    st.tuples(st.just("reject"), st.sampled_from(NODES)),
    st.tuples(st.just("defer"), st.sampled_from(NODES)),
    st.just(("reset",)),
)
PROGRAMS = st.recursive(
    st.lists(EVENTS, max_size=6),
    lambda inner: st.lists(st.one_of(EVENTS, st.tuples(st.just("frame"), inner)), max_size=6),
    max_leaves=40,
)


def _check_total(net, recorder):
    assert figures(net.stats.total) == recorder.total.figures()
    assert net.stats.messages == recorder.total.messages
    assert net.stats.bytes == recorder.total.bytes


def _run(program, net, recorder, closed):
    for event in program:
        if event[0] == "send":
            net.stats.record(event[1], event[2])
            recorder.record(event[1], event[2])
        elif event[0] == "reject":
            net.stats.record_reject()
            recorder.record_reject(event[1])
        elif event[0] == "defer":
            net.stats.record_defer()
            recorder.record_defer(event[1])
        elif event[0] == "reset":
            net.stats.reset()
            recorder.reset()
        else:
            with net.frame() as frame:
                reference = RecorderFrame()
                recorder.frames.append(reference)
                assert figures(frame) == reference.figures()
                _run(event[1], net, recorder, closed)
                inside = figures(frame)
                assert inside == reference.figures()
                assert frame.snapshot() == expected_snapshot(reference)
                assert recorder.frames.pop() is reference
            assert figures(frame) == inside
            closed.append((frame, inside, expected_snapshot(reference)))
        _check_total(net, recorder)


@given(program=PROGRAMS)
@settings(max_examples=200, deadline=None)
def test_frames_read_the_per_frame_recorder(program):
    net = Network()
    recorder = RecorderLedger()
    closed = []
    _run(program, net, recorder, closed)
    # Traffic after a block leaves the frozen frame alone.
    net.stats.record("lookup", 3)
    net.stats.record_reject()
    for frame, inside, snapshot in closed:
        assert figures(frame) == inside
        assert frame.snapshot() == snapshot


def test_kinds_with_no_messages_stay_out_of_a_frame():
    net = Network()
    net.stats.record("insert", 4)
    with net.frame() as outer:
        net.stats.record("lookup", 2)
        with net.frame() as inner:
            net.stats.record("result", 0)
        assert dict(inner.by_kind) == {"result": 1}
        assert dict(inner.bytes_by_kind) == {"result": 0}  # seen, zero bytes
    assert dict(outer.by_kind) == {"lookup": 1, "result": 1}
    assert dict(net.stats.total.by_kind) == {"insert": 1, "lookup": 1, "result": 1}
    assert outer.snapshot() == {"messages": 2, "bytes": 2, "by_kind": {"lookup": 1, "result": 1}}


def test_reset_restarts_the_total_only():
    net = Network()
    net.stats.record("lookup", 5)
    with net.frame() as frame:
        net.stats.record("lookup", 1)
        net.stats.reset()
        net.stats.record("insert", 2)
    assert (net.stats.messages, net.stats.bytes) == (1, 2)
    assert (frame.messages, frame.bytes) == (2, 3)
