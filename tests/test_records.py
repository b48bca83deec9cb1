"""Column-wise record tables: the event log and the service samples.

A :class:`RecordTable` must read exactly like the list of records it
replaces, and must leave no Python object behind per record.
"""

import gc

from hypothesis import given
from hypothesis import strategies as st

from repro.load import LoadModel, ServiceProfile, ServiceSample
from repro.load.shedding import HintRegistry
from repro.net import ConstantLatency, Delivery, EventScheduler, Network, Node
from repro.net.records import RecordTable

names = st.sampled_from(["peer-0", "peer-1", "peer-2", "lookup", "result", ""])
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**52), 2**52).map(float),  # integral floats
)
sizes = st.integers(0, 2**63 - 1)
deliveries = st.builds(
    Delivery, floats, names, names, names, sizes, st.one_of(st.none(), st.just(0.0), floats)
)
samples = st.builds(ServiceSample, names, names, sizes, floats, floats, floats)


def _table_of(records, record_type, **columns):
    table = RecordTable(record_type, **columns)
    for record in records:
        table.append(*(getattr(record, name) for name in record_type.__dataclass_fields__))
    return table


def _reads_like(table, records):
    assert len(table) == len(records)
    assert list(table) == records
    assert table == records and records == table
    assert repr(table) == repr(records)
    for index in range(-len(records), len(records)):
        assert table[index] == records[index]
    for window in (slice(None), slice(1, -1), slice(None, None, -2), slice(-3, None)):
        assert table[window] == records[window]


@given(st.lists(deliveries, max_size=30))
def test_delivery_table_reads_like_a_list(records):
    table = _table_of(records, Delivery, names=("src", "dst", "kind"), ints=("size",))
    _reads_like(table, records)
    for stored, record in zip(table, records):
        assert (stored.hint is None) == (record.hint is None)  # None and 0.0 differ
    copy = _table_of(records, Delivery, names=("src", "dst", "kind"), ints=("size",))
    assert copy == table
    table.clear()
    _reads_like(table, [])
    assert (copy == table) == (not records)


@given(st.lists(samples, max_size=30))
def test_sample_table_reads_like_a_list(records):
    table = _table_of(records, ServiceSample, names=("node_id", "kind"), ints=("size",))
    _reads_like(table, records)
    assert [s.wait for s in table] == [s.wait for s in records]
    assert [s.sojourn for s in table] == [s.sojourn for s in records]
    table.clear()
    _reads_like(table, [])


def test_event_log_keeps_no_object_per_message():
    """Deliveries and service samples are stored as raw values: ten thousand
    more messages leave the number of GC-tracked objects where it was."""
    net = Network(ConstantLatency(0.001))
    for node_id in "abcd":
        Node(node_id, net)
    net.hints = HintRegistry()
    model = LoadModel(ServiceProfile({"ping": 0.0002}))
    sched = EventScheduler(net, load=model)

    def burst(count):
        start = sched.now
        for index in range(count):
            src, dst = "abcd"[index % 4], "abcd"[(index + 1) % 4]
            sched.send_at(start + index * 0.0005, src, dst, "ping", size=index % 7)
        sched.run()

    burst(1_000)  # names, queues, links and hint tables exist from here on
    gc.collect()
    before = len(gc.get_objects())
    burst(10_000)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(sched.log) == len(model.samples) == 11_000
    assert grown < 100
    assert sched.log[-1].hint is not None and model.samples[-1].kind == "ping"
