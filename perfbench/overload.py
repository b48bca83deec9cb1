"""``overload``: open-loop Poisson lookups driven past the saturation knee.

Setup bulk-loads the conference domain into 256 peers (replication 3) and
takes its A#v lookup keys (``lookup_key_pool``).  Every peer gets a
lognormal speed factor, a FIFO work queue and a ``ThresholdAdmission``
gate; queue-depth hints are on and reads use ``least-busy`` diffusion.
The timed region drives a fixed ladder of offered rates, each for the
same simulated horizon, with lookups entering at random online peers.

Only the event kernel and the load layer do real work here.  Each lookup
is issued at its due instant on the simulated clock, so the generator is
never late (its lag is zero by construction).  Many lookups overlap in one
kernel drain, so there is no per-operation wall time: the wall metric is
simulated operations per wall second over the whole ladder.

Checks, outside the timed region: every ``OpRecord`` ends completed or
failed.
"""

from __future__ import annotations

import contextlib
import time

from perfbench.common import (
    DEPLOYMENT_SEED,
    Measured,
    fix_link_latencies,
    peak_rss_mb,
    percentile,
    ratio,
    route_cache_totals,
)

#: Offered lookups per simulated second.  The knee (where goodput stops
#: growing) sat near 600/s when the benchmark was defined; REFERENCE_RATE
#: sits just below it and DEEP_RATE far beyond.
LADDER = [300, 400, 500, 600, 700, 800]
REFERENCE_RATE = 500
DEEP_RATE = 3200
#: Simulated seconds per ladder point, per second of ``--seconds``.
HORIZON_PER_SECOND = 0.7
#: An answer is good when it lands within this many simulated seconds.
SLO = 0.25
SHED_DEPTH = 6
KEY_SKEW = 1.1
PROFILE = {"lookup": 0.004, "result": 0.0002}

SIZES = {
    "full": {"peers": 256, "authors": 500, "publications": 2000},
    "smoke": {"peers": 32, "authors": 40, "publications": 120},
}


def setup(size: str):
    from repro import UniStore
    from repro.bench.workloads import ConferenceWorkload, lookup_key_pool
    from repro.load import draw_speed_factors
    from repro.net.latency import UniformLatency

    cfg = SIZES[size]
    store = UniStore.build(
        cfg["peers"],
        replication=3,
        seed=DEPLOYMENT_SEED,
        latency_model=UniformLatency(0.005, 0.02),
    )
    ConferenceWorkload(cfg["authors"], cfg["publications"], seed=DEPLOYMENT_SEED).load_into(store)
    keys = lookup_key_pool(store)
    fix_link_latencies(store.pnet)
    peer_ids = [peer.node_id for peer in store.pnet.peers]
    speeds = draw_speed_factors(peer_ids, distribution="lognormal", sigma=0.6, seed=DEPLOYMENT_SEED)
    return store.pnet, keys, speeds


def drive(pnet, keys, speeds, rate: float, horizon: float, seed: int):
    """One ladder point; returns the records, the frame and the load model."""
    from repro.load import (
        HintRegistry,
        LoadModel,
        OpenLoopDriver,
        ServiceProfile,
        ThresholdAdmission,
    )

    model = LoadModel(
        ServiceProfile(PROFILE), speeds=speeds, admission=ThresholdAdmission(SHED_DEPTH)
    )
    with pnet.net.frame() as frame, pnet.event_driven(load=model, hints=HintRegistry()) as sched:
        driver = OpenLoopDriver(
            pnet,
            keys,
            rate=rate,
            horizon=horizon,
            key_skew=KEY_SKEW,
            diffusion="least-busy",
            seed=seed * 7919 + int(rate),
        )
        records = driver.run()
        deliveries = len(sched.log)
    return records, frame, model, deliveries


def run(
    state,
    seed: int,
    seconds: float,
    size: str,
    region=contextlib.nullcontext,
    between=lambda: None,
) -> Measured:
    pnet, keys, speeds = state
    horizon = max(0.5, HORIZON_PER_SECOND * seconds)
    cache_before = route_cache_totals(pnet)
    walls = []
    points = {}
    for rate in LADDER + [DEEP_RATE]:
        between()
        with region():
            start = time.perf_counter()
            records, frame, model, deliveries = drive(pnet, keys, speeds, rate, horizon, seed)
            walls.append(time.perf_counter() - start)
        rss = peak_rss_mb()
        # Summarise each point between timed stretches and drop its records,
        # so the heap (and the garbage collector's work) does not grow with
        # the ladder.
        points[rate] = summarise(records, frame, model, deliveries, horizon, rate)
        points[rate]["wall_s"] = walls[-1]
    cache_after = route_cache_totals(pnet)

    ops = sum(point["ops"] for point in points.values())
    reference = points[REFERENCE_RATE]
    rejected = sum(point["rejected_ops"] for point in points.values())
    layer = {}
    for point in points.values():
        for kind, count in point["by_kind"].items():
            layer[f"net.msgs.{kind}"] = layer.get(f"net.msgs.{kind}", 0) + count
    deliveries = sum(point["deliveries"] for point in points.values())
    hits = cache_after[0] - cache_before[0]
    misses = cache_after[1] - cache_before[1]
    layer.update(
        {
            "net.bytes_per_op": ratio(sum(point["bytes"] for point in points.values()), ops),
            "pgrid.route_cache_hit_ratio": ratio(hits, hits + misses),
            "pgrid.hops_per_op": ratio(layer.get("net.msgs.lookup", 0), ops),
            "net.deliveries_per_op": ratio(deliveries, ops),
            "deliveries": deliveries,
            "load.rejects_per_op": ratio(sum(p["rejects"] for p in points.values()), ops),
            "load.deferrals_per_op": ratio(sum(p["deferrals"] for p in points.values()), ops),
            "load.retry_recovery_ratio": ratio(
                sum(point["recovered_ops"] for point in points.values()), rejected
            ),
            "load.hot_peer_util": reference["hot_peer_util"],
            "load.queue_wait_p99_ms": reference["queue_wait_p99_ms"],
        }
    )
    problems = [
        f"{point['lost']} operations at {rate}/s never completed or failed"
        for rate, point in points.items()
        if point["lost"]
    ]
    return Measured(
        ops=ops,
        walls=walls,
        messages=sum(point["messages"] for point in points.values()),
        sim_latencies=reference["latencies"],
        attempted=ops,
        failed=sum(point["failed"] for point in points.values()),
        correct=not problems,
        peak_rss_mb=rss,
        extra={
            "horizon_s": horizon,
            "reference_rate": REFERENCE_RATE,
            "reference_ops": reference["ops"],
            "sim_latency_p99_ms": percentile(reference["latencies"], 99) * 1e3,
            "goodput_per_s": points[DEEP_RATE]["goodput_per_s"],
            "deep_rate": DEEP_RATE,
            "max_rate_in_slo": max((r for r, p in points.items() if p["in_slo"]), default=0),
            "generator_lag_ms": 0.0,
            "ladder": {
                rate: {name: point[name] for name in ("ops", "failed", "goodput_per_s", "in_slo", "wall_s")}
                for rate, point in points.items()
            },
        },
        layer=layer,
        problems=problems,
    )


def summarise(records, frame, model, deliveries: int, horizon: float, rate: float) -> dict:
    """The figures one ladder point contributes."""
    done = [r for r in records if r.completed is not None]
    # A failed lookup misses the SLO; a queue that is still draining one SLO
    # after the last arrival is a growing backlog.
    latencies = [r.latency if r.ok else float("inf") for r in records]
    drained = bool(done) and (
        max(r.completed for r in done) - min(r.issued for r in records) <= horizon + SLO
    )
    rejected = [r for r in records if r.rejections]
    point = {
        "ops": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "lost": len(records) - len(done),
        "messages": frame.messages,
        "bytes": frame.bytes,
        "by_kind": dict(frame.by_kind),
        "deliveries": deliveries,
        "rejects": frame.total_rejects,
        "deferrals": frame.total_deferrals,
        "rejected_ops": len(rejected),
        "recovered_ops": sum(1 for r in rejected if r.ok),
        "in_slo": drained and percentile(latencies, 99) <= SLO,
        "goodput_per_s": sum(1 for r in records if r.ok and r.latency <= SLO) / horizon,
    }
    if rate == REFERENCE_RATE:
        point["latencies"] = [r.latency for r in records if r.ok]
        point["hot_peer_util"] = max(model.utilization(horizon).values(), default=0.0)
        point["queue_wait_p99_ms"] = percentile([s.wait for s in model.samples], 99) * 1e3
    return point
