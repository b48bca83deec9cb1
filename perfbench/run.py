"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
runs the workload untraced, then again with span tracing, and prints the
per-layer metrics plus the tracing overhead; the spans go to
``perfbench/out/``.  The last line of standard output is the result object;
the line before it carries figures that are not gated (per-op wall
percentiles, goodput, the SLO ladder, failure breakdowns).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("query-mix", "ingest-maintain", "overload")
#: Set-ups per untraced run before and after the timed region; ``setup_s``
#: is the fastest of them.  A set-up does fixed work, so a shared host's slow
#: stretches only add to its time; spreading the set-ups over the run makes
#: it likely that one of them misses every short slow stretch.
SETUPS_BEFORE = 3
SETUPS_AFTER = 2

#: Per-layer metric names every traced run reports (0 where a layer is idle).
MESSAGE_KINDS = (
    "lookup",
    "insert",
    "delete",
    "result",
    "reject",
    "anti-entropy",
    "balance",
    "join-ship",
    "mqp-probe",
    "mqp-migrate",
    "mqp-result",
    "qgram",
    "range",
    "skyline-ship",
    "topn-ship",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke: a tiny overlay and data set, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]

    from perfbench import ingest_maintain, overload, query_mix

    import_program()
    module = {
        "query-mix": query_mix,
        "ingest-maintain": ingest_maintain,
        "overload": overload,
    }[args.workload]
    if args.trace:
        detail, result = traced(module, args)
    else:
        detail, result = untraced(module, args)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def import_program() -> None:
    """Import every program module now, so no timed set-up pays for imports."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def timed_setup(module, args):
    gc.collect()
    start = time.perf_counter()
    state = module.setup(args.size)
    return state, time.perf_counter() - start


def untraced(module, args):
    """Gated metrics; the wall ones are scaled to the quiet host (see HostSpeed)."""
    from perfbench.common import HostSpeed, percentile

    host = HostSpeed()
    setup_times = []
    setup_slowdowns = []

    def setup():
        before = host.burst()
        state, seconds = timed_setup(module, args)
        after = host.burst()
        setup_times.append(seconds)
        setup_slowdowns.append((before + after) / 2)
        return state

    state = None
    for _ in range(SETUPS_BEFORE):
        state = None  # drop the previous overlay before building the next
        state = setup()
    gc.collect()
    first = len(host.samples)
    host.burst()
    measured = module.run(state, args.seed, args.seconds, args.size, between=host.between)
    run_slowdown = host.slowdown(host.samples[first:])
    for _ in range(SETUPS_AFTER):
        state = None
        state = setup()
    walls = measured.walls
    sim = [latency * 1e3 for latency in measured.sim_latencies]
    metrics = {
        "setup_s": (min(t / f for t, f in zip(setup_times, setup_slowdowns)), "s"),
        "ops_per_s": (measured.ops / measured.wall_s * run_slowdown, "1/s"),
        "sim_msgs_per_op": (measured.messages / measured.ops, "count"),
        "sim_latency_p50_ms": (percentile(sim, 50), "ms"),
        "sim_latency_p90_ms": (percentile(sim, 90), "ms"),
        "peak_rss_mb": (measured.peak_rss_mb, "MB"),
    }
    extra = dict(measured.extra)
    classes = extra.pop("op_classes", {})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": measured.ops,
        "wall_s": measured.wall_s,
        "ops_per_s_unscaled": measured.ops / measured.wall_s,
        "host_slowdown": run_slowdown,
        "setup_s_all": setup_times,
        "setup_slowdowns": setup_slowdowns,
        "sim_latency_samples": len(sim),
        "failed_share": measured.failed / measured.attempted,
        "problems": measured.problems[:20],
        **extra,
    }
    if measured.op_pieces:
        op_walls = [walls[piece] * 1e3 for piece in measured.op_pieces]
        detail["op_wall_p50_ms"] = percentile(op_walls, 50)
        detail["op_wall_p90_ms"] = percentile(op_walls, 90)
        detail["op_wall_samples"] = len(op_walls)
        detail["class_p50_ms"] = {
            name: {
                "wall": percentile([op_walls[op] for op in ops], 50),
                "sim": percentile([sim[op] for op in ops], 50),
            }
            for name, ops in sorted(classes.items())
        }
    return detail, result_object(measured, metrics)


def traced(module, args):
    from perfbench.tracing import LAYERS, Tracer

    state, _seconds = timed_setup(module, args)
    gc.collect()
    plain = module.run(state, args.seed, args.seconds, args.size)
    state = None
    state, _seconds = timed_setup(module, args)
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        measured = module.run(state, args.seed, args.seconds, args.size, region=tracer.region)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    # The wrappers only observe: both passes must cost the same simulated work.
    if plain.simulated() != measured.simulated():
        measured.correct = False
        measured.problems.append("tracing changed the simulated run")

    total = summary["total_s"]
    layer_self = summary["layer_self_s"]
    inclusive = summary["inclusive_s"]
    calls = summary["calls"]
    figures = measured.layer
    rows = figures.get("rows_returned", 0)
    deliveries = figures.get("deliveries", 0)

    def ms(name):
        return inclusive.get(name, 0.0) * 1e3

    def per_row(amount):
        return amount / rows if rows else 0.0

    metrics = {}
    for layer in LAYERS + ("bench",):
        metrics[f"{layer}.self_share_pct"] = (100.0 * layer_self.get(layer, 0.0) / total, "%")
    metrics.update(
        {
            "pgrid.scan_ms": (ms("DataStore.scan"), "ms"),
            "pgrid.split_ms": (ms("split_group"), "ms"),
            "pgrid.splits": (figures.get("pgrid.splits", 0), "count"),
            "pgrid.rebalance_s": (inclusive.get("rebalance", 0.0), "s"),
            "pgrid.insert_many_ms": (ms("PGridNetwork.insert_many"), "ms"),
            "pgrid.lookup_many_ms": (ms("PGridNetwork.lookup_many"), "ms"),
            "pgrid.anti_entropy_ms": (ms("anti_entropy_round"), "ms"),
            "pgrid.anti_entropy_entries": (figures.get("pgrid.anti_entropy_entries", 0), "count"),
            "pgrid.route_cache_hit_ratio": (figures["pgrid.route_cache_hit_ratio"], "ratio"),
            "pgrid.hops_per_op": (figures.get("pgrid.hops_per_op", 0.0), "count"),
            "algebra.match_calls_per_row": (per_row(calls.get("match_pattern", 0)), "count"),
            "triples.postings_per_row": (per_row(sum(tracer.counts.values())), "count"),
            "physical.self_ms": (layer_self.get("physical", 0.0) * 1e3, "ms"),
            "optimizer.plan_ms": (summary["layer_entry_s"].get("optimizer", 0.0) * 1e3, "ms"),
            "vql.parse_ms": (summary["layer_entry_s"].get("vql", 0.0) * 1e3, "ms"),
            "mqp.self_ms": (layer_self.get("mqp", 0.0) * 1e3, "ms"),
            "strings.self_ms": (layer_self.get("strings", 0.0) * 1e3, "ms"),
            "core.execute_self_ms": (summary["self_s"].get("UniStore.execute", 0.0) * 1e3, "ms"),
            "net.bytes_per_op": (figures["net.bytes_per_op"], "B"),
            "net.deliveries_per_op": (figures.get("net.deliveries_per_op", 0.0), "count"),
            "net.kernel_us_per_delivery": (
                layer_self.get("net", 0.0) * 1e6 / deliveries if deliveries else 0.0,
                "us",
            ),
            "bench.trace_overhead_pct": (100.0 * (measured.wall_s / plain.wall_s - 1.0), "%"),
        }
    )
    for kind in MESSAGE_KINDS:
        metrics[f"net.msgs.{kind}"] = (figures.get(f"net.msgs.{kind}", 0), "count")
    for name in (
        "load.rejects_per_op",
        "load.deferrals_per_op",
        "load.retry_recovery_ratio",
        "load.hot_peer_util",
    ):
        metrics[name] = (figures.get(name, 0.0), "ratio")
    metrics["load.queue_wait_p99_ms"] = (figures.get("load.queue_wait_p99_ms", 0.0), "ms")

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    tracer.write(span_file)
    other_kinds = {
        name: count
        for name, count in figures.items()
        if name.startswith("net.msgs.") and name[len("net.msgs.") :] not in MESSAGE_KINDS
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": measured.wall_s,
        "spans": summary["spans"],
        "problems": measured.problems[:20],
        "span_file": os.path.relpath(span_file, ROOT),
        "self_share_sum_pct": sum(
            value for name, (value, _unit) in metrics.items() if name.endswith(".self_share_pct")
        ),
        "other_message_kinds": other_kinds,
        "top_self_ms": {
            name: round(seconds * 1e3, 3)
            for name, seconds in sorted(summary["self_s"].items(), key=lambda kv: -kv[1])[:12]
        },
    }
    return detail, result_object(measured, metrics)


def result_object(measured, metrics: dict) -> dict:
    return {
        "correct": measured.correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
