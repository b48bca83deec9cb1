"""E2 — "even with up to 400 PlanetLab nodes query answer times are still
only a couple of seconds" (paper §4).

400 peers under the heavy-tailed PlanetLab latency model, conference-domain
data, the demo's full query mix.  The reported metric is the critical-path
answer time of each query.  Absolute values depend on the latency model
(median 40 ms one-way); the claim holds if the whole mix sits in the
sub-second-to-few-seconds band and no class explodes.
"""

from __future__ import annotations

import pytest

from repro import UniStore
from repro.bench import ConferenceWorkload, ResultTable, mean, median, percentile
from repro.net.latency import PlanetLabLatency

from conftest import emit

RUNS_PER_CLASS = 12


@pytest.fixture(scope="module")
def planetlab_store():
    store = UniStore.build(
        num_peers=400,
        replication=2,
        seed=2007,
        latency_model=PlanetLabLatency(),
        enable_qgram_index=True,
    )
    workload = ConferenceWorkload(
        num_authors=150, num_publications=300, num_conferences=24, seed=2007
    )
    workload.load_into(store)
    return store, workload


def test_e2_answer_times_at_400_nodes(benchmark, planetlab_store):
    store, workload = planetlab_store
    table = ResultTable(
        "E2: query answer times, 400 peers, PlanetLab latencies (paper: 'couple of seconds')",
        ["query class", "median s", "mean s", "p95 s", "mean msgs", "mean hops"],
    )
    medians = {}
    for name, vql in workload.query_mix().items():
        latencies, messages, hops = [], [], []
        for _ in range(RUNS_PER_CLASS):
            result = store.execute(vql)
            latencies.append(result.answer_time)
            messages.append(float(result.messages))
            hops.append(float(result.trace.hops))
        medians[name] = median(latencies)
        table.add_row(
            name,
            median(latencies),
            mean(latencies),
            percentile(latencies, 95),
            mean(messages),
            mean(hops),
        )
    emit(table)

    # The paper's claim: a couple of seconds at 400 nodes.  Our simulated
    # stack (no Java/GC/processing overhead) lands below; assert the band.
    for name, value in medians.items():
        assert value < 3.0, f"{name} median {value:.2f}s breaks the claim"
    assert max(medians.values()) > 0.05, "latencies implausibly low"

    # Fixed round count: every call advances the shared store's state, which
    # E2b reads next, so an unbounded (wall-time-calibrated) run would make
    # E2b's table depend on how fast this machine is.
    join_query = workload.query_mix()["join"]
    benchmark.pedantic(lambda: store.execute(join_query), rounds=7, iterations=1)


def test_e2_mqp_vs_coordinator_execution(benchmark, planetlab_store):
    """Ablation: mutant-plan execution trades extra sequential hops for
    not bouncing intermediate results through the coordinator."""
    store, workload = planetlab_store
    table = ResultTable(
        "E2b: coordinator-driven vs mutant query plan (join query)",
        ["mode", "median s", "mean msgs"],
    )
    join_query = workload.query_mix()["join"]
    for mode in ("optimized", "mqp"):
        latencies, messages = [], []
        for _ in range(6):
            result = store.execute(join_query, mode=mode)
            latencies.append(result.answer_time)
            messages.append(float(result.messages))
        table.add_row(mode, median(latencies), mean(messages))
    emit(table)

    benchmark.pedantic(lambda: store.execute(join_query, mode="mqp"), rounds=3, iterations=1)
