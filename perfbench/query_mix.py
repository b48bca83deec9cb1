"""``query-mix``: one closed-loop client running seeded VQL queries.

Setup stands up 256 peers (replication 2) and bulk-loads the paper's
conference domain with the q-gram index on ``published_in`` and ``name``.
The timed region runs whole *rounds*: every round holds the same multiset
of (query class, execution mode) pairs, and the seed draws each query's
parameters and the order inside the round.  Fixed class counts keep the
per-op wall percentiles inside one class from seed to seed: by wall time
the round sorts as 7 lookups and 1 MQP star (0-38%), 5 similarity queries
(38-62%, so the median falls inside them), 2 MQP ranking queries, 5 heavy
range/star/ranking queries, and 1 join (the top 5%, above the 90th
percentile).

Checks, outside the timed region: every query's rows equal the
``mode="reference"`` rows of the same text.
"""

from __future__ import annotations

import contextlib
import random
import time

from perfbench.common import (
    DEPLOYMENT_SEED,
    Measured,
    fix_link_latencies,
    frame_layer_figures,
    peak_rss_mb,
    route_cache_totals,
)

#: Wall seconds one round took when the benchmark was defined; ``--seconds``
#: buys ``round(seconds / ROUND_SECONDS)`` rounds (at least one).
ROUND_SECONDS = 5.0

SIZES = {
    "full": {"peers": 256, "authors": 500, "publications": 2000},
    "smoke": {"peers": 32, "authors": 40, "publications": 120},
}

#: One round: (class, mode, count).
ROUND = [
    ("lookup", "optimized", 5),
    ("lookup", "mqp", 2),
    ("star", "mqp", 1),
    ("similarity", "optimized", 4),
    ("similarity", "mqp", 1),
    ("skyline", "mqp", 1),
    ("topn", "mqp", 1),
    ("range", "optimized", 2),
    ("star", "optimized", 1),
    ("skyline", "optimized", 1),
    ("topn", "optimized", 1),
    ("join", "optimized", 1),
]

YEARS = list(range(2000, 2007))


def setup(size: str):
    from repro import UniStore
    from repro.bench.workloads import ConferenceWorkload
    from repro.net.latency import PlanetLabLatency

    cfg = SIZES[size]
    store = UniStore.build(
        cfg["peers"],
        replication=2,
        seed=DEPLOYMENT_SEED,
        latency_model=PlanetLabLatency(median=0.04, sigma=0.3, jitter=0.01),
        enable_qgram_index=True,
        qgram_attributes={"published_in", "name"},
    )
    domain = ConferenceWorkload(cfg["authors"], cfg["publications"], seed=DEPLOYMENT_SEED)
    domain.load_into(store)
    fix_link_latencies(store.pnet)
    return store, domain


def query_text(kind: str, rng: random.Random, domain) -> str:
    """One query of class ``kind`` with seeded parameters."""
    conference = str(rng.choice(domain.conferences)["confname"])
    if kind == "lookup":
        return f"SELECT ?p WHERE {{(?p,'published_in','{conference}')}}"
    if kind == "range":
        low = rng.choice(YEARS[:-2])
        high = low + rng.randint(1, 2)
        return (
            "SELECT ?t,?y WHERE {(?p,'title',?t) (?p,'year',?y) "
            f"FILTER ?y >= {low} AND ?y <= {high}}}"
        )
    if kind == "star":
        return (
            f"SELECT ?t,?c WHERE {{(?p,'year',{rng.choice(YEARS)}) "
            "(?p,'title',?t) (?p,'classified_in',?c)}"
        )
    if kind == "join":
        return (
            "SELECT ?name,?title WHERE {(?a,'name',?name) "
            "(?a,'has_published',?title) (?p,'title',?title) "
            f"(?p,'published_in','{conference}')}}"
        )
    if kind == "similarity":
        return f"SELECT ?c WHERE {{(?x,'published_in',?c) FILTER edist(?c,'{conference}')<3}}"
    if kind == "skyline":
        return (
            "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) "
            f"(?a,'num_of_pubs',?cnt) FILTER ?age <= {rng.randint(40, 65)}}} "
            "ORDER BY SKYLINE OF ?age MIN, ?cnt MAX"
        )
    if kind == "topn":
        # Ties on ?cnt would make the LIMIT cut arbitrary; ordering by name
        # as well keeps every execution mode's answer unique.
        return (
            "SELECT ?name,?cnt WHERE {(?a,'name',?name) (?a,'num_of_pubs',?cnt)} "
            f"ORDER BY ?cnt DESC, ?name ASC LIMIT {rng.randint(5, 20)}"
        )
    raise ValueError(f"unknown query class {kind!r}")


def op_stream(seed: int, seconds: float, domain) -> list[tuple[str, str, str]]:
    """The seeded ``(class, mode, text)`` stream of one run."""
    rng = random.Random(f"query-mix/{seed}")
    rounds = max(1, round(seconds / ROUND_SECONDS))
    stream = []
    for _ in range(rounds):
        batch = [
            (kind, mode, query_text(kind, rng, domain))
            for kind, mode, count in ROUND
            for _ in range(count)
        ]
        rng.shuffle(batch)
        stream.extend(batch)
    return stream


def canonical(rows) -> list:
    return sorted(tuple(sorted((name, repr(value)) for name, value in row.items())) for row in rows)


def run(
    state,
    seed: int,
    seconds: float,
    size: str,
    region=contextlib.nullcontext,
    between=lambda: None,
) -> Measured:
    store, domain = state
    stream = op_stream(seed, seconds, domain)
    answers = []
    walls = []
    op_pieces = []
    sim_latencies = []
    failed = 0
    problems = []
    per_class: dict[str, list[int]] = {}
    hops: list[int] = []
    cache_before = route_cache_totals(store.pnet)
    with store.pnet.net.frame() as frame, region():
        for kind, mode, text in stream:
            between()
            t0 = time.perf_counter()
            try:
                result = store.execute(text, mode=mode)
            except Exception as error:  # a failed query is reported, not fatal
                walls.append(time.perf_counter() - t0)
                failed += 1
                problems.append(f"{kind}/{mode} raised {error!r}")
                answers.append(None)
                continue
            walls.append(time.perf_counter() - t0)
            op_pieces.append(len(walls) - 1)
            per_class.setdefault(f"{kind}/{mode}", []).append(len(sim_latencies))
            sim_latencies.append(result.trace.latency)
            hops.append(result.trace.hops)
            answers.append(result.rows)
    rss = peak_rss_mb()
    cache_after = route_cache_totals(store.pnet)

    # Output check (outside the timed region): reference rows per distinct text.
    reference: dict[str, list] = {}
    rows_returned = 0
    for (kind, mode, text), rows in zip(stream, answers):
        if rows is None:
            continue
        rows_returned += len(rows)
        if text not in reference:
            reference[text] = canonical(store.execute(text, mode="reference").rows)
        if canonical(rows) != reference[text]:
            problems.append(f"{kind}/{mode} rows differ from the reference: {text}")

    layer = frame_layer_figures(frame, len(stream), cache_before, cache_after)
    layer["rows_returned"] = rows_returned
    layer["pgrid.hops_per_op"] = sum(hops) / len(hops) if hops else 0.0
    return Measured(
        ops=len(stream),
        walls=walls,
        messages=frame.messages,
        sim_latencies=sim_latencies,
        attempted=len(stream),
        failed=failed,
        correct=not problems,
        peak_rss_mb=rss,
        op_pieces=op_pieces,
        extra={
            "rounds": len(stream) // sum(count for *_, count in ROUND),
            "distinct_queries": len(reference),
            "op_classes": per_class,
        },
        layer=layer,
        problems=problems,
    )
