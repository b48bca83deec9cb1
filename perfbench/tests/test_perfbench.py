"""Self-tests of the benchmark, on the tiny ``--size smoke`` configuration.

Each workload runs in a fresh interpreter, as the benchmark does, so the
determinism checks also cover ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("query-mix", "ingest-maintain", "overload")
SIMULATED = ("sim_msgs_per_op", "sim_latency_p50_ms", "sim_latency_p90_ms")
SIMULATED_DETAIL = ("failed_share", "goodput_per_s", "max_rate_in_slo", "sim_latency_p99_ms")


def bench(workload: str, seed: int, trace: int = 0, hash_seed: str = "0") -> tuple[dict, dict]:
    """Run the benchmark once; return its detail line and its result object."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return detail, result


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request) -> dict:
    workload = request.param
    return {
        "workload": workload,
        "first": bench(workload, seed=3, hash_seed="0"),
        "again": bench(workload, seed=3, hash_seed="1"),
        "other": bench(workload, seed=4, hash_seed="0"),
        "traced": bench(workload, seed=3, trace=1),
    }


def simulated(run: tuple[dict, dict]) -> dict:
    detail, result = run
    figures = {name: result["metrics"][name]["value"] for name in SIMULATED}
    figures.update({name: detail[name] for name in SIMULATED_DETAIL if name in detail})
    figures.update(attempted=result["attempted"], failed=result["failed"])
    return figures


def test_smoke_run_is_correct(runs):
    for key in ("first", "again", "other", "traced"):
        _detail, result = runs[key]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]


def test_same_seed_repeats_simulated_figures_under_other_hash_seed(runs):
    assert simulated(runs["first"]) == simulated(runs["again"])


def test_other_seed_changes_the_operations(runs):
    assert simulated(runs["first"]) != simulated(runs["other"])


def test_names_and_units_match_the_spec(runs, spec):
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    emitted = runs["first"][1]["metrics"]
    assert {name: m["unit"] for name, m in emitted.items()} == wanted
    assert all(m["value"] > 0 for m in emitted.values())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = runs["traced"][1]["metrics"]
    assert {name: m["unit"] for name, m in emitted.items()} == wanted


def test_traced_self_shares_cover_the_traced_region(runs):
    detail, result = runs["traced"]
    metrics = result["metrics"]
    shares = [m["value"] for name, m in metrics.items() if name.endswith("self_share_pct")]
    assert sum(shares) == pytest.approx(100.0, abs=0.01)
    assert os.path.isfile(os.path.join(ROOT, detail["span_file"]))


def test_query_streams_differ_by_seed_and_keep_class_counts():
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        from perfbench import query_mix
        from repro.bench.workloads import ConferenceWorkload

        domain = ConferenceWorkload(40, 120, seed=0)
        first = query_mix.op_stream(1, 10, domain)
        other = query_mix.op_stream(2, 10, domain)
    finally:
        del sys.path[:2]
    assert first != other
    assert sorted(op[:2] for op in first) == sorted(op[:2] for op in other)
    assert first == query_mix.op_stream(1, 10, domain)


def test_percentile_of_infinite_values():
    sys.path.insert(0, ROOT)
    try:
        from perfbench.common import percentile
    finally:
        del sys.path[0]
    # Rank 2 of 5 values is a whole number: no interpolation with the inf above.
    assert percentile([1.0, 2.0, 3.0, float("inf"), float("inf")], 50) == 3.0
    assert percentile([1.0, 2.0, float("inf"), float("inf"), float("inf")], 75) == float("inf")
    assert percentile([1.0, float("inf")], 50) == float("inf")
    assert percentile([1.0, 3.0], 50) == 2.0


def test_refuses_to_run_without_the_program(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in ("__init__.py", "run.py"):
        with open(os.path.join(ROOT, "perfbench", name)) as source:
            (tmp_path / "perfbench" / name).write_text(source.read())
    command = [sys.executable, "perfbench/run.py", "--workload", "overload", "--seed", "1"]
    command += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
