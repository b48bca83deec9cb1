"""Mutant query plans: adaptive stepping, executor equivalence."""

import random

import pytest

from repro.algebra import build_plan, execute_reference, rewrite
from repro.algebra.operators import PatternScan
from repro.bench import ConferenceWorkload
from repro.mqp import execute_mutant_plan
from repro.optimizer import CatalogStatistics, CostModel, choose_next_step
from repro.pgrid import build_network
from repro.physical.base import ExecutionContext
from repro.triples import DistributedTripleStore
from repro.vql import parse
from repro.vql.ast import Literal, TriplePattern, Var


@pytest.fixture(scope="module")
def env():
    pnet = build_network(32, replication=2, seed=88, split_by="population")
    store = DistributedTripleStore(pnet, enable_qgram_index=True)
    workload = ConferenceWorkload(num_authors=20, num_publications=40, num_conferences=8, seed=88)
    triples = workload.all_triples()
    store.bulk_insert(triples)
    ctx = ExecutionContext(store, pnet.peers[0], random.Random(88))
    stats = CatalogStatistics.from_store(store)
    return ctx, triples, CostModel(stats)


def _canonical(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


class TestAdaptiveChoice:
    def test_first_step_prefers_most_selective_scan(self, env):
        _ctx, _triples, model = env
        scans = [
            PatternScan(TriplePattern(Var("a"), Literal("name"), Var("n"))),
            PatternScan(TriplePattern(Var("a"), Literal("age"), Literal(30))),
        ]
        step = choose_next_step(scans, None, model)
        assert step.scan is scans[1]  # bound object -> cheapest
        assert step.method == "scan"

    def test_bound_variable_triggers_probe(self, env):
        _ctx, _triples, model = env
        scans = [PatternScan(TriplePattern(Var("a"), Literal("age"), Var("g")))]
        step = choose_next_step(scans, [{"a": "person:000001"}], model)
        assert step.method == "probe-oid"
        assert step.shared_variable == "a"

    def test_object_probe_with_literal_predicate(self, env):
        _ctx, _triples, model = env
        scans = [PatternScan(TriplePattern(Var("p"), Literal("title"), Var("t")))]
        step = choose_next_step(scans, [{"t": "Some Title"}], model)
        assert step.method == "probe-av"

    def test_probe_cost_scales_with_distinct_values(self, env):
        _ctx, _triples, model = env
        scans = [PatternScan(TriplePattern(Var("a"), Literal("age"), Var("g")))]
        few = choose_next_step(scans, [{"a": "x"}], model)
        many = choose_next_step(scans, [{"a": f"p{i}"} for i in range(50)], model)
        assert few.estimated_cost < many.estimated_cost


class TestMQPExecution:
    def _run(self, env, vql):
        ctx, triples, model = env
        query = parse(vql)
        logical = rewrite(build_plan(query))
        scans = [n for n in logical.walk() if isinstance(n, PatternScan)]
        from repro.algebra.operators import Selection

        residual = [n.predicate for n in logical.walk() if isinstance(n, Selection)]
        result = execute_mutant_plan(ctx, scans, residual, model)
        expected = execute_reference(logical, triples)
        return result, expected

    def test_two_pattern_join(self, env):
        result, expected = self._run(env, "SELECT * WHERE {(?a,'name',?n) (?a,'age',?g)}")
        # MQP returns full bindings; project to the reference's variables.
        names = {"a", "n", "g"}
        got = [{k: v for k, v in row.items() if k in names} for row in result.bindings]
        assert _canonical(got) == _canonical(expected)

    def test_filtered_join(self, env):
        result, expected = self._run(
            env,
            "SELECT * WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g >= 40}",
        )
        assert _canonical(result.bindings) == _canonical(expected)

    def test_long_chain(self, env):
        result, expected = self._run(
            env,
            "SELECT * WHERE {(?a,'has_published',?t) (?p,'title',?t) "
            "(?p,'published_in',?c)}",
        )
        assert _canonical(result.bindings) == _canonical(expected)

    def test_steps_are_logged(self, env):
        result, _expected = self._run(env, "SELECT * WHERE {(?a,'name',?n) (?a,'age',?g)}")
        assert len(result.steps) == 2
        assert any("probe" in step for step in result.steps)

    def test_empty_intermediate_short_circuits(self, env):
        ctx, _triples, model = env
        scans = [
            PatternScan(TriplePattern(Var("a"), Literal("age"), Literal(-1))),
            PatternScan(TriplePattern(Var("a"), Literal("name"), Var("n"))),
        ]
        result = execute_mutant_plan(ctx, scans, [], model)
        assert result.bindings == []
        assert len(result.steps) == 1  # stopped after the empty scan

    def test_requires_at_least_one_scan(self, env):
        ctx, _triples, model = env
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            execute_mutant_plan(ctx, [], [], model)


class TestProbeOidCoercion:
    """probe-oid routes non-string join values under their string form and
    matches them exactly as the reference join does."""

    @pytest.fixture()
    def numeric_env(self):
        from repro.mqp.executor import _probe
        from repro.mqp.plan import MutantQueryPlan
        from repro.optimizer.adaptive import Step
        from repro.triples.triple import Triple

        from repro.pgrid.keys import responsible
        from repro.triples.index import oid_key

        pnet = build_network(16, replication=2, seed=77, split_by="population")
        store = DistributedTripleStore(pnet)
        # A tuple whose OID is the *string* "42"; a join value arriving as
        # the integer 42 probes its key but, OIDs being strings, matches no OID.
        store.bulk_insert([Triple("42", "name", "answer-tuple"), Triple("q:1", "answer", 42)])
        # Probe from a peer that must actually route to the OID posting.
        holder = next(p for p in pnet.peers if not responsible(p.path, oid_key("42")))
        ctx = ExecutionContext(store, holder, random.Random(77))
        return ctx, _probe, MutantQueryPlan, Step

    def test_integer_join_value_probes_the_oid_index(self, numeric_env):
        ctx, _probe, MutantQueryPlan, Step = numeric_env
        scan = PatternScan(TriplePattern(Var("x"), Literal("name"), Var("n")))
        plan = MutantQueryPlan(
            pending=[],
            residual_filters=[],
            bindings=[{"q": "q:1", "x": 42}],
            location=ctx.coordinator.node_id,
        )
        step = Step(scan=scan, method="probe-oid", shared_variable="x", estimated_cost=0.0)
        trace = _probe(ctx, plan, step)
        assert trace.messages > 0
        # 42 != "42": the reference executor joins nothing here, and neither
        # does the probe.
        assert plan.bindings == []

    def test_string_join_values_still_bind_exactly(self, numeric_env):
        ctx, _probe, MutantQueryPlan, Step = numeric_env
        scan = PatternScan(TriplePattern(Var("x"), Literal("name"), Var("n")))
        plan = MutantQueryPlan(
            pending=[],
            residual_filters=[],
            bindings=[{"x": "42"}, {"x": "no-such-oid"}],
            location=ctx.coordinator.node_id,
        )
        step = Step(scan=scan, method="probe-oid", shared_variable="x", estimated_cost=0.0)
        _probe(ctx, plan, step)
        assert plan.bindings == [{"x": "42", "n": "answer-tuple"}]


class TestQGramSize:
    """The MQP similarity scan probes grams of the store's own size."""

    CITIES = ["berlin", "bernin", "merlin", "paris", "london", "boston", "dublin", "madrid"]
    QUERY = "SELECT ?o,?c WHERE {(?o,'city',?c) FILTER edist(?c,'berlin')<2}"

    @pytest.mark.parametrize("q", [2, 3])
    def test_mqp_rows_match_the_reference(self, q):
        from repro import UniStore

        store = UniStore.build(32, seed=3, enable_qgram_index=True, qgram_q=q)
        store.insert_tuples([{"oid": f"o{i}", "city": c} for i, c in enumerate(self.CITIES)])
        expected = store.execute(self.QUERY, mode="reference").rows
        got = store.execute(self.QUERY, mode="mqp").rows
        assert sorted(row["c"] for row in expected) == ["berlin", "bernin", "merlin"]
        assert _canonical(got) == _canonical(expected)
