"""Logical algebra: expressions, plan building, rewrites, reference executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    EdistConstraint,
    PatternScan,
    PrefixConstraint,
    RangeConstraint,
    Selection,
    SimilarityJoin,
    Skyline,
    SubstringConstraint,
    TopN,
    build_plan,
    evaluate,
    execute_reference,
    extract_constraints,
    order_patterns,
    rewrite,
    satisfies,
    skyline_of,
    split_conjunctions,
)
from repro.algebra.operators import Limit, Projection, Union
from repro.algebra.semantics import dominates, match_pattern, order_sort_key
from repro.errors import PlanningError
from repro.triples import Triple
from repro.vql import parse
from repro.vql.ast import (
    FunctionCall,
    Literal,
    OrderItem,
    SkylineItem,
    TriplePattern,
    Var,
)

# fmt: off
TRIPLES = [
    Triple("a1", "name", "Alice"), Triple("a1", "age", 30),
    Triple("a2", "name", "Bob"), Triple("a2", "age", 25),
    Triple("a3", "name", "Cara"), Triple("a3", "age", 40),
    Triple("a1", "city", "Berlin"), Triple("a2", "city", "Basel"),
]
# fmt: on


class TestExpressionEvaluation:
    def test_literal_and_var(self):
        assert evaluate(Literal(5), {}) == 5
        assert evaluate(Var("x"), {"x": "v"}) == "v"
        assert evaluate(Var("x"), {}) is None

    def test_comparisons(self):
        binding = {"x": 5}
        assert satisfies(parse_filter("?x >= 5"), binding)
        assert not satisfies(parse_filter("?x > 5"), binding)
        assert satisfies(parse_filter("?x != 4"), binding)

    def test_mixed_type_comparison(self):
        assert satisfies(parse_filter("?x != 'five'"), {"x": 5})
        assert not satisfies(parse_filter("?x = 'five'"), {"x": 5})
        assert not satisfies(parse_filter("?x < 'five'"), {"x": 5})

    def test_unbound_variable_fails_filter(self):
        assert not satisfies(parse_filter("?missing > 1"), {"x": 5})

    def test_three_valued_or(self):
        # error OR true -> true
        assert satisfies(parse_filter("?missing > 1 OR ?x = 5"), {"x": 5})
        # error OR false -> error -> not satisfied
        assert not satisfies(parse_filter("?missing > 1 OR ?x = 6"), {"x": 5})

    def test_three_valued_and(self):
        # error AND false -> false (not error)
        assert not satisfies(parse_filter("?missing > 1 AND ?x = 6"), {"x": 5})

    def test_functions(self):
        binding = {"s": "ICDE 2006"}
        assert satisfies(parse_filter("contains(?s, 'CDE')"), binding)
        assert satisfies(parse_filter("prefix(?s, 'ICDE')"), binding)
        assert satisfies(parse_filter("edist(?s, 'ICDE 2007') < 2"), binding)
        assert satisfies(parse_filter("length(?s) = 9"), binding)
        assert evaluate(parse_filter("lower(?s)"), binding) == "icde 2006"
        assert evaluate(parse_filter("upper(?s)"), binding) == "ICDE 2006"
        assert evaluate(parse_filter("abs(?n)"), {"n": -3}) == 3

    def test_unknown_function(self):
        from repro.errors import VQLError

        with pytest.raises(VQLError):
            evaluate(FunctionCall("nope", (Literal(1),)), {})

    def test_not(self):
        assert satisfies(parse_filter("!(?x = 4)"), {"x": 5})
        assert not satisfies(parse_filter("NOT ?x = 5"), {"x": 5})


class TestConstraintExtraction:
    def test_range_constraints(self):
        constraints = extract_constraints(parse_filter("?x >= 5 AND ?x < 9"))
        assert RangeConstraint("x", ">=", 5) in constraints
        assert RangeConstraint("x", "<", 9) in constraints

    def test_flipped_comparison(self):
        constraints = extract_constraints(parse_filter("5 <= ?x"))
        assert constraints == [RangeConstraint("x", ">=", 5)]

    def test_edist_exclusive_bound(self):
        constraints = extract_constraints(parse_filter("edist(?s,'ICDE') < 3"))
        assert constraints == [EdistConstraint("s", "ICDE", 2)]

    def test_edist_inclusive_bound(self):
        constraints = extract_constraints(parse_filter("edist(?s,'ICDE') <= 3"))
        assert constraints == [EdistConstraint("s", "ICDE", 3)]

    def test_prefix_and_contains(self):
        constraints = extract_constraints(parse_filter("prefix(?s,'IC') AND contains(?s,'DE')"))
        assert PrefixConstraint("s", "IC") in constraints
        assert SubstringConstraint("s", "DE") in constraints

    def test_disjunction_yields_nothing(self):
        assert extract_constraints(parse_filter("?x > 5 OR ?x < 2")) == []


class TestPatternMatching:
    def test_binds_variables(self):
        pattern = TriplePattern(Var("s"), Literal("name"), Var("n"))
        binding = match_pattern(pattern, Triple("a1", "name", "Alice"))
        assert binding == {"s": "a1", "n": "Alice"}

    def test_literal_mismatch(self):
        pattern = TriplePattern(Var("s"), Literal("name"), Literal("Bob"))
        assert match_pattern(pattern, Triple("a1", "name", "Alice")) is None

    def test_repeated_variable_must_agree(self):
        pattern = TriplePattern(Var("x"), Literal("self"), Var("x"))
        assert match_pattern(pattern, Triple("a", "self", "a")) == {"x": "a"}
        assert match_pattern(pattern, Triple("a", "self", "b")) is None


class TestPlanBuilder:
    def test_canonical_shape(self):
        plan = build_plan(parse("SELECT ?n WHERE {(?a,'name',?n)} LIMIT 3"))
        assert isinstance(plan, Projection)
        assert isinstance(plan.child, Limit)

    def test_order_by_limit_becomes_topn_after_rewrite(self):
        plan = rewrite(build_plan(parse("SELECT ?n WHERE {(?a,'name',?n)} ORDER BY ?n LIMIT 3")))
        assert any(isinstance(node, TopN) for node in plan.walk())

    def test_skyline_node(self):
        plan = build_plan(parse("SELECT ?a WHERE {(?x,'a',?a)} ORDER BY SKYLINE OF ?a MIN"))
        assert any(isinstance(node, Skyline) for node in plan.walk())

    def test_union_node(self):
        plan = build_plan(parse("SELECT ?x WHERE {(?x,'a',1)} UNION {(?x,'b',2)}"))
        assert any(isinstance(node, Union) for node in plan.walk())

    def test_unknown_select_variable_rejected(self):
        with pytest.raises(PlanningError):
            build_plan(parse("SELECT ?ghost WHERE {(?x,'a',1)}"))

    def test_unknown_order_variable_rejected(self):
        with pytest.raises(PlanningError):
            build_plan(parse("SELECT ?x WHERE {(?x,'a',?v)} ORDER BY ?ghost"))

    def test_pattern_ordering_prefers_bound(self):
        patterns = [
            TriplePattern(Var("a"), Var("p"), Var("o")),
            TriplePattern(Var("a"), Literal("name"), Literal("Alice")),
            TriplePattern(Var("a"), Literal("age"), Var("x")),
        ]
        ordered = order_patterns(patterns)
        assert ordered[0].object == Literal("Alice")

    def test_pattern_ordering_stays_connected(self):
        patterns = [
            TriplePattern(Var("a"), Literal("name"), Literal("Alice")),
            TriplePattern(Var("b"), Literal("title"), Var("t")),
            TriplePattern(Var("a"), Literal("wrote"), Var("t")),
        ]
        ordered = order_patterns(patterns)
        # The middle pattern must not create a cartesian product.
        seen = ordered[0].variables()
        for pattern in ordered[1:]:
            assert pattern.variables() & seen
            seen |= pattern.variables()


class TestRewrites:
    def test_filter_pushdown_into_scan(self):
        plan = rewrite(build_plan(parse("SELECT ?n WHERE {(?a,'name',?n) FILTER ?n != 'Bob'}")))
        scans = [n for n in plan.walk() if isinstance(n, PatternScan)]
        assert scans[0].filters, "filter should sit inside the scan"
        assert not any(isinstance(n, Selection) for n in plan.walk())

    def test_cross_pattern_filter_stays_above_join(self):
        plan = rewrite(build_plan(parse(
            "SELECT ?x WHERE {(?a,'x',?x) (?b,'y',?y) FILTER ?x = ?y}"
        )))
        assert any(isinstance(n, Selection) for n in plan.walk())

    def test_conjunction_splits(self):
        base = build_plan(parse(
            "SELECT ?n WHERE {(?a,'name',?n) FILTER ?n != 'x' AND ?n != 'y'}"
        ))
        split = split_conjunctions(base)
        selections = [n for n in split.walk() if isinstance(n, Selection)]
        assert len(selections) == 2

    def test_similarity_join_detection(self):
        plan = rewrite(build_plan(parse(
            "SELECT ?x WHERE {(?a,'name',?x) (?b,'alias',?y) FILTER edist(?x,?y) < 2}"
        )))
        sim = [n for n in plan.walk() if isinstance(n, SimilarityJoin)]
        assert len(sim) == 1
        assert sim[0].max_distance == 1  # strict < 2 becomes inclusive <= 1

    def test_edist_against_constant_not_a_simjoin(self):
        plan = rewrite(build_plan(parse(
            "SELECT ?x WHERE {(?a,'name',?x) (?a,'age',?y) FILTER edist(?x,'Bob') < 2}"
        )))
        assert not any(isinstance(n, SimilarityJoin) for n in plan.walk())


class TestReferenceExecutor:
    def test_scan_and_join(self):
        plan = build_plan(parse(
            "SELECT ?n, ?c WHERE {(?a,'name',?n) (?a,'city',?c)}"
        ))
        rows = execute_reference(plan, TRIPLES)
        assert sorted((r["n"], r["c"]) for r in rows) == [
            ("Alice", "Berlin"),
            ("Bob", "Basel"),
        ]

    def test_filter(self):
        plan = build_plan(parse(
            "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g) FILTER ?g > 28}"
        ))
        rows = execute_reference(plan, TRIPLES)
        assert sorted(r["n"] for r in rows) == ["Alice", "Cara"]

    def test_order_and_limit(self):
        plan = build_plan(parse(
            "SELECT ?n WHERE {(?a,'name',?n) (?a,'age',?g)} ORDER BY ?g DESC LIMIT 2"
        ))
        rows = execute_reference(plan, TRIPLES)
        assert [r["n"] for r in rows] == ["Cara", "Alice"]

    def test_union(self):
        plan = build_plan(parse(
            "SELECT ?n WHERE {(?a,'name',?n) FILTER ?n = 'Bob'} "
            "UNION {(?a,'name',?n) FILTER ?n = 'Cara'}"
        ))
        rows = execute_reference(plan, TRIPLES)
        assert sorted(r["n"] for r in rows) == ["Bob", "Cara"]

    def test_distinct(self):
        triples = TRIPLES + [Triple("a9", "name", "Alice")]
        plan = build_plan(parse("SELECT DISTINCT ?n WHERE {(?a,'name',?n)}"))
        rows = execute_reference(plan, triples)
        names = [r["n"] for r in rows]
        assert sorted(names) == ["Alice", "Bob", "Cara"]

    def test_optional(self):
        # Cara (a3) has a name but no city in TRIPLES.
        plan = build_plan(parse(
            "SELECT ?n, ?c WHERE {(?a,'name',?n) OPTIONAL {(?a,'city',?c)}}"
        ))
        rows = execute_reference(plan, TRIPLES)
        by_name = {r["n"]: r.get("c") for r in rows}
        assert by_name["Alice"] == "Berlin"
        assert by_name["Cara"] is None

    def test_similarity_join_agrees_on_shared_variables(self):
        # Bob's name "Bob" is one edit from Cara's "Bobb" too, but a row
        # pairs only with the alias of its own subject ?a.
        triples = TRIPLES + [Triple("a2", "alias", "Bo"), Triple("a3", "alias", "Bobb")]
        plan = rewrite(build_plan(parse(
            "SELECT ?a, ?n, ?m WHERE {(?a,'name',?n) (?a,'alias',?m) FILTER edist(?n,?m) <= 1}"
        )))
        assert any(isinstance(n, SimilarityJoin) for n in plan.walk())
        rows = execute_reference(plan, triples)
        assert sorted((r["a"], r["n"], r["m"]) for r in rows) == [("a2", "Bob", "Bo")]

    def test_skyline(self):
        plan = build_plan(parse(
            "SELECT ?n, ?g WHERE {(?a,'name',?n) (?a,'age',?g)} "
            "ORDER BY SKYLINE OF ?g MIN"
        ))
        rows = execute_reference(plan, TRIPLES)
        assert [r["n"] for r in rows] == ["Bob"]  # unique minimum


class TestSkylineSemantics:
    def test_dominance(self):
        items = (SkylineItem(Var("x"), maximize=False), SkylineItem(Var("y"), maximize=True))
        assert dominates((1, 9), (2, 8), items)
        assert not dominates((1, 7), (2, 8), items)
        assert not dominates((1, 9), (1, 9), items)  # equal: no strict gain

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=0, max_size=30
        )
    )
    @settings(max_examples=100)
    def test_skyline_is_exactly_nondominated_set(self, points):
        items = (SkylineItem(Var("x"), maximize=False), SkylineItem(Var("y"), maximize=True))
        bindings = [{"x": x, "y": y} for x, y in points]
        result = skyline_of(bindings, items)
        result_points = [(r["x"], r["y"]) for r in result]
        # 1. nothing in the result is dominated by any input point
        for rp in result_points:
            assert not any(dominates((px, py), rp, items) for px, py in points)
        # 2. every non-dominated input point appears
        for p in points:
            if not any(dominates(q, p, items) for q in points):
                assert p in result_points

    def test_bindings_missing_dimensions_excluded(self):
        items = (SkylineItem(Var("x"), maximize=False),)
        rows = skyline_of([{"x": 1}, {"y": 2}, {"x": "oops"}], items)
        assert rows == [{"x": 1}]


class TestOrderSortKey:
    def test_mixed_types_sort_stably(self):
        rows = [{"v": "b"}, {"v": 2}, {"v": None}, {"v": "a"}, {"v": 1}]
        ordered = sorted(rows, key=order_sort_key((OrderItem(Var("v")),)))
        assert [r["v"] for r in ordered] == [1, 2, "a", "b", None]

    def test_descending_strings(self):
        rows = [{"v": "a"}, {"v": "c"}, {"v": "b"}]
        ordered = sorted(
            rows, key=order_sort_key((OrderItem(Var("v"), descending=True),))
        )
        assert [r["v"] for r in ordered] == ["c", "b", "a"]


def parse_filter(text: str):
    """Parse a bare filter expression via a scaffold query."""
    query = parse(f"SELECT ?x WHERE {{(?x,'a',?v) FILTER {text}}}")
    return query.groups[0].filters[0]
