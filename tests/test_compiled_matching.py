"""Compiled triple patterns, and operators that match before they deduplicate.

``pattern_matcher`` is held to a copy of the interpretive unification it
replaced.  The single-pattern scans, the probe step, the q-gram scan and the
star scan are held to copies of their earlier bodies, which deduplicated
every stored triple first and unified each one with that interpreter.  Rows
are compared by ``repr`` in returned order, which tells ``1`` from ``1.0``
and key orders apart.
"""

import random
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.expressions import satisfies
from repro.algebra.semantics import compatible, match_pattern, merge_bindings, pattern_matcher
from repro.mqp.executor import _apply_ready_filters
from repro.mqp.plan import MutantQueryPlan
from repro.physical import ExecutionContext, IndexLookup, OidClusterScan, OpResult, QGramScan
from repro.physical import scans
from repro.physical.base import FilterCheck, PhysicalOperator, match_postings, probe_join
from repro.physical.misc import FilterOp
from repro.pgrid import build_network
from repro.pgrid.construction import bulk_load
from repro.pgrid.datastore import Entry
from repro.pgrid.keys import KeyRange
from repro.pgrid.range_query import range_query_shower_groups
from repro.strings import edit_distance_within
from repro.triples import INDEX_TAG, DistributedTripleStore, IndexKind, Triple, oid_key
from repro.triples.index import probe_key, qgram_key
from repro.triples.local_index import tuple_index
from repro.vql.ast import Comparison, FunctionCall, Literal, TriplePattern, Var

# ---------------------------------------------------------------------------
# The interpretive forms the compiled ones replaced
# ---------------------------------------------------------------------------

_UNSET = object()


def interpretive_match(pattern, triple):
    """Unification that interprets the pattern's terms for every triple."""
    binding = {}
    for term, value in (
        (pattern.subject, triple.oid),
        (pattern.predicate, triple.attribute),
        (pattern.object, triple.value),
    ):
        if isinstance(term, Var):
            bound = binding.get(term.name, _UNSET)
            if bound is _UNSET:
                binding[term.name] = value
            elif bound != value:
                return None
        elif isinstance(term, Literal):
            if term.value != value:
                return None
        else:
            raise TypeError(f"unexpected term {term!r}")
    return binding


def distinct_triples(entries):
    """Every distinct stored triple, first seen first; other values skipped."""
    seen = set()
    for entry in entries:
        triple = entry.value
        if isinstance(triple, Triple) and triple not in seen:
            seen.add(triple)
            yield triple


def dedup_then_match(pattern, entries, check):
    """``_ScanBase._bindings`` as it was: deduplicate, then unify."""
    bindings = []
    for triple in distinct_triples(entries):
        binding = interpretive_match(pattern, triple)
        if binding is not None and check(binding):
            bindings.append(binding)
    return bindings


def dedup_then_match_postings(entries, pattern, variable, value, check):
    """``match_postings`` as it was."""
    matches = []
    for triple in distinct_triples(entries):
        binding = interpretive_match(pattern, triple)
        if binding is None or binding.get(variable) != value:
            continue
        if check(binding):
            matches.append(binding)
    return matches


def exact(rows):
    return [repr(row) for row in rows]


# ---------------------------------------------------------------------------
# pattern_matcher against the interpreter
# ---------------------------------------------------------------------------

STRINGS = ["a", "b"]
VALUES = ["a", "b", 1, 1.0, 2, 2.5]
TERMS = [Var("x"), Var("y")] + [Literal(value) for value in VALUES]

terms_st = st.sampled_from(TERMS)
triples_st = st.builds(
    Triple, st.sampled_from(STRINGS), st.sampled_from(STRINGS), st.sampled_from(VALUES)
)


@given(terms_st, terms_st, terms_st, triples_st)
def test_matcher_equals_interpretive_unification(subject, predicate, object_, triple):
    pattern = TriplePattern(subject, predicate, object_)
    expected = repr(interpretive_match(pattern, triple))
    assert repr(pattern_matcher(pattern)(triple)) == expected
    assert repr(match_pattern(pattern, triple)) == expected


@pytest.mark.parametrize("repeated", [(0, 1), (0, 2), (1, 2), (0, 1, 2)])
def test_repeated_variable_in_every_position_pair(repeated):
    pattern = TriplePattern(*(Var("x") if i in repeated else Var(f"v{i}") for i in range(3)))
    matcher = pattern_matcher(pattern)
    outcomes = []
    for oid in STRINGS:
        for attribute in STRINGS:
            for value in VALUES:
                triple = Triple(oid, attribute, value)
                expected = interpretive_match(pattern, triple)
                assert repr(matcher(triple)) == repr(expected)
                outcomes.append(expected is None)
    assert any(outcomes) and not all(outcomes)


def test_literal_matches_equal_numbers_and_binds_the_stored_value():
    for literal in (1, 1.0):
        pattern = TriplePattern(Var("s"), Literal("a"), Literal(literal))
        assert pattern_matcher(pattern)(Triple("o", "a", 1.0)) == {"s": "o"}
    pattern = TriplePattern(Var("s"), Var("p"), Var("v"))
    binding = pattern_matcher(pattern)(Triple("o", "a", 1.0))
    assert repr(binding) == "{'s': 'o', 'p': 'a', 'v': 1.0}"
    literals = TriplePattern(Literal("o"), Literal("a"), Literal("1"))
    assert pattern_matcher(literals)(Triple("o", "a", 1)) is None


def test_matchers_are_cached_per_pattern_in_a_bounded_cache():
    pattern = TriplePattern(Var("s"), Literal("a"), Var("s"))
    assert pattern_matcher(pattern) is pattern_matcher(
        TriplePattern(Var("s"), Literal("a"), Var("s"))
    )
    assert pattern_matcher.cache_info().maxsize is not None
    match = pattern_matcher(pattern)
    first, second = match(Triple("o", "a", "o")), match(Triple("o", "a", "o"))
    assert first == second == {"s": "o"} and first is not second  # a new dict per call


# ---------------------------------------------------------------------------
# Operators: match, then deduplicate what matched
# ---------------------------------------------------------------------------

Foreign = namedtuple("Foreign", "oid attribute value")


class RejectFirst(FilterCheck):
    """The filters' verdict, except that the first row asked about fails.

    Its verdict depends on which of two equal triples it is asked about
    first, so it tells deduplicating before the check from after it.
    """

    def __init__(self, filters=()):
        super().__init__(filters)
        self.asked = 0

    def __call__(self, binding):
        self.asked += 1
        return self.asked > 1 and super().__call__(binding)


def rejects_ints(binding):
    """A check that tells ``Triple(o, a, 1)`` from ``Triple(o, a, 1.0)``."""
    return not any(type(value) is int for value in binding.values())


ENTRIES = [
    Entry("k1", "i1", Triple("o1", "name", "x")),
    Entry("k1", "i2", "a foreign value"),
    Entry("k1", "i3", Foreign("o1", "name", "x")),
    Entry("k1", "i4", Triple("o2", "age", 1)),
    Entry("k1", "i5", Triple("o2", "age", 1.0)),  # equal triple, another item id
    Entry("k2", "i1", Triple("o1", "name", "x")),  # one triple under two keys
    Entry("k2", "i6", Triple("o3", "name", "o3")),
    Entry("k2", "i7", Triple("o3", "age", 2)),
    Entry("k2", "i8", Triple("o2", "age", 1)),
]

PATTERNS = [
    TriplePattern(Var("s"), Var("p"), Var("v")),
    TriplePattern(Var("s"), Literal("age"), Var("v")),
    TriplePattern(Var("s"), Literal("age"), Literal(1.0)),
    TriplePattern(Var("s"), Var("p"), Var("s")),
    TriplePattern(Literal("o1"), Literal("name"), Var("v")),
]
FILTERS = [(), (Comparison(">", Var("v"), Literal(0)),)]


def checks(filters):
    """Fresh checks of one kind each (RejectFirst keeps state)."""
    return [lambda: FilterCheck(filters), lambda: RejectFirst(filters), lambda: rejects_ints]


@pytest.mark.parametrize("pattern", PATTERNS, ids=str)
@pytest.mark.parametrize("filters", FILTERS, ids=["none", "v>0"])
def test_scan_bindings_equal_dedup_then_match(pattern, filters):
    scan = IndexLookup(pattern, filters, key="k1", strategy="oid-lookup")
    for make in checks(filters):
        expected = exact(dedup_then_match(pattern, ENTRIES, make()))
        assert exact(scan._bindings(ENTRIES, pattern_matcher(pattern), make())) == expected


@pytest.mark.parametrize("pattern", PATTERNS, ids=str)
def test_match_postings_equal_dedup_then_match(pattern):
    for variable in sorted(pattern.variables()):
        for value in ("o1", "o2", "o3", "x", 1, 1.0, 2):
            for make in checks(()):
                expected = dedup_then_match_postings(ENTRIES, pattern, variable, value, make())
                found = match_postings(ENTRIES, pattern_matcher(pattern), variable, value, make())
                assert exact(found) == exact(expected)


# -- stores -----------------------------------------------------------------

OID_SUBTREE = KeyRange.subtree(INDEX_TAG[IndexKind.OID])


@pytest.fixture(scope="module")
def tuples():
    """Tuples in the OID index, plus postings no insert would make."""
    pnet = build_network(8, replication=1, seed=3, split_by="population")
    store = DistributedTripleStore(pnet)
    store.bulk_insert(
        [
            Triple(oid, attribute, value)
            for oid, values in (
                ("o1", {"name": "x", "age": 1, "tag": 1}),
                ("o2", {"name": "y", "age": 2, "tag": 3}),
                ("o3", {"name": "o3", "age": 3, "tag": 3}),
                ("o4", {"name": "z", "age": 1.0, "tag": 1}),
            )
            for attribute, value in values.items()
        ]
    )
    bulk_load(
        pnet,
        [
            (oid_key("o2"), "stray", Triple("o1", "name", "x")),  # o1's triple under o2's key
            (oid_key("o1"), "again", Triple("o1", "name", "x")),
            (oid_key("o2"), "int", Triple("o2", "rank", 1)),
            (oid_key("o2"), "float", Triple("o2", "rank", 1.0)),
            (oid_key("o3"), "foreign", "a foreign value"),
        ],
    )
    return store


@pytest.fixture(scope="module")
def names():
    """A q-gram-indexed store whose near names share several probe grams."""
    pnet = build_network(8, replication=1, seed=5, split_by="population")
    store = DistributedTripleStore(pnet, enable_qgram_index=True, qgram_attributes={"name"})
    store.bulk_insert(
        [
            Triple("o1", "name", "Alice"),
            Triple("o2", "name", "Alicx"),
            Triple("Xlice", "name", "Xlice"),
            Triple("o4", "name", "Bob"),
            Triple("o4", "city", "Alice"),
        ]
    )
    gram = qgram_key("lic")
    bulk_load(
        pnet,
        [
            (gram, "again", Triple("o1", "name", "Alice")),
            (gram, "int", Triple("o5", "name", 1)),
            (gram, "float", Triple("o5", "name", 1.0)),
            (gram, "foreign", "a foreign value"),
        ],
    )
    return store


def context(store, seed=0):
    return ExecutionContext(store, store.pnet.peers[0], random.Random(seed))


class DedupThenMatchQGramScan(QGramScan):
    """``QGramScan.execute`` as it was, returning its rows."""

    def execute(self, ctx):
        attribute = str(self.pattern.predicate.value)
        entries = []
        for gram in self._probe_grams():
            found, _trace = ctx.pnet.lookup(qgram_key(gram), start=ctx.coordinator, kind="qgram")
            entries.extend(found)
        candidates = [t for t in distinct_triples(entries) if t.attribute == attribute]
        distances = {
            value: edit_distance_within(value, self.text, self.max_distance)
            for value in {t.value for t in candidates if isinstance(t.value, str)}
        }
        check = self._check(distances)
        bindings = []
        for triple in candidates:
            if distances.get(triple.value) is None:
                continue
            binding = interpretive_match(self.pattern, triple)
            if binding is not None and check(binding):
                bindings.append(binding)
        return bindings


QGRAM_PATTERNS = [
    TriplePattern(Var("s"), Literal("name"), Var("n")),
    TriplePattern(Var("n"), Literal("name"), Var("n")),
    TriplePattern(Var("s"), Literal("name"), Literal("Alice")),
]
QGRAM_FILTERS = [
    (),
    (Comparison("<=", FunctionCall("edist", (Var("n"), Literal("Alice"))), Literal(0)),),
    (Comparison("!=", Var("s"), Literal("o2")),),
]


@pytest.mark.parametrize("check", [FilterCheck, RejectFirst], ids=["filters", "reject-first"])
@pytest.mark.parametrize("pattern", QGRAM_PATTERNS, ids=str)
@pytest.mark.parametrize("filters", QGRAM_FILTERS, ids=["none", "edist", "s"])
def test_qgram_scan_equals_dedup_then_match(names, monkeypatch, check, pattern, filters):
    monkeypatch.setattr(scans, "FilterCheck", check)
    kwargs = dict(text="Alice", max_distance=1)
    expected = exact(DedupThenMatchQGramScan(pattern, filters, **kwargs).execute(context(names)))
    found = QGramScan(pattern, filters, **kwargs).execute(context(names))
    assert exact(found.all_bindings()) == expected
    if pattern is QGRAM_PATTERNS[0] and not filters and check is FilterCheck:
        assert len(expected) == 3  # Alice, Alicx and Xlice, each once


class InterpretedStarScan(OidClusterScan):
    """``OidClusterScan.execute`` as it was: interpret every pattern per
    triple and check every merge for compatibility."""

    def execute(self, ctx):
        groups, trace, complete = range_query_shower_groups(
            ctx.pnet, OID_SUBTREE, start=ctx.coordinator, rng=ctx.rng
        )
        check = scans.FilterCheck(self.filters)
        result_groups = []
        for peer_id, entries in groups:
            index = tuple_index(ctx.pnet.net.nodes[peer_id].store, entries)
            bindings = []
            for oid in self._candidates(index, check):
                bindings.extend(self._interpreted_star(index, oid, check))
            if bindings:
                result_groups.append((peer_id, bindings))
        return OpResult(result_groups, trace, complete)

    def _interpreted_star(self, index, oid, check):
        by_attribute = index.attributes[oid]
        partial = [{}]
        for pattern in self.patterns:
            predicate = pattern.predicate
            candidates = (
                by_attribute.get(predicate.value, [])
                if isinstance(predicate, Literal)
                else index.triples[oid]
            )
            matches = [b for t in candidates if (b := interpretive_match(pattern, t)) is not None]
            if not matches:
                return []
            partial = [
                merge_bindings(base, match)
                for base in partial
                for match in matches
                if compatible(base, match)
            ]
            if not partial:
                return []
        return [b for b in partial if check(b)]


def star(*shapes):
    """Star patterns over ``?s``; each shape is ``(predicate, object)``."""
    return tuple(TriplePattern(Var("s"), p, o) for p, o in shapes)


STARS = [
    # a variable predicate, and the object variable repeated across patterns
    star((Literal("age"), Var("v")), (Var("p"), Var("v"))),
    star((Literal("tag"), Var("v")), (Literal("age"), Var("v"))),
    star((Literal("name"), Var("n")), (Literal("age"), Var("a")), (Var("p"), Var("o"))),
    star((Literal("rank"), Literal(1.0)), (Var("p"), Var("s"))),
    star((Var("p"), Var("o")),),
]


@pytest.mark.parametrize("check", [FilterCheck, RejectFirst], ids=["filters", "reject-first"])
@pytest.mark.parametrize("patterns", STARS, ids=lambda s: " ".join(map(str, s)))
@pytest.mark.parametrize("filters", [(), (Comparison(">=", Var("v"), Literal(1)),)])
def test_star_scan_equals_interpreted_star(tuples, monkeypatch, check, patterns, filters):
    monkeypatch.setattr(scans, "FilterCheck", check)
    for seed in range(2):
        expected = InterpretedStarScan(patterns, filters, "s").execute(context(tuples, seed))
        found = OidClusterScan(patterns, filters, "s").execute(context(tuples, seed))
        assert [(peer, exact(rows)) for peer, rows in found.groups] == [
            (peer, exact(rows)) for peer, rows in expected.groups
        ]
    if patterns is STARS[0] and not filters and check is FilterCheck:
        # each age meets itself under the variable predicate, and the tags
        # of o1, o3 and o4 equal their ages
        assert len(found.all_bindings()) == 7


def dedup_then_match_probe_join(ctx, rows, pattern, variable):
    """``probe_join`` as it was (no filters): every merge checked."""
    keys = {value: probe_key(pattern, variable, value) for value in {r[variable] for r in rows}}
    entries, _trace = ctx.pnet.lookup_many(keys.values(), start=ctx.coordinator)
    matches = {
        value: dedup_then_match_postings(
            entries.get(key, []), pattern, variable, value, FilterCheck(())
        )
        for value, key in keys.items()
    }
    return [
        merge_bindings(row, match)
        for row in rows
        for match in matches.get(row.get(variable), ())
        if compatible(row, match)
    ]


@pytest.mark.parametrize("cycle", [False, True], ids=["star", "cycle"])
def test_probe_join_checks_only_other_shared_variables(tuples, cycle):
    pattern = TriplePattern(Var("s"), Literal("age"), Var("v"))
    rows = [{"s": "o1", "v": 1}, {"s": "o2", "v": 1}, {"s": "o4", "v": 1.0}, {"s": "o3"}]
    if not cycle:
        rows = [{"s": row["s"], "w": 0} for row in rows]
    ctx = context(tuples)
    joined, _trace = probe_join(ctx, rows, pattern, (), "s", ctx.coordinator, "probe")
    assert exact(joined) == exact(dedup_then_match_probe_join(ctx, rows, pattern, "s"))
    # o2's age is 2, so the cycle drops its row; o3's row has no ?v to check
    assert len(joined) == (3 if cycle else 4)


# ---------------------------------------------------------------------------
# One filter evaluator
# ---------------------------------------------------------------------------

ROWS = [{"v": 1}, {"v": 1.0}, {"v": "1"}, {"v": None}, {}, {"v": 2, "w": 2}, {"v": 3, "w": 2}]
PREDICATES = [
    Comparison(">=", Var("v"), Literal(1)),
    Comparison("=", Var("v"), Var("w")),
    Comparison("=", Literal(1), Literal(1.0)),
]


class Fixed(PhysicalOperator):
    def __init__(self, rows):
        self.rows = rows

    def execute(self, ctx):
        return OpResult([("p1", self.rows[:4]), ("p2", self.rows[4:])])


@pytest.mark.parametrize("predicate", PREDICATES, ids=str)
def test_filter_op_and_mqp_filters_evaluate_like_satisfies(predicate):
    expected = [row for row in ROWS if satisfies(predicate, row)]
    found = FilterOp(Fixed(ROWS), predicate).execute(None)
    assert exact(found.all_bindings()) == exact(expected)
    plan = MutantQueryPlan(pending=[], residual_filters=[predicate], bindings=list(ROWS))
    assert exact(_apply_ready_filters(plan)) == exact(expected)
    assert plan.residual_filters == []
