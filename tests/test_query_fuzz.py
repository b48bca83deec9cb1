"""Property-based query fuzzing: the distributed engine must agree with the
centralized reference executor on *arbitrary* queries.

Hypothesis generates random basic graph patterns (with literal/variable mixes
in every position), random comparison/similarity filters, two-variable
similarity joins (some over a shared subject variable), OPTIONAL groups and
UNIONs; each generated query runs in the distributed modes and the
reference engine over a fixed loaded overlay.
Any divergence is a real bug in scans, joins, planning or ranking.
"""

from __future__ import annotations


from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import UniStore
from repro.bench import ConferenceWorkload

# -- fixed world --------------------------------------------------------------

SEED = 4242


def _build_world():
    store = UniStore.build(num_peers=24, replication=2, seed=SEED, enable_qgram_index=True)
    workload = ConferenceWorkload(num_authors=15, num_publications=30, num_conferences=8, seed=SEED)
    workload.load_into(store)
    triples = store._all_triples()
    return store, triples


STORE, TRIPLES = _build_world()
ATTRIBUTES = sorted({t.attribute for t in TRIPLES})
OIDS = sorted({t.oid for t in TRIPLES})
STRING_VALUES = sorted({t.value for t in TRIPLES if isinstance(t.value, str)})[:40]
NUMBER_VALUES = sorted({t.value for t in TRIPLES if not isinstance(t.value, str)})

VARS = ["a", "b", "c", "x", "y", "z"]


# -- query generator -----------------------------------------------------------


def _term(draw, kind: str) -> str:
    """Render one pattern position as VQL text."""
    if kind == "var":
        return "?" + draw(st.sampled_from(VARS))
    if kind == "oid":
        return "'" + draw(st.sampled_from(OIDS)) + "'"
    if kind == "attr":
        return "'" + draw(st.sampled_from(ATTRIBUTES)) + "'"
    if kind == "str":
        value = draw(st.sampled_from(STRING_VALUES))
        return "'" + value.replace("'", "\\'") + "'"
    if kind == "num":
        return str(draw(st.sampled_from(NUMBER_VALUES)))
    raise AssertionError(kind)


def _patterns(draw, used_vars: list[str], subject: str | None = None) -> list[str]:
    """1-3 random patterns; variables they bind are appended to ``used_vars``.

    Later patterns (all of them, when ``subject`` is given) lean towards one
    subject variable so groups are mostly connected.
    """
    patterns = []
    for index in range(draw(st.integers(1, 3))):
        subject_kind = draw(st.sampled_from(["var", "var", "var", "oid"]))
        predicate_kind = draw(st.sampled_from(["attr", "attr", "attr", "var"]))
        object_kind = draw(st.sampled_from(["var", "var", "str", "num"]))
        anchor = subject or (used_vars[0] if index > 0 and used_vars else None)
        if subject_kind == "var" and anchor is not None:
            subject_term = "?" + anchor
        else:
            subject_term = _term(draw, subject_kind)
        if subject_term.startswith("?"):
            used_vars.append(subject_term[1:])
        predicate = _term(draw, predicate_kind)
        object_ = _term(draw, object_kind)
        if object_.startswith("?"):
            used_vars.append(object_[1:])
        patterns.append(f"({subject_term},{predicate},{object_})")
    return patterns


def _filters(draw, used_vars: list[str]) -> list[str]:
    """At most one random one-variable filter over ``used_vars``."""
    if not used_vars or not draw(st.booleans()):
        return []
    variable = draw(st.sampled_from(used_vars))
    choice = draw(st.integers(0, 3))
    if choice == 0 and NUMBER_VALUES:
        op = draw(st.sampled_from([">=", "<", ">", "<=", "!="]))
        bound = draw(st.sampled_from(NUMBER_VALUES))
        return [f"FILTER ?{variable} {op} {bound}"]
    if choice == 1 and STRING_VALUES:
        probe = draw(st.sampled_from(STRING_VALUES))[:6].replace("'", "")
        return [f"FILTER prefix(?{variable}, '{probe}')"]
    if choice == 2 and STRING_VALUES:
        probe = draw(st.sampled_from(STRING_VALUES)).replace("'", "")
        k = draw(st.integers(1, 2))
        return [f"FILTER edist(?{variable}, '{probe}') <= {k}"]
    needle = draw(st.sampled_from(STRING_VALUES))[1:4].replace("'", "")
    return [f"FILTER contains(?{variable}, '{needle}')"] if needle else []


@st.composite
def queries(draw):
    """A random query: one group, optionally with a two-variable similarity
    filter and an OPTIONAL group, optionally UNION a second group."""
    used_vars: list[str] = []
    patterns = _patterns(draw, used_vars)
    filters = _filters(draw, used_vars)
    if used_vars and draw(st.booleans()):
        # A pattern plus edist(?x, ?v): a similarity join when the two
        # variables end up on opposite sides of a join.  The pattern is over
        # a fresh subject, or repeats a pattern that binds ?x with ?v in its
        # object: then both sides bind the same subject variable, so a row
        # must not pair with a near value of another subject.  The filter
        # goes first so it sits directly above the join tree.
        # (A subject or predicate term never holds a comma.)
        split = [pattern[1:-1].split(",", 2) for pattern in patterns]
        repeatable = [terms for terms in split if terms[0][0] == terms[2][0] == "?"]
        if repeatable and draw(st.booleans()):
            subject, predicate, object_ = draw(st.sampled_from(repeatable))
            variable = object_[1:]
        else:
            subject, predicate = "?u", _term(draw, "attr")
            variable = draw(st.sampled_from(used_vars))
        k = draw(st.integers(1, 3))
        patterns.append(f"({subject},{predicate},?v)")
        filters.insert(0, f"FILTER edist(?{variable}, ?v) < {k}")
        used_vars += [subject[1:], "v"]
    optional = ""
    if used_vars and draw(st.booleans()):
        optional_vars: list[str] = []
        inner = _patterns(draw, optional_vars, subject=used_vars[0])
        optional = f" OPTIONAL {{{' '.join(inner)}}}"
        used_vars += optional_vars
    union = ""
    if draw(st.booleans()):
        union_vars: list[str] = []
        other = _patterns(draw, union_vars) + _filters(draw, union_vars)
        union = f" UNION {{{' '.join(other)}}}"
        used_vars += union_vars

    body = " ".join(patterns + filters) + optional
    select_vars = sorted(set(used_vars))
    select = ", ".join(f"?{v}" for v in select_vars) if select_vars else "*"
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    return f"SELECT {distinct}{select} WHERE {{{body}}}{union}"


#: A similarity join whose sides share ?a: a row may only pair with the
#: near e-mail addresses of its own subject.  Random groups are mostly too
#: selective to pair rows of two subjects, so every property also runs this.
SHARED_SUBJECT_SIMILARITY_JOIN = (
    "SELECT ?a, ?b, ?v WHERE {(?a,'email',?b) (?a,'email',?v) FILTER edist(?b, ?v) < 2}"
)


def _canonical(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


# -- the properties --------------------------------------------------------------


@given(queries())
@example(SHARED_SUBJECT_SIMILARITY_JOIN)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_optimized_agrees_with_reference(vql):
    reference = STORE.execute(vql, mode="reference")
    optimized = STORE.execute(vql, mode="optimized")
    assert _canonical(optimized.rows) == _canonical(reference.rows), vql
    assert optimized.complete


@given(queries())
@example(SHARED_SUBJECT_SIMILARITY_JOIN)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_mqp_agrees_with_reference(vql):
    reference = STORE.execute(vql, mode="reference")
    mqp = STORE.execute(vql, mode="mqp")
    assert _canonical(mqp.rows) == _canonical(reference.rows), vql


@given(queries(), st.sampled_from(["ship", "rehash"]))
@example(SHARED_SUBJECT_SIMILARITY_JOIN, "ship")
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_forced_join_strategies_agree(vql, strategy):
    from repro.errors import PlanningError
    from repro.optimizer import PlannerConfig

    reference = STORE.execute(vql, mode="reference")
    try:
        forced = STORE.execute(vql, config=PlannerConfig(join_strategy=strategy))
    except PlanningError:
        return  # strategy not applicable to this query shape — fine
    assert _canonical(forced.rows) == _canonical(reference.rows), (vql, strategy)
