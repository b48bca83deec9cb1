"""Physical scans of one triple pattern.

The paper's three indexes (§2) answer a pattern in one of two access
shapes: an exact key lookup (:class:`IndexLookup`) or a key-range walk,
shower or sequential (:class:`IndexRange`).  The planner picks the shape
and computes its key or :class:`~repro.pgrid.keys.KeyRange` with a
:mod:`repro.triples.index` function; the operator's ``strategy`` keeps the
paper's name for the access path:

==============  ======  ===========================  ==========================
strategy        shape   answers a pattern with       key function
==============  ======  ===========================  ==========================
oid-lookup      lookup  subject literal              ``oid_key``
av-lookup       lookup  predicate + object literals  ``av_key``
v-lookup        lookup  object literal only          ``v_key``
av-range        range   range or = filter on object  ``av_value_range``
av-prefix       range   prefix filter on object      ``av_string_prefix_range``
attribute-scan  range   predicate literal only       ``av_attribute_range``
v-range         range   as av-range, predicate var   ``v_value_range``
v-prefix        range   as av-prefix, predicate var  ``v_string_prefix_range``
broadcast       range   nothing bound                the whole A#v subtree
==============  ======  ===========================  ==========================

Two scans have their own operators: :class:`QGramScan` (an ``edist``
filter on the object, through the q-gram index) and :class:`OidClusterScan`
(a star of patterns over one subject variable, through the OID index).

All scans return bindings in produce form (grouped by serving peer) and apply
their residual ``filters`` where the data lives, before anything is shipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from repro.errors import PlanningError
from repro.net.trace import Trace
from repro.algebra.expressions import replace_terms, satisfies
from repro.algebra.semantics import (
    Binding,
    Matcher,
    compatible,
    merge_bindings,
    pattern_matcher,
)
from repro.physical.base import (
    ExecutionContext,
    FilterCheck,
    OpResult,
    PhysicalOperator,
    coordinator_result,
)
from repro.pgrid.keys import KeyRange
from repro.pgrid.range_query import (
    range_query_sequential_groups,
    range_query_shower_groups,
)
from repro.strings import distinct_count_filter_threshold, edit_distance_within, qgrams
from repro.triples.index import INDEX_TAG, IndexKind, av_attribute_range, qgram_key
from repro.triples.local_index import TupleIndex, tuple_index
from repro.triples.store import stored_matches
from repro.triples.triple import Triple, Value
from repro.vql.ast import Expression, FunctionCall, Literal, TriplePattern, Var

#: Strategy -> the name ``explain()`` prints for an index scan.
SCAN_NAMES = {
    "oid-lookup": "OidLookupScan",
    "av-lookup": "AvLookupScan",
    "v-lookup": "VLookupScan",
    "av-range": "AvRangeScan",
    "av-prefix": "AvPrefixScan",
    "attribute-scan": "AttributeScan",
    "v-range": "VRangeScan",
    "v-prefix": "VPrefixScan",
    "broadcast": "BroadcastScan",
}


@dataclass
class _ScanBase(PhysicalOperator):
    """Binding construction shared by the single-pattern scans."""

    pattern: TriplePattern
    filters: tuple[Expression, ...]

    def _bindings(self, entries, match: Matcher, check: FilterCheck) -> list[Binding]:
        """Convert one peer's index postings to filtered bindings.

        ``match`` is the pattern's matcher.  :func:`stored_matches`
        deduplicates the matching triples within ``entries`` (one peer's
        result); one ``match`` and one ``check`` serve several peers' calls.
        """
        return [binding for binding in stored_matches(entries, match) if check(binding)]

    def _label(self) -> str:
        extra = f" | {' AND '.join(str(f) for f in self.filters)}" if self.filters else ""
        return f"{SCAN_NAMES[self.strategy]} {self.pattern}{extra}"


@dataclass
class IndexLookup(_ScanBase):
    """Exact lookup of one index key: every posting stored under ``key``."""

    key: str
    strategy: str = field()  # required, not PhysicalOperator's ""

    def execute(self, ctx: ExecutionContext) -> OpResult:
        entries, trace, destination = ctx.pnet.lookup_at(self.key, start=ctx.coordinator)
        bindings = self._bindings(entries, pattern_matcher(self.pattern), FilterCheck(self.filters))
        groups = [(destination.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=trace)


@dataclass
class IndexRange(_ScanBase):
    """Range walk over ``key_range`` of one index, shower or sequential."""

    key_range: KeyRange
    strategy: str = field()  # required, not PhysicalOperator's ""
    algorithm: str | None = None  # None = "shower"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        algorithm = self.algorithm or "shower"
        if algorithm == "shower":
            groups, trace, complete = range_query_shower_groups(
                ctx.pnet, self.key_range, start=ctx.coordinator, rng=ctx.rng
            )
        elif algorithm == "sequential":
            groups, trace, complete = range_query_sequential_groups(
                ctx.pnet, self.key_range, start=ctx.coordinator, rng=ctx.rng
            )
        else:
            raise PlanningError(f"unknown range algorithm {algorithm!r}")
        match = pattern_matcher(self.pattern)
        check = FilterCheck(self.filters)
        result_groups = []
        for peer_id, entries in groups:
            bindings = self._bindings(entries, match, check)
            if bindings:
                result_groups.append((peer_id, bindings))
        return OpResult(groups=result_groups, trace=trace, complete=complete)

    def _label(self) -> str:
        return super()._label() + (f" alg={self.algorithm}" if self.algorithm else "")


@dataclass
class QGramScan(_ScanBase):
    """Similarity selection via the distributed q-gram index (paper ref. [6]).

    Answers ``edist(?obj, text) <= max_distance`` for a pattern with a
    literal predicate using the *prefix filter*: a single edit destroys at
    most ``q`` of the query's distinct grams, so any string within distance
    ``k`` must share at least one of **any** ``k*q + 1`` probed query grams
    (pigeonhole).  The scan therefore fetches only ``k*q + 1`` posting lists
    — preferring interior (pad-free) grams, whose buckets are the most
    selective — and verifies the candidate union with the banded edit
    distance.  Falls back to a full attribute scan when the query has too
    few distinct grams for the filter to be sound (short strings / large k).
    """

    text: str = ""
    max_distance: int = 0
    q: int = 3

    strategy = "qgram"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        predicate = self.pattern.predicate
        if not isinstance(predicate, Literal):
            raise PlanningError("QGramScan needs a literal predicate")
        if not ctx.store.enable_qgram_index:
            raise PlanningError("q-gram index not enabled in this store")
        attribute = str(predicate.value)
        if distinct_count_filter_threshold(self.text, self.q, self.max_distance) < 1:
            fallback = IndexRange(
                self.pattern, self.filters, av_attribute_range(attribute), "attribute-scan"
            )
            return fallback.execute(ctx)

        entries = []
        branches: list[Trace] = []
        for gram in self._probe_grams():
            found, trace = ctx.pnet.lookup(qgram_key(gram), start=ctx.coordinator, kind="qgram")
            branches.append(trace)
            entries.extend(found)

        # Many postings share a value: verify each distinct value once, then
        # match and deduplicate only the postings within the distance.
        distances: dict[Value, int | None] = {}
        near = []
        for entry in entries:
            triple = entry.value
            if not isinstance(triple, Triple) or triple.attribute != attribute:
                continue
            value = triple.value
            if value not in distances:
                distances[value] = (
                    edit_distance_within(value, self.text, self.max_distance)
                    if isinstance(value, str)
                    else None
                )
            if distances[value] is not None:
                near.append(entry)
        check = self._check(distances)
        bindings = [b for b in stored_matches(near, pattern_matcher(self.pattern)) if check(b)]
        return coordinator_result(ctx, bindings, Trace.parallel(branches))

    def _check(self, distances: dict[Value, int | None]) -> FilterCheck:
        """The scan's filters, told each verified value's distance so that a
        filter over ``edist(?object, text)`` does not compute it again
        (``None``: not a string, or farther than ``max_distance``)."""
        check = FilterCheck(self.filters)
        object_ = self.pattern.object
        if isinstance(object_, Var):
            text = Literal(self.text)
            calls = (FunctionCall("edist", (object_, text)), FunctionCall("edist", (text, object_)))
            within = set(distances.values()) - {None}
            for expr in self.filters:
                # The rewrite depends on the distance only, not on the value.
                known = {d: replace_terms(expr, calls, Literal(d)) for d in within}
                known = {d: rewritten for d, rewritten in known.items() if rewritten != expr}
                for value, distance in distances.items():
                    if distance in known:
                        check.settle(expr, value, satisfies(known[distance], {object_.name: value}))
        return check

    def _probe_grams(self) -> list[str]:
        """The ``k*q + 1`` probe grams; padded buckets last (they are fat)."""
        from repro.strings.qgrams import PAD_CHAR

        distinct = sorted(set(qgrams(self.text, q=self.q)))
        distinct.sort(key=lambda gram: (PAD_CHAR in gram, gram))
        needed = self.max_distance * self.q + 1
        return distinct[:needed]

    def _label(self) -> str:
        return (
            f"QGramScan {self.pattern} edist(·, {self.text!r}) <= {self.max_distance} "
            f"(q={self.q})"
        )


@dataclass
class OidClusterScan(PhysicalOperator):
    """Star-pattern scan over the OID index.

    When several patterns share one subject variable (a "star" over a single
    logical tuple), the OID index answers the whole star at once: every
    peer's slice of the OID subtree holds *complete* tuples (all postings of
    one OID hash to the same key), so each peer evaluates the star locally
    and the combined bindings stay distributed — exactly what the ranking
    operators need for local pruning (paper: "efficient reproduction of
    origin data, as well as access to parts of special interest").

    Each peer answers from its :class:`~repro.triples.local_index.TupleIndex`
    and evaluates the star only on the OIDs of the most selective pattern's
    candidate list, in ordinal order; the rows and their order are those of
    evaluating every tuple.
    """

    patterns: tuple[TriplePattern, ...] = ()
    filters: tuple[Expression, ...] = ()
    subject_variable: str = ""

    strategy = "oid-cluster"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        if not self.patterns:
            raise PlanningError("OidClusterScan needs at least one pattern")
        for pattern in self.patterns:
            subject = pattern.subject
            if not isinstance(subject, Var) or subject.name != self.subject_variable:
                raise PlanningError("OidClusterScan patterns must share the subject variable")
        key_range = KeyRange.subtree(INDEX_TAG[IndexKind.OID])
        groups, trace, complete = range_query_shower_groups(
            ctx.pnet, key_range, start=ctx.coordinator, rng=ctx.rng
        )
        check = FilterCheck(self.filters)
        star = self._compile()
        result_groups: list[tuple[str, list[Binding]]] = []
        for peer_id, entries in groups:
            index = tuple_index(ctx.pnet.net.nodes[peer_id].store, entries)
            bindings: list[Binding] = []
            for oid in self._candidates(index, check):
                bindings.extend(self._evaluate_star(index, oid, star, check))
            if bindings:
                result_groups.append((peer_id, bindings))
        return OpResult(groups=result_groups, trace=trace, complete=complete)

    def _candidates(self, index: TupleIndex, check: FilterCheck) -> Collection[str]:
        """The OIDs that can match, in ordinal order: the shortest candidate list.

        A pattern with a literal predicate can only match tuples holding that
        attribute — with the literal object as a value, or with a value that
        passes the filters on the object variable.  Patterns with a variable
        predicate restrict nothing.
        """
        shortest: Collection[str] = index.triples
        for pattern in self.patterns:
            if not isinstance(pattern.predicate, Literal):
                continue
            values = index.values.get(pattern.predicate.value, {})
            object_ = pattern.object
            if isinstance(object_, Literal):
                candidates = values.get(object_.value, [])
            elif check.constrains(object_.name):
                passing = {
                    oid
                    for value, oids in values.items()
                    if check.value_passes(object_.name, value)
                    for oid in oids
                }
                candidates = sorted(passing, key=index.ordinal.__getitem__)
            else:
                candidates = index.by_attribute.get(pattern.predicate.value, [])
            if len(candidates) < len(shortest):
                shortest = candidates
        return shortest

    def _compile(self) -> list[tuple[Literal | None, Matcher, bool]]:
        """Per pattern, aligned with ``self.patterns``: its literal predicate
        (``None`` for a variable), its matcher, and whether it shares a
        variable other than the subject with an earlier pattern."""
        star = []
        earlier: set[str] = set()  # the earlier patterns' variables, but the subject
        for pattern in self.patterns:
            names = pattern.variables() - {self.subject_variable}
            predicate = pattern.predicate
            literal = predicate if isinstance(predicate, Literal) else None
            star.append((literal, pattern_matcher(pattern), bool(names & earlier)))
            earlier |= names
        return star

    @staticmethod
    def _evaluate_star(
        index: TupleIndex,
        oid: str,
        star: list[tuple[Literal | None, Matcher, bool]],
        check: FilterCheck,
    ) -> list[Binding]:
        """Local BGP evaluation over one tuple's triples.

        ``star`` is :meth:`_compile`'s.  A pattern with a literal predicate
        is matched only against the triples of that attribute (in their
        original order).  Every partial binding binds the same variables,
        and all of them bind the subject to ``oid``, so a pattern sharing no
        other variable with the earlier ones merges without a check.
        """
        by_attribute = index.attributes[oid]
        partial: list[Binding] = [{}]
        for predicate, match, shares in star:
            candidates = (
                index.triples[oid] if predicate is None else by_attribute.get(predicate.value, [])
            )
            matches = [b for t in candidates if (b := match(t)) is not None]
            if not matches:
                return []
            partial = [
                merge_bindings(base, found)
                for base in partial
                for found in matches
                if not shares or compatible(base, found)
            ]
            if not partial:
                return []
        return [b for b in partial if check(b)]

    def _label(self) -> str:
        star = " ".join(str(p) for p in self.patterns)
        return f"OidClusterScan ?{self.subject_variable} [{star}]"
