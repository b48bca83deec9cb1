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
from repro.algebra.semantics import Binding, compatible, match_pattern, merge_bindings
from repro.physical.base import ExecutionContext, FilterCheck, OpResult, PhysicalOperator
from repro.pgrid.keys import KeyRange
from repro.pgrid.range_query import (
    range_query_sequential_groups,
    range_query_shower_groups,
)
from repro.strings import distinct_count_filter_threshold, edit_distance_within, qgrams
from repro.triples.index import INDEX_TAG, IndexKind, av_attribute_range, qgram_key
from repro.triples.local_index import TupleIndex, tuple_index
from repro.triples.store import stored_triples
from repro.triples.triple import Value
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

    def _bindings(self, entries, check: FilterCheck) -> list[Binding]:
        """Convert one peer's index postings to filtered bindings.

        Deduplicates triples within ``entries`` (one peer's result); one
        ``check`` shares filter verdicts across several peers' calls.
        """
        bindings: list[Binding] = []
        for triple in stored_triples(entries):
            binding = match_pattern(self.pattern, triple)
            if binding is not None and check(binding):
                bindings.append(binding)
        return bindings

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
        bindings = self._bindings(entries, FilterCheck(self.filters))
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
        check = FilterCheck(self.filters)
        result_groups = []
        for peer_id, entries in groups:
            bindings = self._bindings(entries, check)
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
        candidates = [t for t in stored_triples(entries) if t.attribute == attribute]

        # Many candidates share a value: verify each distinct value once.
        distances = {
            value: edit_distance_within(value, self.text, self.max_distance)
            for value in {t.value for t in candidates if isinstance(t.value, str)}
        }
        check = self._check(distances)
        bindings: list[Binding] = []
        for triple in candidates:
            if distances.get(triple.value) is None:
                continue
            binding = match_pattern(self.pattern, triple)
            if binding is not None and check(binding):
                bindings.append(binding)
        groups = [(ctx.coordinator.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=Trace.parallel(branches))

    def _check(self, distances: dict[Value, int | None]) -> FilterCheck:
        """The scan's filters, told each verified value's distance so that a
        filter over ``edist(?object, text)`` does not compute it again."""
        check = FilterCheck(self.filters)
        object_ = self.pattern.object
        if isinstance(object_, Var):
            text = Literal(self.text)
            calls = (FunctionCall("edist", (object_, text)), FunctionCall("edist", (text, object_)))
            for expr in self.filters:
                for value, distance in distances.items():
                    known = replace_terms(expr, calls, Literal(distance))
                    if distance is not None and known != expr:
                        check.settle(expr, value, satisfies(known, {object_.name: value}))
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
        result_groups: list[tuple[str, list[Binding]]] = []
        for peer_id, entries in groups:
            index = tuple_index(ctx.pnet.net.nodes[peer_id].store, entries)
            bindings: list[Binding] = []
            for oid in self._candidates(index, check):
                bindings.extend(self._evaluate_star(index, oid, check))
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

    def _evaluate_star(self, index: TupleIndex, oid: str, check: FilterCheck) -> list[Binding]:
        """Local BGP evaluation over one tuple's triples.

        A pattern with a literal predicate is unified only against the
        triples of that attribute (in their original order).
        """
        by_attribute = index.attributes[oid]
        partial: list[Binding] = [{}]
        for pattern in self.patterns:
            predicate = pattern.predicate
            candidates = (
                by_attribute.get(predicate.value, [])
                if isinstance(predicate, Literal)
                else index.triples[oid]
            )
            matches = [b for t in candidates if (b := match_pattern(pattern, t)) is not None]
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

    def _label(self) -> str:
        star = " ".join(str(p) for p in self.patterns)
        return f"OidClusterScan ?{self.subject_variable} [{star}]"
