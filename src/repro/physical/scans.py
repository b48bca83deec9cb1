"""Physical scan strategies for one triple pattern.

Which scans are *applicable* depends on the pattern's bound positions (the
paper's three indexes, §2); which is *chosen* is the optimizer's job:

=====================  ==========================================  ============
strategy               applicable when                             index used
=====================  ==========================================  ============
OidLookupScan          subject literal                             OID
AvLookupScan           predicate + object literals                 A#v (exact)
AvRangeScan            predicate literal, range filter on object   A#v (range)
AvPrefixScan           predicate literal, prefix filter on object  A#v (range)
AttributeScan          predicate literal only                      A#v (subtree)
VLookupScan            object literal, predicate variable          v   (exact)
VRangeScan/VPrefixScan object variable w/ filter, predicate var    v   (range)
QGramScan              predicate literal, edist filter on object   q-gram
BroadcastScan          nothing bound                               A#v (full)
=====================  ==========================================  ============

All scans return bindings in produce form (grouped by serving peer) and apply
their residual ``filters`` where the data lives, before anything is shipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from repro.errors import PlanningError
from repro.net.trace import Trace
from repro.algebra.semantics import Binding, match_pattern
from repro.physical.base import ExecutionContext, FilterCheck, OpResult, PhysicalOperator
from repro.pgrid.keys import KeyRange
from repro.pgrid.range_query import (
    range_query_sequential_groups,
    range_query_shower_groups,
)
from repro.strings import distinct_count_filter_threshold, edit_distance_within, qgrams
from repro.triples.index import (
    INDEX_TAG,
    IndexKind,
    av_key,
    av_string_prefix_range,
    av_value_range,
    oid_key,
    qgram_key,
    v_key,
    v_string_prefix_range,
    v_value_range,
)
from repro.triples.local_index import TupleIndex, tuple_index
from repro.triples.store import Posting
from repro.triples.triple import Triple, Value
from repro.vql.ast import Expression, Literal, TriplePattern, Var


@dataclass
class _ScanBase(PhysicalOperator):
    """Shared binding-construction logic for all scans."""

    pattern: TriplePattern
    filters: tuple[Expression, ...] = ()

    def _bindings(
        self, entries, kind: IndexKind, check: FilterCheck | None = None
    ) -> list[Binding]:
        """Convert one peer's index postings to filtered bindings.

        Deduplicates postings within ``entries`` (one peer's result); pass
        one ``check`` to share filter verdicts across several peers' calls.
        """
        if check is None:
            check = FilterCheck(self.filters)
        seen: set[tuple[str, str, Value]] = set()
        bindings: list[Binding] = []
        for entry in entries:
            posting = entry.value
            if not isinstance(posting, Posting) or posting.kind is not kind:
                continue
            identity = posting.triple.as_tuple()
            if identity in seen:
                continue
            seen.add(identity)
            binding = match_pattern(self.pattern, posting.triple)
            if binding is not None and check(binding):
                bindings.append(binding)
        return bindings

    def _bindings_from_triples(self, triples: list[Triple]) -> list[Binding]:
        check = FilterCheck(self.filters)
        bindings: list[Binding] = []
        for triple in triples:
            binding = match_pattern(self.pattern, triple)
            if binding is not None and check(binding):
                bindings.append(binding)
        return bindings

    def _range_groups(self, ctx: ExecutionContext, key_range: KeyRange, kind: IndexKind):
        algorithm = getattr(self, "algorithm", None) or ctx.range_algorithm
        if algorithm == "shower":
            groups, trace, complete = range_query_shower_groups(
                ctx.pnet, key_range, start=ctx.coordinator, rng=ctx.rng
            )
        elif algorithm == "sequential":
            groups, trace, complete = range_query_sequential_groups(
                ctx.pnet, key_range, start=ctx.coordinator, rng=ctx.rng
            )
        else:
            raise PlanningError(f"unknown range algorithm {algorithm!r}")
        check = FilterCheck(self.filters)
        result_groups = []
        for peer_id, entries in groups:
            bindings = self._bindings(entries, kind, check)
            if bindings:
                result_groups.append((peer_id, bindings))
        return OpResult(groups=result_groups, trace=trace, complete=complete)

    def _label(self) -> str:
        extra = f" | {' AND '.join(str(f) for f in self.filters)}" if self.filters else ""
        return f"{type(self).__name__} {self.pattern}{extra}"


@dataclass
class OidLookupScan(_ScanBase):
    """Exact lookup by subject OID ("efficient reproduction of origin data")."""

    strategy = "oid-lookup"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        subject = self.pattern.subject
        if not isinstance(subject, Literal) or not isinstance(subject.value, str):
            raise PlanningError("OidLookupScan needs a string subject literal")
        entries, trace, destination = ctx.pnet.lookup_at(
            oid_key(subject.value), start=ctx.coordinator
        )
        bindings = self._bindings(entries, IndexKind.OID)
        groups = [(destination.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=trace)


@dataclass
class AvLookupScan(_ScanBase):
    """Exact lookup on the A#v index (predicate and object bound)."""

    strategy = "av-lookup"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        predicate, object_ = self.pattern.predicate, self.pattern.object
        if not isinstance(predicate, Literal) or not isinstance(object_, Literal):
            raise PlanningError("AvLookupScan needs literal predicate and object")
        entries, trace, destination = ctx.pnet.lookup_at(
            av_key(str(predicate.value), object_.value), start=ctx.coordinator
        )
        bindings = self._bindings(entries, IndexKind.AV)
        groups = [(destination.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=trace)


@dataclass
class AvRangeScan(_ScanBase):
    """Range scan on the A#v index: ``low <op> attribute <op> high``."""

    low: Value | None = None
    high: Value | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    algorithm: str | None = None  # None = context default

    strategy = "av-range"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        predicate = self.pattern.predicate
        if not isinstance(predicate, Literal):
            raise PlanningError("AvRangeScan needs a literal predicate")
        key_range = av_value_range(
            str(predicate.value), self.low, self.high, self.low_inclusive, self.high_inclusive
        )
        return self._range_groups(ctx, key_range, IndexKind.AV)

    def _label(self) -> str:
        lo_bracket = "[" if self.low_inclusive else "("
        hi_bracket = "]" if self.high_inclusive else ")"
        return (
            f"AvRangeScan {self.pattern} "
            f"{lo_bracket}{self.low}, {self.high}{hi_bracket}"
            + (f" alg={self.algorithm}" if self.algorithm else "")
        )


@dataclass
class AvPrefixScan(_ScanBase):
    """Prefix scan over string values of one attribute."""

    prefix: str = ""
    algorithm: str | None = None

    strategy = "av-prefix"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        predicate = self.pattern.predicate
        if not isinstance(predicate, Literal):
            raise PlanningError("AvPrefixScan needs a literal predicate")
        key_range = av_string_prefix_range(str(predicate.value), self.prefix)
        return self._range_groups(ctx, key_range, IndexKind.AV)


@dataclass
class AttributeScan(_ScanBase):
    """Scan every triple of one attribute (whole A#v subtree)."""

    algorithm: str | None = None

    strategy = "attribute-scan"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        predicate = self.pattern.predicate
        if not isinstance(predicate, Literal):
            raise PlanningError("AttributeScan needs a literal predicate")
        key_range = av_value_range(str(predicate.value))
        return self._range_groups(ctx, key_range, IndexKind.AV)


@dataclass
class VLookupScan(_ScanBase):
    """Exact lookup on the v index — value known, attribute unknown."""

    strategy = "v-lookup"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        object_ = self.pattern.object
        if not isinstance(object_, Literal):
            raise PlanningError("VLookupScan needs a literal object")
        entries, trace, destination = ctx.pnet.lookup_at(
            v_key(object_.value), start=ctx.coordinator
        )
        bindings = self._bindings(entries, IndexKind.V)
        groups = [(destination.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=trace)


@dataclass
class VRangeScan(_ScanBase):
    """Range scan over the v index (attribute unknown)."""

    low: Value | None = None
    high: Value | None = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    algorithm: str | None = None

    strategy = "v-range"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        key_range = v_value_range(self.low, self.high, self.low_inclusive, self.high_inclusive)
        return self._range_groups(ctx, key_range, IndexKind.V)


@dataclass
class VPrefixScan(_ScanBase):
    """Prefix search over all string values — the paper's substring entry point."""

    prefix: str = ""
    algorithm: str | None = None

    strategy = "v-prefix"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        key_range = v_string_prefix_range(self.prefix)
        return self._range_groups(ctx, key_range, IndexKind.V)


@dataclass
class BroadcastScan(_ScanBase):
    """Fallback when nothing is bound: scan the entire A#v subtree.

    Every triple has exactly one A#v posting, so this enumerates the whole
    store once — the expensive strategy the cost model should avoid unless
    the pattern really binds nothing.
    """

    algorithm: str | None = None

    strategy = "broadcast"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        key_range = KeyRange.subtree(INDEX_TAG[IndexKind.AV])
        return self._range_groups(ctx, key_range, IndexKind.AV)


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
        if distinct_count_filter_threshold(self.text, self.q, self.max_distance) < 1:
            fallback = AttributeScan(pattern=self.pattern, filters=self.filters)
            return fallback.execute(ctx)

        attribute = str(predicate.value)
        candidates: dict[tuple[str, str, Value], Triple] = {}
        branches: list[Trace] = []
        for gram in self._probe_grams():
            entries, trace = ctx.pnet.lookup(qgram_key(gram), start=ctx.coordinator, kind="qgram")
            branches.append(trace)
            for entry in entries:
                posting = entry.value
                if not isinstance(posting, Posting) or posting.kind is not IndexKind.QGRAM:
                    continue
                triple = posting.triple
                if triple.attribute != attribute:
                    continue
                candidates.setdefault(triple.as_tuple(), triple)

        within: dict[str, bool] = {}  # many candidates share a value: verify each once
        for value in {t.value for t in candidates.values() if isinstance(t.value, str)}:
            within[value] = edit_distance_within(value, self.text, self.max_distance) is not None
        verified = [t for t in candidates.values() if within.get(t.value, False)]
        bindings = self._bindings_from_triples(verified)
        groups = [(ctx.coordinator.node_id, bindings)] if bindings else []
        return OpResult(groups=groups, trace=Trace.parallel(branches))

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
            merged: list[Binding] = []
            for base in partial:
                for match in matches:
                    if all(base.get(k, v) == v for k, v in match.items() if k in base):
                        combined = dict(base)
                        combined.update(match)
                        merged.append(combined)
            partial = merged
            if not partial:
                return []
        return [b for b in partial if check(b)]

    def _label(self) -> str:
        star = " ".join(str(p) for p in self.patterns)
        return f"OidClusterScan ?{self.subject_variable} [{star}]"
