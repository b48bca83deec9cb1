"""Cost-based physical planning.

Walks a (rewritten) logical plan bottom-up, generating every applicable
physical strategy per node, costing each with the :class:`CostModel`, and
keeping the cheapest — unless a :class:`PlannerConfig` override forces a
specific strategy (that is how the E4 benchmark compares strategies and how
"influencing the integrated optimizer" from the demo script is realized).

A planner built with ``mutant=True`` (``mode="mqp"``) plans the same tree
but puts a :class:`~repro.mqp.executor.MutantPlanOp` in place of every
maximal join group, so every other operator serves both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import PlanningError
from repro.algebra.expressions import (
    EdistConstraint,
    PrefixConstraint,
    RangeConstraint,
    extract_constraints,
)
from repro.algebra.operators import (
    Join,
    LeftJoin,
    Limit,
    LogicalPlan,
    OrderBy,
    PatternScan,
    Projection,
    Selection,
    SimilarityJoin,
    Skyline,
    TopN,
    Union,
)
from repro.mqp.executor import MutantPlanOp
from repro.optimizer.cost_model import Cost, CostModel
from repro.optimizer.statistics import CatalogStatistics
from repro.physical import (
    CollectOp,
    FilterOp,
    IndexLookup,
    IndexNestedLoopJoin,
    IndexRange,
    LeftJoinOp,
    LimitOp,
    NaiveSimilarityJoin,
    OidClusterScan,
    PhysicalOperator,
    ProjectOp,
    QGramScan,
    QGramSimilarityJoin,
    RehashJoin,
    ShipJoin,
    SkylineOp,
    SortOp,
    TopNOp,
    UnionOp,
)
from repro.triples.index import (
    av_attribute_range,
    av_index_range,
    av_key,
    av_string_prefix_range,
    av_value_range,
    oid_key,
    probe_index,
    v_key,
    v_string_prefix_range,
    v_value_range,
)
from repro.vql.ast import Expression, Literal, TriplePattern, Var


@dataclass
class PlannerConfig:
    """Optimizer knobs; ``None`` means "let the cost model decide"."""

    join_strategy: str | None = None  # "ship" | "index-nl" | "rehash"
    range_algorithm: str | None = None  # "shower" | "sequential"
    ranking_prune: bool | None = None  # local pruning for top-N/skyline
    use_qgram: bool | None = None  # q-gram strategy for similarity predicates
    latency_weight: float = 1.0
    message_weight: float = 0.001


@dataclass
class Planned:
    """A physical operator plus the estimates the parent needs."""

    op: PhysicalOperator
    cost: Cost
    rows: float
    producers: float = 1.0


class Planner:
    """Logical plan → cheapest physical plan."""

    def __init__(
        self,
        stats: CatalogStatistics,
        config: PlannerConfig | None = None,
        qgram_available: bool = False,
        qgram_q: int = 3,
        mutant: bool = False,
    ):
        self.stats = stats
        self.config = config or PlannerConfig()
        self.model = CostModel(
            stats,
            latency_weight=self.config.latency_weight,
            message_weight=self.config.message_weight,
        )
        self.qgram_available = qgram_available
        self.qgram_q = qgram_q
        # Mutant planning estimates each join group as its optimized plan; a
        # mutant plan picks its own joins, so a forced join strategy is moot.
        self._optimized = (
            Planner(stats, replace(self.config, join_strategy=None), qgram_available, qgram_q)
            if mutant
            else None
        )

    # -- entry point ------------------------------------------------------------

    def plan(self, logical: LogicalPlan) -> PhysicalOperator:
        """Produce the executable physical plan (rooted at a collector)."""
        planned = self._plan(logical)
        return CollectOp(planned.op)

    def plan_with_cost(self, logical: LogicalPlan) -> tuple[PhysicalOperator, Cost]:
        planned = self._plan(logical)
        return CollectOp(planned.op), planned.cost

    def plan_scan(self, scan: PatternScan) -> Planned:
        """Plan a single pattern scan — the physical access path plus its
        estimates, without a collector root (a mutant plan's scan steps run
        these access paths)."""
        return self._plan_scan(scan)

    # -- dispatch ------------------------------------------------------------------

    def _plan(self, node: LogicalPlan) -> Planned:
        if self._optimized is not None:
            group = join_group(node)
            if group is not None:
                return self._plan_mutant(self._optimized._plan(node), *group)
        if isinstance(node, PatternScan):
            return self._plan_scan(node)
        if isinstance(node, Selection):
            child = self._plan(node.child)
            return Planned(
                FilterOp(child.op, node.predicate),
                child.cost,
                rows=max(0.0, child.rows * 0.5),
                producers=child.producers,
            )
        if isinstance(node, Projection):
            child = self._plan(node.child)
            extra = (self.model.ship_rows(child.rows, child.producers) if node.distinct else Cost())
            producers = 1.0 if node.distinct else child.producers
            return Planned(
                ProjectOp(child.op, node.variables, node.distinct),
                child.cost.then(extra),
                rows=child.rows,
                producers=producers,
            )
        if isinstance(node, Join):
            return self._plan_join(node)
        if isinstance(node, SimilarityJoin):
            return self._plan_similarity_join(node)
        if isinstance(node, LeftJoin):
            left = self._plan(node.left)
            right = self._plan(node.right)
            cost = left.cost.alongside(right.cost).then(
                self.model.ship_join(left.rows, left.producers, right.rows, right.producers)
            )
            return Planned(LeftJoinOp(left.op, right.op), cost, rows=max(left.rows, 1.0))
        if isinstance(node, Union):
            children = [self._plan(child) for child in node.inputs]
            cost = Cost()
            for child in children:
                cost = cost.alongside(child.cost)
            return Planned(
                UnionOp(tuple(child.op for child in children)),
                cost,
                rows=sum(child.rows for child in children),
                producers=sum(child.producers for child in children),
            )
        if isinstance(node, OrderBy):
            child = self._plan(node.child)
            cost = child.cost.then(self.model.ship_rows(child.rows, child.producers))
            return Planned(SortOp(child.op, node.items), cost, rows=child.rows)
        if isinstance(node, Limit):
            child = self._plan(node.child)
            cost = child.cost.then(self.model.ship_rows(child.rows, child.producers))
            count = node.count if node.count is not None else child.rows
            return Planned(
                LimitOp(child.op, node.count, node.offset), cost, rows=min(child.rows, count)
            )
        if isinstance(node, TopN):
            child = self._plan(node.child)
            prune = self.config.ranking_prune if self.config.ranking_prune is not None else True
            shipped = (
                min(child.rows, child.producers * (node.n + node.offset))
                if prune
                else child.rows
            )
            cost = child.cost.then(self.model.ranked_collection(child.producers, shipped))
            return Planned(
                TopNOp(child.op, node.items, node.n, node.offset, prune=prune),
                cost,
                rows=float(node.n),
            )
        if isinstance(node, Skyline):
            child = self._plan(node.child)
            prune = self.config.ranking_prune if self.config.ranking_prune is not None else True
            shipped = child.rows**0.6 * child.producers**0.4 if prune else child.rows
            cost = child.cost.then(self.model.ranked_collection(child.producers, shipped))
            return Planned(
                SkylineOp(child.op, node.items, prune=prune),
                cost,
                rows=max(1.0, child.rows**0.5),
            )
        raise PlanningError(f"no physical strategy for {type(node).__name__}")

    def _plan_mutant(
        self, estimate: Planned, scans: list[PatternScan], residual: list[Expression]
    ) -> Planned:
        """A join group as one mutant query plan, whose rows end at the
        coordinator, with the ``estimate`` of its optimized plan."""
        access = tuple((scan, self.plan_scan(scan).op) for scan in scans)
        return Planned(
            MutantPlanOp(access, tuple(residual), self.model), estimate.cost, estimate.rows
        )

    # -- scans ------------------------------------------------------------------------

    def _plan_scan(self, node: PatternScan) -> Planned:
        pattern = node.pattern
        filters = node.filters
        subject_lit = isinstance(pattern.subject, Literal)
        predicate_lit = isinstance(pattern.predicate, Literal)
        object_lit = isinstance(pattern.object, Literal)
        constraints = []
        for expr in filters:
            constraints.extend(extract_constraints(expr))
        object_var = pattern.object.name if isinstance(pattern.object, Var) else None
        algorithm = self.config.range_algorithm

        if subject_lit:
            rows = self.stats.estimate_pattern(pattern)
            # OIDs are strings: a non-string subject probes a key and matches nothing.
            key = oid_key(str(pattern.subject.value))  # type: ignore[union-attr]
            return Planned(
                IndexLookup(pattern, filters, key, "oid-lookup"),
                self.model.lookup(),
                rows=rows,
            )

        if predicate_lit:
            attribute = str(pattern.predicate.value)  # type: ignore[union-attr]
            attr_count = self.stats.attribute_count(attribute)
            total = max(1, self.stats.total_triples)

            if object_lit:
                rows = attr_count * self.stats.eq_selectivity(attribute)
                key = av_key(attribute, pattern.object.value)  # type: ignore[union-attr]
                return Planned(
                    IndexLookup(pattern, filters, key, "av-lookup"),
                    self.model.lookup(),
                    rows=rows,
                )

            # Constraints on the object variable refine the A#v access path.
            eq = _equality_value(constraints, object_var)
            if eq is not None:
                # An equality filter pins the A#v key; scan the single-point
                # range so the variable still gets bound from the triples.
                rows = attr_count * self.stats.eq_selectivity(attribute)
                key_range = av_value_range(attribute, eq, eq)
                return Planned(
                    IndexRange(pattern, filters, key_range, "av-range", algorithm),
                    self.model.lookup(),
                    rows=rows,
                )

            edist = _edist_constraint(constraints, object_var)
            if edist is not None and self.qgram_available:
                use_qgram = self.config.use_qgram if self.config.use_qgram is not None else True
                if use_qgram:
                    grams = len(edist.text) + self.qgram_q - 1
                    cost = self.model.qgram_probe(grams)
                    return Planned(
                        QGramScan(
                            pattern,
                            filters,
                            text=edist.text,
                            max_distance=edist.max_distance,
                            q=self.qgram_q,
                        ),
                        cost,
                        rows=max(1.0, attr_count * 0.01),
                    )

            prefix = _prefix_constraint(constraints, object_var)
            if prefix is not None and prefix.prefix:
                fraction = (attr_count / total) * 0.1
                cost = self.model.range_scan(fraction, algorithm or "shower", attr_count * 0.1)
                key_range = av_string_prefix_range(attribute, prefix.prefix)
                return Planned(
                    IndexRange(pattern, filters, key_range, "av-prefix", algorithm),
                    cost,
                    rows=attr_count * 0.1,
                    producers=self.stats.expected_leaves(fraction),
                )

            low, low_inc, high, high_inc = _range_bounds(constraints, object_var)
            if low is not None or high is not None:
                selectivity = self.stats.range_selectivity(attribute, low, high)
                fraction = (attr_count / total) * max(selectivity, 1e-6)
                rows = attr_count * selectivity
                cost = self.model.range_scan(fraction, algorithm or "shower", rows)
                key_range = av_value_range(attribute, low, high, low_inc, high_inc)
                return Planned(
                    IndexRange(pattern, filters, key_range, "av-range", algorithm),
                    cost,
                    rows=rows,
                    producers=self.stats.expected_leaves(fraction),
                )

            fraction = attr_count / total
            cost = self.model.range_scan(fraction, algorithm or "shower", attr_count)
            key_range = av_attribute_range(attribute)
            return Planned(
                IndexRange(pattern, filters, key_range, "attribute-scan", algorithm),
                cost,
                rows=float(attr_count),
                producers=self.stats.expected_leaves(fraction),
            )

        if object_lit:
            rows = self.stats.estimate_pattern(pattern)
            key = v_key(pattern.object.value)  # type: ignore[union-attr]
            return Planned(
                IndexLookup(pattern, filters, key, "v-lookup"),
                self.model.lookup(),
                rows=rows,
            )

        if object_var is not None:
            prefix = _prefix_constraint(constraints, object_var)
            if prefix is not None and prefix.prefix:
                fraction = 0.05
                cost = self.model.range_scan(fraction, algorithm or "shower", 10)
                key_range = v_string_prefix_range(prefix.prefix)
                return Planned(
                    IndexRange(pattern, filters, key_range, "v-prefix", algorithm),
                    cost,
                    rows=self.stats.total_triples * 0.05,
                    producers=self.stats.expected_leaves(fraction),
                )
            low, low_inc, high, high_inc = _range_bounds(constraints, object_var)
            if low is not None or high is not None:
                fraction = 0.2
                cost = self.model.range_scan(fraction, algorithm or "shower", 10)
                key_range = v_value_range(low, high, low_inc, high_inc)
                return Planned(
                    IndexRange(pattern, filters, key_range, "v-range", algorithm),
                    cost,
                    rows=self.stats.total_triples * 0.2,
                    producers=self.stats.expected_leaves(fraction),
                )

        fraction = 1.0
        cost = self.model.range_scan(fraction, algorithm or "shower", self.stats.total_triples)
        key_range = av_index_range()
        return Planned(
            IndexRange(pattern, filters, key_range, "broadcast", algorithm),
            cost,
            rows=float(self.stats.total_triples),
            producers=float(self.stats.num_groups),
        )

    # -- joins ------------------------------------------------------------------------

    def _plan_join(self, node: Join) -> Planned:
        left = self._plan(node.left)
        shared = sorted(node.join_variables())
        candidates: list[Planned] = []

        # Strategy 0: a star over one subject variable can be answered in one
        # pass over the OID index, keeping complete tuples distributed.
        star = _collect_star(node)
        if star is not None and self.config.join_strategy in (None, "oid-cluster"):
            subject, patterns, star_filters = star
            rows = min(
                (
                    float(self.stats.attribute_count(str(p.predicate.value)))
                    for p in patterns
                    if isinstance(p.predicate, Literal)
                ),
                default=float(self.stats.distinct_oids),
            )
            fraction = 0.4  # the OID index's share of the posting space
            cost = self.model.range_scan(fraction, "shower", rows)
            candidates.append(
                Planned(
                    OidClusterScan(
                        patterns=tuple(patterns),
                        filters=tuple(star_filters),
                        subject_variable=subject,
                    ),
                    cost,
                    rows=rows,
                    producers=self.stats.expected_leaves(fraction),
                )
            )
            if self.config.join_strategy == "oid-cluster":
                return candidates[0]

        # Strategy 1: ship both sides to the coordinator.
        right = self._plan(node.right)
        join_rows = self._estimate_join_rows(node, left.rows, right.rows)
        ship_cost = left.cost.alongside(right.cost).then(
            self.model.ship_join(left.rows, left.producers, right.rows, right.producers)
        )
        candidates.append(
            Planned(ShipJoin(left.op, right.op, tuple(shared)), ship_cost, rows=join_rows)
        )

        # Strategy 2: index nested loop — right side must be a bare pattern.
        right_scan = _as_pattern_scan(node.right)
        if (
            right_scan is not None
            and len(shared) == 1
            and probe_index(right_scan.pattern, shared[0]) is not None
        ):
            probes = max(1.0, left.rows)
            nl_cost = left.cost.then(
                self.model.ship_rows(left.rows, left.producers)
            ).then(self.model.index_nl_join(probes))
            candidates.append(
                Planned(
                    IndexNestedLoopJoin(
                        left.op,
                        right.op,
                        right_pattern=right_scan.pattern,
                        right_filters=right_scan.filters,
                    ),
                    nl_cost,
                    rows=join_rows,
                )
            )

        # Strategy 3: symmetric re-hash at rendezvous peers.
        if shared:
            rehash_cost = left.cost.alongside(right.cost).then(
                self.model.rehash_join(left.rows, right.rows, join_rows)
            )
            candidates.append(
                Planned(RehashJoin(left.op, right.op, tuple(shared)), rehash_cost, rows=join_rows)
            )

        forced = self.config.join_strategy
        if forced is not None:
            for candidate in candidates:
                if candidate.op.strategy == forced:
                    return candidate
            raise PlanningError(f"forced join strategy {forced!r} is not applicable here")
        return min(candidates, key=lambda planned: self.model.value(planned.cost))

    def _plan_similarity_join(self, node: SimilarityJoin) -> Planned:
        left = self._plan(node.left)
        right = self._plan(node.right)
        rows = max(1.0, left.rows * 0.05)

        candidates: list[Planned] = []
        naive_cost = left.cost.alongside(right.cost).then(
            self.model.ship_join(left.rows, left.producers, right.rows, right.producers)
        )
        candidates.append(
            Planned(
                NaiveSimilarityJoin(
                    left.op, right.op, node.left_variable, node.right_variable, node.max_distance
                ),
                naive_cost,
                rows=rows,
            )
        )
        right_scan = _as_pattern_scan(node.right)
        if (
            right_scan is not None
            and self.qgram_available
            and isinstance(right_scan.pattern.object, Var)
            and right_scan.pattern.object.name == node.right_variable.name
        ):
            grams_per_probe = 8 + self.qgram_q - 1  # average word
            qgram_cost = left.cost.then(
                self.model.qgram_probe(grams_per_probe).scaled(max(1.0, left.rows))
            )
            candidates.append(
                Planned(
                    QGramSimilarityJoin(
                        left.op,
                        right_pattern=right_scan.pattern,
                        right_filters=right_scan.filters,
                        left_variable=node.left_variable,
                        right_variable=node.right_variable,
                        max_distance=node.max_distance,
                        q=self.qgram_q,
                    ),
                    qgram_cost,
                    rows=rows,
                )
            )
        use_qgram = self.config.use_qgram
        if use_qgram is True and len(candidates) > 1:
            return candidates[1]
        if use_qgram is False:
            return candidates[0]
        return min(candidates, key=lambda planned: self.model.value(planned.cost))

    def _estimate_join_rows(self, node: Join, left_rows: float, right_rows: float) -> float:
        """Containment-assumption estimate over the shared variables."""
        shared = node.join_variables()
        if not shared:
            return left_rows * right_rows
        distinct = max(left_rows, right_rows, 1.0)
        for scan in (node.left, node.right):
            pattern_scan = _as_pattern_scan(scan)
            if pattern_scan is not None and isinstance(pattern_scan.pattern.predicate, Literal):
                attribute = str(pattern_scan.pattern.predicate.value)
                distinct = min(distinct, self.stats.attribute_distinct(attribute))
        return max(0.0, left_rows * right_rows / max(distinct, 1.0))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def join_group(node: LogicalPlan) -> tuple[list[PatternScan], list[Expression]] | None:
    """The scans and residual predicates of a join group, in pre-order.

    A join group is a subtree of only PatternScan, Selection and Join
    nodes; any other node makes this None.
    """
    scans: list[PatternScan] = []
    residual: list[Expression] = []

    def walk(current: LogicalPlan) -> bool:
        if isinstance(current, PatternScan):
            scans.append(current)
            return True
        if isinstance(current, Selection):
            residual.append(current.predicate)
            return walk(current.child)
        if isinstance(current, Join):
            return walk(current.left) and walk(current.right)
        return False

    return (scans, residual) if walk(node) else None


def _collect_star(node: LogicalPlan) -> tuple[str, list[TriplePattern], list] | None:
    """Detect a join group whose leaves all share one subject variable.

    Returns ``(subject_var, patterns, filters)`` when the whole subtree is a
    star over a single subject with at least two patterns; residual and
    pushed-down predicates become the star's filters.  Otherwise None.
    """
    group = join_group(node)
    if group is None or len(group[0]) < 2:
        return None
    scans, residual = group
    patterns = [scan.pattern for scan in scans]
    subjects = {p.subject.name if isinstance(p.subject, Var) else None for p in patterns}
    if len(subjects) != 1 or None in subjects:
        return None
    return subjects.pop(), patterns, residual + [f for scan in scans for f in scan.filters]


def _as_pattern_scan(node: LogicalPlan) -> PatternScan | None:
    if isinstance(node, PatternScan):
        return node
    if isinstance(node, Selection) and isinstance(node.child, PatternScan):
        # A selection over a scan is still probe-able; merge the predicate.
        scan = node.child
        return PatternScan(scan.pattern, scan.filters + (node.predicate,))
    return None


def _equality_value(constraints, variable: str | None):
    if variable is None:
        return None
    for constraint in constraints:
        if (
            isinstance(constraint, RangeConstraint)
            and constraint.variable == variable
            and constraint.op == "="
        ):
            return constraint.value
    return None


def _edist_constraint(constraints, variable: str | None) -> EdistConstraint | None:
    if variable is None:
        return None
    for constraint in constraints:
        if isinstance(constraint, EdistConstraint) and constraint.variable == variable:
            return constraint
    return None


def _prefix_constraint(constraints, variable: str | None) -> PrefixConstraint | None:
    if variable is None:
        return None
    for constraint in constraints:
        if isinstance(constraint, PrefixConstraint) and constraint.variable == variable:
            return constraint
    return None


def _range_bounds(constraints, variable: str | None):
    """Combine range constraints into (low, low_inclusive, high, high_inclusive)."""
    low = high = None
    low_inc = high_inc = True
    if variable is None:
        return low, low_inc, high, high_inc
    for constraint in constraints:
        if not isinstance(constraint, RangeConstraint) or constraint.variable != variable:
            continue
        value = constraint.value
        if constraint.op in (">", ">="):
            if low is None or _tighter_low(value, constraint.op == ">", low, not low_inc):
                low, low_inc = value, constraint.op == ">="
        elif constraint.op in ("<", "<="):
            if high is None or _tighter_high(value, constraint.op == "<", high, not high_inc):
                high, high_inc = value, constraint.op == "<="
    return low, low_inc, high, high_inc


def _tighter_low(value, strict, current, current_strict) -> bool:
    try:
        if value > current:
            return True
        if value == current and strict and not current_strict:
            return True
    except TypeError:
        return False
    return False


def _tighter_high(value, strict, current, current_strict) -> bool:
    try:
        if value < current:
            return True
        if value == current and strict and not current_strict:
            return True
    except TypeError:
        return False
    return False
