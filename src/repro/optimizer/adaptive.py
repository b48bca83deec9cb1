"""Adaptive per-peer re-optimization (paper §2).

    "...we derive a cost model for choosing concrete query plans, which is
     repeatedly applied at each peer involved in a query, resulting in an
     adaptive query processing approach."

During mutant-plan execution the peer currently holding the plan knows the
*exact* cardinality of the partial result (unlike the static planner, which
only has estimates).  :func:`choose_next_step` re-runs the cost model with
that ground truth to pick which pending pattern to evaluate next and how:
probe it with per-value index lookups, or scan it and migrate the plan into
the data's region.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.operators import PatternScan
from repro.algebra.semantics import Binding, bound_variables
from repro.optimizer.cost_model import CostModel
from repro.triples.index import probe_index, probe_variable
from repro.vql.ast import Literal


@dataclass(frozen=True)
class Step:
    """The decision for one mutant-plan iteration."""

    scan: PatternScan
    method: str  # "probe-av" | "probe-oid" | "probe-v" | "scan"
    shared_variable: str | None
    estimated_cost: float


def choose_next_step(
    pending: list[PatternScan],
    bindings: list[Binding] | None,
    model: CostModel,
) -> Step:
    """Pick the cheapest next evaluation step given the *actual* state."""
    bound = bound_variables(bindings or ())
    best: Step | None = None
    for scan in pending:
        step = _cost_step(scan, bindings, bound, model)
        if best is None or step.estimated_cost < best.estimated_cost:
            best = step
    assert best is not None  # pending is never empty when called
    return best


def _cost_step(
    scan: PatternScan,
    bindings: list[Binding] | None,
    bound: set[str],
    model: CostModel,
) -> Step:
    pattern = scan.pattern
    stats = model.stats

    # Probing is possible when a bound variable sits in the subject or the
    # object; the index it probes names the step.
    variable = probe_variable(pattern, bound) if bindings is not None else None
    if variable is not None:
        cost = model.parallel_lookups(len({row[variable] for row in bindings if variable in row}))
        method = "probe-" + probe_index(pattern, variable).value  # type: ignore[union-attr]
        return Step(scan, method, variable, model.value(cost))

    # Otherwise: evaluate the pattern with its best standalone access path
    # and migrate the plan (carrying |bindings| rows) into that region.
    rows = stats.estimate_pattern(pattern)
    if isinstance(pattern.subject, Literal) or (
        isinstance(pattern.predicate, Literal) and isinstance(pattern.object, Literal)
    ):
        access = model.lookup()
    elif isinstance(pattern.predicate, Literal):
        attribute = str(pattern.predicate.value)
        fraction = stats.attribute_count(attribute) / max(1, stats.total_triples)
        access = model.range_scan(fraction, "shower", rows)
    elif isinstance(pattern.object, Literal):
        access = model.lookup()
    else:
        access = model.range_scan(1.0, "shower", rows)
    carried = len(bindings) if bindings else 0
    migrate = model.ship_rows(max(1, carried))
    return Step(scan, "scan", None, model.value(access.then(migrate)))
