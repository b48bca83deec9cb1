"""Mutant-query-plan execution engine.

The plan (pending pattern scans + embedded partial results) migrates through
the overlay.  At every stop the holding peer:

1. re-optimizes — :func:`~repro.optimizer.adaptive.choose_next_step` with the
   *actual* intermediate cardinality (paper: the cost model "is repeatedly
   applied at each peer involved in a query");
2. evaluates the chosen pattern — either by probing the A#v/OID/v index once
   per distinct bound value, or by scanning the pattern's region and
   migrating the plan (with its embedded results) to where those results
   live;
3. joins the new bindings into the embedded result and applies every residual
   filter whose variables are now bound;

until no pattern is pending, then ships the result to the coordinator.
Compared with coordinator-driven execution, intermediate results never bounce
through the coordinator — the trade the E4/E2 measurements expose.

Under event-driven execution (:meth:`PGridNetwork.event_driven`) each stop's
index probes fan out as interleaved events — the per-value lookups of one
probe step overlap in simulated time — while successive stops remain
sequential on the clock, exactly the mutant plan's migration semantics.

In ``mode="mqp"`` the planner plans the query as in ``optimized`` mode and
puts a :class:`MutantPlanOp` in place of every maximal join group, so the
operators above it (union, optional, similarity joins, ranking, projection)
are the same physical operators in both modes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace as dataclass_replace

from repro.errors import ExecutionError
from repro.net.trace import Trace
from repro.algebra.operators import PatternScan
from repro.algebra.semantics import Binding, bound_variables
from repro.mqp.plan import MutantQueryPlan
from repro.optimizer.adaptive import Step, choose_next_step
from repro.optimizer.cost_model import CostModel
from repro.physical.base import (
    ExecutionContext,
    FilterCheck,
    OpResult,
    PhysicalOperator,
    coordinator_result,
    probe_join,
)
from repro.physical.joins import hash_join
from repro.vql.ast import Expression, expression_variables


@dataclass
class MQPResult:
    """Outcome of a mutant-plan run, with the per-stop decision log."""

    bindings: list[Binding]
    trace: Trace
    steps: list[str] = field(default_factory=list)
    complete: bool = True


@dataclass
class MutantPlanOp(PhysicalOperator):
    """One maximal join group run as a mutant query plan.

    ``scans`` pairs every pattern scan of the group with the access operator
    the query's planner chose for it; ``model`` is that planner's cost model.
    The rows end at the coordinator.  After a run its EXPLAIN lines list
    the executed steps.
    """

    scans: tuple[tuple[PatternScan, PhysicalOperator], ...]
    residual_filters: tuple[Expression, ...]
    model: CostModel
    steps: list[str] = field(default_factory=list)

    strategy = "mqp"

    def execute(self, ctx: ExecutionContext) -> OpResult:
        result = execute_mutant_plan(ctx, self.scans, self.residual_filters, self.model)
        self.steps = result.steps
        return coordinator_result(ctx, result.bindings, result.trace, result.complete)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        return "\n".join([pad + self._label(), *(f"{pad}  mqp: {step}" for step in self.steps)])


def execute_mutant_plan(
    ctx: ExecutionContext,
    scans: Sequence[tuple[PatternScan, PhysicalOperator]],
    residual_filters: Sequence[Expression],
    model: CostModel,
) -> MQPResult:
    """Run one group's join tree in mutant-query-plan mode.

    ``scans`` holds ``(scan, access operator)`` pairs: a scan step runs the
    operator the planner chose for that scan.
    """
    if not scans:
        raise ExecutionError("mutant plan needs at least one pattern scan")
    access = dict(scans)
    plan = MutantQueryPlan(
        pending=[scan for scan, _op in scans],
        residual_filters=list(residual_filters),
        bindings=None,
        location=ctx.coordinator.node_id,
    )
    trace = Trace.ZERO
    steps: list[str] = []
    complete = True

    while not plan.is_done():
        step = choose_next_step(plan.pending, plan.bindings, model)
        plan.pending.remove(step.scan)
        if step.method.startswith("probe") and plan.bindings is not None:
            step_trace = _probe(ctx, plan, step)
        else:
            step_trace, step_complete = _scan_and_migrate(ctx, plan, access[step.scan])
            complete = complete and step_complete
        trace = trace.then(step_trace)
        plan.bindings = _apply_ready_filters(plan)
        steps.append(
            f"{step.method} {step.scan.pattern} @ {plan.location} "
            f"-> {len(plan.bindings or [])} rows"
        )
        if plan.bindings is not None and not plan.bindings:
            break  # empty intermediate result: the answer is empty

    rows = plan.bindings or []
    # Deliver the final result to the coordinator.
    if plan.location != ctx.coordinator.node_id and rows:
        trace = trace.then(
            ctx.pnet.ship(plan.location, ctx.coordinator.node_id, "mqp-result", size=len(rows))
        )
    return MQPResult(bindings=rows, trace=trace, steps=steps, complete=complete)


# ---------------------------------------------------------------------------
# Step implementations
# ---------------------------------------------------------------------------


def _probe(ctx: ExecutionContext, plan: MutantQueryPlan, step: Step) -> Trace:
    """Index probes for every distinct bound value, batched by destination."""
    assert plan.bindings is not None and step.shared_variable is not None
    plan.bindings, trace = probe_join(
        ctx,
        plan.bindings,
        step.scan.pattern,
        step.scan.filters,
        step.shared_variable,
        ctx.pnet.net.nodes[plan.location],
        "mqp-probe",
    )
    return trace


def _scan_and_migrate(
    ctx: ExecutionContext, plan: MutantQueryPlan, access: PhysicalOperator
) -> tuple[Trace, bool]:
    """Run the scan's access operator from the plan's holder and move the
    plan into the region it read."""
    holder = ctx.pnet.net.nodes[plan.location]
    result = access.execute(dataclass_replace(ctx, coordinator=holder))

    # The plan migrates to the peer holding the largest share of the scan's
    # result; everything else converges there too.
    carried = len(plan.bindings) if plan.bindings else 0
    if result.groups:
        target_id = max(result.groups, key=lambda group: len(group[1]))[0]
    else:
        target_id = plan.location
    moved = result.shipped_to(ctx, target_id, kind="mqp-migrate")
    trace = moved.trace
    if target_id != plan.location:
        trace = trace.then(
            ctx.pnet.ship(plan.location, target_id, "mqp-migrate", size=max(1, carried))
        )
    plan.location = target_id

    new_rows = moved.all_bindings()
    if plan.bindings is None:
        plan.bindings = new_rows
    else:
        shared = sorted(bound_variables(plan.bindings) & bound_variables(new_rows))
        plan.bindings = hash_join(plan.bindings, new_rows, shared)
    return trace, result.complete


def _apply_ready_filters(plan: MutantQueryPlan) -> list[Binding] | None:
    """Evaluate residual filters whose variables are all bound; keep the rest."""
    if plan.bindings is None:
        return None
    bound = bound_variables(plan.bindings)
    ready = [f for f in plan.residual_filters if expression_variables(f) <= bound]
    if not ready:
        return plan.bindings
    plan.residual_filters = [f for f in plan.residual_filters if f not in ready]
    check = FilterCheck(ready)
    return [row for row in plan.bindings if check(row)]

