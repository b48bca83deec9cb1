"""Mutant Query Plan engine (paper §2, ref. [7]).

Plans travel through the overlay as self-contained messages carrying their
own partial results; each peer evaluates what it can, re-optimizes the rest
with exact intermediate cardinalities, and forwards the plan.
"""

from repro.mqp.executor import MQPResult, execute_mutant_plan
from repro.mqp.plan import MutantQueryPlan

__all__ = [
    "MutantQueryPlan",
    "MQPResult",
    "execute_mutant_plan",
]
