"""Logical algebra of UniStore (paper §2).

Relational operators (σ, π, ⋈, ∪, OPTIONAL) plus the distributed-triple-store
specials: pattern scans, similarity join, top-N and skyline.  Includes the
AST→plan builder, always-beneficial rewrites, and a centralized reference
executor used as ground truth by the test suite.
"""

from repro.algebra.expressions import (
    Binding,
    Constraint,
    EdistConstraint,
    PrefixConstraint,
    RangeConstraint,
    SubstringConstraint,
    evaluate,
    extract_constraints,
    satisfies,
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
from repro.algebra.plan_builder import build_group, build_plan, order_patterns
from repro.algebra.reference import execute_reference
from repro.algebra.rewrite import fuse_top_n, push_down_filters, rewrite, split_conjunctions
from repro.algebra.semantics import (
    compatible,
    dominates,
    join_key,
    match_pattern,
    merge_bindings,
    order_sort_key,
    pattern_matcher,
    skyline_of,
    skyline_values,
)

__all__ = [
    "LogicalPlan",
    "PatternScan",
    "Selection",
    "Projection",
    "Join",
    "LeftJoin",
    "SimilarityJoin",
    "Union",
    "OrderBy",
    "Limit",
    "TopN",
    "Skyline",
    "build_plan",
    "build_group",
    "order_patterns",
    "rewrite",
    "push_down_filters",
    "split_conjunctions",
    "fuse_top_n",
    "execute_reference",
    "evaluate",
    "satisfies",
    "extract_constraints",
    "Binding",
    "Constraint",
    "RangeConstraint",
    "PrefixConstraint",
    "SubstringConstraint",
    "EdistConstraint",
    "match_pattern",
    "pattern_matcher",
    "merge_bindings",
    "compatible",
    "join_key",
    "order_sort_key",
    "skyline_of",
    "skyline_values",
    "dominates",
]
