"""Physical operators (paper §2: "several physical implementations ... each
beneficial in special situations").

Every logical operator has one or more executable strategies here; the
optimizer (:mod:`repro.optimizer`) picks between them with the cost model.
"""

from repro.physical.base import ExecutionContext, OpResult, PhysicalOperator
from repro.physical.joins import IndexNestedLoopJoin, RehashJoin, ShipJoin
from repro.physical.misc import (
    CollectOp,
    FilterOp,
    LeftJoinOp,
    LimitOp,
    ProjectOp,
    SortOp,
    UnionOp,
)
from repro.physical.ranking import SkylineOp, TopNOp
from repro.physical.scans import IndexLookup, IndexRange, OidClusterScan, QGramScan
from repro.physical.simops import NaiveSimilarityJoin, QGramSimilarityJoin

__all__ = [
    "ExecutionContext",
    "OpResult",
    "PhysicalOperator",
    "IndexLookup",
    "IndexRange",
    "OidClusterScan",
    "QGramScan",
    "ShipJoin",
    "IndexNestedLoopJoin",
    "RehashJoin",
    "NaiveSimilarityJoin",
    "QGramSimilarityJoin",
    "TopNOp",
    "SkylineOp",
    "FilterOp",
    "ProjectOp",
    "SortOp",
    "LimitOp",
    "UnionOp",
    "LeftJoinOp",
    "CollectOp",
]
