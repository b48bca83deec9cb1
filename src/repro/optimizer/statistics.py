"""Catalog statistics for cost-based planning.

The paper bases cost prediction on "the characteristics of the used overlay
system and the actual data distribution" (§2).  In the real system these
statistics are themselves metadata triples maintained in the network; the
reproduction computes them as a catalog snapshot over the overlay's global
view (equivalent information, zero-message access), refreshed explicitly via
:meth:`CatalogStatistics.from_store`.  The snapshot scans the A#v index only:
it holds exactly one posting per stored triple, so the OID, v and q-gram
postings (most of the store) are never visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.pgrid.network import PGridNetwork
from repro.triples.index import av_index_range
from repro.triples.store import DistributedTripleStore, stored_triples
from repro.triples.triple import Value
from repro.vql.ast import Literal, TriplePattern


@dataclass
class AttributeStats:
    """Per-attribute distribution summary."""

    count: int = 0
    distinct: int = 0
    numeric_min: float | None = None
    numeric_max: float | None = None
    numeric_count: int = 0
    string_count: int = 0
    avg_string_length: float = 0.0


@dataclass
class CatalogStatistics:
    """Data + overlay statistics driving the cost model."""

    num_peers: int = 1
    num_groups: int = 1
    replication: float = 1.0
    avg_link_latency: float = 0.05
    total_triples: int = 0
    distinct_oids: int = 0
    attributes: dict[str, AttributeStats] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_store(
        cls, store: DistributedTripleStore, latency_samples: int = 64
    ) -> "CatalogStatistics":
        pnet = store.pnet
        stats = cls(
            num_peers=len(pnet.peers),
            num_groups=max(1, len(pnet.leaf_groups())),
            replication=len(pnet.peers) / max(1, len(pnet.leaf_groups())),
            avg_link_latency=_estimate_link_latency(pnet, latency_samples),
        )
        distinct_values: dict[str, set[Value]] = {}
        oids: set[str] = set()
        for triple in stored_triples(pnet.all_entries(av_index_range())):
            stats.total_triples += 1
            oids.add(triple.oid)
            attr = stats.attributes.setdefault(triple.attribute, AttributeStats())
            attr.count += 1
            distinct_values.setdefault(triple.attribute, set()).add(triple.value)
            if isinstance(triple.value, str):
                attr.string_count += 1
                attr.avg_string_length += len(triple.value)
            else:
                attr.numeric_count += 1
                value = float(triple.value)
                if attr.numeric_min is None or value < attr.numeric_min:
                    attr.numeric_min = value
                if attr.numeric_max is None or value > attr.numeric_max:
                    attr.numeric_max = value
        for name, attr in stats.attributes.items():
            attr.distinct = len(distinct_values.get(name, ()))
            if attr.string_count:
                attr.avg_string_length /= attr.string_count
        stats.distinct_oids = len(oids)
        return stats

    # -- overlay quantities ----------------------------------------------------

    def expected_hops(self) -> float:
        """Expected routing hops: O(log2 groups) (paper: logarithmic guarantees)."""
        return max(1.0, math.log2(max(2, self.num_groups)))

    def expected_leaves(self, fraction: float) -> float:
        """Expected number of trie leaves covering a ``fraction`` of the data."""
        return max(1.0, fraction * self.num_groups)

    # -- cardinality estimation ---------------------------------------------------

    def attribute_count(self, attribute: str) -> int:
        stats = self.attributes.get(attribute)
        return stats.count if stats else 0

    def attribute_distinct(self, attribute: str) -> int:
        stats = self.attributes.get(attribute)
        return max(1, stats.distinct) if stats else 1

    def eq_selectivity(self, attribute: str) -> float:
        """Fraction of an attribute's triples matching one value."""
        stats = self.attributes.get(attribute)
        if not stats or not stats.count:
            return 0.0
        return 1.0 / max(1, stats.distinct)

    def range_selectivity(self, attribute: str, low: Value | None, high: Value | None) -> float:
        """Uniform-interpolation estimate of a numeric/string range."""
        stats = self.attributes.get(attribute)
        if not stats or not stats.count:
            return 0.0
        if (
            stats.numeric_count
            and isinstance(low, (int, float, type(None)))
            and isinstance(high, (int, float, type(None)))
            and stats.numeric_min is not None
            and stats.numeric_max is not None
        ):
            span = stats.numeric_max - stats.numeric_min
            if span <= 0:
                return 1.0
            lo = stats.numeric_min if low is None else float(low)
            hi = stats.numeric_max if high is None else float(high)
            overlap = max(0.0, min(hi, stats.numeric_max) - max(lo, stats.numeric_min))
            return min(1.0, overlap / span)
        # Strings (or mixed): fall back to a fixed heuristic fraction.
        if low is None and high is None:
            return 1.0
        return 0.3

    def estimate_pattern(self, pattern: TriplePattern) -> float:
        """Estimated number of bindings a pattern scan produces (pre-filter)."""
        subject_bound = isinstance(pattern.subject, Literal)
        predicate_bound = isinstance(pattern.predicate, Literal)
        object_bound = isinstance(pattern.object, Literal)
        if predicate_bound:
            attribute = str(pattern.predicate.value)  # type: ignore[union-attr]
            count = self.attribute_count(attribute)
            if object_bound:
                estimate = count * self.eq_selectivity(attribute)
            else:
                estimate = float(count)
            if subject_bound:
                estimate = min(estimate, 1.0)
            return estimate
        if subject_bound:
            avg_triples_per_oid = self.total_triples / max(1, self.distinct_oids)
            return max(1.0, avg_triples_per_oid) if not object_bound else 1.0
        if object_bound:
            # Value known, attribute unknown: sum of eq-selectivities.
            return sum(stats.count / max(1, stats.distinct) for stats in self.attributes.values())
        return float(self.total_triples)


def _estimate_link_latency(pnet: PGridNetwork, samples: int) -> float:
    """Mean of freshly sampled link latencies under the configured model."""
    model = pnet.net.latency_model
    rng_snapshot = pnet.net.rng.getstate()
    total = 0.0
    for _ in range(max(1, samples)):
        total += model.sample_base(pnet.net.rng)
    pnet.net.rng.setstate(rng_snapshot)  # sampling must not perturb the run
    return total / max(1, samples)
