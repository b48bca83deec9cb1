"""What every workload hands back to the runner, plus small statistics helpers."""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field

#: Seed of the simulated deployment (overlay, peer speeds, base data).  It
#: is the same in every run; ``--seed`` draws the operations, so runs with
#: different seeds vary the traffic, not the system it hits.
DEPLOYMENT_SEED = 2007


@dataclass
class Measured:
    """One timed region of one workload.

    ``walls`` holds the wall seconds of every timed piece of the region, in
    a fixed order: each operation, background pass or ladder point.
    ``op_pieces`` indexes the pieces that are one operation each (only where
    one operation is one timed call).  ``ops`` are the operations the
    workload counts (background passes such as anti-entropy are timed but
    not counted).  ``sim_latencies`` feed the gated simulated-latency
    percentiles.  ``layer`` holds per-layer figures read from the program's
    public state (message ledgers, route caches, the load model), so a traced
    and an untraced pass report identical values.
    """

    ops: int
    walls: list[float]
    messages: int
    sim_latencies: list[float]
    attempted: int
    failed: int
    correct: bool
    peak_rss_mb: float
    op_pieces: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    def simulated(self) -> tuple:
        """What two passes over one seed must agree on."""
        return (self.ops, self.messages, self.sim_latencies, self.attempted, self.failed)


class HostSpeed:
    """How slowly the host runs a fixed piece of pure-Python work right now.

    The benchmark shares its machine: other tenants slow it by 30-40% for
    minutes at a time, so two sets of identical runs could differ by more
    than the wall metrics' bounds.  A *probe* times a fixed integer loop
    that runs no program code.  The mean probe over :data:`NOMINAL_PROBE_S`
    is the host's slowdown, and the gated wall metrics are scaled by it to
    what they would read on the quiet host.  The program's own speed still
    moves them in full, as the probe does not depend on it.  Of the loops
    tried (integer arithmetic, dict building, method calls, string
    formatting), the integer loop's mean tracked the workloads' own
    slowdowns best; the mean, because interruptions add time.
    """

    #: Mean probe on the quiet host the benchmark was defined on (a 2-vCPU
    #: VM, Python 3.11).
    NOMINAL_PROBE_S = 0.0033
    #: Least wall time between probes while a workload runs.
    PERIOD_S = 0.25
    #: Probes per burst.
    BURST = 3

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    @staticmethod
    def _work() -> int:
        total = 0
        for i in range(50000):
            total += i * i % 7
        return total

    def burst(self) -> float:
        """Take one burst of probes, record each, and return the host's slowdown."""
        times = []
        for _ in range(self.BURST):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        self.samples.extend(times)
        self._last = time.perf_counter()
        return self.slowdown(times)

    def between(self) -> None:
        """Called by workloads between timed pieces: probe once per period."""
        if time.perf_counter() - self._last >= self.PERIOD_S:
            self.burst()

    def slowdown(self, samples: list[float]) -> float:
        return sum(samples) / len(samples) / self.NOMINAL_PROBE_S


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (``p`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    # Weighted sum rather than ``a + (b - a) * f``: with infinite values
    # (failed operations) the difference would be inf - inf or inf * 0.
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def fix_link_latencies(pnet) -> None:
    """Sample every directed link's base latency now, in a fixed order.

    The network samples a link the first time it carries a message, so the
    latency a link gets would otherwise depend on the operation order and
    thus on ``--seed``.  Sampling them all at set-up makes the latency
    matrix part of the fixed deployment.
    """
    ids = sorted(peer.node_id for peer in pnet.peers)
    for src in ids:
        for dst in ids:
            pnet.net.link_latency(src, dst)


def route_cache_totals(pnet) -> tuple[int, int]:
    """Summed route-cache hits and misses over every peer of an overlay."""
    hits = misses = 0
    for peer in pnet.peers:
        hits += peer.route_cache.hits
        misses += peer.route_cache.misses
    return hits, misses


def frame_layer_figures(frame, ops: int, cache_before, cache_after) -> dict:
    """Per-layer figures every workload reads from a stats frame."""
    hits = cache_after[0] - cache_before[0]
    misses = cache_after[1] - cache_before[1]
    figures = {
        "net.bytes_per_op": ratio(frame.bytes, ops),
        "pgrid.route_cache_hit_ratio": ratio(hits, hits + misses),
    }
    for kind, count in frame.by_kind.items():
        figures[f"net.msgs.{kind}"] = count
    return figures
