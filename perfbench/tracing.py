"""Span tracing installed from outside the program.

:class:`Tracer` replaces the public entry points of each ``src/repro``
layer with wrappers that record a span (name, start, end, parent) per call
while recording is on, and pass every call through unchanged.  Spans live
in flat arrays in memory and are written out once, at the end.  A span's
self time is its duration minus the time its child spans cover; summed per
layer, self times plus the benchmark's own uncovered time add up to the
traced region.

What runs inside an unwrapped callee counts toward the nearest wrapped
caller.  In particular ``pgrid/keys.py`` helpers count as the
``DataStore`` method that called them, and callbacks the event kernel
fires count as ``net`` unless they call a wrapped function.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = (
    "vql",
    "algebra",
    "optimizer",
    "physical",
    "mqp",
    "triples",
    "strings",
    "pgrid",
    "net",
    "load",
    "core",
)


def _entries(result) -> int:
    """Number of index postings a pgrid read handed back."""
    first = result[0]
    if isinstance(first, dict):
        return sum(len(entries) for entries in first.values())
    if first and isinstance(first[0], tuple):  # [(peer_id, entries), ...]
        return sum(len(entries) for _peer, entries in first)
    return len(first)


#: Layer -> module -> wrapped names (``Class.method`` for methods).  Physical
#: operators' ``execute`` methods are found by :meth:`Tracer.install`.
TARGETS = {
    "vql": {"repro.vql.parser": ["parse"]},
    "algebra": {
        "repro.algebra.plan_builder": ["build_plan"],
        "repro.algebra.rewrite": ["rewrite"],
        "repro.algebra.reference": ["execute_reference"],
        "repro.algebra.semantics": ["match_pattern", "skyline_of"],
    },
    "optimizer": {
        "repro.optimizer.planner": ["Planner.plan", "Planner.plan_scan"],
        "repro.optimizer.statistics": ["CatalogStatistics.from_store"],
    },
    "physical": {"repro.physical.base": ["match_postings"]},
    "mqp": {"repro.mqp.executor": ["execute_mutant_plan"]},
    "triples": {
        "repro.triples.store": [
            f"DistributedTripleStore.{name}"
            for name in (
                "insert",
                "insert_tuple",
                "insert_tuples_batch",
                "delete",
                "update_value",
                "by_oid",
                "by_oids",
                "by_attribute_value",
                "by_value",
                "attribute_range",
                "attribute_all",
                "attribute_prefix",
                "value_range",
                "value_prefix",
                "qgram_postings",
            )
        ]
    },
    "strings": {
        "repro.strings.edit_distance": ["edit_distance", "edit_distance_within"],
        "repro.strings.qgrams": [
            "qgrams",
            "positional_qgrams",
            "qgram_overlap",
            "count_filter_threshold",
            "distinct_count_filter_threshold",
        ],
    },
    "pgrid": {
        "repro.pgrid.network": [
            f"PGridNetwork.{name}"
            for name in (
                "insert",
                "lookup",
                "lookup_at",
                "insert_many",
                "lookup_many",
                "delete",
                "update",
                "ship",
                "ship_many",
                "all_entries",
            )
        ],
        "repro.pgrid.datastore": ["DataStore.scan", "DataStore.partition"],
        "repro.pgrid.routing": ["route", "route_hops"],
        "repro.pgrid.range_query": [
            "range_query_shower",
            "range_query_shower_groups",
            "range_query_sequential",
            "range_query_sequential_groups",
        ],
        "repro.pgrid.load_balancing": ["rebalance", "split_group", "migrate_peer"],
        "repro.pgrid.updates": ["anti_entropy_round", "sync_pair"],
    },
    "net": {
        "repro.net.network": ["Network.send"],
        "repro.net.scheduler": [
            "EventScheduler.send_at",
            "EventScheduler.chain",
            "EventScheduler.fanout",
            "EventScheduler.run_chains",
            "EventScheduler.run",
        ],
        "repro.net.simulator": ["EventSimulator.run"],
    },
    "load": {
        "repro.load.drivers": [
            "OpenLoopDriver.run",
            "ClosedLoopDriver.run",
            "_OpEngine.launch",
            "_OpEngine._route_leg",
            "_OpEngine._walk",
            "_OpEngine._rejected",
            "_OpEngine._reroute",
            "_OpEngine._arrive",
        ],
        "repro.load.model": ["LoadModel.offer", "LoadModel.admit"],
        "repro.load.diffusion": ["diffuse_route", "pick_member", "choose_replica"],
        "repro.load.shedding": ["HintRegistry.observe", "pick_least_hinted"],
    },
    "core": {
        "repro.core.unistore": [
            "UniStore.execute",
            "UniStore.insert_tuples",
            "UniStore.rebalance",
            "UniStore.refresh_statistics",
        ]
    },
}

#: Postings handed up by pgrid reads, counted where a caller from another
#: layer enters pgrid: name -> f(result) -> postings.
COUNTERS = {
    "PGridNetwork.lookup": _entries,
    "PGridNetwork.lookup_at": _entries,
    "PGridNetwork.lookup_many": _entries,
    "range_query_shower": _entries,
    "range_query_shower_groups": _entries,
    "range_query_sequential": _entries,
    "range_query_sequential_groups": _entries,
}


class Tracer:
    """Wrappers plus the in-memory span store they write to."""

    ROOT = "timed region"

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counts: Counter = Counter()
        self.recording = False
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; call :meth:`uninstall` to restore them."""
        import repro

        modules = {
            info.name: importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
        }
        for layer, by_module in TARGETS.items():
            for module_name, names in by_module.items():
                for dotted in names:
                    self._wrap_target(modules, modules[module_name], dotted, layer)
        from repro.physical.base import PhysicalOperator

        for module_name, module in modules.items():
            if not module_name.startswith("repro.physical."):
                continue
            for _name, cls in inspect.getmembers(module, inspect.isclass):
                if (
                    issubclass(cls, PhysicalOperator)
                    and cls.__module__ == module_name
                    and "execute" in cls.__dict__
                ):
                    self._wrap_target(modules, module, f"{cls.__name__}.execute", "physical")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap_target(self, modules: dict, module, dotted: str, layer: str) -> None:
        if "." not in dotted:
            original = getattr(module, dotted)
            wrapper = self._wrapper(original, dotted, layer)
            # Callers import functions by name, so replace every binding.
            for other in modules.values():
                for attribute, value in list(vars(other).items()):
                    if value is original:
                        self._patches.append((other, attribute, original))
                        setattr(other, attribute, wrapper)
            return
        class_name, method = dotted.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrapper(raw.__func__, dotted, layer))
        else:
            patched = self._wrapper(raw, dotted, layer)
        self._patches.append((cls, method, raw))
        setattr(cls, method, patched)

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _wrapper(self, fn, name: str, layer: str):
        span_id = self._intern(name, layer)
        count = COUNTERS.get(name)
        names, starts, ends, parents = (
            self.span_name,
            self.span_start,
            self.span_end,
            self.span_parent,
        )
        stack, layers, counts, clock = self._stack, self.layers, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(starts)
            parent = stack[-1]
            names.append(span_id)
            parents.append(parent)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None and (parent < 0 or layers[names[parent]] != layer):
                counts[name] += count(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    @contextmanager
    def region(self):
        """Record spans inside this block, under one root span."""
        root = self._intern(self.ROOT, "bench")
        index = len(self.span_start)
        self.span_name.append(root)
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.recording = True
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[index] = time.perf_counter()
            self.recording = False
            self._stack.pop()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds; per-layer self and
        layer-entry seconds (time spent in spans entered from another layer)."""
        count = len(self.span_start)
        starts, ends, parents, names = (
            self.span_start,
            self.span_end,
            self.span_parent,
            self.span_name,
        )
        children = array("d", bytes(8 * count))
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                children[parent] += ends[index] - starts[index]
        calls = Counter()
        inclusive = Counter()
        self_by_name = Counter()
        self_by_layer = Counter()
        entry_by_layer = Counter()
        total = 0.0
        for index in range(count):
            name = names[index]
            layer = self.layers[name]
            duration = ends[index] - starts[index]
            own = duration - children[index]
            calls[name] += 1
            inclusive[name] += duration
            self_by_name[name] += own
            self_by_layer[layer] += own
            parent = parents[index]
            if parent < 0:
                total += duration
            elif self.layers[names[parent]] != layer:
                entry_by_layer[layer] += duration
        return {
            "spans": count,
            "total_s": total,
            "calls": {self.names[i]: n for i, n in calls.items()},
            "inclusive_s": {self.names[i]: s for i, s in inclusive.items()},
            "self_s": {self.names[i]: s for i, s in self_by_name.items()},
            "layer_self_s": dict(self_by_layer),
            "layer_entry_s": dict(entry_by_layer),
        }

    def write(self, path: str) -> None:
        """Spans as gzip CSV: name, layer, start and end (µs), parent row."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,layer,start_us,end_us,parent\n")
            for index in range(len(self.span_start)):
                name = self.span_name[index]
                out.write(
                    f"{self.names[name]},{self.layers[name]},"
                    f"{(self.span_start[index] - origin) * 1e6:.1f},"
                    f"{(self.span_end[index] - origin) * 1e6:.1f},{self.span_parent[index]}\n"
                )
