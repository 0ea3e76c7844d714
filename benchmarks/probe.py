"""Outside-in layer probe for the traced run.

``Probe.install()`` replaces priorityrank's public functions, the ``row``
method of every distance kind, ``Graph``'s constructor and lazy views, and
``RngStream.generator`` with timing wrappers, in every namespace of the
package that bound them; ``Probe.remove()`` puts the originals back.  Nothing
under ``src/`` changes.  Each wrapper records a span (bucket, start, end,
parent span, thread, process) and exact work counts; ``Probe.layer_metrics``
turns the spans into per-layer self times and counts.

A span's self time is its duration minus the union of its children's
intervals.  Work that ``generate`` hands to its thread pool is recorded in
the worker thread as a child of the submitting span, so layer times are
summed over threads and can exceed wall time when threads overlap.  Work in
child processes is not seen: the probe reports their CPU time as unmeasured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import resource
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

PACKAGE = "priorityrank"
LAYERS = ("graph", "distance", "ranking", "generate", "metrics", "stats", "recreate", "cli")

# Named functions per layer and the bucket their self time goes to.  Every
# other public function of a layer module goes to the "*" bucket.  A named
# function that is missing is reported as unseen, so a rename shows.
BUCKETS = {
    "graph": {"load_edge_list": "graph.io", "save_edge_list": "graph.io",
              "load_attributes": "graph.io", "save_attributes": "graph.io", "*": "graph.build"},
    "distance": {"build_training_set": "distance.fit", "fit_linear_regression_distance": "distance.fit",
                 "fit_naive_bayes_distance": "distance.fit", "reference_centralities": "distance.reference",
                 "*": "distance.other"},
    "ranking": {"sample_targets": "ranking.sample", "build_local_ranking": "ranking.build",
                "*": "ranking.build"},
    "generate": {"priority_rank_generate": "generate.self", "*": "generate.self"},
    "metrics": {"network_profile": "metrics.profile", "betweenness_centrality": "metrics.betweenness",
                "closeness_centrality": "metrics.closeness", "pagerank_centrality": "metrics.pagerank",
                "transitivity": "metrics.transitivity", "*": "metrics.other"},
    "stats": {"ks_two_sample": "stats.ks", "*": "stats.other"},
    "recreate": {"recreate": "recreate.self", "compare_networks": "recreate.self", "*": "recreate.self"},
    "cli": {"main": "cli.self", "*": "cli.self"},
}

# Functions that run one all-sources shortest-path sweep per call; the
# sweep_sources count adds g.n for each (network_profile's own loop included).
SWEEPS = ("betweenness_centrality", "closeness_centrality", "diameter", "avg_path_length",
          "shortest_path_summary", "network_profile")

# Graph's lazily built views count as graph build time.
GRAPH_VIEWS = ("arc_list", "arc_array", "out_adj", "in_adj", "out_degrees", "in_degrees", "total_degrees")

PER_LAYER = (
    "graph.build_s", "graph.builds", "graph.io_s", "graph.io_bytes",
    "distance.row_s", "distance.rows", "distance.fit_s", "distance.training_pairs",
    "distance.reference_s", "distance.other_s",
    "ranking.build_s", "ranking.builds", "ranking.sample_s", "ranking.draws",
    "generate.self_s", "generate.graphs",
    "metrics.profile_s", "metrics.betweenness_s", "metrics.closeness_s", "metrics.pagerank_s",
    "metrics.transitivity_s", "metrics.other_s", "metrics.sweep_sources",
    "stats.ks_s", "stats.ks_tests", "stats.rng_s", "stats.rng_streams", "stats.other_s",
    "recreate.self_s", "recreate.wall_s", "recreate.cpu_s", "recreate.candidates",
    "recreate.candidates_failed", "recreate.generated_graphs",
    "cli.self_s",
)

_BUCKET, _T0, _T1, _PARENT, _THREAD, _COUNTS, _NAME, _CPU0, _CPU1 = range(9)


def _text_bytes(value) -> int:
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    return len(value) if isinstance(value, (bytes, bytearray)) else 0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Probe:
    def __init__(self):
        self._spans: dict[int, list] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self.problems: list[str] = []
        self._child_cpu0 = 0.0
        self.child_cpu_s = 0.0
        self.layer_self = {layer: 0.0 for layer in LAYERS}

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, bucket: str, name: str, counter=None, cpu: bool = False):
        probe = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = probe._stack()
            span = [bucket, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident(), None, name, 0.0, 0.0]
            index = next(probe._ids)
            probe._spans[index] = span
            stack.append(index)
            if cpu:
                span[_CPU0] = time.process_time()
            span[_T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_T1] = time.perf_counter()
                if cpu:
                    span[_CPU1] = time.process_time()
                stack.pop()
            if counter is not None:
                try:
                    span[_COUNTS] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    probe.problems.append(f"counter for {name} failed: {exc!r}")
            return result

        return traced

    def _pool_class(self):
        """A ThreadPoolExecutor whose tasks run as spans under the submitting span."""
        probe = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = probe._stack()
                parent = stack[-1] if stack else -1
                bucket = probe._spans[parent][_BUCKET] if parent >= 0 else "generate.self"
                task = probe._wrap(fn, bucket, "pool_task")

                def adopted(*a, **kw):
                    own = probe._stack()
                    own.append(parent)
                    try:
                        return task(*a, **kw)
                    finally:
                        own.pop()

                return super().submit(adopted, *args, **kwargs)

        return TracedPool

    # -- installing ---------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [package] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                                  for info in pkgutil.iter_modules(package.__path__)]
        for extra in sorted({ns.__name__ for ns in namespaces} - {m.__name__ for m in modules.values()} - {PACKAGE}):
            self.problems.append(f"module {extra} is not a probed layer; its time is charged to its callers")

        graph_mod, stats_mod = modules["graph"], modules["stats"]
        counters = self._counters(graph_mod.Graph)
        for layer, module in modules.items():
            table = BUCKETS[layer]
            for name in table:
                if name != "*" and not inspect.isfunction(getattr(module, name, None)):
                    self.problems.append(f"{layer}.{name} not found; its time is charged to its callers")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                bucket = table.get(name, table["*"])
                wrapped = self._wrap(fn, bucket, f"{layer}.{name}", counters.get((layer, name)),
                                     cpu=(layer, name) == ("recreate", "recreate"))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._replace(ns, attr, wrapped)

        graph_cls = graph_mod.Graph
        self._replace(graph_cls, "__init__", self._wrap(graph_cls.__init__, "graph.build", "graph.Graph",
                                                        lambda a, k, r: {"graph.builds": 1}))
        for view in GRAPH_VIEWS:
            self._wrap_cached(graph_cls, view, "graph.build")
        self._wrap_cached(stats_mod.RngStream, "generator", "stats.rng", {"stats.rng_streams": 1})
        for cls in _subclasses(modules["distance"].DistanceFunction):
            if "row" in cls.__dict__:
                self._replace(cls, "row", self._wrap(cls.__dict__["row"], "distance.row", f"distance.{cls.__name__}.row",
                                                     lambda a, k, r: {"distance.rows": 1}))
        pool = self._pool_class()
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is ThreadPoolExecutor:
                    self._replace(ns, attr, pool)
        self._child_cpu0 = _children_cpu()

    def _wrap_cached(self, cls, attr: str, bucket: str, counts: dict | None = None) -> None:
        prop = cls.__dict__.get(attr)
        if not isinstance(prop, cached_property):
            self.problems.append(f"{cls.__name__}.{attr} is not a cached property; not probed")
            return
        counter = (lambda a, k, r: counts) if counts else None
        new = cached_property(self._wrap(prop.func, bucket, f"{cls.__name__}.{attr}", counter))
        new.__set_name__(cls, attr)
        self._replace(cls, attr, new)

    def remove(self) -> None:
        self.child_cpu_s = _children_cpu() - self._child_cpu0
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @staticmethod
    def _counters(graph_cls) -> dict:
        def io_in(a, k, r):
            return {"graph.io_bytes": _text_bytes(a[0] if a else k.get("stream"))}

        def io_out(a, k, r):
            return {"graph.io_bytes": _text_bytes(r)}

        def sweep(a, k, r):
            return {"metrics.sweep_sources": a[0].n if a else k["g"].n}

        def graphs(a, k, r):
            return {"generate.graphs": 1} if isinstance(r, graph_cls) else None

        def draws(a, k, r):
            return {"ranking.draws": len(r)}

        def candidates(a, k, r):
            return {"recreate.candidates": len(r.candidates),
                    "recreate.candidates_failed": sum(c.error is not None for c in r.candidates)}

        table = {
            ("graph", "load_edge_list"): io_in, ("graph", "load_attributes"): io_in,
            ("graph", "save_edge_list"): io_out, ("graph", "save_attributes"): io_out,
            ("distance", "build_training_set"): lambda a, k, r: {"distance.training_pairs": len(r.labels)},
            ("ranking", "build_local_ranking"): lambda a, k, r: {"ranking.builds": 1},
            ("ranking", "sample_targets"): draws,
            ("stats", "ks_two_sample"): lambda a, k, r: {"stats.ks_tests": 1},
            ("recreate", "recreate"): candidates,
        }
        for name in SWEEPS:
            table[("metrics", name)] = sweep
        for name in ("priority_rank_generate", "gen_erdos_renyi", "gen_watts_strogatz", "gen_barabasi_albert",
                     "gen_forest_fire", "gen_dorogovtsev_goltsev_mendes", "gen_disassortative"):
            table[("generate", name)] = graphs
        return table

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans; also fills ``layer_self``,
        each layer's total self time."""
        spans = self._spans
        children: dict[int, list[int]] = {}
        for index, span in spans.items():
            children.setdefault(span[_PARENT], []).append(index)
        out = {name: 0.0 for name in PER_LAYER}
        for index, span in spans.items():
            covered = _union(spans[c] for c in children.get(index, ()))
            self_s = max(0.0, span[_T1] - span[_T0] - covered)
            out[span[_BUCKET] + "_s"] += self_s
            self.layer_self[span[_BUCKET].split(".")[0]] += self_s
            for key, value in (span[_COUNTS] or {}).items():
                out[key] += value
            if span[_NAME] == "recreate.recreate":
                out["recreate.wall_s"] += span[_T1] - span[_T0]
                out["recreate.cpu_s"] += span[_CPU1] - span[_CPU0]
            if (span[_COUNTS] or {}).get("generate.graphs") and self._under(index, "recreate.recreate"):
                out["recreate.generated_graphs"] += 1
        return out

    def _under(self, index: int, name: str) -> bool:
        parent = self._spans[index][_PARENT]
        while parent >= 0:
            if self._spans[parent][_NAME] == name:
                return True
            parent = self._spans[parent][_PARENT]
        return False

    def root_time(self, thread: int) -> float:
        """Wall time covered by top-level spans of one thread."""
        return sum(s[_T1] - s[_T0] for s in self._spans.values() if s[_PARENT] < 0 and s[_THREAD] == thread)

    def threads(self) -> int:
        return len({s[_THREAD] for s in self._spans.values()})

    def write_spans(self, path) -> None:
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as fh:
            for index in sorted(self._spans):
                s = self._spans[index]
                fh.write(json.dumps({"id": index, "name": s[_NAME], "bucket": s[_BUCKET], "parent": s[_PARENT],
                                     "start": s[_T0], "end": s[_T1], "thread": s[_THREAD], "pid": pid,
                                     "counts": s[_COUNTS]}) + "\n")


def _union(spans) -> float:
    """Length of the union of the spans' [start, end] intervals."""
    total = 0.0
    end = float("-inf")
    for s in sorted(spans, key=lambda s: s[_T0]):
        start = max(s[_T0], end)
        if s[_T1] > start:
            total += s[_T1] - start
            end = s[_T1]
    return total


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
