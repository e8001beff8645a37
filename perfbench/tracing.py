"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces each layer's public function, in every `zsumfree`
module that holds it, with a wrapper that records a span (layer, start, end,
parent span, op id) in memory and adds the layer's work counts.  Because a
module calls its own functions through its globals, nested calls nest: the
walk inside `build_complex` is a child of the `facets` span.  A layer's self
time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter


def _walk(counts, tracer, args, result):
    counts["walk.mnf"] += len(result)


def _facets(counts, tracer, args, result):
    counts["facets.found"] += len(result.facets)
    tracer.built[args[0]] = result.facets


def _fvec(counts, tracer, args, result):
    counts["fvec.faces"] += sum(result)
    counts["fvec.submask_work"] += sum(1 << len(f) for f in args[0].facets)


def _poset(counts, tracer, args, result):
    counts["poset.elements"] += len(result.mobius)
    counts["poset.covers"] += len(result.covers)


def _oracle(counts, tracer, args, result):
    params = args[0]
    counts["oracle.subsets"] += 1 << params.n
    built = tracer.built.get(params)
    counts["oracle.agree"] += built is not None and set(built) == set(result.facets)


def _cache_load(counts, tracer, args, result):
    counts["cache.loads"] += 1
    counts["cache.hits" if result is not None else "cache.misses"] += 1
    path = tracer.cli._cache_path(*args[:2])
    if path.exists():
        counts["cache.bytes_read"] += path.stat().st_size


def _cache_store(counts, tracer, args, result):
    counts["cache.stores"] += 1
    counts["cache.bytes_written"] += tracer.cli._cache_path(*args[:2]).stat().st_size


# (layer, defining module, public function, count hook)
LAYERS = (
    ("walk", "zsumfree.zerosumfree", "minimal_nonfaces", _walk),
    ("facets", "zsumfree.zerosumfree", "build_complex", _facets),
    ("fvec", "zsumfree.complexes", "faces_by_dimension", _fvec),
    ("predicates", "zsumfree.complexes", "f_to_h", None),
    ("predicates", "zsumfree.complexes", "is_pure", None),
    ("predicates", "zsumfree.complexes", "is_connected", None),
    ("predicates", "zsumfree.complexes", "decompose_disjoint_simplices", None),
    ("poset", "zsumfree.arrangements", "build_poset", _poset),
    ("oracle", "zsumfree.zerosumfree", "brute_force_complex", _oracle),
    ("family", "zsumfree.families", "verify_family", None),
    ("cache.load", "zsumfree.cli", "load_cached_payload", _cache_load),
    ("cache.store", "zsumfree.cli", "store_payload", _cache_store),
    ("cli", "zsumfree.cli", "main", None),
)

# Every count and time the summary reports, in output order.
COUNT_METRICS = (
    "walk.calls", "walk.mnf", "facets.calls", "facets.found",
    "fvec.calls", "fvec.faces", "fvec.submask_work",
    "poset.calls", "poset.elements", "poset.covers",
    "oracle.calls", "oracle.subsets", "family.calls",
    "cache.loads", "cache.hits", "cache.misses", "cache.stores",
    "cache.bytes_read", "cache.bytes_written",
)
SELF_TIME_LAYERS = ("walk", "facets", "fvec", "predicates", "poset", "oracle", "family", "cli")


class Tracer:
    """Records spans and counts while an op is open; does nothing otherwise."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self.built: dict = {}         # params -> facets built in the current op
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.cli = None

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.built = {}

    def end_op(self) -> None:
        self.op_id = None

    def _wrap(self, layer, fn, hook):
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [layer, perf_counter(), None, self._stack[-1] if self._stack else None, self.op_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            self.counts[layer + ".calls"] += 1
            if hook is not None:
                hook(self.counts, self, args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every layer function wherever a `zsumfree` module imported it."""
        self.cli = importlib.import_module("zsumfree.cli")
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "zsumfree"]
        for layer, module_name, func_name, hook in LAYERS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(layer, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> Counter:
        """Seconds of self time per layer, over every span recorded so far."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            out[layer] += end - start - child[i]
        return out

    def take(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric over the spans since the last call: name -> (value, unit)."""
        c = self.counts
        times = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name in COUNT_METRICS:
            out[name] = (c[name], "B" if name.startswith("cache.bytes") else "count")
        for layer in SELF_TIME_LAYERS:
            out[layer + ".self_s"] = (float(times[layer]), "s")
        out["oracle.agree_ratio"] = (c["oracle.agree"] / c["oracle.calls"] if c["oracle.calls"] else 0.0, "ratio")
        out["cache.hit_ratio"] = (c["cache.hits"] / c["cache.loads"] if c["cache.loads"] else 0.0, "ratio")
        out["cache.load_s"] = (float(times["cache.load"]), "s")
        out["cache.store_s"] = (float(times["cache.store"]), "s")
        self.spans.clear()
        self.counts.clear()
        return out
