"""Outside-in tracing of one forestvol query.

The tracer replaces the module attributes that the pipeline's callers
resolve at call time with wrappers that record a span per call: name,
index of the calling span, start and end.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts the originals back.  Spans stay in
memory and are reduced to per-layer numbers only after the run.  A target
that no longer exists raises, so renaming a traced function means updating
TARGETS on purpose.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter

# (module path, attribute path, span name).  Each entry names the attribute
# the caller looks up, e.g. ``coeffs.pattern_counts`` is what
# ``assemble_a`` and ``CoefficientEngine.ensure`` call.
TARGETS = (
    ("forestvol.interpolate", "zero_free_radius", "interpolate.zero_free_radius"),
    ("forestvol.interpolate", "truncation_order", "interpolate.truncation_order"),
    ("forestvol.interpolate", "assemble_a", "interpolate.assemble_a"),
    ("forestvol.coeffs", "pattern_counts", "coeffs.pattern_counts"),
    ("forestvol.coeffs", "small_e", "coeffs.small_e"),
    ("forestvol.coeffs", "newton_log", "coeffs.newton_log"),
    ("forestvol.coeffs", "canonical_form", "coeffs.canonical_form"),
    ("forestvol.graphs", "Graph.induced_subgraph", "graphs.induced_subgraph"),
    ("forestvol.treeweight", "tree_weight", "treeweight.tree_weight"),
    ("forestvol.treeweight", "colored_canonical_form", "treeweight.colored_canonical_form"),
    ("forestvol.treeweight", "WeightCache.normalized_weight", "treeweight.normalized_weight"),
    ("forestvol.kernel", "canon_key", "kernel.canon_key"),
    ("forestvol.kernel", "poset_integral_packed", "kernel.poset_integral_packed"),
)
# A generator: one span per resumption, so its self time excludes the
# consumer's loop body.
GENERATOR_TARGETS = (
    ("forestvol.coeffs", "enumerate_connected_sets", "graphs.enumerate_connected_sets"),
)
ROOT = "interpolate.approximate_volume"


class Tracer:
    def __init__(self) -> None:
        # span i = (name, index of the calling span or -1, start, end); the
        # times are filled in when the call returns
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1]
            spans.append((name, parent, 0.0, 0.0))
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)
            if observe is not None:
                observe(args, out, parent)
            return out

        return traced

    def wrap_generator(self, name: str, fn):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)

            def resume():
                while True:
                    idx = len(spans)
                    parent = stack[-1]
                    spans.append((name, parent, 0.0, 0.0))
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[idx] = (name, parent, t0, clock())
                    counts[name] += 1
                    yield item

            return resume()

        return traced

    def install(self) -> None:
        observers = {
            "coeffs.pattern_counts": self._observe_pattern_counts,
            "kernel.poset_integral_packed": self._observe_poset,
        }
        for targets, generator in ((TARGETS, False), (GENERATOR_TARGETS, True)):
            for modname, path, name in targets:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                if generator:
                    wrapped = self.wrap_generator(name, fn)
                else:
                    wrapped = self.wrap(name, fn, observers.get(name))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _observe_pattern_counts(self, args, out, parent) -> None:
        if parent >= 0 and self.spans[parent][0] == "interpolate.assemble_a":
            self.counts["coeffs.pattern_classes"] += len(out)

    def _observe_poset(self, args, out, parent) -> None:
        self.counts["kernel.poset_max_k"] = max(self.counts["kernel.poset_max_k"], args[0])


def aggregate(spans) -> dict[str, list]:
    """name -> [calls, total seconds, self seconds].

    Self time is a span's duration minus the durations of the spans it
    called; calls are synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, list] = {}
    for (name, _, t0, t1), inner in zip(spans, child_time):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += t1 - t0 - inner
    return out


def layer_metrics(spans, counts, memo, K) -> dict[str, float]:
    """Per-layer numbers of one traced query.

    memo is (hits, misses, entries) of the tree-weight memo over the query.
    """
    agg = aggregate(spans)
    counts = Counter(counts)

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    colored = calls("treeweight.colored_canonical_form")
    hits, misses, entries = memo
    return {
        "graphs.connected_sets": counts["graphs.enumerate_connected_sets"],
        "graphs.induced_subgraph_calls": calls("graphs.induced_subgraph"),
        "graphs.induced_subgraph_s": total("graphs.induced_subgraph"),
        "canon.plain_calls": calls("coeffs.canonical_form"),
        "canon.colored_calls": colored,
        "canon.distinct_ratio": entries / colored if colored else 0.0,
        "kernel.canon_key_calls": calls("kernel.canon_key"),
        "kernel.canon_key_s": total("kernel.canon_key"),
        "coeffs.pattern_classes": counts["coeffs.pattern_classes"],
        "coeffs.pattern_counts_calls": calls("coeffs.pattern_counts"),
        "coeffs.small_e_calls": calls("coeffs.small_e"),
        "coeffs.small_e_self_s": own("coeffs.small_e"),
        "coeffs.newton_log_s": total("coeffs.newton_log"),
        "coeffs.assemble_a_self_s": own("interpolate.assemble_a"),
        "treeweight.trees_weighed": calls("treeweight.tree_weight"),
        "treeweight.memo_hits": hits,
        "treeweight.memo_misses": misses,
        "treeweight.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "treeweight.memo_entries": entries,
        "treeweight.normalized_weight_self_s": own("treeweight.normalized_weight"),
        "treeweight.tree_weight_self_s": own("treeweight.tree_weight"),
        "kernel.poset_integrals": calls("kernel.poset_integral_packed"),
        "kernel.poset_integral_s": total("kernel.poset_integral_packed"),
        "kernel.poset_max_k": counts["kernel.poset_max_k"],
        "interpolate.K": K,
        "interpolate.certificate_s": total("interpolate.zero_free_radius")
        + total("interpolate.truncation_order"),
        "interpolate.self_s": own(ROOT),
    }


def self_time_shares(runs) -> list[tuple[str, int, float, float]]:
    """(name, calls, self seconds, share of the root spans' time), largest
    self time first, summed over the span lists of several queries."""
    agg: dict[str, list] = {}
    for spans in runs:
        for name, row in aggregate(spans).items():
            acc = agg.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
    root = agg.get(ROOT, [0, 0.0, 0.0])[1] or 1.0
    rows = [(name, c, s, s / root) for name, (c, _, s) in agg.items()]
    return sorted(rows, key=lambda r: -r[2])


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}
