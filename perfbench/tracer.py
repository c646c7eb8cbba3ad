"""In-process tracing of sensor-rank's public functions, from outside the package.

`Tracer.install()` replaces each public function of each library module with
a timing wrapper at every import site (for example `sensor_rank.text.normalize`,
`sensor_rank.classify.normalize` and `sensor_rank.cli.vectorize` all point at
the same wrapper), and `uninstall()` puts the originals back. No source file
is edited; only this process sees the wrappers.

Most calls become spans: (name, start, end, parent). Functions called once
per record or per row are aggregated into a call count and a total time
instead, so tracing a 30k-tweet corpus keeps a few hundred spans. A span's
self time is its duration minus the time its children cover, where the
children are its direct child spans and the outermost aggregated calls made
while it was the innermost open span.

With `memory=True`, the functions in MEMORY_LAYERS run under tracemalloc and
their peak traced allocation is recorded; that pass's timings are not used.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

LIBRARY_MODULES = ("text", "corpus", "classify", "forest", "rank", "synth", "keywords")
ALL_MODULES = ("sensor_rank",) + tuple(f"sensor_rank.{m}" for m in LIBRARY_MODULES + ("cli",))

# Called per record, row or candidate: counted and timed in aggregate.
AGGREGATED = frozenset({
    "text.normalize", "text.vectorize", "classify.predict",
    "rank.topic_focus", "rank.overall_focus",
})
# Helpers called only inside per-record functions: wrapping them would add
# overhead to every record and move no time between layers.
UNWRAPPED = frozenset({"text.ngrams", "text.fold_accents"})
MEMORY_LAYERS = frozenset({
    "classify.dataset_from_corpus", "classify.smote", "forest.train_rf", "classify.predict_many",
})


def _tree_nodes(model) -> int:
    total = 0
    stack = list(model.trees)
    while stack:
        node = stack.pop()
        total += 1
        if node.dist is None:
            stack.extend((node.left, node.right))
    return total


def _count(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


# Counters taken at layer boundaries: name -> hook(args, kwargs, result, counts).
_HOOKS = {
    "corpus.load_corpus": lambda a, k, r, c: _count(c, "corpus.records", len(r)),
    "corpus.load_follower_graph": lambda a, k, r, c: _count(c, "corpus.graph_edges", len(r.edges)),
    "text.build_vocabulary": lambda a, k, r, c: _count(c, "text.vocab_terms", len(r)),
    "text.vectorize": lambda a, k, r, c: _count(c, "text.vectorize_nnz", len(r)),
    "classify.smote": lambda a, k, r, c: _count(c, "classify.smote_rows", len(r)),
    "classify.save_model": lambda a, k, r, c: _count(
        c, "classify.model_bytes", Path(a[3] if len(a) > 3 else k["path"]).stat().st_size
    ),
    "forest.train_rf": lambda a, k, r, c: (
        _count(c, "forest.tree_nodes", _tree_nodes(r)),
        # computed as rows x terms x 8 bytes, not measured
        _count(c, "forest.design_matrix_bytes", len(a[0]) * len(a[0].vocab) * 8),
    ),
    "rank.candidate_filter": lambda a, k, r, c: _count(c, "rank.candidates", len(r)),
    "rank.build_transition": lambda a, k, r, c: (
        _count(c, "rank.edges_kept", len(r.rows)),
        _count(c, "rank.edges_dropped", len(a[1].edges) - len(r.rows)),
    ),
    "rank.twitterrank": lambda a, k, r, c: _count(c, "rank.iterations", r.iterations),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    calls: dict[str, list] = field(default_factory=dict)  # name -> [count, total_s]
    counts: dict[str, float] = field(default_factory=dict)
    peaks_mb: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _agg_depth: int = 0
    _restore: list = field(default_factory=list)

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        if name in AGGREGATED:
            tally = self.calls.setdefault(name, [0, 0.0])
            spans, stack = self.spans, self._stack

            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                self._agg_depth += 1
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self._agg_depth -= 1
                    tally[0] += 1
                    tally[1] += dt
                    if not self._agg_depth and stack:
                        spans[stack[-1]].child_s += dt
                if hook:
                    hook(args, kwargs, result, self.counts)
                return result
            return aggregated

        measure_memory = self.memory and name in MEMORY_LAYERS

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if measure_memory:
                tracemalloc.start()
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0), peak)
            if hook:
                hook(args, kwargs, result, self.counts)
            return result
        return spanned

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in ALL_MODULES]
        for short in LIBRARY_MODULES:
            home = importlib.import_module(f"sensor_rank.{short}")
            for attr in home.__all__:
                fn = getattr(home, attr)
                if (not inspect.isfunction(fn) or fn.__module__ != home.__name__
                        or f"{short}.{attr}" in UNWRAPPED):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
                            self._restore.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._restore):
            setattr(module, key, fn)
        self._restore.clear()

    # --- summaries ---------------------------------------------------------

    def total_s(self, name: str) -> float:
        if name in AGGREGATED:
            return self.calls.get(name, [0, 0.0])[1]
        return sum(s.duration for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def call_count(self, name: str) -> int:
        if name in AGGREGATED:
            return self.calls.get(name, [0, 0.0])[0]
        return sum(1 for s in self.spans if s.name == name)
