"""Spans and timer-free counters recorded around the calls into xwbench modules.

Nothing inside the package is edited: `Tracer.install` swaps module
attributes for wrappers through `Patches` (the callers look those names up
at call time) and `Tracer.uninstall` puts the originals back.  Spans stay in memory; the
benchmark writes them out when it ends.

Three kinds of wrapper, chosen by how often the call happens:
  call  - one span per call (busy time = end - start);
  each  - one span per (parent span, name) that sums every call under that
          parent, for per-instance calls such as make_covering;
  iter  - one span per generator whose busy time counts only the time spent
          inside the generator, so the consumer's work between items is not
          charged to parsing.
A span's self time is its busy time minus the busy time of its children.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("id", "name", "parent", "cell", "start", "end", "busy", "calls", "dim")

    def __init__(self, id, name, parent, cell, start, dim=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.cell = cell
        self.start = start
        self.end = start
        self.busy = 0.0
        self.calls = 0
        self.dim = dim

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "cell": self.cell,
                "start": self.start, "end": self.end, "busy_s": self.busy,
                "calls": self.calls, "dim": self.dim}


class Patches:
    """Attributes swapped for wrappers; `restore` puts the originals back,
    the last swapped first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def swap(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans, GC activity and operation counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.cell: str | None = None   # id of the unit of work being traced
        self.counts: Counter = Counter()
        self.gc_pause_s = 0.0
        self.doc_bytes: dict[str, int] = {}   # document path -> size
        self.patches = Patches()
        self._each: dict[tuple, Span] = {}
        self._scan_positions: dict[int, dict] = {}
        self._gc_t0 = 0.0

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str, dim: str | None = None) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.cell, time.perf_counter(), dim)
        self.spans.append(span)
        return span

    def wrap_call(self, module, attr: str, name: str | None = None) -> None:
        real = getattr(module, attr)
        name = name or f"{module.__name__.rpartition('.')[2]}.{attr}"

        def traced(*args, **kwargs):
            span = self._open(name)
            span.calls = 1
            self.stack.append(span)
            try:
                return real(*args, **kwargs)
            finally:
                self.stack.pop()
                span.end = time.perf_counter()
                span.busy = span.end - span.start

        self.patches.swap(module, attr, traced)

    def wrap_each(self, module, attr: str) -> None:
        real = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"

        def traced(*args, **kwargs):
            key = (self.stack[-1].id if self.stack else None, name)
            span = self._each.get(key)
            if span is None:
                span = self._each[key] = self._open(name)
            t0 = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.busy += span.end - t0
                span.calls += 1

        self.patches.swap(module, attr, traced)

    def wrap_instances(self, module, attr: str = "iter_instances") -> None:
        """Busy-time span per dimension stream, plus instance/row/byte counts."""
        real = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"

        def traced(in_dir, schema, *args, **kwargs):
            span = self._open(name, dim=schema.id)
            span.calls = 1
            self.counts["bytes_read"] += self.doc_bytes.get(os.path.join(in_dir, schema.path), 0)
            stream = real(in_dir, schema, *args, **kwargs)
            clock, stack, counts = time.perf_counter, self.stack, self.counts
            while True:
                t0 = clock()
                stack.append(span)
                try:
                    inst = next(stream)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    span.end = clock()
                    span.busy += span.end - t0
                counts["instances_loaded"] += 1
                counts["rows_loaded"] += len(inst.rows)
                yield inst

        self.patches.swap(module, attr, traced)

    def count_fact_streams(self, module, attr: str = "iter_facts") -> None:
        """Count fact-document bytes read; no per-fact timing is added."""
        real = getattr(module, attr)

        def counted(in_dir, model, *args, **kwargs):
            self.counts["bytes_read"] += self.doc_bytes.get(os.path.join(in_dir, model.fact_path), 0)
            return real(in_dir, model, *args, **kwargs)

        self.patches.swap(module, attr, counted)

    def count_scan_comparisons(self, cube_class, scan: str) -> None:
        """Key comparisons `list.index` makes under scan matching.

        A hit at position p costs p + 1 comparisons and a miss costs the list
        length; keys are appended in first-seen order, so a dict of first
        positions gives both without scanning again.
        """
        real = cube_class.entry_for
        positions = self._scan_positions

        def entry_for(cube, key):
            if cube.matching == scan:
                seen = positions.get(id(cube))
                if seen is None:
                    seen = positions[id(cube)] = {}
                pos = seen.get(key)
                if pos is None:
                    self.counts["scan_comparisons"] += len(seen)
                    seen[key] = len(seen)
                else:
                    self.counts["scan_comparisons"] += pos + 1
            return real(cube, key)

        self.patches.swap(cube_class, "entry_for", entry_for)

    # --- GC ------------------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        if self.cell is None:
            return
        self.gc_pause_s += time.perf_counter() - self._gc_t0
        self.counts["gc_collections"] += 1
        if info["generation"] == 2:
            self.counts["gc_gen2_collections"] += 1

    # --- lifecycle -------------------------------------------------------------

    def begin(self, cell: str) -> None:
        self.cell = cell
        self._scan_positions.clear()

    def end(self) -> None:
        self.cell = None
        self._scan_positions.clear()

    def install(self) -> None:
        from xwbench import engine_pedersen, generator, harness, workload, xmlio

        for module, attr in ((harness, "run_cell"), (harness, "check_correctness"),
                             (harness, "infer_regime"), (xmlio, "load_dimensions"),
                             (engine_pedersen, "transform_warehouse"), (xmlio, "write_dimension"),
                             (generator, "generate_warehouse"), (xmlio, "write_warehouse")):
            self.wrap_call(module, attr)
        # run_cell calls the name it imported from workload.
        self.wrap_call(harness, "run_query", "workload.run_query")
        self.wrap_each(engine_pedersen, "make_covering")
        self.wrap_each(engine_pedersen, "make_strict")
        self.wrap_instances(xmlio)
        self.count_fact_streams(xmlio)
        self.count_scan_comparisons(workload.ResultCube, workload.MATCH_SCAN)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.patches.restore()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- summaries -------------------------------------------------------------

    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Span id -> busy time minus the busy time of its child spans."""
        own = {s.id: s.busy for s in spans}
        for s in spans:
            if s.parent in own:
                own[s.parent] -= s.busy
        return own

    def totals(self, cell_prefix: str) -> tuple[dict, dict]:
        """Busy and self seconds summed by span name (and by name/dim for
        dimension streams) over spans whose cell id starts with the prefix."""
        spans = [s for s in self.spans if s.cell is not None and s.cell.startswith(cell_prefix)]
        own = self.self_times(spans)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for s in spans:
            key = f"{s.name}.{s.dim}" if s.dim else s.name
            busy[key] += s.busy
            self_s[key] += own[s.id]
            module = s.name.partition(".")[0]
            self_s[f"{module}.*"] += own[s.id]
        return busy, self_s
