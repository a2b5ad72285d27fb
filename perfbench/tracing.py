"""Spans around the calls into each boxtrace layer, recorded from outside.

Every wrap target is a public function looked up at the module that calls
it (``boxtrace.evaluate.train_model`` is the name `run_scenario` resolves),
so the program itself is not edited. Wrappers take ``*args, **kwargs`` and
pass them through unchanged, so signature changes in the program do not
break them. A target that no longer exists is reported as absent.

Spans are kept in memory and written once at the end. Parents are tracked
per thread; a span opened on a thread with no open span of its own (the
``classify`` thread pool) takes the innermost open span of the main thread
as its parent, since that is the call that handed it the work.

Each span records wall-clock start and end and the CPU time of its thread.
Per-file costs use the CPU time: in the 8-thread ``classify`` pool a call's
wall time also counts the time it waited for the interpreter lock.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from contextlib import contextmanager

# (module attribute the program calls through, span name = layer.function)
TARGETS = (
    ("boxtrace.cli.load_model", "modelfile.load_model"),
    ("boxtrace.cli.parse_file", "bmff.parse_file"),
    ("boxtrace.cli.classify_tree", "modelfile.classify_tree"),
    ("boxtrace.evaluate.parse_file", "bmff.parse_file"),
    ("boxtrace.evaluate.extract_symbols", "symbols.extract_symbols"),
    ("boxtrace.evaluate.train_model", "modelfile.train_model"),
    ("boxtrace.evaluate.vectorize", "vectorize.vectorize"),
    ("boxtrace.evaluate.predict", "tree.predict"),
    ("boxtrace.evaluate.decision_path", "tree.decision_path"),
    ("boxtrace.evaluate.replay_path", "tree.replay_path"),
    ("boxtrace.modelfile.extract_symbols", "symbols.extract_symbols"),
    ("boxtrace.modelfile.build_vocabulary", "vectorize.build_vocabulary"),
    ("boxtrace.modelfile.filter_vocabulary", "llr.filter_vocabulary"),
    ("boxtrace.modelfile.vectorize", "vectorize.vectorize"),
    ("boxtrace.modelfile.train_tree", "tree.train_tree"),
    ("boxtrace.modelfile.predict", "tree.predict"),
    ("boxtrace.modelfile.decision_path", "tree.decision_path"),
    ("boxtrace.bmff.parse_container", "bmff.parse_container"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "cpu", "parent", "thread",
                 "info")

    def __init__(self, id, name, start, parent, thread):
        self.id, self.name, self.start = id, name, start
        self.parent, self.thread = parent, thread
        self.end = start
        self.cpu = 0.0
        self.info: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_obj(self) -> dict:
        obj = {"id": self.id, "name": self.name, "start": self.start,
               "end": self.end, "cpu": self.cpu, "parent": self.parent,
               "thread": self.thread}
        obj.update(self.info)
        return obj


class CountingStream:
    """Stream proxy counting `read` calls and bytes returned."""

    def __init__(self, inner):
        self._inner = inner
        self.reads = 0
        self.bytes = 0

    def read(self, *args):
        data = self._inner.read(*args)
        self.reads += 1
        self.bytes += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._inner, name)


def count_boxes(tree) -> int:
    stack = list(tree.root.children)
    n = 0
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1].id if parent_stack else None
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    threading.get_ident())
        stack.append(span)
        cpu = time.thread_time()
        try:
            yield span
        finally:
            span.cpu = time.thread_time() - cpu
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _wrapper(self, name, original):
        tracer = self

        if name == "bmff.parse_container":
            def wrapped(stream, *args, **kwargs):
                counted = CountingStream(stream)
                with tracer.span(name) as span:
                    try:
                        tree = original(counted, *args, **kwargs)
                    finally:
                        span.info.update(reads=counted.reads,
                                         bytes=counted.bytes)
                span.info["boxes"] = count_boxes(tree)
                return tree
        elif name == "symbols.extract_symbols":
            def wrapped(*args, **kwargs):
                with tracer.span(name) as span:
                    result = original(*args, **kwargs)
                span.info["distinct"] = len(result)
                return result
        else:
            def wrapped(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)
        return wrapped

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patched = []
        for target, name in TARGETS:
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(target)
                continue
            patched.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.seconds - covered
        return out

    def self_by_name(self) -> dict[str, dict[str, float]]:
        selfs = self.self_seconds()
        table: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += selfs[s.id]
        return table


def _median(values) -> float | None:
    return float(statistics.median(values)) if values else None


def _mean(values) -> float | None:
    return float(statistics.fmean(values)) if values else None


def _percentile(values, q: float) -> float | None:
    """Nearest-rank percentile; None when nothing was measured."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _scaled(value: float | None, factor: float) -> float | None:
    return None if value is None else value * factor


def _walk_tree(root) -> tuple[int, int]:
    """(node count, depth in edges) of a trained tree."""
    nodes, depth = 0, 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if node.left is not None:
            stack.append((node.left, d + 1))
        if node.right is not None:
            stack.append((node.right, d + 1))
    return nodes, depth


def span_values(tracer: Tracer) -> dict[str, float | None]:
    """The per-layer metrics taken from spans; None where the layer was
    never called."""
    selfs = tracer.self_seconds()
    us, ms = 1e6, 1e3

    def secs(name):
        return [s.seconds for s in tracer.by_name(name)]

    def cpu(name):
        return [s.cpu for s in tracer.by_name(name)]

    parse_c = tracer.by_name("bmff.parse_container")
    extracts = tracer.by_name("symbols.extract_symbols")
    runs = tracer.by_name("evaluate.run_scenario")
    trains = tracer.by_name("modelfile.train_model")
    batches = tracer.by_name("cli.batch")
    predicted_files = len(tracer.by_name("tree.predict"))
    predict_s = sum(cpu("tree.predict") + cpu("tree.decision_path")
                    + cpu("tree.replay_path"))

    folds_ms = []
    for run in runs:
        starts = sorted(t.start for t in trains if t.parent == run.id)
        for a, b in zip(starts, starts[1:] + [run.end]):
            folds_ms.append((b - a) * ms)

    def share_self(spans):
        total = sum(s.seconds for s in spans)
        return sum(selfs[s.id] for s in spans) / total if total else None

    return {
        "bmff.parse_us_p50": _scaled(_percentile(cpu("bmff.parse_file"), 50), us),
        "bmff.parse_us_p99": _scaled(_percentile(cpu("bmff.parse_file"), 99), us),
        "bmff.boxes_per_file": _mean([s.info["boxes"] for s in parse_c
                                      if "boxes" in s.info]),
        "bmff.bytes_read_per_file": _mean([s.info["bytes"] for s in parse_c]),
        "bmff.read_calls_per_file": _mean([s.info["reads"] for s in parse_c]),
        "symbols.extract_us_p50": _scaled(_percentile(cpu("symbols.extract_symbols"), 50), us),
        "symbols.distinct_per_file": _mean([s.info["distinct"] for s in extracts
                                            if "distinct" in s.info]),
        "vectorize.vocab_ms_per_fold": _scaled(_mean(secs("vectorize.build_vocabulary")), ms),
        "vectorize.vectorize_us_per_file": _scaled(_mean(cpu("vectorize.vectorize")), us),
        "llr.filter_ms_per_fold": _scaled(_mean(secs("llr.filter_vocabulary")), ms),
        "tree.train_ms_per_fold": _scaled(_mean(secs("tree.train_tree")), ms),
        "tree.predict_us_per_file": predict_s / predicted_files * us if predicted_files else None,
        "modelfile.train_model_ms_per_fold": _scaled(_mean([s.seconds for s in trains]), ms),
        "modelfile.self_ms_per_fold": _scaled(_mean([selfs[s.id] for s in trains]), ms),
        "modelfile.load_ms": _scaled(_median(secs("modelfile.load_model")), ms),
        "modelfile.classify_us_p50": _scaled(_percentile(cpu("modelfile.classify_tree"), 50), us),
        "evaluate.run_s": _median([s.seconds for s in runs]),
        "evaluate.folds": len(folds_ms) / len(runs) if runs else None,
        "evaluate.fold_ms_p50": _percentile(folds_ms, 50),
        "evaluate.fold_ms_max": max(folds_ms, default=None),
        "evaluate.self_share": share_self(runs),
        "cli.batch_ms_p50": _scaled(_percentile([s.seconds for s in batches], 50), ms),
        "cli.self_share": share_self(batches),
    }


def layer_metrics(tracer: Tracer, ctx: dict,
                  complement: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes.

    A layer the passes never call is measured in `complement`, the traced
    run of the workload's complement, and reads 0 only if that never calls
    it either. `ctx` holds what the workload observed outside the spans:
    the models it trained or loaded, their serialized sizes, the fixture
    generation times, the probe results, and the untraced and traced pass
    times.
    """
    spans = span_values(tracer)
    for name, value in span_values(complement).items():
        if spans[name] is None:
            spans[name] = value

    def span(name):
        return spans[name] if spans[name] is not None else 0.0

    models = ctx["models"]
    vocab = [len(mf.full_vocabulary) for mf in models]
    kept = [sum(1 for k in mf.kept if k) for mf in models]
    shapes = [_walk_tree(mf.model.root) for mf in models]
    untraced, traced = ctx["untraced_s"], ctx["traced_s"]

    values = {
        "bmff.parse_us_p50": (span("bmff.parse_us_p50"), "us"),
        "bmff.parse_us_p99": (span("bmff.parse_us_p99"), "us"),
        "bmff.boxes_per_file": (span("bmff.boxes_per_file"), "count"),
        "bmff.bytes_read_per_file": (span("bmff.bytes_read_per_file"), "bytes"),
        "bmff.read_calls_per_file": (span("bmff.read_calls_per_file"), "count"),
        "bmff.sparse_twin_ratio": (ctx["sparse_twin_ratio"], "ratio"),
        "bmff.parse_s_200k_boxes": (ctx["parse_s_200k_boxes"], "s"),
        "bmff.deep_nesting_escapes": (ctx["deep_nesting_escapes"], "count"),
        "symbols.extract_us_p50": (span("symbols.extract_us_p50"), "us"),
        "symbols.distinct_per_file": (span("symbols.distinct_per_file"), "count"),
        "vectorize.vocab_ms_per_fold": (span("vectorize.vocab_ms_per_fold"), "ms"),
        "vectorize.vectorize_us_per_file": (span("vectorize.vectorize_us_per_file"), "us"),
        "vectorize.vocab_size": (_median(vocab), "count"),
        "llr.filter_ms_per_fold": (span("llr.filter_ms_per_fold"), "ms"),
        "llr.kept": (_median(kept), "count"),
        "llr.kept_ratio": (_median([k / v for k, v in zip(kept, vocab) if v]), "ratio"),
        "tree.train_ms_per_fold": (span("tree.train_ms_per_fold"), "ms"),
        "tree.nodes": (_median([n for n, _ in shapes]), "count"),
        "tree.depth": (_median([d for _, d in shapes]), "count"),
        "tree.predict_us_per_file": (span("tree.predict_us_per_file"), "us"),
        "modelfile.train_model_ms_per_fold": (span("modelfile.train_model_ms_per_fold"), "ms"),
        "modelfile.self_ms_per_fold": (span("modelfile.self_ms_per_fold"), "ms"),
        "modelfile.load_ms": (span("modelfile.load_ms"), "ms"),
        "modelfile.model_bytes": (_median(ctx["model_bytes"]), "bytes"),
        "modelfile.classify_us_p50": (span("modelfile.classify_us_p50"), "us"),
        "evaluate.run_s": (span("evaluate.run_s"), "s"),
        "evaluate.folds": (span("evaluate.folds"), "count"),
        "evaluate.fold_ms_p50": (span("evaluate.fold_ms_p50"), "ms"),
        "evaluate.fold_ms_max": (span("evaluate.fold_ms_max"), "ms"),
        "evaluate.self_share": (span("evaluate.self_share"), "ratio"),
        "cli.batch_ms_p50": (span("cli.batch_ms_p50"), "ms"),
        "cli.self_share": (span("cli.self_share"), "ratio"),
        "fixtures.generate_s": (_median(ctx["generate_s"]), "s"),
        "trace.overhead_pct": ((_median(traced) - _median(untraced))
                               / _median(untraced) * 100, "%"),
        "trace.absent_targets": (float(len(tracer.absent)), "count"),
    }
    return values
