"""In-memory span recording around calls into the program's layers.

Spans are recorded only by wrappers this module installs on public entry
points of ``repro`` (and removes again); nothing under ``src/`` knows about
them.  Each thread gets its own buffer: calls made on one thread nest
strictly, so a span's parent is the span open on that thread when it began,
and a layer's *self time* is its duration minus the durations of its direct
children.

Serving spans that outlive one synchronous call (a request's coroutine, a
batch's pool call) interleave on the event loop, so they are kept as
separate event lists keyed by the request's trace id instead.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "SpanRecorder",
    "SpanTable",
    "layer_totals",
    "install_library_spans",
    "install_serving_spans",
]


class _ThreadBuffer:
    """Spans of one thread, stored column-wise as plain lists."""

    __slots__ = ("names", "starts", "ends", "parents", "counts", "stack")

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: list[int] = []
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0)
        self.counts.append(0)
        self.stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int, count: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self.counts[index] = count
        self.stack.pop()


@dataclass
class SpanTable:
    """All synchronous spans of a traced run as parallel arrays.

    ``parent`` indexes into the same table (``-1`` for a root); ``start`` and
    ``end`` are ``time.perf_counter_ns`` readings, which share one monotonic
    clock across the processes of a machine.
    """

    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    count: np.ndarray
    events: dict = field(default_factory=dict)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        child_time = np.zeros(self.name.size, dtype=np.int64)
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.duration[has_parent])
        return self.duration - child_time

    def roots(self) -> np.ndarray:
        """Index of each span's root span."""
        root = np.arange(self.name.size)
        while True:
            parent = self.parent[root]
            moved = parent >= 0
            if not moved.any():
                return root
            root = np.where(moved, parent, root)

    def since(self, t0_ns: int) -> "SpanTable":
        """Spans whose root began at or after ``t0_ns`` (parents re-indexed)."""
        keep = self.start[self.roots()] >= t0_ns
        new_index = np.cumsum(keep) - 1
        parent = self.parent[keep]
        parent = np.where(parent >= 0, new_index[np.maximum(parent, 0)], -1)
        events = {
            "requests": [r for r in self.events.get("requests", []) if r[1] >= t0_ns],
            "submits": {k: t for k, t in self.events.get("submits", {}).items() if t >= t0_ns},
            "pool_calls": [p for p in self.events.get("pool_calls", []) if p[0] >= t0_ns],
        }
        return SpanTable(
            self.name[keep], self.start[keep], self.end[keep], parent,
            self.count[keep], events,
        )

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path, name=self.name, start=self.start, end=self.end,
            parent=self.parent, count=self.count,
            events=np.frombuffer(json.dumps(self.events).encode("utf-8"), dtype=np.uint8),
        )

    @classmethod
    def load(cls, path: Path) -> "SpanTable":
        with np.load(path, allow_pickle=False) as data:
            return cls(
                data["name"], data["start"], data["end"], data["parent"], data["count"],
                json.loads(data["events"].tobytes().decode("utf-8")),
            )


def layer_totals(table: SpanTable, scale=None) -> dict[str, dict[str, float]]:
    """Per span name: number of spans, summed self and inclusive ns, summed counts.

    ``scale`` (one factor per span) multiplies the times.
    """
    scale = np.ones(table.name.size) if scale is None else np.asarray(scale)
    self_ns = table.self_time() * scale
    total_ns = table.duration * scale
    totals = {}
    for name in np.unique(table.name):
        mask = table.name == name
        totals[str(name)] = {
            "spans": int(mask.sum()),
            "self_ns": float(self_ns[mask].sum()),
            "total_ns": float(total_ns[mask].sum()),
            "count": int(table.count[mask].sum()),
        }
    return totals


class SpanRecorder:
    """Installs span wrappers, keeps spans in memory, and removes the wrappers."""

    def __init__(self):
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: serving events: request spans, queue submissions, pool calls
        self.requests: list[tuple[str, int, int]] = []
        self.submits: dict[str, int] = {}
        self.pool_calls: list[tuple[int, int, list[str]]] = []

    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    # ------------------------------------------------------------ wrappers

    def _patch(self, owner, attribute: str, replacement) -> None:
        # restore exactly what the owner held (a class-level function, not the
        # bound method getattr would give back)
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def wrap(self, owner, attribute: str, name: str, count) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``.

        ``count(args, result)`` gives the work count stored with the span.
        """
        original = owner.__dict__[attribute]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            buffer = recorder._buffer()
            index = buffer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                buffer.close(index, 0)
                raise
            buffer.close(index, count(args, result))
            return result

        self._patch(owner, attribute, traced)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (latest patch first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------ export

    def table(self) -> SpanTable:
        """Every recorded synchronous span, with parents indexing the table."""
        names, starts, ends, parents, counts = [], [], [], [], []
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            size = len(buffer.ends)
            names += buffer.names[:size]
            starts += buffer.starts[:size]
            ends += buffer.ends[:size]
            counts += buffer.counts[:size]
            parents += [p + offset if p >= 0 else -1 for p in buffer.parents[:size]]
            offset += size
        return SpanTable(
            np.asarray(names, dtype=str),
            np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
            np.asarray(parents, dtype=np.int64),
            np.asarray(counts, dtype=np.int64),
            {
                "requests": self.requests,
                "submits": self.submits,
                "pool_calls": self.pool_calls,
            },
        )


def _size(position: int):
    return lambda args, result: int(np.asarray(args[position]).size)


def install_library_spans(recorder: SpanRecorder, backend_class) -> None:
    """Spans around each library layer of ``classify_batch`` and ``segment``.

    ``backend_class`` is the class of the identifier's backend, whose
    ``ngram_hits`` is the membership probe (hashing included).
    """
    from repro.api import backends
    from repro.api.identifier import LanguageIdentifier
    from repro.core.ngram import NGramExtractor
    from repro.hashes.base import HashFamily
    from repro.segment import segmenter
    from repro.segment.windows import WindowedScorer

    recorder.wrap(LanguageIdentifier, "classify_batch", "classify_batch",
                  lambda args, result: len(result))
    recorder.wrap(LanguageIdentifier, "segment", "segment", lambda args, result: 1)
    recorder.wrap(NGramExtractor, "extract", "extract", lambda args, result: int(result.size))
    recorder.wrap(HashFamily, "hash_all", "hash", _size(1))
    recorder.wrap(backend_class, "ngram_hits", "hits", _size(1))
    recorder.wrap(backends, "segment_sums", "reduce", _size(1))
    recorder.wrap(LanguageIdentifier, "_result_from_counts", "result", lambda args, result: 1)
    recorder.wrap(WindowedScorer, "score", "window", _size(1))
    recorder.wrap(segmenter, "viterbi_labels", "smooth", lambda args, result: len(args[0]))


def install_serving_spans(recorder: SpanRecorder) -> None:
    """Request, queue and pool-call events of the thread-executor service."""
    from repro.serve.batcher import MicroBatcher
    from repro.serve.replicas import ThreadReplicaPool
    from repro.serve.service import ClassificationService

    classify_traced = ClassificationService.__dict__["classify_traced"]
    submit_nowait = MicroBatcher.__dict__["submit_nowait"]
    pool_classify = ThreadReplicaPool.__dict__["classify_batch"]

    @functools.wraps(classify_traced)
    async def traced_classify(self, *args, **kwargs):
        start = time.perf_counter_ns()
        result, ctx = await classify_traced(self, *args, **kwargs)
        recorder.requests.append((ctx.trace_id, start, time.perf_counter_ns()))
        return result, ctx

    @functools.wraps(submit_nowait)
    def traced_submit(self, item):
        future = submit_nowait(self, item)
        ctx = item[1] if isinstance(item, tuple) and len(item) >= 2 else None
        if ctx is not None:
            recorder.submits[ctx.trace_id] = time.perf_counter_ns()
        return future

    @functools.wraps(pool_classify)
    async def traced_pool(self, replica_index, texts, contexts=None, sources=None):
        start = time.perf_counter_ns()
        try:
            return await pool_classify(self, replica_index, texts, contexts, sources)
        finally:
            ids = [ctx.trace_id for ctx in contexts or () if ctx is not None]
            recorder.pool_calls.append((start, time.perf_counter_ns(), ids))

    recorder._patch(ClassificationService, "classify_traced", traced_classify)
    recorder._patch(MicroBatcher, "submit_nowait", traced_submit)
    recorder._patch(ThreadReplicaPool, "classify_batch", traced_pool)
