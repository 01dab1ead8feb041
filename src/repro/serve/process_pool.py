"""Process-based replica pool: true multi-core serving over one shared model.

:class:`~repro.serve.replicas.ThreadReplicaPool` fakes the paper's parallel
engines with Python threads, so CPU-bound ``match_counts_batch`` work serialises on
the GIL.  This module provides the real thing: N worker *processes*, each
running the vectorized batch path against read-only views of a single
:class:`~repro.serve.shared_model.SharedModel` segment — one physical copy of
the profiles and bit-vectors, N cores reading it concurrently, exactly the
shared-read-only-state shape of the paper's hardware (many Bloom engines, one
programmed model).

Topology per worker:

* a ``spawn``-context :class:`multiprocessing.Process` running
  :func:`_worker_main` (spawn keeps workers free of inherited locks/threads,
  so a crashing or forking parent cannot wedge them);
* a duplex :class:`multiprocessing.Pipe` carrying ``("classify", texts,
  trace_ids)`` / ``("segment", texts, trace_ids)`` data frames and
  ``("ok", results, meta)`` replies — documents and trace ids cross the pipe,
  the model never does.  The reply ``meta`` echoes the trace ids (so the
  parent can prove which worker generation served which requests), the
  worker-measured kernel seconds (so serving overhead never pollutes kernel
  timing), and the worker pid.  Control frames (``swap`` / ``stop``) stay
  two-element, and a bare ``(op, texts)`` data frame is still honoured for
  untraced callers;
* a single-thread dispatcher executor that performs the blocking pipe
  round-trip off the event loop, preserving the one-in-flight-batch-per-replica
  discipline of the thread tier.

Crash handling: the dispatcher waits on the pipe *and* the process sentinel,
so a worker dying mid-batch is detected immediately, reported to the caller as
:class:`~repro.serve.errors.WorkerCrashedError`, and the worker is respawned
before the next batch — the pool self-heals.  ``close()`` stops every worker,
joins it (escalating to ``terminate`` after a timeout), and unlinks the
shared segment; a finalizer on the segment covers even an abandoned pool.
"""

from __future__ import annotations

import asyncio
import gc
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import multiprocessing
from multiprocessing import connection

from repro.api.identifier import LanguageIdentifier
from repro.core.classifier import ClassificationResult
from repro.serve.errors import WorkerCrashedError
from repro.serve.replicas import ReplicaPoolBase
from repro.serve.shared_model import SharedModel

__all__ = ["ProcessReplicaPool"]

#: seconds a worker gets to import NumPy + attach the segment before the pool
#: declares it dead (spawn start-up is ~1 s; CI runners can be much slower)
READY_TIMEOUT = 120.0
#: seconds a worker gets to exit after a stop frame before being terminated
STOP_TIMEOUT = 10.0


def _worker_main(conn, segment_name: str, backend: str | None) -> None:
    """Worker process entry point: attach, acknowledge, serve, detach.

    Besides the classify/segment data frames, the worker honours a ``swap``
    control frame carrying the name of a *new* shared-memory segment: it maps
    the new segment, rebuilds its identifier over the new bytes, releases the
    old segment's views and only then drops the old mapping — so from the
    parent's perspective a worker that acked its swap has fully detached from
    the retired segment, and the segment can be unlinked once every worker
    (and finally the parent itself) has let go.
    """
    shared = SharedModel.attach(segment_name)
    identifier = None
    try:
        identifier = shared.identifier(backend=backend)
        conn.send(("ready", identifier.languages))
        while True:
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                break  # parent went away: exit quietly
            # Data frames may carry trace ids as a third element and source
            # tags as a fourth; control frames (stop/swap) are always
            # two-element.
            kind, payload = frame[0], frame[1]
            trace_ids = frame[2] if len(frame) > 2 else None
            sources = frame[3] if len(frame) > 3 else None
            if kind == "stop":
                break
            if kind == "swap":
                try:
                    replacement = SharedModel.attach(payload)
                    try:
                        new_identifier = replacement.identifier(backend=backend)
                    except Exception:
                        replacement.close()
                        raise
                except Exception as exc:  # noqa: BLE001 - must cross the pipe
                    # the old model stays installed; the parent aborts the roll
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                    continue
                # Release the retired segment's views before dropping its
                # mapping (same discipline as shutdown below), then ack.
                identifier = None
                gc.collect()
                shared.close()
                shared, identifier = replacement, new_identifier
                conn.send(("ok", identifier.languages))
                continue
            if kind not in ("classify", "segment"):  # pragma: no cover - protocol guard
                conn.send(("error", f"unknown frame kind {kind!r}"))
                continue
            try:
                kernel_start = time.perf_counter()
                if kind == "segment":
                    results = [identifier.segment(text) for text in payload]
                else:
                    results = identifier.classify_batch(payload, sources=sources)
                meta = {
                    "trace_ids": trace_ids,
                    "kernel_seconds": time.perf_counter() - kernel_start,
                    "pid": os.getpid(),
                }
                conn.send(("ok", results, meta))
            except Exception as exc:  # noqa: BLE001 - must cross the pipe
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()
        # Release the zero-copy views before dropping the mapping so the
        # segment closes cleanly instead of tripping over exported buffers.
        identifier = None  # noqa: F841 - drops the buffer views
        gc.collect()
        shared.close()


@dataclass
class _Worker:
    """Parent-side handle of one replica process."""

    index: int
    process: multiprocessing.Process
    conn: connection.Connection
    ready: bool = field(default=False)


class ProcessReplicaPool(ReplicaPoolBase):
    """``n_replicas`` worker processes sharing one in-memory model copy.

    Parameters
    ----------
    identifier:
        The trained model; serialised once into a shared-memory segment.
    n_replicas:
        Worker process count.  Scaling past the machine's core count buys
        nothing — the sweet spot is ``min(replicas, cores)``.
    on_respawn:
        Optional callback invoked with the replica index every time a crashed
        worker is replaced (the service wires its metrics counter and the
        structured ``worker_respawn`` log event in here).
    """

    executor_kind = "process"

    def __init__(
        self,
        identifier: LanguageIdentifier,
        n_replicas: int = 1,
        on_respawn: Callable[[int], None] | None = None,
    ):
        if n_replicas <= 0:
            raise ValueError("n_replicas must be positive")
        if not identifier.is_trained:
            raise RuntimeError("cannot replicate an untrained identifier")
        self._n_replicas = n_replicas
        self._languages = identifier.languages
        self._backend = identifier.config.backend
        self._on_respawn = on_respawn
        self._rr_next = 0
        self._closed = False
        # Serialises respawn decisions against close(): a dispatcher that
        # detects a crash mid-batch must never spawn a replacement worker
        # after shutdown has started stopping/joining the fleet.
        self._lifecycle = threading.Lock()
        self.respawns_total = 0
        self._shared = SharedModel.create(identifier)
        self._ctx = multiprocessing.get_context("spawn")
        self._workers = [self._spawn(index) for index in range(n_replicas)]
        self._dispatchers = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"repro-serve-dispatch-{i}")
            for i in range(n_replicas)
        ]

    # ------------------------------------------------------------ workers

    @property
    def shared_segment_name(self) -> str:
        """Name of the shared-memory segment every worker maps."""
        return self._shared.name

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._shared.name, self._backend),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its end
        return _Worker(index=index, process=process, conn=parent_conn)

    def _respawn(self, index: int) -> None:
        worker = self._workers[index]
        worker.conn.close()
        if worker.process.is_alive():  # pragma: no cover - half-dead worker
            worker.process.terminate()
        worker.process.join(timeout=STOP_TIMEOUT)
        self._workers[index] = self._spawn(index)
        self.respawns_total += 1
        if self._on_respawn is not None:
            self._on_respawn(index)

    def _recv(self, worker: _Worker, timeout: float | None = None):
        """Blocking receive that notices the worker dying mid-wait."""
        ready = connection.wait([worker.conn, worker.process.sentinel], timeout)
        if worker.conn in ready:
            try:
                return worker.conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerCrashedError(
                    f"replica worker {worker.index} closed its pipe mid-batch"
                ) from exc
        if not ready:
            raise WorkerCrashedError(
                f"replica worker {worker.index} did not answer within {timeout} s"
            )
        raise WorkerCrashedError(
            f"replica worker {worker.index} died (exit code {worker.process.exitcode})"
        )

    def _ensure_ready(self, worker: _Worker) -> None:
        if worker.ready:
            return
        frame = self._recv(worker, timeout=READY_TIMEOUT)
        kind, payload = frame[0], frame[1]
        if kind != "ready":  # pragma: no cover - protocol guard
            raise WorkerCrashedError(
                f"replica worker {worker.index} sent {kind!r} before its ready frame"
            )
        if list(payload) != list(self._languages):  # pragma: no cover - sanity guard
            raise WorkerCrashedError(
                f"replica worker {worker.index} rebuilt different languages {payload!r}"
            )
        worker.ready = True

    def _call(
        self,
        index: int,
        op: str,
        payload,
        contexts: list | None = None,
        sources: list | None = None,
    ) -> list:
        """One blocking request/response round-trip (runs on a dispatcher thread).

        When trace ``contexts`` ride along (data frames only), their ids cross
        the pipe with the batch, the worker's reply must echo them back —
        proving the results came from a worker generation that actually saw
        this batch, across any number of crash/respawn cycles — and each trace
        gets its ``ipc_roundtrip`` / ``kernel`` spans plus the serving worker's
        pid before the results are handed back.  ``sources`` (classify only)
        cross the pipe as an optional fourth frame element for prior-aware
        backends.
        """
        worker = self._workers[index]
        trace_ids = (
            [ctx.trace_id if ctx is not None else None for ctx in contexts]
            if contexts
            else None
        )
        if sources is not None:
            frame_out = (op, payload, trace_ids, sources)
        elif trace_ids is not None:
            frame_out = (op, payload, trace_ids)
        else:
            frame_out = (op, payload)
        try:
            self._ensure_ready(worker)
            try:
                worker.conn.send(frame_out)
            except (BrokenPipeError, OSError) as exc:
                raise WorkerCrashedError(
                    f"replica worker {index} pipe is broken (worker died?)"
                ) from exc
            frame = self._recv(worker)
        except WorkerCrashedError:
            with self._lifecycle:
                if not self._closed:
                    self._respawn(index)
            raise
        kind, reply = frame[0], frame[1]
        meta = frame[2] if len(frame) > 2 else None
        if kind == "error":
            raise RuntimeError(f"replica worker {index} failed to {op}: {reply}")
        if trace_ids is not None:
            echoed = (meta or {}).get("trace_ids")
            if echoed is not None and list(echoed) != trace_ids:
                raise RuntimeError(
                    f"replica worker {index} echoed trace ids {echoed!r} "
                    f"for a batch tagged {trace_ids!r}"
                )
            self._record_dispatch(
                contexts,
                float((meta or {}).get("kernel_seconds", 0.0)),
                worker_pid=(meta or {}).get("pid"),
            )
        return reply

    # ------------------------------------------------------------ classification

    async def classify_batch(
        self,
        replica_index: int,
        texts: Sequence[str | bytes],
        contexts: Sequence | None = None,
        sources: Sequence[str | None] | None = None,
    ) -> list[ClassificationResult]:
        """Run one worker's vectorized batch path off the event loop.

        ``sources`` only cross the pipe when at least one document carries a
        tag — untagged batches keep the compact two/three-element frame.
        """
        if self._closed:
            raise RuntimeError("replica pool is closed")
        source_list = list(sources) if sources is not None else None
        if source_list is not None and all(source is None for source in source_list):
            source_list = None
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._dispatchers[replica_index],
            self._call,
            replica_index,
            "classify",
            list(texts),
            list(contexts) if contexts else None,
            source_list,
        )

    async def segment_batch(
        self, replica_index: int, texts: Sequence[str | bytes], contexts: Sequence | None = None
    ) -> list:
        """Run one worker's windowed segmentation over a batch off the event loop."""
        if self._closed:
            raise RuntimeError("replica pool is closed")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._dispatchers[replica_index],
            self._call,
            replica_index,
            "segment",
            list(texts),
            list(contexts) if contexts else None,
        )

    # ------------------------------------------------------------ model swap

    async def swap_model(self, identifier: LanguageIdentifier) -> None:
        """Blue/green segment swap: roll every worker onto a new shared model.

        The new (green) model is serialised into a fresh shared-memory
        segment, then each worker is told to remap — one at a time, through
        that worker's own dispatcher, so the remap serialises behind the
        worker's in-flight batch while every other worker keeps serving.  A
        worker acks its swap only after it has detached from the old (blue)
        segment, so once the roll completes the parent holds the last blue
        mapping and can unlink the name.  Any failure mid-roll rolls the
        already-swapped workers back to blue (best effort — a worker that
        crashed was respawned on blue already), unlinks green, and re-raises:
        the pool never serves a mix of models past this method's return.
        """
        if self._closed:
            raise RuntimeError("replica pool is closed")
        if not identifier.is_trained:
            raise RuntimeError("cannot swap to an untrained identifier")
        loop = asyncio.get_running_loop()
        green = SharedModel.create(identifier)
        blue_name = self._shared.name
        swapped: list[int] = []
        try:
            for index in range(self._n_replicas):
                if self._closed:
                    raise RuntimeError("replica pool closed during model swap")
                languages = await loop.run_in_executor(
                    self._dispatchers[index], self._call, index, "swap", green.name
                )
                if list(languages) != list(identifier.languages):  # pragma: no cover
                    raise WorkerCrashedError(
                        f"replica worker {index} installed unexpected languages {languages!r}"
                    )
                swapped.append(index)
            with self._lifecycle:
                if self._closed:
                    raise RuntimeError("replica pool closed during model swap")
                blue = self._shared
                self._shared = green
                self._languages = identifier.languages
        except BaseException:
            for index in swapped:
                try:
                    await loop.run_in_executor(
                        self._dispatchers[index], self._call, index, "swap", blue_name
                    )
                except Exception:
                    pass  # worker died or pool is closing; respawn/close covers it
            green.unlink()
            raise
        # Outside the except: every worker detached from blue before acking,
        # so the parent's own mapping is the last reader and the name frees.
        blue.unlink()

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Stop the workers, join them, and unlink the shared segment.

        Shutdown is *bounded*: workers are stopped (escalating to
        ``terminate`` after :data:`STOP_TIMEOUT`) before the dispatcher
        threads are joined, so a dispatcher blocked on a hung worker's pipe
        observes the death sentinel and fails its in-flight batch with
        :class:`WorkerCrashedError` instead of wedging ``close()`` forever.
        The service drains its micro-batchers before calling this, so in the
        graceful path no batch is in flight by the time workers are stopped.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            # Under the lock: no respawn can start once _closed is set, and
            # the worker list below cannot change under us.
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass  # already dead; join below reaps it
        for worker in self._workers:
            worker.process.join(timeout=STOP_TIMEOUT)
            if worker.process.is_alive():  # pragma: no cover - wedged worker
                worker.process.terminate()
                worker.process.join(timeout=STOP_TIMEOUT)
        # Every worker is now dead, so any dispatcher blocked mid-round-trip
        # has been released by the sentinel; joining them is bounded.
        for dispatcher in self._dispatchers:
            dispatcher.shutdown(wait=True)
        for worker in self._workers:
            worker.conn.close()
        self._shared.unlink()

    def describe(self) -> dict:
        info = super().describe()
        info["executor"] = self.executor_kind
        info["backend"] = self._backend
        info["shared_segment"] = self._shared.name
        info["shared_bytes"] = self._shared.size
        info["respawns_total"] = self.respawns_total
        # Per-worker liveness so health checks can see a dying fleet before
        # the next batch trips over it.
        info["workers"] = [
            {
                "index": worker.index,
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "ready": worker.ready,
            }
            for worker in self._workers
        ]
        return info
