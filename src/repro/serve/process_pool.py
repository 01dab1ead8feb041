"""Process-based replica pool: true multi-core serving over one mapped model.

:class:`~repro.serve.replicas.ThreadReplicaPool` runs one replica inline on
the serving thread, so its CPU-bound ``match_counts_batch`` work both
serialises on the GIL and blocks the event loop while it runs.  This module
provides the parallel engines: N worker *processes*, each running the
vectorized batch path on a model it opens with
:func:`~repro.api.persistence.load_model`.  The pool writes the model once to
a ``model.bin`` file in a temporary directory of its own, and every worker
maps that file read-only, so the workers share its page-cache pages: one
physical copy of the profiles and bit-vectors, N cores reading it
concurrently, the shape of the paper's hardware (many Bloom engines, one
programmed model).  The copy is private so that it pins the model: a later
save over the file the service was started from cannot hand a respawned
worker a different model than its siblings serve.

Topology per worker:

* a ``spawn``-context :class:`multiprocessing.Process` running
  :func:`_worker_main` (spawn keeps workers free of inherited locks/threads,
  so a crashing or forking parent cannot wedge them);
* a duplex :class:`multiprocessing.Pipe` carrying ``(op, texts, trace_ids,
  sources)`` data frames (``op`` is ``"classify"`` or ``"segment"``; absent
  trace ids or sources are ``None``) and ``("ok", results, meta)`` replies —
  documents and trace ids cross the pipe, the model never does.  The reply
  ``meta`` echoes the trace ids (so the parent can prove which worker
  generation served which requests), the worker-measured kernel seconds (so
  serving overhead never pollutes kernel timing), and the worker pid.
  Control frames (``swap`` / ``stop``) are two-element.  The parent sends
  every frame as bytes it pickled itself (see :func:`_send`);
* a single-thread dispatcher executor that performs the blocking pipe
  round-trip off the event loop, keeping one batch in flight per replica.

Crash handling: the dispatcher waits on the pipe *and* the process sentinel,
so a worker dying mid-batch is detected immediately, reported to the caller as
:class:`~repro.serve.errors.WorkerCrashedError`, and the worker is respawned
before the next batch — the pool self-heals.  A respawned worker loads the
pool's current file, which the pool first writes again if something (an
age-based temp cleaner) has removed it.  ``close()`` stops every worker,
joins it (escalating to ``terminate`` after a timeout), and removes the
pool's directory; the directory's own finalizer covers an abandoned pool,
and a crashed parent leaves only a file in the temp directory.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import pickle
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import multiprocessing
from multiprocessing import connection

from repro.api.identifier import LanguageIdentifier
from repro.api.persistence import load_model, save_model
from repro.core.classifier import ClassificationResult
from repro.serve.errors import WorkerCrashedError
from repro.serve.replicas import ReplicaPoolBase, run_batch

__all__ = ["ProcessReplicaPool"]

#: seconds a worker gets to import NumPy + load the model before the pool
#: declares it dead (spawn start-up is ~1 s; CI runners can be much slower)
READY_TIMEOUT = 120.0
#: seconds a worker gets to exit after a stop frame before being terminated
STOP_TIMEOUT = 10.0


def _worker_main(conn, model_path: Path, backend: str | None) -> None:
    """Worker process entry point: load, acknowledge, serve.

    Besides the classify/segment data frames, the worker honours a ``swap``
    control frame carrying the path of a *new* model file: it loads the new
    file and only then replaces its identifier, so a file that fails to load
    leaves the old model installed.  Replacing the identifier drops the old
    file's mapping.
    """
    try:
        identifier = load_model(model_path, backend=backend)
        conn.send(("ready", identifier.languages))
        while True:
            try:
                frame = conn.recv()
            except (EOFError, OSError):
                break  # parent went away: exit quietly
            # control frames (stop/swap) are two-element, data frames
            # (classify/segment) four-element
            kind, payload = frame[0], frame[1]
            if kind == "stop":
                break
            if kind == "swap":
                try:
                    identifier = load_model(payload, backend=backend)
                except Exception as exc:  # noqa: BLE001 - must cross the pipe
                    # the old model stays installed; the parent aborts the roll
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                    continue
                conn.send(("ok", identifier.languages))
                continue
            if kind not in ("classify", "segment"):  # pragma: no cover - protocol guard
                conn.send(("error", f"unknown frame kind {kind!r}"))
                continue
            _, _, trace_ids, sources = frame
            try:
                kernel_start = time.perf_counter()
                results = run_batch(identifier, kind, payload, sources)
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


def _send(conn: connection.Connection, frame) -> None:
    """Send ``frame`` to a worker as one pickled message its ``recv()`` reads.

    ``Connection.send`` pickles into a ``BytesIO`` and sends a memoryview of
    it.  When that send fails on a dead worker, the exception's traceback
    keeps the view alive, and the garbage collector can then close the
    ``BytesIO`` before releasing it, which development mode reports as a
    ``BufferError``.  Bytes from :func:`pickle.dumps` leave no view behind.
    """
    conn.send_bytes(pickle.dumps(frame))


@dataclass
class _Worker:
    """Parent-side handle of one replica process."""

    index: int
    process: multiprocessing.Process
    conn: connection.Connection
    ready: bool = field(default=False)


class ProcessReplicaPool(ReplicaPoolBase):
    """``n_replicas`` worker processes mapping one private model file.

    Parameters
    ----------
    identifier:
        The trained model; written once to a file in the pool's own
        temporary directory, which every worker loads.
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
        # kept so a respawn can write the file again if it has been removed
        self._identifier = identifier
        self._languages = identifier.languages
        self._backend = identifier.config.backend
        self._on_respawn = on_respawn
        self._rr_next = 0
        self._closed = False
        # Serialises respawns and model-file writes against close(): once
        # shutdown has started, no replacement worker is spawned and no file
        # is written into the pool's removed directory.
        self._lifecycle = threading.Lock()
        self.respawns_total = 0
        self._directory = tempfile.TemporaryDirectory(prefix="repro-pool-")
        self._file_numbers = itertools.count()
        with self._lifecycle:
            self._model_path = self._write(identifier)
        self._ctx = multiprocessing.get_context("spawn")
        self._workers = [self._spawn(index) for index in range(n_replicas)]
        self._dispatchers = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"repro-serve-dispatch-{i}")
            for i in range(n_replicas)
        ]

    # ------------------------------------------------------------ workers

    @property
    def model_path(self) -> Path:
        """The pool's current model file, which every worker maps."""
        return self._model_path

    def _write(self, identifier: LanguageIdentifier) -> Path:
        """Save ``identifier`` to a new file in the pool's directory.

        The caller holds ``_lifecycle``: :func:`save_model` creates missing
        parent directories, so a write that ran after :meth:`close` removed
        the directory would recreate it and leak it.
        """
        if self._closed:
            raise RuntimeError("replica pool is closed")
        name = f"model-{next(self._file_numbers)}.bin"
        return save_model(identifier, Path(self._directory.name, name))

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._model_path, self._backend),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its end
        return _Worker(index=index, process=process, conn=parent_conn)

    def _respawn(self, index: int) -> None:
        """Replace a dead worker (the caller holds ``_lifecycle``)."""
        worker = self._workers[index]
        worker.conn.close()
        if worker.process.is_alive():  # pragma: no cover - half-dead worker
            worker.process.terminate()
        worker.process.join(timeout=STOP_TIMEOUT)
        if not self._model_path.exists():
            # an age-based temp cleaner can remove the file; without it the
            # replacement would die at start-up and the replica never heal
            save_model(self._identifier, self._model_path)
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
        feed prior-aware backends.  ``swap`` is a two-element control frame;
        every other ``op`` is a four-element data frame.
        """
        worker = self._workers[index]
        trace_ids = (
            [ctx.trace_id if ctx is not None else None for ctx in contexts]
            if contexts
            else None
        )
        frame_out = (op, payload) if op == "swap" else (op, payload, trace_ids, sources)
        try:
            self._ensure_ready(worker)
            try:
                _send(worker.conn, frame_out)
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
        """Run one worker's vectorized batch path off the event loop."""
        return await self._run(replica_index, "classify", texts, contexts, sources)

    async def segment_batch(
        self, replica_index: int, texts: Sequence[str | bytes], contexts: Sequence | None = None
    ) -> list:
        """Run one worker's windowed segmentation over a batch off the event loop."""
        return await self._run(replica_index, "segment", texts, contexts)

    async def _run(self, replica_index: int, op: str, texts, contexts, sources=None) -> list:
        if self._closed:
            raise RuntimeError("replica pool is closed")
        return await asyncio.get_running_loop().run_in_executor(
            self._dispatchers[replica_index],
            self._call,
            replica_index,
            op,
            list(texts),
            list(contexts) if contexts else None,
            list(sources) if sources is not None else None,
        )

    # ------------------------------------------------------------ model swap

    async def swap_model(self, identifier: LanguageIdentifier) -> None:
        """Blue/green file swap: roll every worker onto a new model file.

        The new (green) model is written to a new file in the pool's
        directory, then each worker is told to load it — one at a time,
        through that worker's own dispatcher, so the load serialises behind
        the worker's in-flight batch while every other worker keeps serving.
        The old (blue) file is deleted only once the roll completes; a worker
        that still maps it keeps reading its pages, because unlinking a file
        does not unmap it.  Any failure mid-roll rolls the
        already-swapped workers back to blue (best effort — a worker that
        crashed was respawned on blue already), deletes green, and re-raises:
        the pool never serves a mix of models past this method's return.
        """
        if not identifier.is_trained:
            raise RuntimeError("cannot swap to an untrained identifier")
        loop = asyncio.get_running_loop()
        with self._lifecycle:
            green = self._write(identifier)
        blue = self._model_path
        swapped: list[int] = []
        try:
            for index in range(self._n_replicas):
                if self._closed:
                    raise RuntimeError("replica pool closed during model swap")
                languages = await loop.run_in_executor(
                    self._dispatchers[index], self._call, index, "swap", green
                )
                if list(languages) != list(identifier.languages):  # pragma: no cover
                    raise WorkerCrashedError(
                        f"replica worker {index} installed unexpected languages {languages!r}"
                    )
                swapped.append(index)
            with self._lifecycle:
                if self._closed:
                    raise RuntimeError("replica pool closed during model swap")
                self._model_path = green
                self._identifier = identifier
                self._languages = identifier.languages
        except BaseException:
            for index in swapped:
                try:
                    await loop.run_in_executor(
                        self._dispatchers[index], self._call, index, "swap", blue
                    )
                except Exception:
                    pass  # worker died or pool is closing; respawn/close covers it
            green.unlink(missing_ok=True)
            raise
        # Outside the except: a rollback must still find blue.
        blue.unlink(missing_ok=True)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Stop the workers, join them, and remove the pool's directory.

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
                _send(worker.conn, ("stop", None))
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
        self._directory.cleanup()

    def describe(self) -> dict:
        info = super().describe()
        info["executor"] = self.executor_kind
        info["backend"] = self._backend
        info["model_path"] = str(self._model_path)
        try:
            info["model_bytes"] = self._model_path.stat().st_size
        except FileNotFoundError:  # closed pool, or a temp cleaner removed it
            info["model_bytes"] = None
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
