"""Replica pools: N engine replicas classifying batches concurrently.

The paper scales by instantiating one classifier pipeline per language and
streaming every document past all of them; the serving layer scales the other
axis — several complete engine replicas so independent batches classify
concurrently.  Two execution tiers implement one contract
(:class:`ReplicaPoolBase`):

:class:`ThreadReplicaPool`
    N bit-exact in-process model clones, one worker thread each.  Cheap to
    start and share nothing mutable, but CPU-bound NumPy work from different
    replicas contends on the GIL, so throughput tops out near one core.
:class:`~repro.serve.process_pool.ProcessReplicaPool`
    N worker *processes* reading one shared-memory model copy
    (:class:`~repro.serve.shared_model.SharedModel`) — true multi-core
    scaling, the software analogue of the paper's many parallel Bloom engines.

Both tiers dispatch in strict rotation (:meth:`ReplicaPoolBase.next_round_robin`).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence

from repro.api.identifier import LanguageIdentifier
from repro.api.persistence import flat_model_bytes, load_model_from_buffer
from repro.core.classifier import ClassificationResult

__all__ = [
    "ReplicaPoolBase",
    "ThreadReplicaPool",
    "clone_identifier",
]


def clone_identifier(identifier: LanguageIdentifier) -> LanguageIdentifier:
    """A bit-exact, state-disjoint copy of a trained identifier.

    The model is serialised to the flat artifact layout in memory and parsed
    back by the one parser that also opens files and shared-memory segments,
    so every replica is built the same way.  The clone's arrays (for
    ``bloom``, its bit store) are read-only views of its own private buffer.
    """
    return load_model_from_buffer(flat_model_bytes(identifier), verify=False)


class ReplicaPoolBase:
    """The contract every replica pool honours.

    A pool exposes ``n_replicas`` bit-exact engine replicas behind integer
    indices: :meth:`next_round_robin` picks an index,
    :meth:`classify_batch` runs one replica's vectorized batch path without
    blocking the event loop, and :meth:`close` releases every execution
    resource (threads, processes, shared-memory segments).  Subclasses set
    ``_n_replicas`` and ``_languages`` and implement ``classify_batch`` /
    ``close``.
    """

    _n_replicas: int = 0
    _languages: list[str]

    def __len__(self) -> int:
        return self._n_replicas

    @property
    def languages(self) -> list[str]:
        return self._languages

    # ------------------------------------------------------------ dispatch

    def next_round_robin(self) -> int:
        """The next replica index under strict rotation."""
        index = self._rr_next
        self._rr_next = (self._rr_next + 1) % self._n_replicas
        return index

    # ------------------------------------------------------------ tracing

    @staticmethod
    def _record_dispatch(contexts, kernel_seconds: float, **meta) -> None:
        """Fold one dispatch round-trip into every trace riding the batch.

        Splits the wall time since each context's last checkpoint into
        ``ipc_roundtrip`` and ``kernel`` spans (see
        :meth:`repro.obs.trace.TraceContext.dispatch`); ``kernel_seconds`` was
        measured inside the worker, so serving overhead never pollutes it.
        """
        if not contexts:
            return
        now = time.perf_counter()
        for ctx in contexts:
            if ctx is None:
                continue
            ctx.dispatch(kernel_seconds, now=now)
            if meta:
                ctx.note(**meta)

    # ------------------------------------------------------------ contract

    async def classify_batch(
        self,
        replica_index: int,
        texts: Sequence[str | bytes],
        contexts: Sequence | None = None,
        sources: Sequence[str | None] | None = None,
    ) -> list[ClassificationResult]:
        """Classify a batch on one replica; ``sources`` (one per text, ``None``
        gaps allowed) feed prior-aware backends such as the ensemble."""
        raise NotImplementedError

    async def segment_batch(
        self, replica_index: int, texts: Sequence[str | bytes], contexts: Sequence | None = None
    ) -> list:
        """Segment a batch of documents on one replica (mixed-language spans)."""
        raise NotImplementedError

    async def swap_model(self, identifier: LanguageIdentifier) -> None:
        """Roll every replica over to a new trained model, one at a time.

        Blue/green at replica granularity: while replica *i* installs the new
        (green) model, replicas ``!= i`` keep serving whichever model they
        hold, and the install is serialised behind replica *i*'s in-flight
        batch — no request is ever dropped and no replica ever runs a
        half-installed model.  When this returns, every replica answers with
        the new model and the old model's execution resources are released.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release every execution resource (may block; idempotent)."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"replicas": self._n_replicas, "languages": self.languages}


class ThreadReplicaPool(ReplicaPoolBase):
    """``n_replicas`` identifier clones with one single-thread executor each."""

    executor_kind = "thread"

    def __init__(self, identifier: LanguageIdentifier, n_replicas: int = 1):
        if n_replicas <= 0:
            raise ValueError("n_replicas must be positive")
        # Replica 0 reuses the caller's identifier; further replicas are clones.
        self.replicas: list[LanguageIdentifier] = [identifier]
        self.replicas += [clone_identifier(identifier) for _ in range(n_replicas - 1)]
        self._n_replicas = n_replicas
        self._languages = identifier.languages
        self._executors = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"repro-serve-replica-{i}")
            for i in range(n_replicas)
        ]
        self._rr_next = 0
        self._closed = False

    # ------------------------------------------------------------ classification

    async def classify_batch(
        self,
        replica_index: int,
        texts: Sequence[str | bytes],
        contexts: Sequence | None = None,
        sources: Sequence[str | None] | None = None,
    ) -> list[ClassificationResult]:
        """Run one replica's vectorized batch path in its dedicated thread.

        When trace ``contexts`` ride along (one per text, ``None`` gaps
        allowed), the kernel is timed on the worker thread itself and each
        trace gets ``ipc_roundtrip`` + ``kernel`` spans on completion.
        ``sources`` are passed straight to the facade's batch path for
        prior-aware backends.
        """
        if self._closed:
            raise RuntimeError("replica pool is closed")
        replica = self.replicas[replica_index]
        executor = self._executors[replica_index]
        batch = list(texts)
        batch_sources = list(sources) if sources is not None else None
        loop = asyncio.get_running_loop()

        def work():
            t0 = time.perf_counter()
            results = replica.classify_batch(batch, sources=batch_sources)
            return results, time.perf_counter() - t0

        results, kernel_seconds = await loop.run_in_executor(executor, work)
        self._record_dispatch(contexts, kernel_seconds)
        return results

    async def segment_batch(
        self, replica_index: int, texts: Sequence[str | bytes], contexts: Sequence | None = None
    ) -> list:
        """Run one replica's windowed segmentation over a batch in its thread."""
        if self._closed:
            raise RuntimeError("replica pool is closed")
        replica = self.replicas[replica_index]
        executor = self._executors[replica_index]
        batch = list(texts)
        loop = asyncio.get_running_loop()

        def work():
            t0 = time.perf_counter()
            results = [replica.segment(text) for text in batch]
            return results, time.perf_counter() - t0

        results, kernel_seconds = await loop.run_in_executor(executor, work)
        self._record_dispatch(contexts, kernel_seconds)
        return results

    # ------------------------------------------------------------ lifecycle

    async def swap_model(self, identifier: LanguageIdentifier) -> None:
        """Install bit-exact clones of ``identifier`` replica by replica.

        Each install runs *on the replica's own single worker thread*, so it
        serialises after that replica's in-flight batch; the other replicas
        keep classifying throughout.  The clone is built off-thread first so
        the replica is only paused for a reference assignment.
        """
        if self._closed:
            raise RuntimeError("replica pool is closed")
        if not identifier.is_trained:
            raise RuntimeError("cannot swap to an untrained identifier")
        loop = asyncio.get_running_loop()
        for index in range(self._n_replicas):
            # replica 0 adopts the caller's identifier (mirroring __init__);
            # the rest get state-disjoint clones built on the default executor
            if index == 0:
                clone = identifier
            else:
                clone = await loop.run_in_executor(None, clone_identifier, identifier)

            def install(i=index, model=clone):
                self.replicas[i] = model

            await loop.run_in_executor(self._executors[index], install)
        self._languages = identifier.languages

    def close(self) -> None:
        """Shut the worker threads down (waits for in-flight batches)."""
        if self._closed:
            return
        self._closed = True
        for executor in self._executors:
            executor.shutdown(wait=True)

    def describe(self) -> dict:
        info = super().describe()
        info["executor"] = self.executor_kind
        info["backend"] = self.replicas[0].config.backend
        # Thread replicas live and die with the pool: liveness is the pool's.
        info["workers"] = [
            {"index": index, "alive": not self._closed}
            for index in range(self._n_replicas)
        ]
        return info
