"""Replica pools: where a flushed batch runs.

The paper scales by instantiating one classifier pipeline per language and
streaming every document past all of them; the serving layer scales the other
axis — several complete engine replicas so independent batches classify
concurrently.  Two execution tiers implement one contract
(:class:`ReplicaPoolBase`):

:class:`ThreadReplicaPool`
    One identifier whose batch path runs inline on the serving thread (the
    event loop), like the paper's asynchronous driver streaming documents to
    one engine with no per-batch hand-off.  CPU-bound NumPy work cannot
    overlap under the GIL, so more in-process replicas would only split the
    queue and copy the model; the kernel blocks the loop while it runs.
:class:`~repro.serve.process_pool.ProcessReplicaPool`
    N worker *processes* mapping one private ``model.bin`` file — true
    multi-core scaling, the software analogue of the paper's many parallel
    Bloom engines.

Dispatch picks replicas in strict rotation (:meth:`ReplicaPoolBase.next_round_robin`).
Both tiers, and the worker processes, run a batch through :func:`run_batch`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.api.identifier import LanguageIdentifier
from repro.core.classifier import ClassificationResult

__all__ = [
    "ReplicaPoolBase",
    "ThreadReplicaPool",
    "run_batch",
]


def run_batch(
    identifier: LanguageIdentifier,
    op: str,
    texts: Sequence[str | bytes],
    sources: Sequence[str | None] | None = None,
) -> list:
    """Run one batch of ``op`` on ``identifier``: the body every replica shares.

    ``classify`` is the vectorized ``classify_batch`` (``sources`` feed
    prior-aware backends); ``segment`` segments each document in turn.
    """
    if op == "segment":
        return [identifier.segment(text) for text in texts]
    return identifier.classify_batch(texts, sources=sources)


class ReplicaPoolBase:
    """The contract every replica pool honours.

    A pool exposes ``n_replicas`` bit-exact engine replicas behind integer
    indices: :meth:`next_round_robin` picks an index,
    :meth:`classify_batch` runs one replica's vectorized batch path,
    :meth:`segment_batch` its segmentation, and :meth:`close` releases
    every execution resource (worker processes, dispatcher threads, model
    files).  Subclasses set ``_n_replicas`` and ``_languages`` and implement
    ``classify_batch`` and ``segment_batch`` over one body of their own,
    plus ``swap_model`` and ``close``.
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
        measured around the kernel call itself (inside the worker process on
        the process tier), so serving overhead never pollutes it.
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
    """One identifier whose batch path runs on the serving thread itself.

    ``classify_batch`` calls the identifier directly, with no executor hop,
    so the kernel blocks the event loop while it runs: large documents and
    segmentation-heavy traffic belong on the process tier.
    """

    executor_kind = "thread"

    def __init__(self, identifier: LanguageIdentifier):
        self.identifier = identifier
        self._n_replicas = 1
        self._languages = identifier.languages
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
        """Run the vectorized batch path inline on the calling thread.

        When trace ``contexts`` ride along (one per text, ``None`` gaps
        allowed), the kernel is timed around the call and each trace gets
        ``ipc_roundtrip`` (≈ 0 here) + ``kernel`` spans.  ``sources`` are
        passed straight to the facade's batch path for prior-aware backends.
        """
        return self._run("classify", texts, contexts, sources)

    async def segment_batch(
        self, replica_index: int, texts: Sequence[str | bytes], contexts: Sequence | None = None
    ) -> list:
        """Run windowed segmentation over a batch inline on the calling thread."""
        return self._run("segment", texts, contexts)

    def _run(self, op: str, texts, contexts, sources=None) -> list:
        if self._closed:
            raise RuntimeError("replica pool is closed")
        t0 = time.perf_counter()
        results = run_batch(self.identifier, op, texts, sources)
        self._record_dispatch(contexts, time.perf_counter() - t0)
        return results

    # ------------------------------------------------------------ lifecycle

    async def swap_model(self, identifier: LanguageIdentifier) -> None:
        """Install ``identifier`` with one assignment.

        Batches run inline without yielding to the event loop, so none is in
        flight while this coroutine runs: the swap lands between two batches
        and no batch mixes models.
        """
        if self._closed:
            raise RuntimeError("replica pool is closed")
        if not identifier.is_trained:
            raise RuntimeError("cannot swap to an untrained identifier")
        self.identifier = identifier
        self._languages = identifier.languages

    def close(self) -> None:
        """Refuse further batches (idempotent; nothing to join)."""
        self._closed = True

    def describe(self) -> dict:
        info = super().describe()
        info["executor"] = self.executor_kind
        info["backend"] = self.identifier.config.backend
        # The replica lives and dies with the pool: liveness is the pool's.
        info["workers"] = [{"index": 0, "alive": not self._closed}]
        return info
