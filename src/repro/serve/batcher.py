"""The asyncio micro-batcher: bounded queue + size/deadline flush triggers.

This is the software twin of the paper's asynchronous host driver
(:class:`repro.system.host.AsynchronousHostDriver`): submission is decoupled
from result collection, documents accumulate while the engine is busy, and the
engine always receives the largest batch available.  A flush fires when either

* ``max_batch`` requests are pending (the size trigger — saturation), or
* the oldest pending request has waited ``max_delay`` seconds (the deadline
  trigger — bounded latency at low load).

The deadline is a floor, not a bound: a partial batch flushes at the first
event-loop wake at or after it.  asyncio's epoll selector rounds every wait
up to a whole millisecond, and each submission re-arms the flusher's wait,
so a request can wait up to ~1 ms past ``max_delay``: with a 2 ms deadline
on a 2-core x86 VM, a lone request's batch flushed at a median 2.25 ms, and
the oldest of two waited 2.33 / 2.55 / 2.85 ms when the second arrived
0.1 / 0.3 / 0.6 ms after it.  The ROADMAP plans to delete the deadline
(*Serve like the paper's asynchronous driver*).

Backpressure is explicit: :meth:`MicroBatcher.submit_nowait` raises
:class:`~repro.serve.errors.ServiceOverloadedError` once ``max_pending``
requests are queued instead of buffering without bound.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Awaitable, Callable, Sequence

from repro.serve.errors import ServiceClosedError, ServiceOverloadedError

__all__ = ["MicroBatcher"]

#: flush callback: receives the batch items, returns one result per item
FlushFn = Callable[[Sequence], Awaitable[Sequence]]


class MicroBatcher:
    """Coalesce single-item submissions into batches for an async flush function.

    Parameters
    ----------
    flush:
        Coroutine function called with a list of queued items; must return one
        result per item (same order).  Results resolve the corresponding
        futures returned by :meth:`submit_nowait`.
    max_batch:
        Flush as soon as this many items are pending.
    max_delay:
        Seconds the oldest pending item waits before a partial batch is
        flushed anyway; the flush comes at the first loop wake at or after
        that, up to ~1 ms later (see the module docstring).
    max_pending:
        Bound on the queue; further submissions are rejected with
        :class:`ServiceOverloadedError` until the backlog drains.
    """

    def __init__(
        self,
        flush: FlushFn,
        *,
        max_batch: int = 64,
        max_delay: float = 0.002,
        max_pending: int = 1024,
    ):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self._flush = flush
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self.max_pending = int(max_pending)
        #: (item, caller future, monotonic enqueue time) — the timestamp drives
        #: the deadline trigger and the queue-depth health report
        self._pending: deque[tuple[object, asyncio.Future, float]] = deque()
        self._wakeup: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the flusher task on the running event loop (idempotent)."""
        if self._task is None or self._task.done():
            self._closed = False
            self._wakeup = asyncio.Event()
            self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def is_running(self) -> bool:
        return self._task is not None and not self._task.done()

    async def close(self) -> None:
        """Stop accepting work, flush every pending item, and join the flusher.

        Draining is part of the contract: every future handed out before
        ``close`` resolves (with a result or the flush function's exception)
        before this coroutine returns.
        """
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None

    # ------------------------------------------------------------ submission

    def __len__(self) -> int:
        return len(self._pending)

    def oldest_wait_seconds(self) -> float:
        """How long the oldest queued item has waited (0.0 when idle).

        A saturation signal for health checks: a wait well past
        ``max_delay`` under a deep queue means the flusher cannot keep up.
        At light load it reads up to ~1 ms past ``max_delay`` (see the
        module docstring).
        """
        if not self._pending:
            return 0.0
        return max(time.monotonic() - self._pending[0][2], 0.0)

    def submit_nowait(self, item) -> asyncio.Future:
        """Queue ``item`` and return the future that will carry its result."""
        if self._closed or not self.is_running:
            raise ServiceClosedError("micro-batcher is not accepting requests")
        if len(self._pending) >= self.max_pending:
            raise ServiceOverloadedError(
                f"request queue full ({self.max_pending} pending); retry with backoff"
            )
        future = asyncio.get_running_loop().create_future()
        self._pending.append((item, future, time.monotonic()))
        self._wakeup.set()
        return future

    # ------------------------------------------------------------ flusher

    async def _run(self) -> None:
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            # First item of the next batch is in; hold the flush open until the
            # batch fills or the *oldest item's* deadline passes (closing skips
            # the wait so shutdown drains at full speed).  The flush comes at
            # the first wake at or after the deadline, so the oldest request
            # can wait up to ~1 ms past max_delay (see the module docstring).
            deadline = self._pending[0][2] + self.max_delay
            while len(self._pending) < self.max_batch and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(), remaining)
                except TimeoutError:
                    break
            batch = [
                self._pending.popleft()
                for _ in range(min(self.max_batch, len(self._pending)))
            ]
            await self._flush_batch(batch)

    async def _flush_batch(self, batch: list[tuple[object, asyncio.Future, float]]) -> None:
        items = [item for item, _future, _enqueued in batch]
        try:
            results = await self._flush(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"flush returned {len(results)} results for {len(items)} items"
                )
        except Exception as exc:  # noqa: BLE001 - failures must reach the waiters
            for _item, future, _enqueued in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_item, future, _enqueued), result in zip(batch, results):
            if not future.done():
                future.set_result(result)
