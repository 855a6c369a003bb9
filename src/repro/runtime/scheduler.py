"""Async batched spec scheduling: stream huge grids through a pool.

The serial and process-pool executors evaluate a batch as one blocking
``map`` call.  That is fine for a figure-sized grid, but streaming
thousands of queued specs — the paper-scale 400-mix grid, or several
figures' grids concatenated — wants an engine that keeps a bounded
number of simulations in flight, serves store hits without occupying a
worker, deduplicates identical in-flight work, and reports progress as
it drains.  This module provides both halves:

* :class:`AsyncExecutor` — an asyncio-based drop-in for the two-method
  :class:`~repro.runtime.executors.Executor` protocol.  ``map`` runs an
  event loop that fans items over a process pool behind a bounded
  submission window; results come back in input order, bit-identical
  to :class:`~repro.runtime.executors.SerialExecutor`.
* :class:`SpecScheduler` — the batched engine above it: an arbitrarily
  large queue of :class:`~repro.runtime.spec.RunSpec` /
  :class:`~repro.runtime.spec.TaskSpec` drains through the pool with
  store-hit short-circuiting, in-flight fingerprint deduplication,
  structured :class:`ProgressEvent`\\ s (submitted/cached/completed
  counts plus an ETA), and mid-batch cancellation that never corrupts
  the store (writes stay atomic; finished work stays finished).

Determinism is untouched: every simulation seeds its RNGs from the
spec alone, so serial, parallel, and async execution of the same batch
produce byte-identical store records at any worker count.

The scheduler is agnostic to *what* a spec is — sweep runs and task
specs queue the same way.  Workers the scheduler dispatches to warm
their process-wide artifact cache (:mod:`repro.runtime.artifacts`)
across the whole batch: the longer a batch streams, the fewer streams,
baselines, and workload objects each worker re-derives, with no
scheduler-level bookkeeping required.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .executors import Executor, default_jobs
from .store import ResultStore
from .work import adopt, cache_result, execute_in_worker, store_lookup

__all__ = [
    "ProgressEvent",
    "SchedulerCancelled",
    "AsyncExecutor",
    "SpecScheduler",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One structured progress update from a draining scheduler.

    ``phase`` is what just happened (``submitted`` / ``cached`` /
    ``completed`` / ``cancelled`` / ``done``); the counters are the
    queue's cumulative state at that moment.  ``eta_s`` extrapolates
    the mean per-completion wall time over the work still outstanding
    (``None`` until the first miss completes).
    """

    phase: str
    total: int
    submitted: int
    cached: int
    completed: int
    in_flight: int
    deduped: int
    elapsed_s: float
    eta_s: Optional[float] = None

    @property
    def done(self) -> int:
        """Specs resolved so far (store hits plus computed)."""
        return self.cached + self.completed

    def __str__(self) -> str:
        line = (
            f"{self.done}/{self.total} done"
            f" ({self.cached} cached, {self.in_flight} in flight)"
        )
        if self.deduped:
            line += f" [{self.deduped} deduped]"
        if self.eta_s is not None:
            line += f" eta {self.eta_s:.0f}s"
        return line


class SchedulerCancelled(RuntimeError):
    """Raised by :meth:`SpecScheduler.run` after a mid-batch cancel.

    Completed work was persisted atomically before the cancel took
    effect, so the store is intact and a re-run resumes from it.
    """

    def __init__(self, completed: int, total: int):
        super().__init__(
            f"scheduler cancelled after {completed}/{total} specs"
        )
        self.completed = completed
        self.total = total


class AsyncExecutor(Executor):
    """Asyncio executor satisfying the two-method ``Executor`` protocol.

    ``map`` spins up an event loop, offloads each call to a process
    pool of ``jobs`` workers, and bounds how many items are submitted
    at once (``window``, default ``2 * jobs``) so arbitrarily long item
    sequences never flood the pool's internal queue.  Order and results
    are identical to the serial executor.
    """

    name = "async"

    def __init__(self, jobs: Optional[int] = None, window: Optional[int] = None):
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError("AsyncExecutor needs at least one worker")
        self.window = window if window is not None else 2 * self.jobs
        if self.window < 1:
            raise ValueError("AsyncExecutor window must be positive")

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """Fan the items over the pool from an event loop (ordered)."""
        items = list(items)
        workers = min(self.jobs, len(items))
        if workers <= 1:
            return [fn(item) for item in items]
        return asyncio.run(self._drain(fn, items, workers))

    async def _drain(
        self, fn: Callable[[Any], Any], items: List[Any], workers: int
    ) -> List[Any]:
        loop = asyncio.get_running_loop()
        gate = asyncio.Semaphore(max(self.window, workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:

            async def one(item: Any) -> Any:
                async with gate:
                    return await loop.run_in_executor(pool, fn, item)

            return list(await asyncio.gather(*(one(item) for item in items)))


class SpecScheduler:
    """Drain a (possibly huge) spec queue through a bounded pool.

    For every spec, in input order:

    * a store hit resolves immediately — no worker is occupied;
    * a miss whose fingerprint is already in flight awaits the existing
      computation (deduplication) and adopts its result;
    * a fresh miss is submitted to the process pool, gated by a bounded
      submission window.

    Progress is reported through ``progress`` (any callable taking a
    :class:`ProgressEvent`); :meth:`cancel` stops new submissions and
    makes :meth:`run` raise :class:`SchedulerCancelled` once in-flight
    work settles.  Results are returned in spec order and are
    bit-identical to serial evaluation.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: Optional[int] = None,
        window: Optional[int] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ):
        self.store = store
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError("SpecScheduler needs at least one worker")
        self.window = window if window is not None else 2 * self.jobs
        if self.window < 1:
            raise ValueError("SpecScheduler window must be positive")
        self.progress = progress
        self._cancelled = False

    def cancel(self) -> None:
        """Stop submitting new work; :meth:`run` raises when drained."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been requested for this batch."""
        return self._cancelled

    def run(self, specs: Sequence[Any]) -> List[Any]:
        """Drain the queue; returns results in spec order."""
        return asyncio.run(self._drain(list(specs)))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _emit(self, phase: str, state: Dict[str, int], started: float) -> None:
        if self.progress is None:
            return
        elapsed = time.monotonic() - started
        eta = None
        remaining = state["total"] - state["cached"] - state["completed"]
        if state["completed"] > 0 and remaining > 0:
            eta = elapsed / state["completed"] * remaining
        self.progress(
            ProgressEvent(
                phase=phase,
                total=state["total"],
                submitted=state["submitted"],
                cached=state["cached"],
                completed=state["completed"],
                in_flight=state["in_flight"],
                deduped=state["deduped"],
                elapsed_s=elapsed,
                eta_s=eta,
            )
        )

    async def _drain(self, specs: List[Any]) -> List[Any]:
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        state = {
            "total": len(specs),
            "submitted": 0,
            "cached": 0,
            "completed": 0,
            "in_flight": 0,
            "deduped": 0,
        }
        results: List[Any] = [None] * len(specs)
        in_flight: Dict[str, asyncio.Future] = {}
        gate = asyncio.Semaphore(max(self.window, self.jobs))
        store_target = (
            self.store.share_target() if self.store is not None else None
        )
        skipped = False

        with ProcessPoolExecutor(max_workers=self.jobs) as pool:

            async def submit(spec: Any, fingerprint: str) -> Any:
                async with gate:
                    if self._cancelled:
                        raise SchedulerCancelled(
                            state["cached"] + state["completed"], state["total"]
                        )
                    state["submitted"] += 1
                    state["in_flight"] += 1
                    self._emit("submitted", state, started)
                    try:
                        result = await loop.run_in_executor(
                            pool, execute_in_worker, spec, store_target
                        )
                    finally:
                        state["in_flight"] -= 1
                    if self.store is not None:
                        cache_result(spec, self.store, fingerprint, result)
                    return result

            async def produce(index: int, spec: Any) -> None:
                nonlocal skipped
                fingerprint, hit = store_lookup(spec, self.store)
                if hit is not None:
                    results[index] = hit
                    state["cached"] += 1
                    self._emit("cached", state, started)
                    return
                future = in_flight.get(fingerprint)
                if future is None:
                    future = asyncio.ensure_future(submit(spec, fingerprint))
                    in_flight[fingerprint] = future
                else:
                    state["deduped"] += 1
                try:
                    results[index] = adopt(spec, await future)
                except SchedulerCancelled:
                    skipped = True
                    return
                # Completion is counted per *spec*, not per computation:
                # every deduplicated awaiter resolves one queue entry,
                # so `done` reaches `total` and the ETA drains to zero.
                state["completed"] += 1
                self._emit("completed", state, started)

            await asyncio.gather(*(produce(i, s) for i, s in enumerate(specs)))

        if skipped or self._cancelled:
            self._emit("cancelled", state, started)
            raise SchedulerCancelled(
                state["cached"] + state["completed"], state["total"]
            )
        self._emit("done", state, started)
        return results
