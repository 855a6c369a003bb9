"""Executors: how a batch of independent run specs gets evaluated.

Every spec in the sweep grid is an independent, deterministic
simulation, so fanning the grid across cores must not change any
result — only wall-clock time.  Executors therefore share one tiny
contract (:class:`Executor.map`): apply a picklable function to a
sequence of items and return the results *in input order*.

* :class:`SerialExecutor` — plain in-process loop; the reference
  behaviour.
* :class:`ParallelExecutor` — a ``concurrent.futures``
  ``ProcessPoolExecutor`` fan-out.  Worker count comes from the
  constructor, else the ``REPRO_JOBS`` environment variable, else 1.
* :class:`~repro.runtime.scheduler.AsyncExecutor` (in the scheduler
  module) — an asyncio event loop over the same process pool, built by
  :func:`make_executor(kind="async") <make_executor>`.

Because ``map`` preserves order and each simulation seeds its own RNGs
from the spec, serial, parallel, and async execution are bit-identical.

The items an executor maps over are opaque to it: sweep runs and
task specs fan out through the same two-method contract.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Sequence

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "EXECUTOR_KINDS",
    "default_jobs",
    "resolve_jobs",
    "make_executor",
]

#: Names accepted by :func:`make_executor` (and the CLI ``--scheduler``).
EXECUTOR_KINDS = ("auto", "serial", "parallel", "async")


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1; 0 = all cores)."""
    raw = os.environ.get("REPRO_JOBS", "1").strip()
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from None
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("REPRO_JOBS must be non-negative")
    return jobs


class Executor:
    """Protocol: evaluate ``fn`` over ``items``, preserving order."""

    #: Human-readable name for reports.
    name = "abstract"

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """Apply ``fn`` to every item; results line up with inputs."""
        raise NotImplementedError


class SerialExecutor(Executor):
    """Reference executor: evaluate everything in-process, in order."""

    name = "serial"
    jobs = 1

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """Plain loop over the items."""
        return [fn(item) for item in items]


class ParallelExecutor(Executor):
    """Process-pool executor fanning specs across cores.

    ``fn`` and the items must be picklable (run specs are plain
    dataclasses, so they are).  Results are returned in input order,
    making the fan-out invisible to callers.
    """

    name = "parallel"

    def __init__(self, jobs: int | None = None):
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError("ParallelExecutor needs at least one worker")

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """Fan the items over a process pool (order-preserving)."""
        items = list(items)
        workers = min(self.jobs, len(items))
        if workers <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))


def resolve_jobs(jobs: int | None = None) -> int:
    """Validate and resolve a worker count (``None`` = ``REPRO_JOBS``,
    ``0`` = all cores; negative or non-integer counts are rejected)."""
    if jobs is None:
        return default_jobs()
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be non-negative")
    return jobs


def make_executor(jobs: int | None = None, kind: str = "auto") -> Executor:
    """Executor for a worker count (``None`` = ``REPRO_JOBS``).

    ``kind`` picks the engine: ``"auto"`` (serial at one worker, the
    process pool above that — the historical behaviour), or an explicit
    ``"serial"`` / ``"parallel"`` / ``"async"``.
    """
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor kind {kind!r} (known: {', '.join(EXECUTOR_KINDS)})"
        )
    resolved = resolve_jobs(jobs)
    if kind == "serial":
        return SerialExecutor()
    if kind == "parallel":
        return ParallelExecutor(resolved)
    if kind == "async":
        from .scheduler import AsyncExecutor

        return AsyncExecutor(resolved)
    if resolved <= 1:
        return SerialExecutor()
    return ParallelExecutor(resolved)
