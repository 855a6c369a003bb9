"""The Session facade: specs in, records out, cache in between.

A :class:`Session` ties the runtime's pieces together:

* it owns a :class:`~repro.runtime.store.ResultStore` (persistent by
  default; see ``REPRO_CACHE_DIR`` / ``REPRO_STORE``),
* it owns an :class:`~repro.runtime.executors.Executor` (serial by
  default; ``jobs``/``REPRO_JOBS`` selects the process-pool fan-out,
  ``scheduler="async"`` the asyncio engine),
* and it evaluates :class:`~repro.runtime.spec.RunSpec` /
  :class:`~repro.runtime.spec.TaskSpec` batches by serving store hits
  in-process and dispatching only the misses.

Typical use::

    >>> from repro.runtime import Session, PolicySpec
    >>> from repro.experiments import ExperimentScale
    >>> session = Session(jobs=4)
    >>> sweep = session.sweep(ExperimentScale(requests=60,
    ...     lc_names=("masstree",), loads=(0.2,), combos=("nft",)))
    ...                                            # doctest: +SKIP

Large batches can stream through the batched async engine instead of
one blocking ``map``::

    >>> records = session.run_many(specs, scheduler="async")  # doctest: +SKIP

Results are bit-identical across executors and across processes: every
simulation is seeded from its spec alone, and the store is keyed by the
spec's content fingerprint.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..sim.config import CoreKind
from ..sim.mix_runner import BaselineResult, MixRunner
from .executors import Executor, SerialExecutor, make_executor
from .scheduler import ProgressEvent, SpecScheduler
from .spec import (
    PolicySpec,
    RunRecord,
    RunSpec,
    SchemeSpec,
    SweepResult,
    mix_refs,
)
from .store import ResultStore, StoreLocation, default_store_url
from .work import (
    adopt,
    cache_result,
    execute_in_worker,
    execute_spec,
    execute_specs,
    record_from_result,
    store_lookup,
)

__all__ = [
    "DEFAULT_POLICIES",
    "Session",
    "execute_spec",
    "record_from_result",
    "get_session",
    "reset_session",
]

#: The five schemes of Figures 9-11, in the paper's order.
DEFAULT_POLICIES: Tuple[PolicySpec, ...] = (
    PolicySpec.of("lru", label="LRU"),
    PolicySpec.of("ucp", label="UCP"),
    PolicySpec.of("onoff", label="OnOff"),
    PolicySpec.of("static_lc", label="StaticLC"),
    PolicySpec.of("ubik", label="Ubik", slack=0.05),
)

SchemeLike = Union[SchemeSpec, str, None]

SchedulerLike = Union[SpecScheduler, str, None]


def _as_scheme_spec(scheme: SchemeLike) -> Optional[SchemeSpec]:
    """Normalize a scheme argument (name, spec, or None)."""
    if scheme is None or isinstance(scheme, SchemeSpec):
        return scheme
    return SchemeSpec.of(scheme)


class Session:
    """Facade running declarative specs through a store and executor.

    ``scheduler`` picks the default batch engine: ``None`` keeps the
    executor's blocking ``map``; ``"async"`` streams batches through a
    :class:`~repro.runtime.scheduler.SpecScheduler` (bounded pool,
    store-hit short-circuiting, progress events to ``progress``).
    """

    def __init__(
        self,
        store: Union[ResultStore, StoreLocation] = None,
        executor: Optional[Executor] = None,
        jobs: Optional[int] = None,
        scheduler: SchedulerLike = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ):
        # ``store`` takes anything the store itself does — a live
        # ResultStore, a backend URL (``sqlite:///path/store.db``), a
        # bare path, a backend instance, or None for the environment
        # default (REPRO_STORE / REPRO_CACHE_DIR / the XDG cache dir).
        if store is None:
            store = ResultStore(default_store_url())
        elif not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.progress = progress
        self._default_scheduler = scheduler
        if executor is None:
            kind = scheduler if isinstance(scheduler, str) else "auto"
            executor = make_executor(jobs, kind=kind)
        self.executor = executor

    # ------------------------------------------------------------------
    # Spec evaluation
    # ------------------------------------------------------------------
    def run(self, spec) -> Any:
        """Evaluate one spec in-process as a batch of one (store-aware)."""
        return execute_specs([spec], self.store)[0]

    def _make_scheduler(
        self,
        scheduler: SchedulerLike,
        progress: Optional[Callable[[ProgressEvent], None]],
    ) -> Optional[SpecScheduler]:
        """Resolve a scheduler argument against the session defaults."""
        if scheduler is None:
            scheduler = self._default_scheduler
        if scheduler is None:
            return None
        if isinstance(scheduler, SpecScheduler):
            return scheduler
        if scheduler in ("serial", "parallel", "auto"):
            # Explicit non-async names mean: use the executor path.
            return None
        if scheduler != "async":
            raise ValueError(
                f"unknown scheduler {scheduler!r} (known: serial, parallel, async)"
            )
        return SpecScheduler(
            store=self.store,
            jobs=getattr(self.executor, "jobs", 1),
            progress=progress if progress is not None else self.progress,
        )

    def run_many(
        self,
        specs: Sequence[Any],
        scheduler: SchedulerLike = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> List[Any]:
        """Evaluate a batch of specs (sweep runs and tasks alike).

        With a scheduler (an instance, ``"async"``, or the session
        default) the batch streams through the bounded async engine;
        otherwise store hits are served inline and the misses fan out
        through the executor's ``map``.  Results always come back in
        spec order, byte-identical at any scheduler or worker count.
        """
        engine = self._make_scheduler(scheduler, progress)
        if engine is not None:
            return engine.run(specs)
        return self.run_specs(specs)

    def run_specs(self, specs: Sequence[Any]) -> List[Any]:
        """Evaluate a batch: serve store hits, fan out the misses.

        Results are returned in spec order regardless of executor, so
        downstream reports are byte-identical at any ``--jobs``.
        """
        specs = list(specs)
        results: List[Optional[Any]] = [None] * len(specs)
        misses: List[Tuple[int, Any, str]] = []
        for index, spec in enumerate(specs):
            fingerprint, hit = store_lookup(spec, self.store)
            if hit is not None:
                results[index] = hit
            else:
                misses.append((index, spec, fingerprint))
        if misses:
            if isinstance(self.executor, SerialExecutor):
                # In-process: share this session's store directly, so
                # its memory layer (baselines included) accumulates —
                # and let the batch evaluator route sweep cells into
                # replay groups (one shared context per group).
                fresh = execute_specs([s for _, s, _ in misses], store=self.store)
            else:
                worker = functools.partial(
                    execute_in_worker,
                    store_target=self.store.share_target(),
                )
                fresh = self.executor.map(worker, [s for _, s, _ in misses])
            for (index, spec, fingerprint), result in zip(misses, fresh):
                results[index] = adopt(spec, result)
                if not isinstance(self.executor, SerialExecutor):
                    # Workers already persisted to disk; keep the
                    # parent's in-memory layer warm without a second
                    # disk write.
                    cache_result(spec, self.store, fingerprint, result)
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def sweep_specs(
        self,
        scale,
        policies: Sequence[PolicySpec] = DEFAULT_POLICIES,
        scheme: SchemeLike = None,
        core_kind: str = CoreKind.OOO,
    ) -> List[RunSpec]:
        """The full (mix x policy) spec grid for an experiment scale."""
        scheme_spec = _as_scheme_spec(scheme)
        refs = mix_refs(
            lc_names=scale.lc_names,
            loads=scale.loads,
            combos=scale.combos,
            mixes_per_combo=scale.mixes_per_combo,
            seed=scale.seed,
        )
        return [
            RunSpec(
                mix=ref,
                policy=policy,
                scheme=scheme_spec,
                core_kind=core_kind,
                requests=scale.requests,
                seed=scale.seed,
            )
            for ref in refs
            for policy in policies
        ]

    def sweep(
        self,
        scale,
        policies: Sequence[PolicySpec] = DEFAULT_POLICIES,
        scheme: SchemeLike = None,
        core_kind: str = CoreKind.OOO,
    ) -> SweepResult:
        """Run (or fetch) a mixes x policies sweep as a SweepResult."""
        specs = self.sweep_specs(scale, policies, scheme, core_kind)
        return SweepResult(records=self.run_many(specs))

    # ------------------------------------------------------------------
    # Artifact cache
    # ------------------------------------------------------------------
    def artifact_stats(self) -> dict:
        """Hit/miss/entry counters of the process-wide artifact cache.

        The cache itself (:mod:`repro.runtime.artifacts`) is per
        process, not per session — in-process evaluation warms the one
        this returns, while pool workers each warm their own.  The CLI
        surfaces the same numbers via ``repro cache --stats``.
        """
        from .artifacts import get_artifacts

        return get_artifacts().stats()

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def baseline(
        self,
        lc_name: str,
        load: float,
        core_kind: str = CoreKind.OOO,
        requests: int = 120,
        seed: int = 2014,
    ) -> BaselineResult:
        """Isolated 2 MB-private baseline for one (app, load) point."""
        from ..sim.config import CMPConfig
        from ..workloads.latency_critical import make_lc_workload

        runner = MixRunner(
            config=CMPConfig(core_kind=core_kind),
            requests=requests,
            seed=seed,
            store=self.store,
        )
        return runner.baseline(make_lc_workload(lc_name), load)


_SESSION: Optional[Session] = None


def get_session() -> Session:
    """The process-wide default session (created on first use)."""
    global _SESSION
    if _SESSION is None:
        _SESSION = Session()
    return _SESSION


def reset_session() -> None:
    """Drop the default session (tests use this to repoint the store)."""
    global _SESSION
    _SESSION = None
