"""The Session facade: specs in, records out, cache in between.

A :class:`Session` ties the runtime's pieces together:

* it owns a :class:`~repro.runtime.store.ResultStore` (persistent by
  default; see ``REPRO_CACHE_DIR`` / ``REPRO_STORE``),
* it holds a worker count (``jobs``, default ``REPRO_JOBS`` or 1),
* and it evaluates :class:`~repro.runtime.spec.RunSpec` /
  :class:`~repro.runtime.spec.TaskSpec` batches through
  :meth:`Session.run_many`, the runtime's one batch path: store hits
  are served in-process and only the misses are evaluated, in-process
  or over a process pool.

Typical use::

    >>> from repro.runtime import Session, PolicySpec
    >>> from repro.experiments import ExperimentScale
    >>> session = Session(jobs=4)
    >>> sweep = session.sweep(ExperimentScale(requests=60,
    ...     lc_names=("masstree",), loads=(0.2,), combos=("nft",)))
    ...                                            # doctest: +SKIP

Results are bit-identical at any ``jobs`` and across processes: every
simulation is seeded from its spec alone, and the store is keyed by the
spec's content fingerprint.
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple, Union

from ..sim.config import CoreKind
from .spec import (
    PolicySpec,
    RunSpec,
    SchemeSpec,
    SweepResult,
    mix_refs,
)
from .store import ResultStore, StoreLocation, default_store_url
from .work import (
    cache_result,
    execute_in_worker,
    execute_spec,
    execute_specs,
    record_from_result,
    store_lookup,
)

if TYPE_CHECKING:
    from ..sim.mix_runner import BaselineResult

__all__ = [
    "DEFAULT_POLICIES",
    "Session",
    "execute_spec",
    "record_from_result",
    "resolve_jobs",
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


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Validate and resolve a worker count.

    ``None`` reads ``REPRO_JOBS`` (default 1); ``0`` means all cores.
    Negative or non-integer counts are rejected, naming their source.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1").strip()
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from None
        if jobs < 0:
            raise ValueError("REPRO_JOBS must be non-negative")
    elif isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    elif jobs < 0:
        raise ValueError("jobs must be non-negative")
    return jobs or os.cpu_count() or 1


def _as_scheme_spec(scheme: SchemeLike) -> Optional[SchemeSpec]:
    """Normalize a scheme argument (name, spec, or None)."""
    if scheme is None or isinstance(scheme, SchemeSpec):
        return scheme
    return SchemeSpec.of(scheme)


class Session:
    """Facade running declarative specs through a store.

    ``jobs`` is the worker count for batches (``None`` reads
    ``REPRO_JOBS``; ``0`` means all cores).
    """

    def __init__(
        self,
        store: Union[ResultStore, StoreLocation] = None,
        jobs: Optional[int] = None,
    ):
        # ``store`` takes anything the store itself does — a live
        # ResultStore, a store URL (``directory:///path``), a bare
        # path, or None for the environment default (REPRO_STORE /
        # REPRO_CACHE_DIR / the XDG cache dir).
        if store is None:
            store = ResultStore(default_store_url())
        elif not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.jobs = resolve_jobs(jobs)

    # ------------------------------------------------------------------
    # Spec evaluation
    # ------------------------------------------------------------------
    def run(self, spec) -> Any:
        """Evaluate one spec in-process as a batch of one (store-aware)."""
        return execute_specs([spec], self.store)[0]

    def run_many(self, specs: Sequence[Any]) -> List[Any]:
        """Evaluate a batch of specs (sweep runs and tasks alike).

        Store hits are served inline.  The misses are evaluated
        in-process through :func:`~repro.runtime.work.execute_specs`
        (which replays the sweep cells of a mix as one group) when
        ``jobs`` is 1, when only one spec misses, or when the store is
        memory-only and so cannot reach another process.  Otherwise
        each miss runs in a process-pool worker that persists it to the
        shared store, and the parent keeps it in its store's dict.
        Results come back in spec order, byte-identical at any ``jobs``.
        """
        specs = list(specs)
        results: List[Any] = [None] * len(specs)
        misses: List[Tuple[int, Any, str]] = []
        for index, spec in enumerate(specs):
            fingerprint, hit = store_lookup(spec, self.store)
            if hit is not None:
                results[index] = hit
            else:
                misses.append((index, spec, fingerprint))
        pending = [spec for _, spec, _ in misses]
        target = self.store.share_target()
        if self.jobs > 1 and len(misses) > 1 and target is not None:
            # Imported here so that a store-served run never loads the
            # pool machinery.
            from concurrent.futures import ProcessPoolExecutor

            worker = functools.partial(execute_in_worker, store_target=target)
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(misses))) as pool:
                fresh = list(pool.map(worker, pending))
            for (_, spec, fingerprint), result in zip(misses, fresh):
                cache_result(spec, self.store, fingerprint, result)
        else:
            fresh = execute_specs(pending, self.store)
        for (index, _, _), result in zip(misses, fresh):
            results[index] = result
        return results

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
        from ..sim.mix_runner import MixRunner
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
