"""Content-addressed, per-process cache of intermediate artifacts.

A sweep grid — lc × load × policy — re-derives an enormous amount of
state that is *identical across cells*: every policy at a given
(lc, load) replays the same request streams, normalizes against the
same isolated baseline, and rebuilds the same workload, core-model and
miss-curve objects.  The :class:`~repro.runtime.store.ResultStore`
deduplicates finished *results* across processes; this module
deduplicates the *intermediate products* within a process, so each
distinct sub-computation happens exactly once per process no matter how
many grid cells need it.

What is cached, and how it is keyed (the full map also lives in
``docs/ARCHITECTURE.md``):

``stream``
    Synthesized ``(arrivals, works)`` request streams, keyed by the
    content signature of everything :meth:`~repro.sim.mix_runner.MixRunner.stream`
    consumes — workload signature (name, target lines, work
    distribution, profile, miss ratio at target), load, instance,
    request count, seed, and the full
    :func:`~repro.runtime.spec.config_fingerprint`.  Cached arrays are
    frozen read-only: sharing is safe because every consumer only reads.
``baseline``
    Computed or store-read :class:`~repro.sim.mix_runner.BaselineResult`
    pools, keyed by the :class:`~repro.runtime.spec.BaselineSpec`
    fingerprint.  This is the layer that lets a long-lived worker serve
    a baseline to every spec in a batch without re-simulating or
    re-parsing it.
``core_model``
    Analytic core models keyed by ``(kind, mem_latency_cycles)``.
``lc_workload`` / ``batch_mix``
    Workload objects (LC models with their miss curves, and the random
    three-app batch trios) keyed by their deterministic construction
    inputs — ``(lc_name, target_mb)`` and ``(combo, mix_seed)``.  All
    are frozen dataclasses, so sharing one instance across specs is
    safe by construction.

Process-lifetime rules: the cache is a module-level singleton
(:func:`get_artifacts`) that lives for the process — pool workers
warm it across every spec they evaluate in a batch
(:func:`~repro.runtime.work.execute_in_worker` relies on this).  Keys
are pure content signatures derived from spec data, never object
identity, so two specs that rebuild the same inputs share one entry.
Entries are immutable (frozen dataclasses, read-only arrays) and the
key space is bounded by the distinct sub-computations of the grid, so
no eviction policy is needed.  The cache is always on: a result is
byte-identical whether its artifacts were served or rebuilt, which
``tests/golden/test_artifact_golden.py`` pins store-tree-for-store-tree
by running a warm batch against specs run one at a time, each from an
emptied cache (:func:`reset_artifacts`).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = [
    "ArtifactCache",
    "get_artifacts",
    "reset_artifacts",
    "config_key",
    "workload_key",
    "stream_key",
]


class ArtifactCache:
    """A per-process map of (kind, content key) → immutable artifact.

    ``kind`` namespaces the key space (``"stream"``, ``"baseline"``, …)
    and buckets the hit/miss counters that ``--stats`` reports.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[Hashable, Any]] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}

    def get(self, kind: str, key: Hashable) -> Optional[Any]:
        """The cached artifact, or ``None`` (counts a hit or a miss)."""
        bucket = self._entries.get(kind)
        value = bucket.get(key) if bucket is not None else None
        self.count(kind, hit=value is not None)
        return value

    def put(self, kind: str, key: Hashable, value: Any) -> None:
        """Cache one artifact."""
        self._entries.setdefault(kind, {})[key] = value

    def get_or_make(
        self, kind: str, key: Hashable, build: Callable[[], Any]
    ) -> Any:
        """Serve a cached artifact, else build, cache, and return it."""
        bucket = self._entries.setdefault(kind, {})
        value = bucket.get(key)
        self.count(kind, hit=value is not None)
        if value is None:
            value = bucket[key] = build()
        return value

    def count(self, kind: str, hit: bool) -> None:
        """Record a hit or a miss under ``kind`` (counters only).

        Lets sharing that is not stored here surface through the same
        ``--stats`` report: a replay group's riders (``replay_group``),
        the cells after its first, which reuse its baseline and LC
        instance specs, while each runs its own engine and memos.
        """
        counters = self._hits if hit else self._misses
        counters[kind] = counters.get(kind, 0) + 1

    def clear(self) -> None:
        """Drop every entry and reset every counter."""
        self._entries.clear()
        self._hits.clear()
        self._misses.clear()

    def stats(self) -> Dict[str, Any]:
        """Per-kind hit/miss/entry counts for ``--stats``."""
        kinds = sorted(
            set(self._entries) | set(self._hits) | set(self._misses)
        )
        return {
            "entries": sum(len(b) for b in self._entries.values()),
            "kinds": {
                kind: {
                    "hits": self._hits.get(kind, 0),
                    "misses": self._misses.get(kind, 0),
                    "entries": len(self._entries.get(kind, ())),
                }
                for kind in kinds
            },
        }


#: The process-wide singleton; workers warm it across a whole batch.
_ARTIFACTS = ArtifactCache()


def get_artifacts() -> ArtifactCache:
    """The process-wide artifact cache."""
    return _ARTIFACTS


def reset_artifacts() -> None:
    """Drop every cached artifact and counter (tests and benchmarks)."""
    _ARTIFACTS.clear()


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------
def _value_signature(value: Any) -> Hashable:
    """A hashable content signature for spec-ish values.

    Frozen dataclasses (work distributions, profiles) flatten to nested
    ``(type, (field, signature), …)`` tuples; tuples/lists recurse.
    Anything else is kept as-is, which degrades gracefully: an opaque
    unhashable object would fail loudly rather than alias, and an
    identity-hashed object merely shares less.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, _value_signature(getattr(value, f.name)))
            for f in fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(_value_signature(v) for v in value)
    return value


@lru_cache(maxsize=256)
def config_key(config) -> str:
    """Memoized :func:`~repro.runtime.spec.config_fingerprint`.

    :class:`~repro.sim.config.CMPConfig` is frozen and hashable, so the
    fingerprint — an ``asdict`` + canonical-JSON + SHA-256 walk — is
    paid once per distinct config instead of once per stream.
    """
    from .spec import config_fingerprint

    return config_fingerprint(config)


@lru_cache(maxsize=256)
def workload_key(workload) -> Hashable:
    """Content signature of everything a request stream reads from an
    LC workload: its name (the stream's seed component), target
    allocation, per-request work distribution, execution profile, and
    the miss ratio at the target allocation (the only point of the
    miss curve that enters the mean service time).  Two separately
    built but identical workloads produce equal keys, so the cache is
    content-addressed rather than identity-addressed.
    """
    return (
        workload.name,
        int(workload.target_lines),
        _value_signature(workload.work),
        _value_signature(workload.profile),
        float(workload.miss_curve(workload.target_lines)),
    )


def stream_key(
    workload, load: float, instance: int, requests: int, seed: int, config
) -> Hashable:
    """The ``stream`` artifact key for one LC instance's request stream."""
    return (
        workload_key(workload),
        float(load),
        int(instance),
        int(requests),
        int(seed),
        config_key(config),
    )
