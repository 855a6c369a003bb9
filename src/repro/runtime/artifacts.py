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
    Computed/parsed :class:`~repro.sim.mix_runner.BaselineResult`
    pools, keyed by the existing
    :class:`~repro.runtime.spec.BaselineSpec` fingerprint.  This is the
    layer that lets a long-lived worker serve a baseline to every spec
    in a batch without re-simulating or re-parsing it.
``baseline_parse``
    Counter-only kind: :meth:`~repro.runtime.store.ResultStore.get_baseline`
    reports its per-store parse-memo hits/misses here, so
    ``repro cache --stats`` sees how often JSON re-parsing was skipped.
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
no eviction policy is needed.  Set ``REPRO_ARTIFACTS=0`` to disable the
layer entirely — results are byte-identical either way, which
``tests/golden/test_artifact_golden.py`` pins store-tree-for-store-tree.

**Tier 2 — the persistent artifact tier.**  The in-process dictionary
is tier 1: it dies with the process, so every fresh run re-synthesizes
every stream and re-simulates every baseline at least once.
``REPRO_ARTIFACTS_TIER2`` adds a persistent tier below it, backed by
the *blob side* of any store backend (``1``/``on`` places it next to
the default result store; any path or ``sqlite://``/``directory://``
URL names a location explicitly, so a process pool can share one
corpus).  Only the expensive, exactly-serializable kinds
persist — ``stream`` (NumPy ``savez`` round-trip, bit-exact float64)
and ``baseline`` (canonical JSON) — keyed by the content fingerprint
of their tier-1 key.  Reads promote into tier 1; writes go straight
through; a disabled cache (``REPRO_ARTIFACTS=0``) bypasses tier 2
entirely, so the cache-off byte-parity arm is untouched.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

__all__ = [
    "ArtifactCache",
    "get_artifacts",
    "reset_artifacts",
    "artifacts_enabled",
    "artifacts_tier2_target",
    "config_key",
    "workload_key",
    "stream_key",
]

#: Environment toggle: ``0``/``off``/``false``/``no`` disables the layer.
_ENV_TOGGLE = "REPRO_ARTIFACTS"

#: Environment knob for the persistent tier: off-token, ``1``/``on``
#: (meaning "next to the default store"), a path, or a backend URL.
_ENV_TIER2 = "REPRO_ARTIFACTS_TIER2"


def artifacts_enabled() -> bool:
    """Whether the environment enables the artifact layer (default on)."""
    toggle = os.environ.get(_ENV_TOGGLE, "").strip().lower()
    return toggle not in ("0", "off", "false", "no")


def artifacts_tier2_target() -> Optional[str]:
    """Where the persistent artifact tier lives, per the environment.

    ``REPRO_ARTIFACTS_TIER2`` unset (or an off-token) disables the
    tier; ``1``/``on``/``true``/``yes`` places it beside the default
    result store (``<store root>-artifacts``); anything else is taken
    verbatim — a directory path or a ``scheme://location`` backend URL.
    """
    raw = os.environ.get(_ENV_TIER2, "").strip()
    if not raw or raw.lower() in ("0", "off", "false", "no"):
        return None
    if raw.lower() in ("1", "on", "true", "yes"):
        from .store import default_store_root

        root = default_store_root()
        if root is None:
            return None
        return f"{root}-artifacts"
    return raw


# ----------------------------------------------------------------------
# Tier-2 codecs
# ----------------------------------------------------------------------
# Only kinds with an *exact* byte round-trip persist: serving a stream
# or baseline from tier 2 must be indistinguishable — bit for bit —
# from recomputing it, or the byte-parity contract on store documents
# would silently break across process restarts.  Object kinds
# (workloads, core models) are cheap to rebuild and stay tier-1-only.


def _encode_stream(value: Tuple[Any, Any]) -> bytes:
    """``(arrivals, works)`` → an in-memory ``.npz`` archive.

    ``np.savez`` stores raw float64 buffers, so the decode side returns
    arrays bit-identical to what the synthesizer produced.
    """
    import numpy as np

    arrivals, works = value
    buffer = io.BytesIO()
    np.savez(buffer, arrivals=np.asarray(arrivals), works=np.asarray(works))
    return buffer.getvalue()


def _decode_stream(payload: bytes) -> Tuple[Any, Any]:
    """An ``.npz`` archive back to frozen ``(arrivals, works)`` arrays."""
    import numpy as np

    with np.load(io.BytesIO(payload)) as archive:
        arrivals = archive["arrivals"]
        works = archive["works"]
    # Same freeze as the synthesizer: tier-2-served streams are shared
    # across runs, so mutation must fail loudly.
    arrivals.flags.writeable = False
    works.flags.writeable = False
    return arrivals, works


def _encode_baseline(value: Any) -> bytes:
    """A ``BaselineResult`` → canonical-JSON bytes (the store's own
    baseline document shape, minus the envelope)."""
    from .spec import canonical_json

    return canonical_json(
        {
            "tail95_cycles": value.tail95_cycles,
            "p95_cycles": value.p95_cycles,
            "latencies": list(value.latencies),
        }
    ).encode("utf-8")


def _decode_baseline(payload: bytes) -> Any:
    """Canonical-JSON bytes back to a ``BaselineResult``."""
    from ..sim.mix_runner import BaselineResult

    doc = json.loads(payload.decode("utf-8"))
    return BaselineResult(
        tail95_cycles=doc["tail95_cycles"],
        p95_cycles=doc["p95_cycles"],
        latencies=tuple(doc["latencies"]),
    )


#: kind → (encode, decode); absence means the kind never persists.
_TIER2_CODECS: Dict[str, Tuple[Callable[[Any], bytes], Callable[[bytes], Any]]] = {
    "stream": (_encode_stream, _decode_stream),
    "baseline": (_encode_baseline, _decode_baseline),
}


class ArtifactCache:
    """A per-process map of (kind, content key) → immutable artifact.

    ``kind`` namespaces the key space (``"stream"``, ``"baseline"``, …)
    and buckets the hit/miss counters that ``repro cache --stats``
    reports.  ``enabled=None`` (the default) follows the
    ``REPRO_ARTIFACTS`` environment toggle dynamically; an explicit
    boolean pins it (tests and the bench harness use this).

    When disabled, :meth:`get` always misses without counting and
    :meth:`put` drops the value, so callers need no branches: the
    surrounding code behaves exactly as if the layer did not exist.
    """

    def __init__(self, enabled: Optional[bool] = None):
        self._enabled = enabled
        self._entries: Dict[str, Dict[Hashable, Any]] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        # Persistent tier: the resolved target string and its backend
        # handle (lazily opened; re-resolved when the env knob moves).
        self._tier2_target: Optional[str] = None
        self._tier2_backend: Optional[Any] = None
        self._tier2_hits: Dict[str, int] = {}
        self._tier2_misses: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        """Effective on/off state (explicit flag, else the environment)."""
        if self._enabled is not None:
            return self._enabled
        return artifacts_enabled()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, kind: str, key: Hashable) -> Optional[Any]:
        """The cached artifact, or ``None`` (counts a hit or a miss).

        A tier-1 miss (counted as a miss either way, so the existing
        per-process counters keep their meaning) falls through to the
        persistent tier when one is configured; tier-2 hits are
        promoted into tier 1.
        """
        if not self.enabled:
            return None
        bucket = self._entries.get(kind)
        value = bucket.get(key) if bucket is not None else None
        self.count(kind, hit=value is not None)
        if value is None:
            value = self._tier2_get(kind, key)
            if value is not None:
                self._entries.setdefault(kind, {})[key] = value
        return value

    def put(self, kind: str, key: Hashable, value: Any) -> None:
        """Cache one artifact, writing through to the persistent tier
        (a no-op when the layer is disabled)."""
        if not self.enabled:
            return
        self._entries.setdefault(kind, {})[key] = value
        self._tier2_put(kind, key, value)

    def get_or_make(
        self, kind: str, key: Hashable, build: Callable[[], Any]
    ) -> Any:
        """Serve a cached artifact, else build, cache, and return it.

        The persistent tier is probed between the tier-1 miss and the
        build — a fresh process inheriting a warm tier 2 skips the
        expensive synthesis entirely — and freshly built artifacts
        write through so the *next* process skips it too.
        """
        if not self.enabled:
            return build()
        bucket = self._entries.setdefault(kind, {})
        value = bucket.get(key)
        if value is not None:
            self.count(kind, hit=True)
            return value
        self.count(kind, hit=False)
        value = self._tier2_get(kind, key)
        if value is not None:
            bucket[key] = value
            return value
        value = build()
        bucket[key] = value
        self._tier2_put(kind, key, value)
        return value

    def count(self, kind: str, hit: bool) -> None:
        """Record an external hit/miss under ``kind`` (counters only).

        Lets memos that live elsewhere — e.g. the store's baseline
        parse memo — surface through the same ``repro cache --stats``
        report without moving their storage here.
        """
        if not self.enabled:
            return
        counters = self._hits if hit else self._misses
        counters[kind] = counters.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # Tier 2 (persistent, best-effort)
    # ------------------------------------------------------------------
    def _tier2(self) -> Optional[Any]:
        """The persistent tier's backend, or ``None`` when disabled.

        Resolved lazily from :func:`artifacts_tier2_target` and
        re-resolved whenever the environment knob changes (tests — and
        long-lived drivers — repoint it between runs).
        """
        target = artifacts_tier2_target()
        if target is None:
            return None
        if self._tier2_backend is None or target != self._tier2_target:
            from .backends import make_backend

            if self._tier2_backend is not None:
                self._tier2_backend.close()
            self._tier2_backend = make_backend(target)
            self._tier2_target = target
        return self._tier2_backend

    @staticmethod
    def _tier2_key(kind: str, key: Hashable) -> Optional[str]:
        """Content-addressed blob key for one artifact, or ``None``
        for keys that don't serialize (those stay tier-1-only)."""
        from .spec import fingerprint_payload

        try:
            return fingerprint_payload(["artifact", kind, key])
        except (TypeError, ValueError):
            return None

    def _tier2_get(self, kind: str, key: Hashable) -> Optional[Any]:
        """Probe the persistent tier (counts a tier-2 hit or miss)."""
        codec = _TIER2_CODECS.get(kind)
        if codec is None:
            return None
        backend = self._tier2()
        if backend is None:
            return None
        blob_key = self._tier2_key(kind, key)
        if blob_key is None:
            return None
        payload = backend.get_blob(blob_key)
        value = None
        if payload is not None:
            try:
                value = codec[1](payload)
            except Exception:
                value = None  # corrupt/foreign blob: treat as a miss
        counters = self._tier2_hits if value is not None else self._tier2_misses
        counters[kind] = counters.get(kind, 0) + 1
        return value

    def _tier2_put(self, kind: str, key: Hashable, value: Any) -> None:
        """Write one artifact through to the persistent tier.

        Best-effort by design: a full disk or unwritable location
        degrades to tier-1-only behaviour rather than failing the run.
        """
        codec = _TIER2_CODECS.get(kind)
        if codec is None:
            return
        backend = self._tier2()
        if backend is None:
            return
        blob_key = self._tier2_key(kind, key)
        if blob_key is None:
            return
        try:
            backend.put_blob(blob_key, codec[0](value))
        except Exception:
            pass

    def invalidate(self, kind: str, key: Hashable) -> None:
        """Drop one entry (a no-op when absent)."""
        bucket = self._entries.get(kind)
        if bucket is not None:
            bucket.pop(key, None)

    def clear(self) -> None:
        """Drop every tier-1 entry and reset every counter.

        The persistent tier's *data* is left alone — it is
        content-addressed, so stale entries are impossible — but its
        handle and counters reset, so a repointed
        ``REPRO_ARTIFACTS_TIER2`` takes effect immediately.
        """
        self._entries.clear()
        self._hits.clear()
        self._misses.clear()
        self._tier2_hits.clear()
        self._tier2_misses.clear()
        if self._tier2_backend is not None:
            self._tier2_backend.close()
        self._tier2_backend = None
        self._tier2_target = None

    @contextmanager
    def pinned(self, enabled: bool) -> Iterator[None]:
        """Temporarily pin the layer on or off, environment ignored.

        The bench harness pins its warm arm *on* and its cold arm
        *off* so the recorded comparison measures the cache, not
        whatever ``REPRO_ARTIFACTS`` happens to be set to.
        """
        previous = self._enabled
        self._enabled = enabled
        try:
            yield
        finally:
            self._enabled = previous

    def disabled(self):
        """Temporarily pin the layer off (``pinned(False)`` sugar)."""
        return self.pinned(False)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Per-kind hit/miss/entry counts for ``repro cache --stats``.

        The ``tier2`` section reports the persistent tier: whether one
        is configured, its backend URL, and per-kind hit/miss counters
        (hits there are syntheses this process never had to run).
        """
        kinds = sorted(
            set(self._entries) | set(self._hits) | set(self._misses)
        )
        tier2_backend = self._tier2()
        tier2_kinds = sorted(set(self._tier2_hits) | set(self._tier2_misses))
        return {
            "enabled": self.enabled,
            "entries": sum(len(b) for b in self._entries.values()),
            "kinds": {
                kind: {
                    "hits": self._hits.get(kind, 0),
                    "misses": self._misses.get(kind, 0),
                    "entries": len(self._entries.get(kind, ())),
                }
                for kind in kinds
            },
            "tier2": {
                "enabled": tier2_backend is not None,
                "url": tier2_backend.url if tier2_backend is not None else None,
                "kinds": {
                    kind: {
                        "hits": self._tier2_hits.get(kind, 0),
                        "misses": self._tier2_misses.get(kind, 0),
                    }
                    for kind in tier2_kinds
                },
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
