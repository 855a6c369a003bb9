"""Persistent, fingerprint-keyed result store — a façade over the
storage engines of :mod:`repro.runtime.backends`.

A two-layer store every process can share:

* an **in-memory layer** (a plain dict) for hot lookups within a
  process, and
* a **backend layer** holding canonical-JSON documents: the sharded
  JSON-document ``directory`` tree (the default, and the only
  persistent engine) or a process-local ``memory`` engine.

Keys are the canonical content fingerprints of
:class:`~repro.runtime.spec.RunSpec` / ``BaselineSpec``; values are
JSON documents wrapping a :class:`~repro.runtime.spec.RunRecord` or a
baseline's latency summary.  The façade owns everything semantic —
schema stamping, canonical serialization, typed wrappers, prune/clear
— while backends move bytes, which is why both engines holding the
same corpus hold the same text under every fingerprint.

The store location comes from ``REPRO_STORE`` — a URL like
``directory:///path`` / ``memory://``, or the historical ``0``/``off``
toggle — falling back to ``REPRO_CACHE_DIR`` and then
``~/.cache/repro-ubik`` (a directory tree, exactly as before).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Union

from .._version import __version__
from .backends import StoreBackend, make_backend, parse_store_url
from .spec import SPEC_SCHEMA_VERSION, RunRecord, canonical_json

if TYPE_CHECKING:
    from ..sim.mix_runner import BaselineResult

__all__ = [
    "ResultStore",
    "default_store_url",
    "DEFAULT_STORE_DIRNAME",
]

#: Directory under the user cache dir holding the default store.
DEFAULT_STORE_DIRNAME = "repro-ubik"


def default_store_url() -> Optional[str]:
    """The environment's store target, or ``None`` for a memory-only
    store.

    A ``REPRO_STORE`` carrying a backend URL (``directory://…``,
    ``memory://``) wins outright.  Otherwise ``REPRO_STORE=0`` (or
    ``off``/``false``/``no``/``memory``) keeps the store in memory,
    ``REPRO_CACHE_DIR`` names a directory store, and the default is
    the directory tree ``~/.cache/repro-ubik`` (honouring
    ``XDG_CACHE_HOME``).  A URL naming no engine, a ``directory://``
    URL without a path, or any other value (a bare path included: it
    goes in ``REPRO_CACHE_DIR``) raises a :class:`ValueError` whose
    message starts with ``REPRO_STORE``.
    """
    toggle = os.environ.get("REPRO_STORE", "").strip()
    if "://" in toggle:
        try:
            name, _ = parse_store_url(toggle)
        except ValueError as exc:
            raise ValueError(f"REPRO_STORE: {exc}") from None
        return None if name == "memory" else toggle
    if toggle.lower() in ("0", "off", "false", "no", "memory"):
        return None
    if toggle:
        raise ValueError(
            f"REPRO_STORE: {toggle!r} is neither a store URL nor an off token "
            "(a directory goes in REPRO_CACHE_DIR or as directory:///path)"
        )
    override = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if override:
        return str(Path(override).expanduser())
    cache_home = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(cache_home).expanduser() if cache_home else Path.home() / ".cache"
    return str(base / DEFAULT_STORE_DIRNAME)


#: Anything :class:`ResultStore` accepts as its location.
StoreLocation = Union[None, str, os.PathLike, StoreBackend]


class ResultStore:
    """Two-layer (memory + backend) JSON store keyed by fingerprint.

    ``root`` may be ``None`` (memory engine), a filesystem path (the
    directory engine, as always), a ``directory://`` or ``memory://``
    URL, or a live :class:`~repro.runtime.backends.StoreBackend`
    instance.
    """

    def __init__(self, root: StoreLocation = None):
        self.backend = make_backend(root)
        #: The directory backend's tree root; ``None`` for the memory
        #: engine.  Kept as a public attribute for compatibility (the
        #: CLI and tests path-join against it).
        self.root = self.backend.root
        self._mem: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """The ``scheme://location`` string describing this store."""
        return self.backend.url

    @property
    def persistent(self) -> bool:
        """Whether another process opening :attr:`url` shares the data."""
        return self.backend.persistent

    def share_target(self) -> Optional[str]:
        """The handoff token pool workers reopen the store with —
        :attr:`url` for persistent engines, ``None`` for a memory store
        (whose contents cannot reach another process)."""
        return self.backend.url if self.backend.persistent else None

    @property
    def memo_key(self) -> Any:
        """A hashable identity for per-store memo tables: the URL when
        persistent (two handles on one corpus share memos), object
        identity otherwise (two memory stores share nothing)."""
        return self.backend.url if self.backend.persistent else id(self)

    def close(self) -> None:
        """Release backend handles (idempotent)."""
        self.backend.close()

    # ------------------------------------------------------------------
    # Raw document layer
    # ------------------------------------------------------------------
    def document_path(self, fingerprint: str) -> Optional[Path]:
        """Where a fingerprint's document lives as its own file
        (``None`` on the memory engine, which keeps no files).  The file need not exist yet; the
        path is deterministic, which is what ``repro run`` prints."""
        return self.backend.document_path(fingerprint)

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored document for a fingerprint, or ``None``."""
        hit = self._mem.get(fingerprint)
        if hit is not None:
            return hit
        text = self.backend.get_doc(fingerprint)
        if text is None:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            return None  # torn/corrupt entry reads as a miss
        self._mem[fingerprint] = payload
        return payload

    @staticmethod
    def _stamp(payload: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp a document with its schema generation and writer.

        ``schema`` is :data:`~repro.runtime.spec.SPEC_SCHEMA_VERSION`
        at write time — what :meth:`prune` keys on — and ``repro`` is
        the package version that produced the entry (provenance only).
        """
        if payload.get("schema") == SPEC_SCHEMA_VERSION:
            return payload
        return dict(payload, schema=SPEC_SCHEMA_VERSION, repro=__version__)

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        """Store a document in memory and (atomically) in the backend.

        Every backend receives the same canonical-JSON text for the
        same logical document — the serialization happens here, once.
        """
        payload = self._stamp(payload)
        self._mem[fingerprint] = payload
        self.backend.put_doc(fingerprint, canonical_json(payload))

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    def __len__(self) -> int:
        return self.backend.doc_count()

    def fingerprints(self) -> Iterator[str]:
        """Every fingerprint the backend currently holds."""
        return self.backend.iter_docs()

    # ------------------------------------------------------------------
    # Typed wrappers
    # ------------------------------------------------------------------
    def get_record(self, fingerprint: str) -> Optional[RunRecord]:
        """A stored sweep :class:`RunRecord`, or ``None``."""
        doc = self.get(fingerprint)
        if doc is None or doc.get("kind") != "run":
            return None
        return RunRecord.from_dict(doc["record"])

    def put_record(self, fingerprint: str, record: RunRecord) -> None:
        """Persist one sweep record under its spec fingerprint."""
        self.put(fingerprint, {"kind": "run", "record": record.to_dict()})

    def cache_doc(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        """Warm the in-memory layer only (no backend write).

        Used when another process is known to have persisted the entry
        already — e.g. pool workers write to the shared backend,
        and the parent only needs fast in-process lookups.
        """
        self._mem[fingerprint] = self._stamp(payload)

    def cache_record(self, fingerprint: str, record: RunRecord) -> None:
        """Warm the in-memory layer with one sweep record."""
        self.cache_doc(fingerprint, {"kind": "run", "record": record.to_dict()})

    def get_baseline(self, fingerprint: str) -> Optional[BaselineResult]:
        """A stored isolated-baseline result, or ``None``."""
        doc = self.get(fingerprint)
        if doc is None or doc.get("kind") != "baseline":
            return None
        from ..sim.mix_runner import BaselineResult

        return BaselineResult(
            tail95_cycles=doc["tail95_cycles"],
            p95_cycles=doc["p95_cycles"],
            latencies=tuple(doc["latencies"]),
        )

    def put_baseline(self, fingerprint: str, baseline: BaselineResult) -> None:
        """Persist one isolated-baseline result."""
        self.put(
            fingerprint,
            {
                "kind": "baseline",
                "tail95_cycles": baseline.tail95_cycles,
                "p95_cycles": baseline.p95_cycles,
                "latencies": list(baseline.latencies),
            },
        )

    # ------------------------------------------------------------------
    # Maintenance / inspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Entry counts and disk footprint for ``repro cache``.

        ``disk_entries``/``disk_bytes`` keep their historical meaning
        (zero for a memory store); ``documents`` counts the backend's
        documents regardless of engine.
        """
        documents = self.backend.doc_count()
        kinds: Dict[str, int] = {}
        for fingerprint in self.backend.iter_docs():
            text = self.backend.get_doc(fingerprint)
            if text is None:
                # Entry vanished mid-scan (a concurrent clear): the
                # store tolerates this race everywhere else, too.
                kind = "vanished"
            else:
                try:
                    kind = json.loads(text).get("kind", "?")
                except ValueError:
                    kind = "corrupt"
            kinds[kind] = kinds.get(kind, 0) + 1
        persistent = self.backend.persistent
        return {
            "backend": self.backend.name,
            "url": self.backend.url,
            "root": str(self.root) if self.root else None,
            "memory_entries": len(self._mem),
            "documents": documents,
            "disk_entries": documents if persistent else 0,
            "disk_bytes": self.backend.disk_bytes(),
            "by_kind": kinds,
        }

    def prune(self) -> Dict[str, int]:
        """Drop entries from stale schema generations; keep the rest.

        ``SPEC_SCHEMA_VERSION`` is bumped whenever engine semantics
        change, which makes every previously stored fingerprint
        unreachable — the entries are dead weight on disk.  Every
        written document is stamped with the schema it was produced
        under (see :meth:`_stamp`); prune deletes documents whose stamp
        differs from the current generation, documents predating the
        stamp (unknowable provenance), and unparseable entries.
        The blob side a store written by an older version kept is
        dead weight too, and goes.  Returns ``{"kept": …, "pruned": …}``.
        """
        kept = 0
        pruned = 0
        for fingerprint in list(self.backend.iter_docs()):
            text = self.backend.get_doc(fingerprint)
            if text is None:
                continue  # vanished mid-scan: nothing left to prune
            try:
                stale = json.loads(text).get("schema") != SPEC_SCHEMA_VERSION
            except ValueError:
                stale = True  # corrupt: reclaim it
            if not stale:
                kept += 1
                continue
            self.backend.delete_doc(fingerprint)
            pruned += 1
        for fingerprint in [
            fp
            for fp, doc in self._mem.items()
            if doc.get("schema") != SPEC_SCHEMA_VERSION
        ]:
            del self._mem[fingerprint]
        self.backend.drop_retired_blobs()
        return {"kept": kept, "pruned": pruned}

    def clear(self) -> int:
        """Drop every document (both layers) and any blob side an older
        version kept; returns backend entries removed."""
        self._mem.clear()
        removed = self.backend.clear_documents()
        self.backend.drop_retired_blobs()
        return removed
