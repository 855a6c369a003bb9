"""Persistent, fingerprint-keyed result store.

A :class:`ResultStore` is a dict of JSON documents over an optional
directory tree.  Keys are the canonical content fingerprints of
:class:`~repro.runtime.spec.RunSpec` / ``BaselineSpec``; values wrap a
:class:`~repro.runtime.spec.RunRecord` or a baseline's latency summary.

* A **memory store** (no root) is the dict alone, and vanishes with
  the process.
* A **directory store** keeps each document as canonical JSON at
  ``<root>/<fp[:2]>/<fp>.json``, sharded by prefix so no directory
  grows unbounded, and its dict caches what this process has read or
  written.  Every write goes to a ``.tmp``-suffixed temp file in the
  shard and is published with :func:`os.replace`, so a crash mid-write
  leaves the old document or an orphaned temp (ignored by every read,
  swept by :meth:`ResultStore.clear`), never a torn document.  Only
  the two-hex-char shards are read, written and cleared; any other
  subtree is left alone, except the ``blobs/`` files older versions
  kept, which :meth:`~ResultStore.prune` and
  :meth:`~ResultStore.clear` reclaim.

The location comes from ``REPRO_STORE`` — a URL like
``directory:///path`` / ``memory://``, or a ``0``/``off`` token —
falling back to ``REPRO_CACHE_DIR`` and then ``~/.cache/repro-ubik``
(a directory tree).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple, Union

from .._version import __version__
from .spec import SPEC_SCHEMA_VERSION, RunRecord, canonical_json

if TYPE_CHECKING:
    from ..sim.mix_runner import BaselineResult

__all__ = [
    "ResultStore",
    "default_store_url",
    "parse_store_url",
    "DEFAULT_STORE_DIRNAME",
]

#: Directory under the user cache dir holding the default store.
DEFAULT_STORE_DIRNAME = "repro-ubik"

#: The URL schemes a store location may name.
_SCHEMES = ("directory", "memory")

#: Store locations meaning "no persistent store" (``REPRO_STORE=0`` …).
_OFF_TOKENS = ("0", "off", "false", "no", "memory")

#: Anything :class:`ResultStore` accepts as its location.
StoreLocation = Union[None, str, os.PathLike]


def parse_store_url(target: str) -> Tuple[str, Optional[str]]:
    """Split a store location into ``(kind, directory or None)``.

    Accepts ``directory://path`` and ``memory://`` URLs, bare paths
    (a directory store) and the off-tokens (``0``/``off``/``false``/
    ``no``/``memory``, or nothing), which mean a memory store.  Raises
    :class:`ValueError` on an unknown scheme, a ``directory://`` URL
    missing its path, or a ``memory://`` URL naming a location.
    """
    text = str(target).strip()
    if not text or text.lower() in _OFF_TOKENS:
        return "memory", None
    scheme, sep, rest = text.partition("://")
    if not sep:
        return "directory", text  # bare path
    name = scheme.strip().lower()
    if name not in _SCHEMES:
        raise ValueError(
            f"unknown store backend {name!r} in {target!r} "
            f"(known: {', '.join(_SCHEMES)})"
        )
    location = rest.strip() or None
    if name == "directory" and location is None:
        raise ValueError(f"store URL {target!r} is missing its path")
    if name == "memory" and location is not None:
        raise ValueError(
            f"store URL {target!r} names a location, but a memory store "
            "keeps nothing (a directory goes as directory:///path)"
        )
    return name, location


def default_store_url() -> Optional[str]:
    """The environment's store target, or ``None`` for a memory-only
    store.

    A ``REPRO_STORE`` carrying a store URL (``directory://…``,
    ``memory://``) wins outright.  Otherwise ``REPRO_STORE=0`` (or
    ``off``/``false``/``no``/``memory``) keeps the store in memory,
    ``REPRO_CACHE_DIR`` names a directory store, and the default is
    the directory tree ``~/.cache/repro-ubik`` (honouring
    ``XDG_CACHE_HOME``).  A URL :func:`parse_store_url` refuses, or any
    other value (a bare path included: it goes in ``REPRO_CACHE_DIR``)
    raises a :class:`ValueError` whose message starts with
    ``REPRO_STORE``.
    """
    toggle = os.environ.get("REPRO_STORE", "").strip()
    if toggle:
        if "://" not in toggle and toggle.lower() not in _OFF_TOKENS:
            raise ValueError(
                f"REPRO_STORE: {toggle!r} is neither a store URL nor an off token "
                "(a directory goes in REPRO_CACHE_DIR or as directory:///path)"
            )
        try:
            name, _ = parse_store_url(toggle)
        except ValueError as exc:
            raise ValueError(f"REPRO_STORE: {exc}") from None
        return None if name == "memory" else toggle
    override = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if override:
        return str(Path(override).expanduser())
    cache_home = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(cache_home).expanduser() if cache_home else Path.home() / ".cache"
    return str(base / DEFAULT_STORE_DIRNAME)


def _parse(data: bytes) -> Optional[Dict[str, Any]]:
    """A stored file's document, or ``None`` when it is not a JSON
    object (torn or corrupt)."""
    try:
        doc = json.loads(data)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def _atomic_write(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` via temp file + :func:`os.replace`.

    The ``.tmp`` suffix keeps in-flight files out of every glob this
    module runs; a concurrent ``clear()`` sweeping the temp out from
    under us is benign (the store is a cache — see the except below).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        try:
            os.replace(tmp, path)
        except FileNotFoundError:
            # A concurrent clear() swept our temp: losing this write is
            # benign — the entry stays in the writer's dict.
            pass
    except BaseException:
        _quietly(os.unlink, tmp)
        raise


def _quietly(action, path) -> bool:
    """``action(path)``; ``False`` when it raised an :class:`OSError`
    (the file already gone, the directory not empty)."""
    try:
        action(path)
    except OSError:
        return False
    return True


class ResultStore:
    """A dict of JSON documents keyed by fingerprint, over an optional
    directory tree.

    ``root`` may be ``None`` (a memory store), a filesystem path, or a
    location string :func:`parse_store_url` accepts.
    """

    def __init__(self, root: StoreLocation = None):
        if isinstance(root, str):
            _, root = parse_store_url(root)
        #: The directory tree's root; ``None`` for a memory store.
        self.root: Optional[Path] = None if root is None else Path(root).expanduser()
        self._docs: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """The ``scheme://location`` string describing this store."""
        return "memory://" if self.root is None else f"directory://{self.root}"

    @property
    def persistent(self) -> bool:
        """Whether another process opening :attr:`url` shares the data."""
        return self.root is not None

    def share_target(self) -> Optional[str]:
        """The handoff token pool workers reopen the store with —
        :attr:`url` for a directory store, ``None`` for a memory store
        (whose contents cannot reach another process)."""
        return self.url if self.persistent else None

    @property
    def memo_key(self) -> Any:
        """A hashable identity for per-store memo tables: the URL when
        persistent (two handles on one corpus share memos), object
        identity otherwise (two memory stores share nothing)."""
        return self.url if self.persistent else id(self)

    # ------------------------------------------------------------------
    # Raw document layer
    # ------------------------------------------------------------------
    def document_path(self, fingerprint: str) -> Optional[Path]:
        """Where a fingerprint's document lives as its own file
        (``None`` on a memory store, which keeps no files).  The file
        need not exist yet; the path is deterministic, which is what
        ``repro run`` prints."""
        if self.root is None:
            return None
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored document for a fingerprint, or ``None``.

        A file that is not a JSON object reads as a miss.
        """
        doc = self._docs.get(fingerprint)
        if doc is None and self.root is not None:
            try:
                doc = _parse(self.document_path(fingerprint).read_bytes())
            except OSError:
                return None
            if doc is not None:
                self._docs[fingerprint] = doc
        return doc

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
        """Store a document: serialize it to canonical JSON once, write
        that text (atomically) to a directory store's tree, then keep
        the document in the dict.

        A memory store serializes too, so it refuses what a directory
        store refuses (NaN, say), and a ``put`` that raises leaves the
        store as it was.
        """
        payload = self._stamp(payload)
        text = canonical_json(payload)
        if self.root is not None:
            _atomic_write(self.document_path(fingerprint), text.encode("utf-8"))
        self._docs[fingerprint] = payload

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    def _paths(self) -> Iterator[Path]:
        """A directory store's document files (no temps, no subtrees)."""
        return (p for p in self.root.glob("??/*.json") if not p.name.startswith("."))

    def __len__(self) -> int:
        if self.root is None:
            return len(self._docs)
        return sum(1 for _ in self._paths())

    def fingerprints(self) -> Iterator[str]:
        """Every fingerprint the store holds (its files, on a directory
        store)."""
        if self.root is None:
            return iter(tuple(self._docs))
        return (p.stem for p in self._paths())

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
        """Keep a document in the dict only, writing no file.

        Used when another process is known to have persisted the entry
        already — e.g. pool workers write to the shared tree, and the
        parent only needs fast in-process lookups.  On a memory store
        the dict is the store.
        """
        self._docs[fingerprint] = self._stamp(payload)

    def cache_record(self, fingerprint: str, record: RunRecord) -> None:
        """Keep one sweep record in the dict only."""
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
    def _scan(self) -> Iterator[Tuple[str, Optional[Dict[str, Any]], int]]:
        """``(fingerprint, document, bytes)`` for everything the store
        holds, read afresh from a directory store's files.

        The document is ``None`` for a file that is not a JSON object; a
        file that goes mid-scan (a concurrent clear) is skipped, and a
        memory store's documents take no bytes.
        """
        if self.root is None:
            for fingerprint, doc in list(self._docs.items()):
                yield fingerprint, doc, 0
            return
        for path in list(self._paths()):
            try:
                data = path.read_bytes()
            except OSError:
                continue
            yield path.stem, _parse(data), len(data)

    def _delete(self, fingerprint: str) -> None:
        """Drop one document, and its shard directory if that empties."""
        self._docs.pop(fingerprint, None)
        path = self.document_path(fingerprint)
        if path is not None and _quietly(Path.unlink, path):
            _quietly(Path.rmdir, path.parent)

    def _drop_retired_blobs(self) -> None:
        """Remove what older versions wrote under a tree's ``blobs/``.

        Only their ``??/*.bin`` blobs and ``??/.tmp-*.tmp`` temps are
        unlinked; the shard directories and ``blobs/`` itself go only
        if that empties them, so anything else there is left alone.
        """
        blobs = self.root / "blobs"
        for path in [*blobs.glob("??/*.bin"), *blobs.glob("??/.tmp-*.tmp")]:
            _quietly(Path.unlink, path)
        for path in [*blobs.glob("??"), blobs]:
            _quietly(Path.rmdir, path)

    def stats(self) -> Dict[str, Any]:
        """Entry counts and disk footprint for ``repro cache``.

        ``documents`` counts what the store holds; ``disk_entries`` and
        ``disk_bytes`` are zero for a memory store.  ``by_kind`` counts
        each document's ``kind``, with ``corrupt`` for a file that is
        not a JSON object.
        """
        scan = list(self._scan())
        kinds = Counter(
            "corrupt" if doc is None else doc.get("kind", "?") for _, doc, _ in scan
        )
        return {
            "backend": "memory" if self.root is None else "directory",
            "url": self.url,
            "root": str(self.root) if self.root else None,
            "memory_entries": len(self._docs),
            "documents": len(scan),
            "disk_entries": len(scan) if self.persistent else 0,
            "disk_bytes": sum(size for _, _, size in scan),
            "by_kind": dict(kinds),
        }

    def prune(self) -> Dict[str, int]:
        """Drop entries from stale schema generations; keep the rest.

        ``SPEC_SCHEMA_VERSION`` is bumped whenever engine semantics
        change, which makes every previously stored fingerprint
        unreachable — the entries are dead weight on disk.  Every
        written document is stamped with the schema it was produced
        under (see :meth:`_stamp`); prune deletes documents whose stamp
        differs from the current generation, documents predating the
        stamp (unknowable provenance), and files that are not a JSON
        object.  The blob side a store written by an older version kept
        is dead weight too, and goes.  Returns ``{"kept": …,
        "pruned": …}``.
        """
        kept = pruned = 0
        for fingerprint, doc, _ in self._scan():
            if doc is not None and doc.get("schema") == SPEC_SCHEMA_VERSION:
                kept += 1
            else:
                self._delete(fingerprint)
                pruned += 1
        # A directory store's dict may hold stale documents no file backs.
        for fingerprint, doc in list(self._docs.items()):
            if doc.get("schema") != SPEC_SCHEMA_VERSION:
                del self._docs[fingerprint]
        if self.root is not None:
            self._drop_retired_blobs()
        return {"kept": kept, "pruned": pruned}

    def clear(self) -> int:
        """Drop every document, orphaned temp, and any blob side an
        older version kept; returns the documents removed."""
        removed = len(self._docs) if self.root is None else 0
        self._docs.clear()
        if self.root is not None:
            for path in list(self._paths()):
                removed += _quietly(Path.unlink, path)
            # Sweep temps orphaned by killed writers.  A live writer's
            # temp is never listed as a document (its ``.tmp`` suffix),
            # but this sweep may take it, which drops that write.
            for orphan in self.root.glob("??/.tmp-*.tmp"):
                _quietly(Path.unlink, orphan)
            self._drop_retired_blobs()
        return removed
