"""The in-process store engine: a dict behind the backend protocol.

This is what ``ResultStore(None)`` / ``REPRO_STORE=0`` / ``memory://``
resolve to — the "disk layer off" mode, expressed as a first-class
backend so every code path (stats, prune, the engine-parametrized test
suites) treats it uniformly instead of special-casing ``root is None``.

Documents round-trip through the same canonical-JSON texts the
directory engine stores — not live dict references — so a memory
store has *identical* serialization semantics (float round-tripping
included) and holds the same text per fingerprint as a directory store
holding the same corpus.  ``persistent`` is False: a second handle on
``memory://`` is a fresh empty store, which is why the session never
hands a memory store across process boundaries.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from .base import StoreBackend

__all__ = ["MemoryBackend"]


class MemoryBackend(StoreBackend):
    """Dict-backed documents; vanishes with the process."""

    name = "memory"
    persistent = False

    def __init__(self) -> None:
        self._docs: Dict[str, str] = {}

    @property
    def url(self) -> str:
        """Always ``memory://`` — the location names no shared state."""
        return "memory://"

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def get_doc(self, fingerprint: str) -> Optional[str]:
        """The stored canonical-JSON text, or ``None``."""
        return self._docs.get(fingerprint)

    def put_doc(self, fingerprint: str, text: str) -> None:
        """Store one document's canonical-JSON text."""
        self._docs[fingerprint] = text

    def delete_doc(self, fingerprint: str) -> None:
        """Drop one document (a no-op when absent)."""
        self._docs.pop(fingerprint, None)

    def iter_docs(self) -> Iterator[str]:
        """Every stored fingerprint (snapshot tuple, mutation-safe)."""
        return iter(tuple(self._docs))

    def doc_count(self) -> int:
        """Number of stored documents."""
        return len(self._docs)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear_documents(self) -> int:
        """Drop every document; returns how many were held."""
        count = len(self._docs)
        self._docs.clear()
        return count

    def disk_bytes(self) -> int:
        """Always zero: nothing ever touches disk."""
        return 0
