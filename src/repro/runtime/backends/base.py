"""The storage-backend contract every ResultStore engine satisfies.

A backend is a dumb, faithful store of documents: canonical-JSON texts
keyed by 64-hex-char content fingerprints (the
:class:`~repro.runtime.spec.RunSpec` / ``BaselineSpec`` fingerprints
the runtime already mints).

Backends never interpret what they store: stamping, schema checks, and
JSON (de)serialization belong to the :class:`~repro.runtime.store.ResultStore`
façade, which hands every backend the *same canonical text* for the
same logical document.  So a directory store and a memory store
holding the same corpus map every fingerprint to the same text, and
the directory tree at ``<root>/<fp[:2]>/<fp>.json`` is the canonical
layout of any corpus.
"""

from __future__ import annotations

import abc
from pathlib import Path
from typing import Iterator, Optional

__all__ = ["StoreBackend"]


class StoreBackend(abc.ABC):
    """Abstract get/put/delete/iter engine for documents.

    Class attributes every concrete backend pins:

    ``name``
        The URL scheme (``directory`` or ``memory``).
    ``persistent``
        Whether another process that opens the backend's :attr:`url`
        sees this one's writes.  The façade refuses to hand
        non-persistent stores across process boundaries.
    """

    #: URL scheme; concrete classes override.
    name: str = "abstract"
    #: True when a second process opening :attr:`url` shares the data.
    persistent: bool = False
    #: The directory backend's root; ``None`` for the memory engine.
    #: (Kept on the base so façade code can read it unconditionally.)
    root: Optional[Path] = None

    # ------------------------------------------------------------------
    # Documents (canonical-JSON text by fingerprint)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def get_doc(self, fingerprint: str) -> Optional[str]:
        """The stored canonical-JSON text, or ``None`` when absent."""

    @abc.abstractmethod
    def put_doc(self, fingerprint: str, text: str) -> None:
        """Store (or atomically replace) one document's text."""

    @abc.abstractmethod
    def delete_doc(self, fingerprint: str) -> None:
        """Drop one document (a no-op when absent)."""

    @abc.abstractmethod
    def iter_docs(self) -> Iterator[str]:
        """Every stored fingerprint (any order; sort for determinism)."""

    @abc.abstractmethod
    def doc_count(self) -> int:
        """Number of stored documents."""

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def clear_documents(self) -> int:
        """Drop every document; returns how many were removed."""

    @abc.abstractmethod
    def disk_bytes(self) -> int:
        """On-disk footprint in bytes (0 for non-persistent engines)."""

    def drop_retired_blobs(self) -> None:
        """Remove the blob side older versions kept beside the documents
        (default no-op: only the directory engine ever had one)."""

    def close(self) -> None:
        """Release any held handles (idempotent; default no-op)."""

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def url(self) -> str:
        """The ``scheme://location`` string that reopens this backend.

        For persistent engines this is the worker handoff token: a
        process-pool worker calls ``ResultStore(url)`` and sees the
        same corpus.  ``memory://`` reopens as a *fresh, empty* store —
        which is exactly why :attr:`persistent` is False there.
        """

    def document_path(self, fingerprint: str) -> Optional[Path]:
        """Where one document lives as its own file, if anywhere.

        Only the directory backend has per-document files; the memory
        engine returns ``None``.
        """
        return None

    def __len__(self) -> int:
        return self.doc_count()

    def __iter__(self) -> Iterator[str]:
        return self.iter_docs()

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"<{type(self).__name__} {self.url}>"
