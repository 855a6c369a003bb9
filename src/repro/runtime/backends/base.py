"""The storage-backend contract every ResultStore engine satisfies.

A backend is a dumb, faithful store of documents: canonical-JSON texts
keyed by 64-hex-char content fingerprints (the
:class:`~repro.runtime.spec.RunSpec` / ``BaselineSpec`` fingerprints
the runtime already mints).

Backends never interpret what they store: stamping, schema checks, and
JSON (de)serialization belong to the :class:`~repro.runtime.store.ResultStore`
façade, which hands every backend the *same canonical text* for the
same logical document.  That division is what makes the byte-parity
contract cheap to state: :meth:`StoreBackend.export_canonical` writes
the logical store tree of *any* backend in the directory backend's
on-disk layout, and two backends holding the same corpus export
byte-identical trees (``tests/golden/test_backend_golden.py`` pins
this, and ``repro cache --migrate`` relies on it).
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
        The registry key and URL scheme (``directory``, ``sqlite``,
        ``memory``).
    ``persistent``
        Whether another process that opens the backend's :attr:`url`
        sees this one's writes.  The façade refuses to hand
        non-persistent stores across process boundaries.
    """

    #: Registry key / URL scheme; concrete classes override.
    name: str = "abstract"
    #: True when a second process opening :attr:`url` shares the data.
    persistent: bool = False
    #: The directory backend's root; ``None`` for every other engine.
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
        (default no-op: only the persistent engines ever had one)."""

    def close(self) -> None:
        """Release any held handles (idempotent; default no-op)."""

    # ------------------------------------------------------------------
    # Identity / interop
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

        Only the directory backend has per-document files; engines
        that pack documents into one container return ``None`` and the
        CLI reports the container instead.
        """
        return None

    def __len__(self) -> int:
        return self.doc_count()

    def __iter__(self) -> Iterator[str]:
        return self.iter_docs()

    # ------------------------------------------------------------------
    # The parity contract
    # ------------------------------------------------------------------
    def export_canonical(self, destination: Path) -> int:
        """Write the logical store tree in the directory layout.

        Every document's canonical text lands at
        ``<destination>/<fp[:2]>/<fp>.json`` — the exact layout (and
        bytes) the directory backend keeps natively.  Because the
        façade stores identical canonical text in every engine, two
        backends holding the same corpus export byte-identical trees;
        that is the cross-backend correctness contract, golden-pinned
        and CI-diffed.  Returns the number of documents written.
        """
        destination = Path(destination)
        written = 0
        for fingerprint in sorted(self.iter_docs()):
            text = self.get_doc(fingerprint)
            if text is None:  # racing deleter; the tree stays coherent
                continue
            path = destination / fingerprint[:2] / f"{fingerprint}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            written += 1
        return written

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"<{type(self).__name__} {self.url}>"
