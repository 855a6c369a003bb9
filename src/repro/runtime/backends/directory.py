"""The sharded JSON-document tree: the store's original (and default)
on-disk engine, extracted verbatim from the pre-backend ``ResultStore``.

Layout, unchanged from the first store so existing corpora keep working
and the golden byte-parity fixtures stay byte-stable: documents at
``<root>/<fp[:2]>/<fp>.json`` — one canonical-JSON text per
fingerprint, sharded by prefix so no directory grows unbounded.  Only
those two-hex-char shards are read, written and cleared: any other
subtree under the root is left alone, except the blob files older
versions kept under ``blobs/``, which
:meth:`DirectoryBackend.drop_retired_blobs` removes.

Every document write is **atomic**: the payload goes to a
``.tmp``-suffixed temp file in the destination directory first and is
published with :func:`os.replace`.  A crash mid-``put`` therefore
leaves either the old content or an orphaned temp file (ignored by
every read path, swept by :meth:`clear_documents`), never a torn
document a later store hit would choke on.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional

from .base import StoreBackend

__all__ = ["DirectoryBackend"]


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
            # benign — the entry stays in the façade's memory layer.
            pass
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class DirectoryBackend(StoreBackend):
    """Sharded per-document JSON tree with atomic replace-on-write."""

    name = "directory"
    persistent = True

    def __init__(self, root: os.PathLike):
        self.root = Path(root).expanduser()

    @property
    def url(self) -> str:
        """``directory://<root>`` — round-trips through the URL parser."""
        return f"directory://{self.root}"

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def _doc_path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def document_path(self, fingerprint: str) -> Optional[Path]:
        """The document's own file: ``<root>/<fp[:2]>/<fp>.json``."""
        return self._doc_path(fingerprint)

    def get_doc(self, fingerprint: str) -> Optional[str]:
        """Read one document file (any read failure is a miss)."""
        try:
            return self._doc_path(fingerprint).read_text()
        except OSError:
            return None

    def put_doc(self, fingerprint: str, text: str) -> None:
        """Publish one document atomically (temp + ``os.replace``)."""
        _atomic_write(self._doc_path(fingerprint), text.encode("utf-8"))

    def delete_doc(self, fingerprint: str) -> None:
        """Unlink one document, pruning its shard dir if emptied."""
        path = self._doc_path(fingerprint)
        try:
            path.unlink()
        except OSError:
            return
        try:
            path.parent.rmdir()  # drop the prefix dir if now empty
        except OSError:
            pass

    def _doc_files(self) -> Iterator[Path]:
        if not self.root.exists():
            return iter(())
        return (
            p for p in self.root.glob("??/*.json") if not p.name.startswith(".")
        )

    def iter_docs(self) -> Iterator[str]:
        """Fingerprints of every document file under the tree."""
        return (p.stem for p in self._doc_files())

    def doc_count(self) -> int:
        """Number of document files currently on disk."""
        return sum(1 for _ in self._doc_files())

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear_documents(self) -> int:
        """Unlink every document (and orphaned temp); count removed."""
        removed = 0
        for path in self._doc_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        # Sweep temp files orphaned by killed writers.  Temps of *live*
        # writers are never unlinked mid-write thanks to the ``.tmp``
        # suffix keeping them out of _doc_files — but the orphan sweep
        # here is best-effort by nature.
        if self.root.exists():
            for orphan in self.root.glob("??/.tmp-*.tmp"):
                try:
                    orphan.unlink()
                except OSError:
                    pass
        return removed

    def drop_retired_blobs(self) -> None:
        """Remove what older versions wrote under ``blobs/``.

        Only their ``??/*.bin`` blobs and ``??/.tmp-*.tmp`` temps are
        unlinked; the shard directories and ``blobs/`` itself go only
        if that empties them, so anything else there is left alone.
        """
        blobs = self.root / "blobs"
        for pattern in ("??/*.bin", "??/.tmp-*.tmp"):
            for path in blobs.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        for path in [*blobs.glob("??"), blobs]:
            try:
                path.rmdir()
            except OSError:
                pass

    def disk_bytes(self) -> int:
        """Total bytes of document files on disk."""
        total = 0
        for path in list(self._doc_files()):
            try:
                total += path.stat().st_size
            except OSError:
                pass  # vanished mid-scan (concurrent clear): tolerated
        return total
