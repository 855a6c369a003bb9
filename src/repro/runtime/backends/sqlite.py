"""Single-file SQLite store engine (WAL mode), in the style of
python-diskcache's core: one ``store.db`` holding every document,
sub-millisecond get/put, safe under concurrent multi-process writers.
Only the ``documents`` table is read or written, so a database that
carries other tables keeps them untouched, except the ``blobs`` table
older versions kept, which :meth:`SqliteBackend.drop_retired_blobs`
drops.

Why SQLite for a result corpus that was happily a directory tree:

* **one file** — a corpus is an artifact you can copy, mount, or ship
  to a fleet without rsyncing tens of thousands of tiny JSON files;
* **WAL journaling** — readers never block the (single) writer and
  vice versa, which matches the runtime's access pattern exactly:
  many pool workers appending documents while the parent polls;
* **durability knobs** — ``synchronous=NORMAL`` under WAL never
  corrupts, at worst loses the last commits on power failure, which
  for a content-addressed *cache* is the right trade (the entry is
  simply recomputed).

Concurrency/fork discipline (the diskcache idiom): the connection is
opened lazily, per process — :meth:`_connection` re-opens after a
``fork()`` rather than sharing a connection across processes, and a
process-local lock serializes statements so threads sharing one
handle are safe (``check_same_thread=False``).  Writes are single autocommitted
UPSERTs with a generous busy timeout, so concurrent workers storing
*different* fingerprints (the only write pattern the runtime has —
keys are content fingerprints, so racing writers write identical
bytes) interleave without application-level retries.  Opening a
connection (the WAL switch and the schema) is serialized across
threads and processes by an exclusive ``flock`` on the database's
directory: SQLite refuses one of two connections converting a fresh
file to WAL at once with "database is locked" instead of waiting, so
pool workers opening a new store together would otherwise fail.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import threading
from pathlib import Path
from typing import Iterator, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts open unserialized
    fcntl = None

from .base import StoreBackend

__all__ = ["SqliteBackend"]

#: Seconds a statement waits on a locked database before failing.
_BUSY_TIMEOUT = 30.0

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS documents ("
    " fingerprint TEXT PRIMARY KEY, doc TEXT NOT NULL)"
)


@contextlib.contextmanager
def _setup_lock(directory: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``directory`` for the block.

    A lock on the directory, not the database file: closing any
    descriptor of the database would drop the POSIX locks SQLite holds
    on it.  Every open of the lock is its own open file description,
    so threads of one process exclude each other too.  A child forked
    while the lock is held would keep it until it exits; the runtime
    forks its pools from the thread that opens stores, never inside
    this block.
    """
    if fcntl is None:  # pragma: no cover
        yield
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the lock


class SqliteBackend(StoreBackend):
    """WAL-mode single-file document store."""

    name = "sqlite"
    persistent = True

    def __init__(self, path: os.PathLike):
        self.path = Path(path).expanduser()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid = os.getpid()
        self._lock = threading.RLock()

    @property
    def url(self) -> str:
        """``sqlite://<path>`` — round-trips through the URL parser."""
        return f"sqlite://{self.path}"

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        """The per-process connection, (re)opened lazily.

        After a ``fork()`` the inherited connection object is abandoned
        un-closed (closing it from the child could checkpoint the
        parent's WAL mid-write); the child simply opens its own.
        """
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path),
            timeout=_BUSY_TIMEOUT,
            isolation_level=None,  # autocommit: each UPSERT is one txn
            check_same_thread=False,
        )
        with _setup_lock(self.path.parent):
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(_SCHEMA)
        self._conn = conn
        self._pid = os.getpid()
        return conn

    def close(self) -> None:
        """Close this process's connection (safe to call repeatedly)."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
            self._conn = None

    def _exists(self) -> bool:
        """Whether the database file exists yet.

        Read paths check this first so inspecting an empty store (a
        bare ``repro cache``, a stats call) never *creates* the file —
        mirroring the directory backend, which only mkdirs on put.
        """
        return self._conn is not None or self.path.exists()

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def get_doc(self, fingerprint: str) -> Optional[str]:
        """SELECT one document's canonical-JSON text."""
        if not self._exists():
            return None
        with self._lock:
            row = self._connection().execute(
                "SELECT doc FROM documents WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        return row[0] if row is not None else None

    def put_doc(self, fingerprint: str, text: str) -> None:
        """UPSERT one document in a single autocommitted statement."""
        with self._lock:
            self._connection().execute(
                "INSERT INTO documents (fingerprint, doc) VALUES (?, ?)"
                " ON CONFLICT(fingerprint) DO UPDATE SET doc = excluded.doc",
                (fingerprint, text),
            )

    def delete_doc(self, fingerprint: str) -> None:
        """DELETE one document (a no-op when absent)."""
        if not self._exists():
            return
        with self._lock:
            self._connection().execute(
                "DELETE FROM documents WHERE fingerprint = ?", (fingerprint,)
            )

    def iter_docs(self) -> Iterator[str]:
        """Every stored fingerprint (snapshot, not a live cursor)."""
        if not self._exists():
            return iter(())
        with self._lock:
            rows = self._connection().execute(
                "SELECT fingerprint FROM documents"
            ).fetchall()
        return (row[0] for row in rows)

    def doc_count(self) -> int:
        """``COUNT(*)`` over the documents table."""
        if not self._exists():
            return 0
        with self._lock:
            return self._connection().execute(
                "SELECT COUNT(*) FROM documents"
            ).fetchone()[0]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear_documents(self) -> int:
        """DELETE every document; returns how many were dropped."""
        if not self._exists():
            return 0
        with self._lock:
            conn = self._connection()
            count = conn.execute("SELECT COUNT(*) FROM documents").fetchone()[0]
            conn.execute("DELETE FROM documents")
        return count

    def drop_retired_blobs(self) -> None:
        """Drop the ``blobs`` table older versions kept, then ``VACUUM``
        and checkpoint so the file gives its pages back to the disk."""
        if not self._exists():
            return
        with self._lock:
            conn = self._connection()
            if conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'blobs'"
            ).fetchone() is None:
                return
            conn.execute("DROP TABLE blobs")
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def disk_bytes(self) -> int:
        """Size of the database file plus its WAL and shm sidecars."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.stat(str(self.path) + suffix).st_size
            except OSError:
                pass
        return total
