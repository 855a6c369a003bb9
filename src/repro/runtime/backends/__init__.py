"""Pluggable storage backends for the result store.

The :class:`~repro.runtime.store.ResultStore` used to *be* a sharded
JSON-document directory; this package makes storage an interface
instead.  Three engines ship, registered by name:

``directory``
    Today's sharded JSON tree (:mod:`.directory`) — the default, and
    the layout every other backend's canonical export reproduces
    byte-for-byte.
``sqlite``
    A single-file WAL-mode store (:mod:`.sqlite`) in the style of
    python-diskcache's core: one copyable ``store.db``, sub-millisecond
    get/put, multi-process safe.
``memory``
    A dict (:mod:`.memory`): the "disk layer off" mode, as a
    first-class engine.

An engine's module is imported when a store of its scheme first opens,
so a run on a directory store never loads ``sqlite3``; the engine
classes are still importable from this package.

Selection is URL-style — ``sqlite:///path/store.db``,
``directory:///path``, ``memory://`` — via ``REPRO_STORE``, the CLI's
``--store``, or ``Session(store=...)``;
bare paths (and the historical ``REPRO_STORE=0`` toggle plus
``REPRO_CACHE_DIR``) keep meaning what they always meant:

>>> parse_store_url("sqlite:///tmp/corpus/store.db")
('sqlite', '/tmp/corpus/store.db')
>>> parse_store_url("/tmp/corpus")          # bare path: directory tree
('directory', '/tmp/corpus')
>>> parse_store_url("off")                  # legacy REPRO_STORE=0/off
('memory', None)
>>> make_backend(None).name                 # no location at all
'memory'

The byte-parity contract every backend signs:
:meth:`~repro.runtime.backends.base.StoreBackend.export_canonical`
writes the logical corpus in the directory layout, and equal corpora
export equal bytes regardless of engine (``repro cache --migrate``
moves corpora between engines on exactly this property).
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Optional, Tuple, Union

from ..._lazy import lazy_exports
from .base import StoreBackend

#: Registry: URL scheme / backend name → the name of its engine class,
#: defined in the submodule named after the scheme.
BACKENDS: Dict[str, str] = {
    "directory": "DirectoryBackend",
    "sqlite": "SqliteBackend",
    "memory": "MemoryBackend",
}

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__, {scheme: (cls,) for scheme, cls in BACKENDS.items()}
)

__all__ = [
    "StoreBackend",
    "DirectoryBackend",
    "SqliteBackend",
    "MemoryBackend",
    "BACKENDS",
    "parse_store_url",
    "make_backend",
]

#: Historical ``REPRO_STORE`` values meaning "no persistent store".
_OFF_TOKENS = ("0", "off", "false", "no", "memory")

#: What a store location may be: nothing, a backend, a path, or a URL.
StoreTarget = Union[None, StoreBackend, str, os.PathLike]


def parse_store_url(target: str) -> Tuple[str, Optional[str]]:
    """Split a store target string into ``(backend name, location)``.

    Accepts ``scheme://location`` URLs for any registered scheme, bare
    filesystem paths (the directory backend, for ``REPRO_CACHE_DIR``
    and positional-path compatibility), and the legacy off-tokens
    (``0``/``off``/``false``/``no``, plus ``memory``), which map to the
    memory backend.  Raises :class:`ValueError` on an unknown scheme or
    a schemed URL missing its required location.
    """
    text = str(target).strip()
    if text.lower() in _OFF_TOKENS:
        return "memory", None
    scheme, sep, rest = text.partition("://")
    if not sep:
        if not text:
            return "memory", None
        return "directory", text  # bare path
    name = scheme.strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown store backend {name!r} in {target!r} "
            f"(known: {', '.join(sorted(BACKENDS))})"
        )
    location = rest.strip() or None
    if name != "memory" and location is None:
        raise ValueError(f"store URL {target!r} is missing its path")
    return name, location


def make_backend(target: StoreTarget) -> StoreBackend:
    """Resolve any store target to a live backend instance.

    ``None`` → a fresh memory backend; an existing
    :class:`StoreBackend` passes through untouched; strings go through
    :func:`parse_store_url`; anything path-like becomes a directory
    backend at that root.
    """
    if isinstance(target, StoreBackend):
        return target
    if target is None:
        name, location = "memory", None
    elif isinstance(target, str):
        name, location = parse_store_url(target)
    else:
        name, location = "directory", target  # os.PathLike
    # Reading the class from the package imports its engine module.
    engine = getattr(sys.modules[__name__], BACKENDS[name])
    return engine() if name == "memory" else engine(location)
