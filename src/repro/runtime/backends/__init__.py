"""Storage engines for the result store.

Two engines ship:

``directory``
    The sharded JSON tree (:mod:`.directory`): the default, and the
    only persistent engine.
``memory``
    A dict (:mod:`.memory`): the "disk layer off" mode, as a
    first-class engine.

Selection is URL-style — ``directory:///path``, ``memory://`` — via
``REPRO_STORE``, the CLI's ``--store``, or ``Session(store=...)``;
bare paths (and the historical ``REPRO_STORE=0`` toggle plus
``REPRO_CACHE_DIR``) keep meaning what they always meant:

>>> parse_store_url("directory:///tmp/corpus")
('directory', '/tmp/corpus')
>>> parse_store_url("/tmp/corpus")          # bare path: directory tree
('directory', '/tmp/corpus')
>>> parse_store_url("off")                  # legacy REPRO_STORE=0/off
('memory', None)
>>> make_backend(None).name                 # no location at all
'memory'
"""

from __future__ import annotations

import os
from typing import Optional, Tuple, Union

from .base import StoreBackend
from .directory import DirectoryBackend
from .memory import MemoryBackend

__all__ = [
    "StoreBackend",
    "DirectoryBackend",
    "MemoryBackend",
    "parse_store_url",
    "make_backend",
]

#: The URL schemes a store location may name.
_ENGINES = ("directory", "memory")

#: Historical ``REPRO_STORE`` values meaning "no persistent store".
_OFF_TOKENS = ("0", "off", "false", "no", "memory")

#: What a store location may be: nothing, a backend, a path, or a URL.
StoreTarget = Union[None, StoreBackend, str, os.PathLike]


def parse_store_url(target: str) -> Tuple[str, Optional[str]]:
    """Split a store target string into ``(engine name, location)``.

    Accepts ``directory://path`` and ``memory://`` URLs, bare
    filesystem paths (the directory engine, for ``REPRO_CACHE_DIR``
    and positional-path compatibility), and the legacy off-tokens
    (``0``/``off``/``false``/``no``, plus ``memory``), which map to the
    memory engine.  Raises :class:`ValueError` on an unknown scheme or
    a ``directory://`` URL missing its path.
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
    if name not in _ENGINES:
        raise ValueError(
            f"unknown store backend {name!r} in {target!r} "
            f"(known: {', '.join(_ENGINES)})"
        )
    location = rest.strip() or None
    if name == "directory" and location is None:
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
        return MemoryBackend()
    if isinstance(target, str):
        name, location = parse_store_url(target)
        return MemoryBackend() if name == "memory" else DirectoryBackend(location)
    return DirectoryBackend(target)  # os.PathLike
