"""Lazy re-exports for the package roots (PEP 562).

A package root names its public API as a table of submodule -> names
and installs the ``__getattr__``/``__dir__`` pair :func:`lazy_exports`
returns.  Importing the package then runs only its ``__init__``; a
name's submodule is imported the first time the name is read, and the
value is bound on the package so later reads are plain attribute
lookups.  ``package.name``, ``from package import name`` and
``from package import *`` return the same objects as eager
re-exports did.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, submodules: Mapping[str, Sequence[str]]
) -> Tuple[Dict[str, str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(table, __getattr__, __dir__)`` for the package ``package``.

    ``submodules`` maps each submodule, relative to the package, to the
    names the package re-exports from it.  ``table`` is the inverse
    map, name -> submodule.  An unknown name raises
    :class:`AttributeError`, so ``hasattr`` and the import system's
    submodule fallback behave as on any module.
    """
    table = {
        name: submodule
        for submodule, names in submodules.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = f"{package}.{submodule}"
        # ``__import__`` rather than ``importlib.import_module``: only
        # the former goes through the interpreter's import machinery
        # that ``-X importtime`` logs, which the import-chain tests read.
        __import__(module)
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return table, __getattr__, __dir__
