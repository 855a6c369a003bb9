"""Named factories for policies, schemes, and LC workloads.

Experiments used to hard-code ``DEFAULT_POLICY_FACTORIES`` tuples and
import concrete policy classes module by module.  The registries make
every buildable object addressable by a short string key, which is what
lets :class:`~repro.runtime.spec.RunSpec` stay declarative (and
JSON-serializable) while still being able to rebuild live objects in a
worker process::

    >>> from repro.runtime import make_policy, list_policies
    >>> make_policy("ubik", slack=0.05)           # doctest: +ELLIPSIS
    <repro.core.ubik.UbikPolicy object at ...>
    >>> sorted(list_policies())                    # doctest: +ELLIPSIS
    ['fixed', 'lru', 'onoff', ...]

Unknown names raise :class:`KeyError` with the full key table and the
closest match, so a typo in a spec fails loudly and helpfully.

Each built-in registry fills itself the first time it is read, so
importing this module loads no policy, scheme or workload model, and
reading one registry loads only the modules behind its own entries.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..workloads.names import LC_NAMES

__all__ = [
    "Registry",
    "POLICIES",
    "SCHEMES",
    "LC_WORKLOADS",
    "make_policy",
    "list_policies",
    "make_scheme",
    "list_schemes",
    "list_lc_workloads",
]


class Registry:
    """A string-keyed factory table for one kind of object.

    Factories are callables; :meth:`make` forwards keyword arguments so
    parametrized objects (``make("ubik", slack=0.05)``) need no special
    casing.  Lookups are case-insensitive on the key.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: Dict[str, Callable[..., Any]] = {}
        #: Registers the shipped entries of a built-in registry; run
        #: once, before the table is first read or extended.
        self._builtins: Optional[Callable[["Registry"], None]] = None

    def _table(self) -> Dict[str, Callable[..., Any]]:
        """The factory table, with the built-in entries registered."""
        if self._builtins is not None:
            builtins, self._builtins = self._builtins, None
            builtins(self)
        return self._factories

    def register(
        self, name: str, factory: Optional[Callable[..., Any]] = None
    ) -> Callable[..., Any]:
        """Register ``factory`` under ``name``; usable as a decorator."""

        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            key = name.lower()
            table = self._table()
            if key in table:
                raise ValueError(f"{self.kind} {name!r} already registered")
            table[key] = fn
            return fn

        if factory is not None:
            return _add(factory)
        return _add

    def get(self, name: str) -> Callable[..., Any]:
        """The factory for ``name``; raises a descriptive KeyError."""
        key = name.lower()
        table = self._table()
        try:
            return table[key]
        except KeyError:
            known = ", ".join(sorted(table))
            close = difflib.get_close_matches(key, table, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise KeyError(
                f"unknown {self.kind} {name!r} (known: {known}){hint}"
            ) from None

    def make(self, name: str, **kwargs: Any) -> Any:
        """Build the object registered under ``name``."""
        return self.get(name)(**kwargs)

    def names(self) -> List[str]:
        """All registered keys, sorted."""
        return sorted(self._table())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._table()

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._table())


#: The built-in policies' keys, readable without importing a policy:
#: ``repro run`` checks ``--policy`` against them, so a served run
#: loads none.
BUILTIN_POLICY_NAMES = ("lru", "ucp", "onoff", "static_lc", "fixed", "ubik")


def _builtin_policies(registry: Registry) -> None:
    from ..core.ubik import UbikPolicy
    from ..policies.fixed import FixedPolicy
    from ..policies.lru import LRUPolicy
    from ..policies.onoff import OnOffPolicy
    from ..policies.static_lc import StaticLCPolicy
    from ..policies.ucp import UCPPolicy

    registry.register("lru", LRUPolicy)
    registry.register("ucp", UCPPolicy)
    registry.register("onoff", OnOffPolicy)
    registry.register("static_lc", StaticLCPolicy)
    registry.register("fixed", FixedPolicy)
    registry.register("ubik", UbikPolicy)


def _builtin_schemes(registry: Registry) -> None:
    from ..cache.schemes import vantage_setassoc, vantage_zcache, way_partitioning

    registry.register("vantage_zcache", vantage_zcache)
    registry.register(
        "vantage_sa16", lambda llc_lines: vantage_setassoc(llc_lines, 16)
    )
    registry.register(
        "vantage_sa64", lambda llc_lines: vantage_setassoc(llc_lines, 64)
    )
    registry.register(
        "waypart_sa16", lambda llc_lines: way_partitioning(llc_lines, 16)
    )
    registry.register(
        "waypart_sa64", lambda llc_lines: way_partitioning(llc_lines, 64)
    )


def _builtin_lc_workloads(registry: Registry) -> None:
    from ..workloads.latency_critical import make_lc_workload

    for lc_name in LC_NAMES:
        registry.register(
            lc_name,
            lambda name=lc_name, **kw: make_lc_workload(name, **kw),
        )


def _builtin_registry(kind: str, builtins: Callable[[Registry], None]) -> Registry:
    """A registry that ``builtins`` fills when it is first used."""
    registry = Registry(kind)
    registry._builtins = builtins
    return registry


#: Partitioning policies: ``make_policy("ubik", slack=0.05)``.
POLICIES = _builtin_registry("policy", _builtin_policies)

#: Partitioning-scheme models; factories take ``llc_lines``.
SCHEMES = _builtin_registry("scheme", _builtin_schemes)

#: Latency-critical workload models, keyed by paper name.
LC_WORKLOADS = _builtin_registry("LC workload", _builtin_lc_workloads)


def make_policy(name: str, **kwargs: Any):
    """Instantiate the policy registered under ``name``."""
    return POLICIES.make(name, **kwargs)


def list_policies() -> List[str]:
    """Sorted names of all registered policies."""
    return POLICIES.names()


def make_scheme(name: str, llc_lines: int, **kwargs: Any):
    """Instantiate the scheme model ``name`` for an LLC size."""
    return SCHEMES.make(name, llc_lines=llc_lines, **kwargs)


def list_schemes() -> List[str]:
    """Sorted names of all registered scheme models."""
    return SCHEMES.names()


def list_lc_workloads() -> List[str]:
    """Sorted names of all registered LC workloads."""
    return LC_WORKLOADS.names()

