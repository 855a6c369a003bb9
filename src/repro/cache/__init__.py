"""Cache substrates: set-associative and Vantage arrays, scheme models, shared LRU."""

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "schemes": (
            "FIG13_SCHEMES",
            "SchemeModel",
            "vantage_setassoc",
            "vantage_zcache",
            "way_partitioning",
        ),
        "set_assoc": ("AccessResult", "SetAssociativeCache"),
        "sharing": ("SharedOccupancyModel",),
        "vantage": ("VantageCache",),
    },
)

__all__ = [
    "AccessResult",
    "SetAssociativeCache",
    "VantageCache",
    "SharedOccupancyModel",
    "SchemeModel",
    "vantage_zcache",
    "vantage_setassoc",
    "way_partitioning",
    "FIG13_SCHEMES",
]
