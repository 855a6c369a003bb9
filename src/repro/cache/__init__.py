"""Cache substrates: trace-driven arrays, partitioning schemes, sharing models."""

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
        "way_partition": ("WayPartitionedCache",),
        "zcache": ("ZCache",),
    },
)

__all__ = [
    "AccessResult",
    "SetAssociativeCache",
    "ZCache",
    "VantageCache",
    "WayPartitionedCache",
    "SharedOccupancyModel",
    "SchemeModel",
    "vantage_zcache",
    "vantage_setassoc",
    "way_partitioning",
    "FIG13_SCHEMES",
]
