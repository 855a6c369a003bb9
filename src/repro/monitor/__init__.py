"""Monitoring models: miss curves and utility monitors (UMONs)."""

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "miss_curve": ("MissCurve", "combine_curves"),
        "umon": ("UtilityMonitor",),
    },
)

__all__ = [
    "MissCurve",
    "combine_curves",
    "UtilityMonitor",
]
