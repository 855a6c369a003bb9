"""Monitoring models: miss curves and utility monitors (UMONs)."""

from .miss_curve import MissCurve, combine_curves
from .umon import UtilityMonitor

__all__ = [
    "MissCurve",
    "combine_curves",
    "UtilityMonitor",
]
