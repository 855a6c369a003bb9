"""Simulation engine: CMP config, fill transients, the mix engine, runners."""

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": ("CMPConfig", "CacheLevelConfig", "CoreKind", "westmere_config"),
        "engine": ("LCInstanceSpec", "MixEngine"),
        "fill": ("FillState",),
        "mix_runner": ("BaselineResult", "MixRunner"),
        "results": ("BatchAppResult", "LCInstanceResult", "MixResult"),
        "study_runner": ("run_bandwidth_point", "run_scaleout_point"),
    },
)

__all__ = [
    "CMPConfig",
    "CacheLevelConfig",
    "CoreKind",
    "westmere_config",
    "FillState",
    "MixEngine",
    "LCInstanceSpec",
    "MixRunner",
    "BaselineResult",
    "MixResult",
    "LCInstanceResult",
    "BatchAppResult",
    "run_scaleout_point",
    "run_bandwidth_point",
]
