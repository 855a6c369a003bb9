"""Experiment modules: one per paper table/figure.

==========  ================================  ==============================
Experiment  Module                            Regenerates
==========  ================================  ==============================
Table 1     workloads.latency_critical        LC workload parameters
Table 2     sim.config                        simulated CMP configuration
Fig 1a      fig1_load_latency                 load-latency curves
Fig 1b      fig1b_service_cdf                 service-time CDFs
Fig 2       fig2_reuse                        cross-request reuse breakdown
Fig 9       fig9_distributions                scheme distributions
Table 3     table3_speedups                   average weighted speedups
Fig 10      fig10_per_app (run_fig10)         per-app results, OOO cores
Fig 11      fig10_per_app (run_fig11)         per-app results, in-order
Fig 12      fig12_slack                       slack sensitivity
Fig 13      fig13_schemes                     partitioning-scheme sensitivity
Sec 7.1     utilization                       utilization estimate
(ablation)  ablations                         Ubik design-choice ablations
(extension) scaleout                          larger CMPs (deferred future work)
==========  ================================  ==============================
"""

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ablations": ("AblationEntry", "run_ablations"),
        "bandwidth_study": ("BandwidthPoint", "run_bandwidth_study"),
        "common": (
            "REPRESENTATIVE_COMBOS",
            "ExperimentScale",
            "default_scale",
            "format_table",
            "scaled_mix_specs",
        ),
        "scaleout": ("ScaleOutResult", "run_scaleout"),
        "fig1_load_latency": ("LoadLatencyPoint", "load_latency_curve", "run_fig1a"),
        "fig1b_service_cdf": ("ServiceCDF", "run_fig1b", "service_time_cdf"),
        "fig2_reuse": ("ReuseBreakdown", "reuse_breakdown", "run_fig2"),
        "fig9_distributions": ("Fig9Data", "run_fig9"),
        "fig10_per_app": ("PerAppEntry", "run_fig10", "run_fig11"),
        "fig12_slack": ("DEFAULT_SLACKS", "run_fig12"),
        "fig13_schemes": ("SchemeEntry", "run_fig13"),
        "sweep": (
            "DEFAULT_POLICIES",
            "RunRecord",
            "SweepResult",
            "run_policy_sweep",
        ),
        "table3_speedups": ("PAPER_TABLE3", "format_table3", "run_table3"),
        "utilization": ("UtilizationEstimate", "run_utilization"),
    },
)

__all__ = [
    "ExperimentScale",
    "default_scale",
    "scaled_mix_specs",
    "format_table",
    "REPRESENTATIVE_COMBOS",
    "LoadLatencyPoint",
    "load_latency_curve",
    "run_fig1a",
    "ServiceCDF",
    "service_time_cdf",
    "run_fig1b",
    "ReuseBreakdown",
    "reuse_breakdown",
    "run_fig2",
    "Fig9Data",
    "run_fig9",
    "PerAppEntry",
    "run_fig10",
    "run_fig11",
    "DEFAULT_SLACKS",
    "run_fig12",
    "SchemeEntry",
    "run_fig13",
    "RunRecord",
    "SweepResult",
    "run_policy_sweep",
    "DEFAULT_POLICIES",
    "PAPER_TABLE3",
    "run_table3",
    "format_table3",
    "UtilizationEstimate",
    "run_utilization",
    "AblationEntry",
    "run_ablations",
    "ScaleOutResult",
    "run_scaleout",
    "BandwidthPoint",
    "run_bandwidth_study",
]
