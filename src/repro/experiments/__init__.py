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

from .ablations import AblationEntry, run_ablations
from .bandwidth_study import BandwidthPoint, run_bandwidth_study
from .common import (
    REPRESENTATIVE_COMBOS,
    ExperimentScale,
    default_scale,
    format_table,
    scaled_mix_specs,
)
from .scaleout import ScaleOutResult, run_scaleout
from .fig1_load_latency import LoadLatencyPoint, load_latency_curve, run_fig1a
from .fig1b_service_cdf import ServiceCDF, run_fig1b, service_time_cdf
from .fig2_reuse import ReuseBreakdown, reuse_breakdown, run_fig2
from .fig9_distributions import Fig9Data, run_fig9
from .fig10_per_app import PerAppEntry, run_fig10, run_fig11
from .fig12_slack import DEFAULT_SLACKS, run_fig12
from .fig13_schemes import SchemeEntry, run_fig13
from .sweep import (
    DEFAULT_POLICIES,
    RunRecord,
    SweepResult,
    run_policy_sweep,
)
from .table3_speedups import PAPER_TABLE3, format_table3, run_table3
from .utilization import UtilizationEstimate, run_utilization

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
