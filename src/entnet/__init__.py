"""Entanglement-assisted distributed sensing on a star-topology network.

Evaluates the average quantum Fisher information achieved by probabilistic
link-generation protocols, optimises the hub's GHZ groupings, models
2 -> 1 link distillation, and compares optimal against local measurement
strategies.  A small dense-matrix oracle backs every closed form.
"""

__version__ = "0.1.0"

from .core import (
    EigenSpec,
    GhzPartition,
    coefficient_c,
    fidelity_from_werner,
    snapshot_qfi_uniform,
    snapshot_qfi_werner,
    werner_from_fidelity,
)
from .distillation import (
    DistillMethod,
    DistillStep,
    FidelityDistribution,
    distill_pair,
    ftmbl_distilled_avg_qfi,
    nested_distill,
    per_sensor_outcome_distribution,
)
from .errors import ConvergenceError, EntnetError, SizeLimitError
from .latency import LatencyReport, SourceLocation, TimingParams, latency_model
from .measurements import LocalCfiInput, cfi_threshold, local_cfi, local_cfi_max, sld_povm
from .oracle import (
    DenseState,
    PhaseVector,
    apply_phases,
    build_probe,
    build_werner,
    ghz_project,
    measurement_cfi,
    qfi_theta,
    qfim,
    sld_operator,
)
from .partitions import (
    PartitionSearchResult,
    best_group_sizes,
    enumerate_partitions,
    optimal_partition,
    optimal_partition_mixed,
)
from .protocols import (
    AvgQfiEstimate,
    EstimateMethod,
    LeftoverPolicy,
    NetworkConfig,
    PartitionPolicy,
    ProtocolKind,
    ProtocolSpec,
    ftmbl_avg_qfi,
    ftmbl_k_opt,
    immediate_avg_qfi,
    monte_carlo_avg_qfi,
    qfi_upper_bound,
    snapshot_distribution,
    vtmbl_avg_qfi,
    vtmbl_joint_prob,
    vtmbl_mu_opt,
)
from .thresholds import ThresholdResult, solve_threshold
