"""cascadelab: percolated contagion, count-release privacy, and inference attacks."""

__version__ = "0.2.3"

from .distributions import EmpiricalDistribution
from .graph import (
    EdgeListFormatError,
    EdgeListReport,
    Graph,
    NodeWeights,
    chung_lu_weights,
    dump_edge_list,
    generate_chung_lu,
    generate_er,
    load_edge_list,
)
from .percolation import (
    ActivitySplit,
    CascadeOutcome,
    ComponentLabeling,
    DegenerateConditioningError,
    MembershipEstimate,
    WorldRecord,
    connected_components,
    coupled_worlds,
    estimate_giant_membership,
    percolate,
    record_worlds,
    run_cascade,
    sample_seeds,
    worlds,
)
from .bounds import (
    GiantFractionSolution,
    RankEnvelope,
    chung_lu_giant_condition,
    chung_lu_miss_bound,
    chung_lu_rank_envelope,
    er_max_degree_estimate,
    er_miss_bound,
    membership_miss_approx,
    percolation_threshold,
    solve_giant_fraction,
)
from .privacy import (
    MechanismScaleReport,
    MechanismSpec,
    mechanism_error_quantile,
    push_through_mechanism,
    release,
    sample_wasserstein_infinity,
    tvd,
    wasserstein_mechanism_scale,
)
from .attack import (
    AttackConfig,
    AttackEvaluation,
    AttackVerdict,
    FloorStats,
    classify_giant_status,
    evaluate_attack,
    infer_nodes,
    vulnerable_set_cl,
    vulnerable_set_er,
)

__all__ = [name for name in dir() if not name.startswith("_")]
