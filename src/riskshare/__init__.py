"""Risk sharing under the concave order: checkers, sharing maps, improvement.

The package works with finitely supported laws.  ``measures`` defines the
measure and allocation-law containers with their JSON wire format;
``convex_order`` decides concave-order dominance (stop-loss comparison in
one dimension, mean-preserving-kernel feasibility otherwise);
``maxcorr`` computes maximal correlations and the comonotonicity gap;
``infconv`` splits aggregate risks optimally under quadratic-plus-max-affine
costs; ``improve`` searches a candidate grid for a dominating reallocation
via linear programming; ``qdescent`` bounds the gap by the matching dual
objective; ``lp`` is the self-contained simplex engine; ``cli`` is the
command-line front end.
"""

from .convex_order import (
    AllocationVerdict,
    DominanceVerdict,
    MartingaleCoupling,
    allocation_dominates,
    dominates,
    dominates_1d,
    dominates_md,
    is_comonotone_pairwise,
    stop_loss,
)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    NoConvergence,
    NonPositiveWeight,
    NotPositiveDefinite,
    NumericalBreakdown,
    ParameterOutOfRange,
    ProblemTooLarge,
    RiskShareError,
    SingularSum,
    SolverFailure,
    SumLawMismatch,
    WeightSumOutOfTolerance,
    XOutsideDomain,
)
from .improve import (
    EfficiencyReport,
    SplitGrid,
    build_split_grid,
    default_radius,
    default_step,
    efficiency_statistic,
    solve_improvement_lp,
)
from .infconv import (
    AgentProfile,
    CounterexampleDiagnostics,
    SharingPoint,
    StrictlyConvexProfile,
    counterexample_family,
    inf_convolution_value,
    profile_from_obj,
    profile_to_obj,
    quadratic_profile,
    quadratic_sharing_matrix,
    share_point,
    share_points,
    sharing_law,
)
from .lp import LinearProgram, LPOutcome, LPStatus, feasible, solve
from .maxcorr import (
    CorrelationResult,
    GapReport,
    comonotonicity_gap,
    default_baseline,
    max_correlation,
)
from .measures import (
    BallConfig,
    DiscreteMeasure,
    JointLaw,
    dirac,
    joint_law_from_json,
    joint_law_to_json,
    joint_laws_equal,
    marginal,
    measure_from_json,
    measure_to_json,
    measures_equal,
    sum_pushforward,
    validate_joint_law,
    validate_measure,
)
from .qdescent import QState, j_value, minimize_q

__version__ = "0.1.0"

__all__ = [
    "AgentProfile",
    "AllocationVerdict",
    "BallConfig",
    "CorrelationResult",
    "CounterexampleDiagnostics",
    "DimensionMismatch",
    "DiscreteMeasure",
    "DominanceVerdict",
    "EfficiencyReport",
    "GapReport",
    "IndexOutOfRange",
    "InputError",
    "JointLaw",
    "LPOutcome",
    "LPStatus",
    "LinearProgram",
    "MartingaleCoupling",
    "NoConvergence",
    "NonPositiveWeight",
    "NotPositiveDefinite",
    "NumericalBreakdown",
    "ParameterOutOfRange",
    "ProblemTooLarge",
    "QState",
    "RiskShareError",
    "SharingPoint",
    "SingularSum",
    "SolverFailure",
    "SplitGrid",
    "StrictlyConvexProfile",
    "SumLawMismatch",
    "WeightSumOutOfTolerance",
    "XOutsideDomain",
    "allocation_dominates",
    "build_split_grid",
    "comonotonicity_gap",
    "counterexample_family",
    "default_baseline",
    "default_radius",
    "default_step",
    "dirac",
    "dominates",
    "dominates_1d",
    "dominates_md",
    "efficiency_statistic",
    "feasible",
    "inf_convolution_value",
    "is_comonotone_pairwise",
    "j_value",
    "joint_law_from_json",
    "joint_law_to_json",
    "joint_laws_equal",
    "marginal",
    "max_correlation",
    "measure_from_json",
    "measure_to_json",
    "measures_equal",
    "minimize_q",
    "profile_from_obj",
    "profile_to_obj",
    "quadratic_profile",
    "quadratic_sharing_matrix",
    "share_point",
    "share_points",
    "sharing_law",
    "solve",
    "solve_improvement_lp",
    "stop_loss",
    "sum_pushforward",
    "validate_joint_law",
    "validate_measure",
    "__version__",
]
