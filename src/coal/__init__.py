"""Cost overlapped active learning for cost-sensitive multiclass problems.

A learner that queries, per example, only the label costs whose achievable
ranges still overlap the best alternative, with exact (version-space) and
streaming (sensitivity-based) range computations, baseline policies, a
synthetic stream generator with controlled margins, and an experiment
harness producing deterministic learning curves.
"""

from .cost_range import (
    CostInterval,
    MwConfig,
    MwFeasible,
    MwInfeasible,
    MwSettings,
    RadiusSchedule,
    cost_interval,
    eps_bound,
    radius,
    separation_oracle,
)
from .data import (
    CostVector,
    DataError,
    HierarchySpec,
    LabeledExample,
    ParseError,
    QueryLog,
    SparseVector,
    full_costs,
    parse_example,
    parse_hierarchy,
    partial_costs,
    serialize_example,
    sparse_vector,
    tree_distance_costs,
)
from .driver import (
    ContractError,
    LearnerState,
    QueryDecision,
    observe_costs,
    predict_label,
    process_example,
    psi,
)
from .harness import (
    ConfigError,
    CurvePoint,
    ExperimentConfig,
    ResultTable,
    SyntheticSpec,
    auc,
    budget_schedule,
    parse_synthetic_spec,
    run_experiment,
)
from .online import OnlineRegressor, online_update
from .oracle import (
    LabelState,
    LedgerEntry,
    LinearRegressor,
    WeightedPoint,
    fit_weighted,
)
from .synthetic import (
    GroundTruth,
    NoiseSpec,
    brute_force_cost_range,
    gen_stream,
    massart,
    tsybakov,
)

__version__ = "0.1.0"
