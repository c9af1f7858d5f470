"""Graph-cut attack design and estimator-side verification for DC grids."""

from .attack import (
    AttackPlan,
    AttackType,
    CostInterval,
    CostModel,
    CutConstraint,
    DesignResult,
    Infeasible,
    NoSolutionFound,
    classify_interval,
    constrained_min_cut,
    design,
    detectable_generalized,
    detectable_injection,
    detectable_jamming,
    hidden_generalized,
    hidden_injection,
    hidden_jamming,
)
from .casefile import CaseFile, load_case, parse_case, place_measurements, system_from_case
from .errors import (
    GridAttackError,
    InvalidCosts,
    ParseError,
    PlanMismatch,
    RemovalFailed,
    TooLarge,
    TopologyError,
    UnobservableSystem,
)
from .estimator import (
    DetectorConfig,
    EstimationReport,
    RemovalMode,
    chi_square_threshold,
    detect_and_remove,
)
from .grid import (
    REFERENCE_BUS,
    Bus,
    Measurement,
    MeasurementGraph,
    MeasurementKind,
    MeasurementSystem,
    build_graph,
    build_matrix,
    cut_edges,
    remove_measurements,
)
from .mincut import (
    INFINITY,
    CutResult,
    CutSolver,
    WeightedEdge,
    WeightedGraph,
)
from .oracle import optimal_cost
from .verify import VerificationVerdict, execute

__version__ = "0.1.0"
