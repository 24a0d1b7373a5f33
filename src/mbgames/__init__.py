"""Exact solvers for Maker-Breaker graph colouring games."""

from .graphs import (
    CapacityError,
    ColourComponents,
    Graph,
    ParseError,
    iter_graph6,
    parse_edge_list,
    parse_graph6,
    relabel,
    to_edge_list,
    to_graph6,
)
from .rules import (
    GameSpec,
    IllegalMoveError,
    Move,
    Player,
    Position,
    RulesError,
    Status,
    Variant,
    engine,
    to_move,
)
from .solver import (
    BudgetExceededError,
    ResourceLimitError,
    SolveResult,
    Solver,
    naive_solve,
    solve,
)
from .parameters import (
    ParameterReport,
    ParameterValue,
    WinProfile,
    default_k_range,
    named_parameter,
    parameter_report,
    win_profile,
)
from .families import (
    complete,
    cycle,
    edgeless,
    fig3_graph,
    fig4_graph,
    h_r,
    path,
    star,
    theorem14_graph,
)
from .imagination import (
    AgentError,
    ConcedeError,
    InvariantViolation,
    SolverAgent,
    StrategyAgent,
    TransformedBreakerAgent,
    VerificationResult,
    solver_strategy,
    verify_agent_wins,
)
from .search import (
    ChiGLessThanChiCg,
    ColCgEdgeNonMonotone,
    Hit,
    NonMonotoneProfile,
    ParameterEquals,
    ScanReport,
    canonical_form,
    enumerate_graphs,
    scan,
)

__version__ = "0.1.0"
