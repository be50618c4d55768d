"""Solvers and verifiers for N-person constrained discounted stochastic games.

Everything is finite and exactly checkable: strategies are evaluated by
direct linear solves, constrained best responses are occupation-measure
linear programs, equilibrium claims come back as certificates with explicit
feasibility excesses and deviation gaps, gridded games are discretized with a
certified uniform error bound, and strategies can be reshaped (support
reduction, Markov replacement, occupation mixing, cost rescaling) without
changing what they cost.
"""

from .game import (
    ContinuousGameSpec,
    CorrelatedStrategy,
    FiniteCSG,
    MarkovStrategy,
    StationaryProfile,
    ValidationReport,
    marginal_excluding,
    observed_cost_bound,
    product_strategy,
    renormalize,
    validate_game,
    validate_spec,
)
from .evaluation import (
    CostVector,
    SimulationResult,
    evaluate_correlated,
    evaluate_markov,
    evaluate_markov_profile,
    evaluate_policy,
    evaluate_profile,
    induced_mdp,
    induced_mdp_from_marginal,
    simulate,
    simulation_horizon,
)
from .best_response import (
    BestResponseResult,
    OccupationMeasure,
    SlaterResult,
    SlaterScan,
    constrained_best_response,
    feasibility,
    occupation_measure,
    optimal_policy_values,
    recover_strategy,
    slater_margin,
    slater_scan,
)
from .discretization import (
    ApproximationReport,
    DiscretizedGame,
    Partition,
    build_partition,
    check_partition,
    error_bound,
    grid_game,
    lift_strategy,
    resolution_for,
    surrogate_game,
    surrogate_grid_game,
    verify_approximation_bound,
)
from .equilibrium import (
    ConsistencyReport,
    CorrelatedSequenceResult,
    EquilibriumCertificate,
    OneShotGame,
    PlayerCertificate,
    SearchConfig,
    SearchResult,
    SequenceLevel,
    StatewiseCertificate,
    correlated_limit_sequence,
    one_shot_consistency,
    one_shot_game,
    search_equilibrium,
    verify_approx_equilibrium,
    verify_one_shot_nash,
    verify_statewise_equilibrium,
    verify_weak_correlated,
)
from .transform import (
    CaratheodoryCertificate,
    CostRelationReport,
    MarkovReplacement,
    WesselsGame,
    caratheodory_reduce,
    cellwise_match,
    markov_replacement,
    mix_occupations,
    mixing_weight,
    wessels_cost_relation,
    wessels_transform,
)

__version__ = "0.1.0"
