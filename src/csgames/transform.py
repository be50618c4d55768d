"""Strategy surgery: support reduction, Markov replacement, occupation mixing,
and the bounding transformation for games with weighted cost growth.

These are the constructive steps that turn existence arguments into checkable
objects: a barycenter over a cell is replaced by a mixture of at most d+1
on-grid strategies, a stationary strategy is replaced by a finite-head Markov
strategy with identical discounted costs, two occupation measures are mixed
with an explicit weight that restores feasibility, and a game with weighted
(unbounded-style) costs is rescaled into a bounded game with one absorbing
extra state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .evaluation import evaluate_policy, evaluate_profile, induced_mdp
from .game import FiniteCSG, MarkovStrategy, StationaryProfile, _frozen_array, _row_faults

__all__ = [
    "CaratheodoryCertificate",
    "MarkovReplacement",
    "WesselsGame",
    "CostRelationReport",
    "caratheodory_reduce",
    "cellwise_match",
    "markov_replacement",
    "mix_occupations",
    "mixing_weight",
    "wessels_transform",
    "wessels_cost_relation",
]

CARATHEODORY_TOL = 1e-10
_PIVOT_EPS = 1e-14


@dataclass(frozen=True)
class CaratheodoryCertificate:
    """Sparse reweighting: at most d+1 points whose weighted average of the
    d-dimensional value rows equals the target of the full distribution."""

    indices: np.ndarray
    weights: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        for name in ("indices", "weights", "target"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype=None))

    @property
    def support_size(self):
        return int(self.indices.shape[0])


def caratheodory_reduce(values, weights):
    """Reduce a probability vector to a basic solution with the same mean.

    values is (K, d); weights a distribution over the K rows, held to
    ROW_SUM_TOL as every probability input is.  Negative entries get no mass
    and the rest is normalized, so the target is the mean of a distribution
    summing to 1, and so is the reduction's.  Pivots along
    null-space directions of the moment system [values^T; 1], eliminating the
    lowest-index blocking coordinate first, until the support is affinely
    independent; that leaves at most d+1 points, fewer when the values are
    degenerate.  Deterministic; raises RuntimeError if the reduced mean drifts
    beyond CARATHEODORY_TOL or the drift is NaN.
    """
    from scipy.linalg import null_space  # deferred: see _compiled for its cost

    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 2 or weights.shape != (values.shape[0],):
        raise ValueError("values must be (K, d) with one weight per row")
    if _row_faults(weights[None]):
        raise ValueError("weights must be a probability vector")
    d = values.shape[1]
    beta = np.maximum(weights, 0.0)
    beta /= beta.sum()
    target = beta @ values
    while True:
        support = np.nonzero(beta > 0.0)[0]
        if support.size <= 1:
            break
        moment = np.vstack([values[support].T, np.ones(support.size)])
        null = null_space(moment)
        if null.shape[1] == 0:
            # Affinely independent support: already a basic solution.  This is
            # guaranteed once support <= d + 1, often earlier.
            break
        # z sums to 0, so some entry is positive.
        z = null[:, 0]
        movable = z > _PIVOT_EPS
        ratios = np.where(movable, beta[support] / np.where(movable, z, 1.0), math.inf)
        step = float(np.min(ratios))
        hit = int(np.argmin(ratios))
        new_beta = beta[support] - step * z
        new_beta[hit] = 0.0
        new_beta[new_beta < _PIVOT_EPS] = 0.0
        beta[support] = new_beta
    support = np.nonzero(beta > 0.0)[0]
    reduced = beta[support]
    reduced = reduced / reduced.sum()
    drift = float(np.max(np.abs(reduced @ values[support] - target))) if d else 0.0
    if not drift <= CARATHEODORY_TOL:
        raise RuntimeError(f"pivoting drifted from the target by {drift:.3e}")
    return CaratheodoryCertificate(indices=support, weights=reduced, target=target)


def _require_cellwise_constant(arr, cells, what):
    """Raise ValueError unless arr[cell] varies by at most 1e-9 along axis 0
    within every cell (a NaN fails); an arr with no entries per state passes."""
    for cell in cells:
        if cell.size > 1 and not np.max(np.ptp(arr[cell], axis=0), initial=0.0) <= 1e-9:
            raise ValueError(f"{what} is not constant on a partition cell")


def cellwise_match(partition, payoffs, distribution, strategy):
    """Piecewise-constant replacement of a state-dependent strategy.

    payoffs is (d, S, A), constant in the state within each cell; distribution
    is a measure over grid states; strategy is (S, A).  On each cell carrying
    mass, the conditional distribution is reduced to at most d+1 points and
    the replacement plays the matching mixture of those points' action rows,
    so all d payoff integrals against the distribution are preserved.  Cells
    without mass get the uniform row.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    distribution = np.asarray(distribution, dtype=float)
    strategy = np.asarray(strategy, dtype=float)
    if payoffs.ndim != 3 or payoffs.shape[1] != partition.n_points:
        raise ValueError("payoffs must be (d, S, A) over the partition's grid")
    _require_cellwise_constant(np.moveaxis(payoffs, 1, 0), partition.cells, "payoff table")
    n_actions = strategy.shape[1]
    result = np.empty_like(strategy)
    for cell in partition.cells:
        mass = float(distribution[cell].sum())
        if mass <= 0.0:
            result[cell] = 1.0 / n_actions
            continue
        conditional = distribution[cell] / mass
        # Value of each member point: its expected payoff vector under the
        # original strategy; constant payoffs make this linear in the rows.
        member_values = np.einsum("dxa,xa->xd", payoffs[:, cell, :], strategy[cell])
        cert = caratheodory_reduce(member_values, conditional)
        mixture = cert.weights @ strategy[cell[cert.indices]]
        result[cell] = mixture
    return result


@dataclass(frozen=True)
class MarkovReplacement(MarkovStrategy):
    """Finite-head Markov strategy whose discounted costs from the initial
    distribution equal the replaced stationary strategy's, every layer, at
    every head length; tail_bound = alpha^T * 2b covers swapping the tail for
    any other strategy."""

    tail_bound: float


def markov_replacement(game, partition, player, others, strategy, horizon):
    """Replace a state-dependent stationary strategy by a piecewise-constant
    Markov head with identical discounted costs.

    Requires the game data and the other players' strategies to be constant
    on the partition's cells (states in a cell are then indistinguishable to
    the dynamics, so matching the one-step payoff integrals cell by cell keeps
    every layer exact).  Returns, as a MarkovReplacement for `player` that
    evaluate_markov prices directly, the head of length `horizon`, the
    original strategy as tail, and the bound alpha^horizon * 2 * cost_bound on
    the cost of replacing that tail by anything stationary.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    mdp = induced_mdp(game, player, others)
    _require_cellwise_constant(
        np.moveaxis(mdp.costs[0], 1, 0), partition.cells, "induced cost table")
    _require_cellwise_constant(mdp.transitions, partition.cells, "induced kernel")
    strategy = np.asarray(strategy, dtype=float)
    _, continuation = evaluate_policy(mdp, strategy)
    # One-step payoff of playing a now and the stationary strategy after.
    payoffs = ((1.0 - mdp.discount) * mdp.costs[0]
               + mdp.discount * np.einsum("sat,lt->lsa", mdp.transitions, continuation))
    head = []
    occupancy = mdp.initial.copy()
    for _ in range(horizon):
        step = cellwise_match(partition, payoffs, occupancy, strategy)
        head.append(step)
        step_kernel = np.einsum("sa,sat->st", step, mdp.transitions)
        occupancy = occupancy @ step_kernel
    return MarkovReplacement(
        player=player,
        head=tuple(head),
        tail=strategy,
        tail_bound=float(mdp.discount ** horizon * 2.0 * game.cost_bound),
    )


def mix_occupations(first, second, weight):
    """Convex combination of two (S, A) occupation measures on the same MDP,
    as a read-only array; the discounted costs mix with the same weight since
    they are linear in the measure."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    a, b = np.asarray(first, dtype=float), np.asarray(second, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"occupation shapes differ: {a.shape} vs {b.shape}")
    return _frozen_array(weight * a + (1.0 - weight) * b)


def mixing_weight(epsilon, drift, slack):
    """Weight (epsilon + drift) / (slack + drift) that pulls a nearly feasible
    point toward a strict interior point just enough to absorb both the
    accuracy loss epsilon and the drift term; requires epsilon >= 0,
    drift >= 0 and slack > epsilon, which NaN fails."""
    if not (epsilon >= 0.0 and drift >= 0.0):
        raise ValueError("epsilon and drift must be nonnegative")
    if not slack > epsilon:
        raise ValueError(f"slack {slack} must exceed epsilon {epsilon}")
    return (epsilon + drift) / (slack + drift)


@dataclass(frozen=True)
class WesselsGame:
    """Rescaled bounded game with one absorbing extra state appended last.

    value_scale converts between the two games' normalized costs: evaluating a
    profile on `game` gives value_scale times its cost in the original game.
    """

    game: FiniteCSG
    eta_omega: float
    value_scale: float


def wessels_transform(game, omega, beta):
    """Divide costs by a weight function and rescale the kernel into a bounded
    game with discount alpha * beta.

    Requires finite omega >= 1, beta > 1, alpha * beta < 1 (each check fails
    on NaN), and the growth condition sum_y omega(y) p(y | s, a) <= beta *
    omega(s) for every (s, a); the mass deficit goes to a zero-cost absorbing
    state appended as the last state.  The bounded game's cost_bound c0 is
    the smallest with |c| <= c0 * omega, or 1 when every cost is 0.
    Budgets are rescaled by value_scale so the two games have identical
    feasible strategy sets.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (game.n_states,):
        raise ValueError(f"omega must have shape {(game.n_states,)}")
    bad = ~(np.isfinite(omega) & (omega >= 1.0))
    if np.any(bad):
        worst = int(np.argmax(bad))
        raise ValueError(f"omega must be finite and >= 1; omega[{worst}] = {omega[worst]}")
    beta = float(beta)
    if not beta > 1.0:
        raise ValueError(f"growth factor beta must exceed 1; got {beta}")
    if not game.discount * beta < 1.0:
        raise ValueError(
            f"need discount * beta < 1; got {game.discount} * {beta} "
            f"= {game.discount * beta}"
        )
    c0 = float((np.abs(game.costs) / omega[None, None, :, None]).max())
    if c0 <= 0.0:
        c0 = 1.0
    weighted_mass = game.transitions @ omega
    limit = beta * omega[:, None]
    if np.any(weighted_mass > limit + 1e-12):
        s, j = (int(k[0]) for k in np.nonzero(weighted_mass > limit + 1e-12))
        raise ValueError(
            f"kernel growth violated at (state {s}, profile {game.profile_tuple(j)}): "
            f"sum omega * p = {weighted_mass[s, j]:.6g} > beta * omega = {limit[s, 0]:.6g}"
        )
    s, p = game.n_states, game.n_profiles
    transitions = np.zeros((s + 1, p, s + 1))
    transitions[:s, :, :s] = (game.transitions * omega[None, None, :]
                              / (beta * omega[:, None, None]))
    transitions[:s, :, s] = 1.0 - weighted_mass / (beta * omega[:, None])
    transitions[s, :, s] = 1.0
    costs = np.zeros((game.n_players, game.n_layers + 1, s + 1, p))
    costs[:, :, :s, :] = game.costs / omega[None, None, :, None]
    eta_omega = float(game.initial @ omega)
    initial = np.zeros(s + 1)
    initial[:s] = omega * game.initial / eta_omega
    new_discount = game.discount * beta
    value_scale = (1.0 - new_discount) / ((1.0 - game.discount) * eta_omega)
    transformed = FiniteCSG(
        n_actions=game.n_actions,
        costs=costs,
        transitions=transitions,
        discount=new_discount,
        initial=initial,
        constraint_bounds=game.constraint_bounds * value_scale,
        cost_bound=c0,
    )
    return WesselsGame(
        game=transformed,
        eta_omega=eta_omega,
        value_scale=value_scale,
    )


@dataclass(frozen=True)
class CostRelationReport:
    """Agreement between rescaled-game costs and original costs over eta_omega."""

    max_error: float
    transformed_values: np.ndarray
    original_values: np.ndarray
    passed: bool


def wessels_cost_relation(game, omega, beta, profile):
    """Evaluate a profile on both games and check that the transformed costs,
    brought back to the original normalization, equal J / eta_omega up to
    1e-8.

    The profile is extended to the absorbing state with uniform rows (its
    costs vanish there, so the choice is immaterial).
    """
    wg = wessels_transform(game, omega, beta)
    extended = StationaryProfile(tuple(
        np.vstack([rows, np.full((1, rows.shape[1]), 1.0 / rows.shape[1])])
        for rows in profile.rows
    ))
    transformed = evaluate_profile(wg.game, extended).J
    original = evaluate_profile(game, profile).J
    # Undo each game's own normalization before comparing.
    lhs = transformed * (1.0 - game.discount) / (1.0 - wg.game.discount)
    rhs = original / wg.eta_omega
    err = float(np.max(np.abs(lhs - rhs)))
    return CostRelationReport(
        max_error=err,
        transformed_values=lhs,
        original_values=rhs,
        passed=bool(err <= 1e-8),
    )
