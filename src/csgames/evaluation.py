"""Exact and Monte Carlo evaluation of discounted cost functionals.

All evaluators return normalized values J = (1 - alpha) E[sum alpha^(t-1) c].
Every exact evaluation, and the occupation measure of best_response, goes
through one LU solve of (I - alpha * K) x = b in `_discounted_solve`, checked
against RESIDUAL_TOL.  One factorization serves all players and cost layers,
since the kernel under a fixed joint strategy does not depend on them.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .game import (
    CorrelatedStrategy,
    MarkovStrategy,
    StationaryProfile,
    _row_product,
    product_strategy,
)

__all__ = [
    "CostVector",
    "InducedMDP",
    "SimulationResult",
    "evaluate_correlated",
    "evaluate_profile",
    "evaluate_markov",
    "evaluate_markov_profile",
    "evaluate_policy",
    "induced_mdp",
    "induced_mdp_from_marginal",
    "simulate",
    "simulation_horizon",
]

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class CostVector:
    """Discounted costs of a strategy: J[i, l] from the initial distribution
    and Jx[i, l, s] per initial state."""

    J: np.ndarray
    Jx: np.ndarray

    def __post_init__(self):
        J = np.array(self.J, dtype=float)
        Jx = np.array(self.Jx, dtype=float)
        J.setflags(write=False)
        Jx.setflags(write=False)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "Jx", Jx)


@dataclass(frozen=True)
class InducedMDP:
    """Single-player constrained MDP seen by one player when the others have
    fixed their (possibly correlated) behavior.

    costs has shape (L+1, S, A_i); kernel has shape (S, A_i, S).
    """

    player: int
    costs: np.ndarray
    kernel: np.ndarray
    discount: float
    initial: np.ndarray
    constraint_bounds: np.ndarray
    cost_bound: float

    def __post_init__(self):
        for name in ("costs", "kernel", "initial", "constraint_bounds"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "player", int(self.player))
        object.__setattr__(self, "discount", float(self.discount))
        object.__setattr__(self, "cost_bound", float(self.cost_bound))

    @property
    def n_states(self):
        return self.kernel.shape[0]

    @property
    def n_actions(self):
        return self.kernel.shape[1]

    @property
    def n_layers(self):
        return self.costs.shape[0] - 1


@dataclass(frozen=True)
class SimulationResult:
    """Monte Carlo estimates with per-entry confidence radii (standard errors)."""

    estimates: np.ndarray
    radii: np.ndarray
    n_trajectories: int
    horizon: int
    bias_bound: float
    seed: int


def _check_psi(game, psi):
    if psi.n_actions != game.n_actions:
        raise ValueError(f"strategy actions {psi.n_actions} do not match game {game.n_actions}")
    if psi.n_states != game.n_states:
        raise ValueError(f"strategy has {psi.n_states} states, game has {game.n_states}")


def _joint_kernel_costs(game, table):
    """Average kernel and all cost layers under a per-state profile table."""
    kernel = np.einsum("sp,spt->st", table, game.transitions)
    costs = np.einsum("sp,ilsp->ils", table, game.costs)
    return kernel, costs


def _discounted_solve(kernel, discount, rhs):
    """Solve (I - discount * kernel) x = rhs by one LU factorization.

    rhs may hold several right-hand sides as columns.  Raises RuntimeError if
    the solve residual exceeds RESIDUAL_TOL or is NaN (a sign of a malformed
    kernel).
    """
    a_mat = np.eye(kernel.shape[0]) - discount * kernel
    x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a_mat), rhs)
    residual = np.max(np.abs(a_mat @ x - rhs)) if x.size else 0.0
    if not residual <= RESIDUAL_TOL:
        raise RuntimeError(f"policy evaluation residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return x


def evaluate_correlated(game, psi):
    """Exact evaluation of a correlated stationary strategy; one solve covers
    every (player, layer) pair."""
    _check_psi(game, psi)
    kernel, costs = _joint_kernel_costs(game, psi.table)
    n, layers, s = costs.shape
    rhs = (1.0 - game.discount) * costs.reshape(n * layers, s).T
    jx = _discounted_solve(kernel, game.discount, rhs).T.reshape(n, layers, s)
    return CostVector(J=jx @ game.initial, Jx=jx)


def evaluate_profile(game, profile):
    """Exact evaluation of an independent stationary profile."""
    return evaluate_correlated(game, product_strategy(profile))


def evaluate_markov_profile(game, heads, tail):
    """Exact evaluation when every player follows a finite-head Markov plan.

    heads is a sequence of StationaryProfile objects (the joint behavior at
    steps 1..T); tail is the StationaryProfile played from step T+1 on.
    """
    tail_values = evaluate_profile(game, tail).Jx
    v = tail_values
    for prof in reversed(list(heads)):
        kernel, costs = _joint_kernel_costs(game, product_strategy(prof).table)
        v = (1.0 - game.discount) * costs + game.discount * np.einsum("st,ilt->ils", kernel, v)
    return CostVector(J=v @ game.initial, Jx=v)


def evaluate_markov(game, player, others, strategy):
    """Evaluate the game when `player` follows a Markov strategy and the other
    players (in ascending order) follow the stationary rows in `others`."""
    if not isinstance(strategy, MarkovStrategy):
        raise ValueError("strategy must be a MarkovStrategy")
    if strategy.player != player:
        raise ValueError(f"strategy belongs to player {strategy.player}, not {player}")
    others = [np.asarray(r, dtype=float) for r in others]
    if len(others) != game.n_players - 1:
        raise ValueError(f"expected {game.n_players - 1} other strategies, got {len(others)}")
    if strategy.tail.shape != (game.n_states, game.n_actions[player]):
        raise ValueError("strategy rows do not match the game dimensions")

    def combine(own):
        rows = others[:player] + [own] + others[player:]
        return StationaryProfile(tuple(rows))

    heads = [combine(h) for h in strategy.head]
    return evaluate_markov_profile(game, heads, combine(strategy.tail))


def induced_mdp_from_marginal(game, player, marginal):
    """Constrained MDP faced by `player` when the others' joint behavior is the
    per-state distribution `marginal` over their profiles (row-major with the
    player's axis removed)."""
    marginal = np.asarray(marginal, dtype=float)
    s = game.n_states
    a_i = game.n_actions[player]
    p_minus = game.n_profiles // a_i
    if marginal.shape != (s, p_minus):
        raise ValueError(f"marginal must have shape {(s, p_minus)}; got {marginal.shape}")
    # Reshape profile axes, move the player's axis last, contract the rest.
    cost_t = game.costs[player].reshape((game.n_layers + 1, s) + game.n_actions)
    cost_t = np.moveaxis(cost_t, 2 + player, -1).reshape(game.n_layers + 1, s, p_minus, a_i)
    trans_t = game.transitions.reshape((s,) + game.n_actions + (s,))
    trans_t = np.moveaxis(trans_t, 1 + player, -2).reshape(s, p_minus, a_i, s)
    costs = np.einsum("sm,lsma->lsa", marginal, cost_t)
    kernel = np.einsum("sm,smat->sat", marginal, trans_t)
    return InducedMDP(
        player=player,
        costs=costs,
        kernel=kernel,
        discount=game.discount,
        initial=game.initial,
        constraint_bounds=game.constraint_bounds[player],
        cost_bound=game.cost_bound,
    )


def induced_mdp(game, player, others):
    """Constrained MDP faced by `player` against independent stationary
    strategies of the other players (ascending order, player excluded)."""
    others = [np.asarray(r, dtype=float) for r in others]
    if len(others) != game.n_players - 1:
        raise ValueError(f"expected {game.n_players - 1} other strategies, got {len(others)}")
    return induced_mdp_from_marginal(game, player, _row_product(others, game.n_states))


def evaluate_policy(mdp, policy):
    """Exact per-layer values of a stationary policy in an induced MDP.

    Returns (J, Jx) with shapes (L+1,) and (L+1, S).
    """
    policy = np.asarray(policy, dtype=float)
    if policy.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(f"policy must have shape {(mdp.n_states, mdp.n_actions)}")
    kernel = np.einsum("sa,sat->st", policy, mdp.kernel)
    costs = np.einsum("sa,lsa->ls", policy, mdp.costs)
    jx = _discounted_solve(kernel, mdp.discount, (1.0 - mdp.discount) * costs.T).T
    return jx @ mdp.initial, jx


def simulation_horizon(tol, discount, cost_bound):
    """Smallest horizon whose truncation bias is below tol.

    Uses the tail bound (1 - alpha) * sum_{t > T} alpha^(t-1) b = alpha^T b,
    with an extra (1 - alpha) safety factor folded into the target.
    """
    if cost_bound <= 0.0:
        return 1
    target = tol * (1.0 - discount) / cost_bound
    if target >= 1.0:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(discount)))


def _rows_cdf(table):
    cdf = np.cumsum(table, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _sample_rows(cdf_rows, u):
    # First index where the row cdf reaches u; clip guards the u ~ 1.0 edge.
    idx = (cdf_rows < u[:, None]).sum(axis=1)
    return np.minimum(idx, cdf_rows.shape[1] - 1)


def simulate(game, psi, n_trajectories=1000, tol=1e-6, seed=0, chunk=16384):
    """Monte Carlo estimate of all discounted costs under a correlated strategy.

    Trajectory k consumes a dedicated slice of a counter-based Philox stream
    keyed by `seed`, so results do not depend on chunking or execution order.
    The returned radii are standard errors of the per-trajectory discounted
    sums; the truncation bias bound is reported separately.
    """
    _check_psi(game, psi)
    if n_trajectories < 2:
        raise ValueError("need at least two trajectories for a confidence radius")
    horizon = simulation_horizon(tol, game.discount, game.cost_bound)
    action_cdf = _rows_cdf(psi.table)
    state_cdf = _rows_cdf(game.transitions)
    initial_cdf = _rows_cdf(game.initial[None, :])[0]
    # (S, P, N, L+1) cost lookup so one fancy-index per step covers everything.
    ctab = np.moveaxis(game.costs, (0, 1), (2, 3))
    n, layers = game.n_players, game.n_layers + 1
    draws_per_traj = 1 + 2 * horizon
    rng = np.random.Generator(np.random.Philox(key=seed))
    totals = np.empty((n_trajectories, n, layers))
    start = 0
    while start < n_trajectories:
        size = min(chunk, n_trajectories - start)
        u = rng.random((size, draws_per_traj))
        state = np.searchsorted(initial_cdf, u[:, 0], side="left")
        state = np.minimum(state, game.n_states - 1)
        acc = np.zeros((size, n, layers))
        weight = 1.0 - game.discount
        for t in range(horizon):
            action = _sample_rows(action_cdf[state], u[:, 1 + 2 * t])
            acc += weight * ctab[state, action]
            state = _sample_rows(state_cdf[state, action], u[:, 2 + 2 * t])
            weight *= game.discount
        totals[start:start + size] = acc
        start += size
    estimates = totals.mean(axis=0)
    radii = totals.std(axis=0, ddof=1) / math.sqrt(n_trajectories)
    bias = game.discount ** horizon * game.cost_bound
    return SimulationResult(
        estimates=estimates,
        radii=radii,
        n_trajectories=int(n_trajectories),
        horizon=int(horizon),
        bias_bound=float(bias),
        seed=int(seed),
    )
