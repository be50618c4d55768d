"""Small benchmark games and seeded random generators used by the tests and
the demo scripts.

The trap game is the workhorse: a two-state chain where the safe action keeps
the objective at zero but burns constraint budget, and the cheap action falls
into an absorbing state that costs forever.  Its constrained optimum is a
genuine randomized strategy, computable in closed form.
"""

from dataclasses import replace

import numpy as np

from .discretization import Partition
from .evaluation import evaluate_profile
from .game import ContinuousGameSpec, CorrelatedStrategy, FiniteCSG, StationaryProfile

__all__ = [
    "trap_game",
    "constrained_trap_game",
    "decoupled_product",
    "decoupled_pair",
    "shadowed_state_game",
    "trap_profile",
    "random_game",
    "random_constrained_game",
    "random_profile",
    "random_correlated",
    "random_markov_plan",
    "random_continuous_spec",
    "random_cell_constant_game",
    "linear_cost_grid_spec",
]


def trap_game(discount=0.5):
    """Single player, two states, two actions.  Action 0 at state 0 stays put
    at zero cost; action 1 drops into the absorbing state 1 where everything
    costs 1.  Unconstrained optimum: always play action 0."""
    costs = np.array([[[[0.0, 1.0], [1.0, 1.0]]]])
    transitions = np.array([
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [0.0, 1.0]],
    ])
    return FiniteCSG(
        n_actions=(2,),
        costs=costs,
        transitions=transitions,
        discount=discount,
        initial=np.array([1.0, 0.0]),
        constraint_bounds=np.zeros((1, 0)),
        cost_bound=1.0,
    )


def constrained_trap_game(discount=0.5, budget=0.6):
    """Trap game plus one constraint layer charging the safe action at state 0.

    With q = P(action 0 at state 0), the stay probability makes the
    normalized state-0 mass (1 - a) / (1 - a q), so

        J0(q) = 1 - q (1 - a) / (1 - a q),    J1(q) = q (1 - a) / (1 - a q).

    At the default discount 1/2 and budget 0.6 the constrained optimum mixes
    at q* = 3/4 with J0 = 0.4 and the budget exactly tight.
    """
    base = trap_game(discount)
    costs = np.concatenate([base.costs, [[[[1.0, 0.0], [0.0, 0.0]]]]], axis=1)
    return replace(base, costs=costs, constraint_bounds=[[budget]])


def trap_profile(q, n_states=2):
    """Stationary strategy for the (single-player) trap game playing action 0
    with probability q at every state."""
    rows = np.tile([q, 1.0 - q], (n_states, 1))
    return StationaryProfile((rows,))


def decoupled_product(first, second):
    """Two single-player games glued into a two-player game on the product
    state space where neither player's actions or costs touch the other.

    States are enumerated row-major as (s_first, s_second); each player's cost
    depends only on their own component and action, so any strategy analysis
    splits into the two factors.
    """
    for g in (first, second):
        if g.n_players != 1:
            raise ValueError("decoupled_product takes two single-player games")
    if first.discount != second.discount:
        raise ValueError("factors must share the discount")
    if first.n_layers != second.n_layers:
        raise ValueError("factors must share the number of constraint layers")
    s1, s2 = first.n_states, second.n_states
    a1, a2 = first.n_actions[0], second.n_actions[0]
    transitions = np.einsum(
        "iau,jbv->ijabuv", first.transitions, second.transitions
    ).reshape(s1 * s2, a1 * a2, s1 * s2)
    layers = first.n_layers + 1
    costs = np.zeros((2, layers, s1 * s2, a1 * a2))
    c1 = first.costs[0][:, :, None, :, None]          # (layers, s1, 1, a1, 1)
    c2 = second.costs[0][:, None, :, None, :]         # (layers, 1, s2, 1, a2)
    costs[0] = np.broadcast_to(c1, (layers, s1, s2, a1, a2)).reshape(layers, s1 * s2, a1 * a2)
    costs[1] = np.broadcast_to(c2, (layers, s1, s2, a1, a2)).reshape(layers, s1 * s2, a1 * a2)
    return FiniteCSG(
        n_actions=(a1, a2),
        costs=costs,
        transitions=transitions,
        discount=first.discount,
        initial=np.outer(first.initial, second.initial).reshape(-1),
        constraint_bounds=np.vstack([first.constraint_bounds, second.constraint_bounds]),
        cost_bound=max(first.cost_bound, second.cost_bound),
    )


def decoupled_pair(discount=0.5, budget=0.6):
    """Two independent copies of the constrained trap game as one two-player
    game.  Every equilibrium gives each player the trap's constrained optimum
    value (J = (0.4, 0.6) at the defaults).  The profile is not unique: the
    trap optimum q* at every state is one, but a player's row may vary with
    the other player's state as long as their own occupation is optimal."""
    g = constrained_trap_game(discount, budget)
    return decoupled_product(g, g)


def shadowed_state_game(discount=0.5):
    """Three states, single player.  States 0 and 1 are the trap chain;
    state 2 is unreachable from them and carries a free action (0) and a
    costly action (1), both self-looping.  A strategy can be optimal from the
    initial state while wasting money on the shadowed state 2."""
    costs = np.array([[[[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]]]])
    transitions = np.array([
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
    ])
    return FiniteCSG(
        n_actions=(2,),
        costs=costs,
        transitions=transitions,
        discount=discount,
        initial=np.array([1.0, 0.0, 0.0]),
        constraint_bounds=np.zeros((1, 0)),
        cost_bound=1.0,
    )


def _random_rows(rng, shape):
    return rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])


def random_game(rng, n_players=2, n_states=3, n_actions=None, n_layers=1,
                discount=None, cost_bound=1.0):
    """Random valid game with costs uniform in [-b, b] and Dirichlet kernels."""
    if n_actions is None:
        n_actions = tuple(int(rng.integers(2, 4)) for _ in range(n_players))
    n_profiles = int(np.prod(n_actions))
    if discount is None:
        discount = float(rng.uniform(0.3, 0.9))
    costs = rng.uniform(-cost_bound, cost_bound,
                        size=(n_players, n_layers + 1, n_states, n_profiles))
    transitions = _random_rows(rng, (n_states, n_profiles, n_states))
    initial = rng.dirichlet(np.ones(n_states))
    bounds = rng.uniform(-cost_bound, cost_bound, size=(n_players, n_layers))
    return FiniteCSG(
        n_actions=n_actions,
        costs=costs,
        transitions=transitions,
        discount=discount,
        initial=initial,
        constraint_bounds=bounds,
        cost_bound=cost_bound,
    )


def random_constrained_game(rng, n_players=1, n_states=2, n_actions=(2,),
                            n_layers=1, discount=None, slack=0.0):
    """Random game whose budgets are calibrated on a random witness strategy,
    so the constraint set is nonempty (with at least `slack` margin)."""
    game = random_game(rng, n_players, n_states, n_actions, n_layers, discount)
    witness = random_profile(rng, game)
    values = evaluate_profile(game, witness).J
    return replace(game, constraint_bounds=values[:, 1:] + slack)


def random_profile(rng, game):
    return StationaryProfile(tuple(
        _random_rows(rng, (game.n_states, a)) for a in game.n_actions
    ))


def random_correlated(rng, game):
    return CorrelatedStrategy(
        game.n_actions, _random_rows(rng, (game.n_states, game.n_profiles)))


def random_markov_plan(rng, game, horizon):
    """Random finite-head Markov play for all players: (heads, tail)."""
    heads = [random_profile(rng, game) for _ in range(horizon)]
    return heads, random_profile(rng, game)


def random_continuous_spec(rng, n_points=12, n_players=1, n_actions=None,
                           n_layers=0, discount=None):
    """Random gridded spec with smoothly varying costs and densities, so that
    coarse partitions group several points per cell."""
    if n_actions is None:
        n_actions = tuple(int(rng.integers(1, 3)) for _ in range(n_players))
    n_profiles = int(np.prod(n_actions))
    if discount is None:
        discount = float(rng.uniform(0.3, 0.9))
    points = np.linspace(0.0, 1.0, n_points)
    weights = rng.dirichlet(np.full(n_points, 5.0))
    anchors = rng.uniform(0.0, 1.0, size=3)
    lam = np.exp(-((points[:, None] - anchors[None, :]) ** 2) / 0.08)
    lam /= lam.sum(axis=1, keepdims=True)
    base_rows = _random_rows(rng, (3, n_profiles, n_points))
    mix = np.einsum("mk,kpy->mpy", lam, base_rows)
    density = mix / weights[None, None, :]
    coef = rng.uniform(-1.0, 1.0, size=(n_players, n_layers + 1, n_profiles, 3))
    x = points[None, None, :, None]
    costs = (coef[:, :, None, :, 0] + coef[:, :, None, :, 1] * x
             + coef[:, :, None, :, 2] * x * x)
    peak = np.max(np.abs(costs))
    if peak > 1.0:
        costs = costs / peak
    initial = rng.dirichlet(np.ones(n_points))
    bounds = rng.uniform(0.0, 1.0, size=(n_players, n_layers))
    return ContinuousGameSpec(
        n_actions=n_actions,
        points=points,
        weights=weights,
        density=density,
        costs=costs,
        discount=discount,
        initial=initial,
        constraint_bounds=bounds,
        cost_bound=1.0,
    )


def random_cell_constant_game(rng, n_cells=3, n_players=1, n_actions=None,
                              n_layers=1, discount=None, max_cell_size=3):
    """Random game whose costs and kernel rows are constant on a random
    partition of the states; returns (game, partition)."""
    if n_actions is None:
        n_actions = tuple(int(rng.integers(2, 4)) for _ in range(n_players))
    n_profiles = int(np.prod(n_actions))
    if discount is None:
        discount = float(rng.uniform(0.3, 0.9))
    sizes = rng.integers(1, max_cell_size + 1, size=n_cells)
    n_states = int(sizes.sum())
    cell_costs = rng.uniform(-1.0, 1.0, size=(n_players, n_layers + 1, n_cells, n_profiles))
    cell_rows = _random_rows(rng, (n_cells, n_profiles, n_states))
    cells = []
    start = 0
    costs = np.empty((n_players, n_layers + 1, n_states, n_profiles))
    transitions = np.empty((n_states, n_profiles, n_states))
    for k, size in enumerate(sizes):
        idx = np.arange(start, start + size)
        cells.append(idx)
        costs[:, :, idx, :] = cell_costs[:, :, k:k + 1, :]
        transitions[idx] = cell_rows[k]
        start += size
    partition = Partition(
        resolution=1.0,
        cells=tuple(cells),
        representatives=np.array([c[0] for c in cells]),
    )
    game = FiniteCSG(
        n_actions=n_actions,
        costs=costs,
        transitions=transitions,
        discount=discount,
        initial=rng.dirichlet(np.ones(n_states)),
        constraint_bounds=rng.uniform(-1.0, 1.0, size=(n_players, n_layers)),
        cost_bound=1.0,
    )
    return game, partition


def linear_cost_grid_spec(n_points=101, discount=0.5):
    """Single player on a uniform grid of [0, 1]: the cost of every action is
    the state coordinate itself and the transition density does not depend on
    the current state.  Partitions are then driven by the cost condition
    alone, producing evenly spaced representatives."""
    points = np.linspace(0.0, 1.0, n_points)
    weights = np.full(n_points, 1.0 / n_points)
    density = np.ones((n_points, 2, n_points))
    costs = np.broadcast_to(points[None, None, :, None], (1, 1, n_points, 2)).copy()
    return ContinuousGameSpec(
        n_actions=(2,),
        points=points,
        weights=weights,
        density=density,
        costs=costs,
        discount=discount,
        initial=np.full(n_points, 1.0 / n_points),
        constraint_bounds=np.zeros((1, 0)),
        cost_bound=1.0,
    )
