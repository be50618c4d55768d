"""Data model for finite N-person constrained discounted stochastic games.

A game has a finite state space, a finite action set per player, a layered
cost table (layer 0 is the objective, layers 1..L are constraint costs with
per-player budgets), a transition kernel over joint actions, a discount
factor in (0, 1), and an initial state distribution.  Cost functionals are
normalized: J = (1 - alpha) * E[sum_t alpha^(t-1) c(x_t, a_t)].

Joint action profiles are always enumerated row-major over (a_1, ..., a_N),
i.e. profile j corresponds to np.unravel_index(j, n_actions).  Every module
in the package shares this convention.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FiniteCSG",
    "ContinuousGameSpec",
    "StationaryProfile",
    "MarkovStrategy",
    "CorrelatedStrategy",
    "ValidationReport",
    "validate_game",
    "validate_spec",
    "product_strategy",
    "marginal_excluding",
    "observed_cost_bound",
    "renormalize",
]

STOCHASTIC_TOL = 1e-12
ROW_SUM_TOL = 1e-9


def _frozen_array(x, dtype=float):
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


def _profile_label(n_actions, j):
    return tuple(int(k) for k in np.unravel_index(j, n_actions))


@dataclass(frozen=True)
class FiniteCSG:
    """Finite constrained discounted stochastic game.

    Fields
    ------
    n_actions : tuple of ints, one action count per player.
    costs : (N, L+1, S, P) array; layer 0 is the objective.
    transitions : (S, P, S) array of next-state distributions.
    discount : float in (0, 1).
    initial : (S,) initial state distribution.
    constraint_bounds : (N, L) budgets for layers 1..L.
    cost_bound : declared bound b with |c| <= b.
    """

    n_actions: tuple
    costs: np.ndarray
    transitions: np.ndarray
    discount: float
    initial: np.ndarray
    constraint_bounds: np.ndarray
    cost_bound: float

    def __post_init__(self):
        object.__setattr__(self, "n_actions", tuple(int(a) for a in self.n_actions))
        if len(self.n_actions) == 0 or any(a < 1 for a in self.n_actions):
            raise ValueError("n_actions must list a positive count per player")
        costs = _frozen_array(self.costs)
        trans = _frozen_array(self.transitions)
        init = _frozen_array(self.initial)
        bounds = _frozen_array(self.constraint_bounds)
        n = len(self.n_actions)
        p = int(np.prod(self.n_actions))
        if costs.ndim != 4 or costs.shape[0] != n or costs.shape[3] != p:
            raise ValueError(f"costs must have shape (N, L+1, S, P); got {costs.shape}")
        s = costs.shape[2]
        if trans.shape != (s, p, s):
            raise ValueError(f"transitions must have shape {(s, p, s)}; got {trans.shape}")
        if init.shape != (s,):
            raise ValueError(f"initial must have shape {(s,)}; got {init.shape}")
        if bounds.ndim != 2 or bounds.shape != (n, costs.shape[1] - 1):
            raise ValueError(
                f"constraint_bounds must have shape {(n, costs.shape[1] - 1)}; got {bounds.shape}"
            )
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "constraint_bounds", bounds)
        object.__setattr__(self, "discount", float(self.discount))
        object.__setattr__(self, "cost_bound", float(self.cost_bound))

    @property
    def n_players(self):
        return len(self.n_actions)

    @property
    def n_states(self):
        return self.costs.shape[2]

    @property
    def n_layers(self):
        """Number of constraint layers L (costs carry L+1 layers)."""
        return self.costs.shape[1] - 1

    @property
    def n_profiles(self):
        return self.transitions.shape[1]

    def profile_index(self, actions):
        return int(np.ravel_multi_index(tuple(actions), self.n_actions))

    def profile_tuple(self, j):
        return _profile_label(self.n_actions, j)


@dataclass(frozen=True)
class ContinuousGameSpec:
    """Gridded description of a game with a density kernel.

    The state space is a finite grid x_1..x_M carrying quadrature weights mu.
    Transitions are given as a density delta(x, a, y) with respect to mu, so
    the induced kernel is p(y | x, a) = delta(x, a, y) * mu(y).  This is the
    input to the discretization pipeline.

    Fields
    ------
    points : (M,) or (M, k) grid coordinates (used for reporting only).
    weights : (M,) positive quadrature weights summing to 1.
    density : (M, P, M) array, density[m, a, y] = delta(x_m, a, x_y).
    costs : (N, L+1, M, P) cost tables.
    n_actions, discount, initial, constraint_bounds, cost_bound : as in
    FiniteCSG, with states replaced by grid points.
    """

    n_actions: tuple
    points: np.ndarray
    weights: np.ndarray
    density: np.ndarray
    costs: np.ndarray
    discount: float
    initial: np.ndarray
    constraint_bounds: np.ndarray
    cost_bound: float

    def __post_init__(self):
        object.__setattr__(self, "n_actions", tuple(int(a) for a in self.n_actions))
        pts = _frozen_array(self.points)
        w = _frozen_array(self.weights)
        dens = _frozen_array(self.density)
        costs = _frozen_array(self.costs)
        init = _frozen_array(self.initial)
        bounds = _frozen_array(self.constraint_bounds)
        m = w.shape[0]
        p = int(np.prod(self.n_actions))
        n = len(self.n_actions)
        if pts.shape[0] != m:
            raise ValueError("points and weights disagree on grid size")
        if dens.shape != (m, p, m):
            raise ValueError(f"density must have shape {(m, p, m)}; got {dens.shape}")
        if costs.ndim != 4 or costs.shape[0] != n or costs.shape[2] != m or costs.shape[3] != p:
            raise ValueError(f"costs must have shape (N, L+1, M, P); got {costs.shape}")
        if init.shape != (m,):
            raise ValueError(f"initial must have shape {(m,)}; got {init.shape}")
        if bounds.shape != (n, costs.shape[1] - 1):
            raise ValueError(
                f"constraint_bounds must have shape {(n, costs.shape[1] - 1)}; got {bounds.shape}"
            )
        for name, val in (("points", pts), ("weights", w), ("density", dens),
                          ("costs", costs), ("initial", init), ("constraint_bounds", bounds)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "discount", float(self.discount))
        object.__setattr__(self, "cost_bound", float(self.cost_bound))

    @property
    def n_players(self):
        return len(self.n_actions)

    @property
    def n_points(self):
        return self.weights.shape[0]

    @property
    def n_layers(self):
        return self.costs.shape[1] - 1

    @property
    def n_profiles(self):
        return self.density.shape[1]


@dataclass(frozen=True)
class StationaryProfile:
    """One stationary randomized strategy per player: rows[i] has shape (S, A_i)."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(_frozen_array(r) for r in self.rows)
        if not rows:
            raise ValueError("profile needs at least one player")
        s = rows[0].shape[0]
        for i, r in enumerate(rows):
            if r.ndim != 2 or r.shape[0] != s:
                raise ValueError(f"player {i} rows must be (S, A_i); got {r.shape}")
            if np.any(r < -ROW_SUM_TOL):
                raise ValueError(f"player {i} has negative action probabilities")
            if np.max(np.abs(r.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
                raise ValueError(f"player {i} rows must sum to 1")
        object.__setattr__(self, "rows", rows)

    @property
    def n_players(self):
        return len(self.rows)

    @property
    def n_states(self):
        return self.rows[0].shape[0]

    @property
    def n_actions(self):
        return tuple(r.shape[1] for r in self.rows)

    def replace(self, player, row):
        rows = list(self.rows)
        rows[player] = row
        return StationaryProfile(tuple(rows))


@dataclass(frozen=True)
class MarkovStrategy:
    """Finite-head Markov strategy for one player: play head[t] at step t+1,
    then the stationary tail forever after."""

    player: int
    head: tuple
    tail: np.ndarray

    def __post_init__(self):
        head = tuple(_frozen_array(h) for h in self.head)
        tail = _frozen_array(self.tail)
        if tail.ndim != 2:
            raise ValueError("tail must be an (S, A_i) array")
        for t, h in enumerate(head):
            if h.shape != tail.shape:
                raise ValueError(f"head step {t} has shape {h.shape}, tail {tail.shape}")
        object.__setattr__(self, "player", int(self.player))
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)

    @property
    def horizon(self):
        return len(self.head)


@dataclass(frozen=True)
class CorrelatedStrategy:
    """Per-state joint distribution over action profiles (row-major order)."""

    n_actions: tuple
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_actions", tuple(int(a) for a in self.n_actions))
        table = _frozen_array(self.table)
        p = int(np.prod(self.n_actions))
        if table.ndim != 2 or table.shape[1] != p:
            raise ValueError(f"table must be (S, {p}); got {table.shape}")
        if np.any(table < -ROW_SUM_TOL):
            raise ValueError("negative profile probabilities")
        if np.max(np.abs(table.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ValueError("profile rows must sum to 1")
        object.__setattr__(self, "table", table)

    @property
    def n_states(self):
        return self.table.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural validation pass; empty issues means valid."""

    issues: tuple = field(default_factory=tuple)

    @property
    def ok(self):
        return not self.issues

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(self.issues)


def validate_game(game, tol=STOCHASTIC_TOL):
    """Check stochasticity, bounds, and discount of a FiniteCSG.

    Returns a ValidationReport listing every violated invariant with the
    offending location.  Every check is written so that a NaN or infinite
    entry fails it.  Inputs are never modified or renormalized here; see
    renormalize() for the explicit repair.
    """
    issues = []
    if not (0.0 < game.discount < 1.0):
        issues.append(f"discount must lie in (0, 1); got {game.discount!r}")
    if not (0.0 < game.cost_bound < math.inf):
        issues.append(f"cost bound must be positive and finite; got {game.cost_bound!r}")
    row_sums = game.transitions.sum(axis=2)
    for s, j in zip(*np.nonzero(~(np.abs(row_sums - 1.0) <= tol))):
        issues.append(
            f"transition row (state {s}, profile {game.profile_tuple(j)}) "
            f"sums to {row_sums[s, j]:.17g}"
        )
    neg = np.min(game.transitions, axis=2)
    for s, j in zip(*np.nonzero(neg < -tol)):
        issues.append(
            f"transition row (state {s}, profile {game.profile_tuple(j)}) "
            f"has a negative entry {neg[s, j]:.17g}"
        )
    if not abs(game.initial.sum() - 1.0) <= tol:
        issues.append(f"initial distribution sums to {game.initial.sum():.17g}")
    if np.any(game.initial < -tol):
        issues.append("initial distribution has a negative entry")
    if not np.all(np.isfinite(game.constraint_bounds)):
        issues.append("constraint bounds must be finite")
    outside = ~(np.abs(game.costs) <= game.cost_bound + tol)
    if np.any(outside):
        i, l, s, j = (int(k[0]) for k in np.nonzero(outside))
        issues.append(
            f"cost (player {i}, layer {l}, state {s}, profile {game.profile_tuple(j)}) "
            f"= {game.costs[i, l, s, j]:.17g} is outside the declared bound {game.cost_bound:.17g}"
        )
    return ValidationReport(tuple(issues))


def validate_spec(spec, tol=ROW_SUM_TOL):
    """Check a ContinuousGameSpec: weights, density integrals, bounds, discount.
    As in validate_game, a NaN or infinite entry fails every check."""
    issues = []
    if not (0.0 < spec.discount < 1.0):
        issues.append(f"discount must lie in (0, 1); got {spec.discount!r}")
    if not (0.0 < spec.cost_bound < math.inf):
        issues.append(f"cost bound must be positive and finite; got {spec.cost_bound!r}")
    if not np.all(spec.weights > 0.0):
        issues.append("quadrature weights must be strictly positive")
    if not abs(spec.weights.sum() - 1.0) <= tol:
        issues.append(f"quadrature weights sum to {spec.weights.sum():.17g}")
    mass = spec.density @ spec.weights
    for m, j in zip(*np.nonzero(~(np.abs(mass - 1.0) <= tol))):
        issues.append(
            f"density row (point {m}, profile {_profile_label(spec.n_actions, j)}) "
            f"integrates to {mass[m, j]:.17g}"
        )
    if np.any(spec.density < -tol):
        issues.append("density has a negative entry")
    if not abs(spec.initial.sum() - 1.0) <= tol:
        issues.append(f"initial distribution sums to {spec.initial.sum():.17g}")
    if np.any(spec.initial < -tol):
        issues.append("initial distribution has a negative entry")
    if not np.all(np.isfinite(spec.constraint_bounds)):
        issues.append("constraint bounds must be finite")
    if not np.all(np.abs(spec.costs) <= spec.cost_bound + tol):
        issues.append("a cost entry is outside the declared bound")
    return ValidationReport(tuple(issues))


def _row_product(rows, n_states):
    """Per-state product of independent (S, A_k) rows, over the joint actions
    in row-major order; a single column of ones when rows is empty."""
    table = np.ones((n_states, 1))
    for r in rows:
        table = (table[:, :, None] * r[:, None, :]).reshape(n_states, -1)
    return table


def product_strategy(profile):
    """Joint per-state profile distribution of independent stationary strategies."""
    return CorrelatedStrategy(profile.n_actions, _row_product(profile.rows, profile.n_states))


def marginal_excluding(psi, player):
    """Per-state marginal of a correlated strategy over the other players'
    profiles (row-major over (a_1, ..., a_N) with player's axis removed).

    Returns an (S, P_-i) array.  For a single-player game this is the
    one-column table of an empty product.
    """
    n = len(psi.n_actions)
    if not (0 <= player < n):
        raise ValueError(f"player index {player} out of range for {n} players")
    s = psi.n_states
    tensor = psi.table.reshape((s,) + psi.n_actions)
    return tensor.sum(axis=1 + player).reshape(s, -1)


def observed_cost_bound(game):
    """Largest |c| present in the cost tables; never exceeds the declared bound
    on a valid game."""
    return float(np.max(np.abs(game.costs)))


def renormalize(game):
    """Return a copy with transition rows and the initial distribution rescaled
    to exact probability vectors.  Never applied implicitly."""
    trans = np.clip(game.transitions, 0.0, None)
    sums = trans.sum(axis=2, keepdims=True)
    if np.any(sums <= 0.0):
        raise ValueError("cannot renormalize a transition row with no mass")
    init = np.clip(game.initial, 0.0, None)
    if init.sum() <= 0.0:
        raise ValueError("cannot renormalize an initial distribution with no mass")
    return FiniteCSG(
        n_actions=game.n_actions,
        costs=game.costs,
        transitions=trans / sums,
        discount=game.discount,
        initial=init / init.sum(),
        constraint_bounds=game.constraint_bounds,
        cost_bound=game.cost_bound,
    )
