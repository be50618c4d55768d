"""Data model for finite N-person constrained discounted stochastic games.

A game has a finite state space, a finite action set per player, a layered
cost table (layer 0 is the objective, layers 1..L are constraint costs with
per-player budgets), a transition kernel over joint actions, a discount
factor in (0, 1), and an initial state distribution.  Cost functionals are
normalized: J = (1 - alpha) * E[sum_t alpha^(t-1) c(x_t, a_t)].

Joint action profiles are always enumerated row-major over (a_1, ..., a_N),
i.e. profile j corresponds to np.unravel_index(j, n_actions).  Every module
in the package shares this convention.

FiniteCSG is the one game type.  A ContinuousGameSpec is a grid game, a
FiniteCSG over grid points, plus the points and the quadrature weights the
transition density is taken against; validate_spec checks the weights and
the density's sign and leaves the rest to validate_game.

Validation happens once, at the boundary: public constructors, and so the
loaders and dataclasses.replace, copy, freeze and check their input.  Objects
derived from validated ones (induced MDPs, search iterates) use `_derived`.
"""

import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = [
    "FiniteCSG",
    "ContinuousGameSpec",
    "StationaryProfile",
    "MarkovStrategy",
    "CorrelatedStrategy",
    "validate_game",
    "validate_spec",
    "product_strategy",
    "marginal_excluding",
]

ROW_SUM_TOL = 1e-9


def _holds_bool(x, a):
    """Whether the nested list x, which numpy read as the array a, holds a
    bool.  numpy reads a bool as 0 or 1, so only an a holding one of them
    has its list walked: one set of the entries' types, at a's depth."""
    if not (np.any(a == 0) or np.any(a == 1)):  # one mask at a time keeps the peak low
        return False
    for _ in range(a.ndim - 1):
        x = chain.from_iterable(x)
    return bool in set(map(type, x))


def _frozen_array(x, dtype=float):
    """x as a read-only array of `dtype` (numpy's own if None).  Strings,
    which numpy would parse, and booleans, which it would read as 0 and 1,
    raise ValueError.  Only object arrays are searched for strings, and only
    lists for booleans (_holds_bool); an array is judged by its kind."""
    a = np.array(x)
    if a.dtype.kind in "SU" or a.dtype.kind == "O" and any(isinstance(v, str) for v in a.flat):
        raise ValueError("expected numbers, found strings")
    if a.dtype.kind == "b" or isinstance(x, list) and _holds_bool(x, a):
        raise ValueError("expected numbers, found booleans")
    a = a if dtype is None else a.astype(dtype, copy=False)
    a.setflags(write=False)
    return a


def _real(value, what):
    """float(value), refusing a string or a bool, which float() would take."""
    if isinstance(value, (str, bool, np.bool_)):
        raise ValueError(f"{what} must be a number; got {value!r}")
    return float(value)


def _derived(cls, **fields):
    """A `cls` holding `fields` as given, without __post_init__, for values
    derived from validated objects in the types and shapes its constructor
    gives; arrays, alone or in a tuple, are frozen in place."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                item.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _row_faults(table):
    """(index, fault) for each row of `table`, along its last axis, that is
    not a probability vector up to ROW_SUM_TOL.  Written as `not x >= bound`,
    so NaN and ±inf fail; a passing table costs one compare and one sum."""
    sums = table.sum(axis=-1)
    if np.all(table >= -ROW_SUM_TOL) and np.all(np.abs(sums - 1.0) <= ROW_SUM_TOL):
        return []
    bad = ~(np.abs(sums - 1.0) <= ROW_SUM_TOL) | ~np.all(table >= -ROW_SUM_TOL, axis=-1)
    return [(idx, f"sums to {sums[idx]:.17g}, least entry "
                  f"{np.min(table[idx], initial=np.inf):.17g}") for idx in zip(*np.nonzero(bad))]


def _require_distributions(table, what):
    """Raise ValueError naming the first row of the (S, A) `table` that
    _row_faults finds."""
    faults = _row_faults(table)
    if faults:
        (s,), fault = faults[0]
        raise ValueError(f"{what} row (state {s}) {fault}")


def _integer(value, what):
    """value as an int when it is a Python or numpy integer, not a bool;
    anything else, such as 2.9 or "2", raises ValueError naming `what`."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return int(operator.index(value))
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer; got {value!r}")


def _counts(n_actions):
    return tuple(_integer(a, "n_actions entry") for a in n_actions)


def _require_player(player, n_players, what="no player"):
    """Raise ValueError unless `player` indexes one of n_players players."""
    if not 0 <= player < n_players:
        raise ValueError(f"{what} {player}: the game's players are 0 to {n_players - 1}")


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
        object.__setattr__(self, "n_actions", _counts(self.n_actions))
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
        object.__setattr__(self, "discount", _real(self.discount, "discount"))
        object.__setattr__(self, "cost_bound", _real(self.cost_bound, "cost_bound"))

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

    def profile_tuple(self, j):
        return tuple(int(k) for k in np.unravel_index(j, self.n_actions))


@dataclass(frozen=True)
class ContinuousGameSpec:
    """Gridded description of a game with a density kernel.

    The state space is a finite grid x_1..x_M carrying quadrature weights mu.
    Transitions are given as a density delta(x, a, y) with respect to mu, so
    the induced kernel is p(y | x, a) = delta(x, a, y) * mu(y).  The spec is
    an input format over that grid game: construction builds it once, as the
    FiniteCSG `game`, which checks every shape but the density's.  This is
    the input to the discretization pipeline.

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
        object.__setattr__(self, "n_actions", _counts(self.n_actions))
        pts = _frozen_array(self.points)
        w = _frozen_array(self.weights)
        dens = _frozen_array(self.density)
        if w.ndim == 0 or pts.ndim == 0:
            raise ValueError("points and weights must be arrays over the grid")
        m = w.shape[0]
        if pts.shape[0] != m:
            raise ValueError("points and weights disagree on grid size")
        # Checked before the product below, which would broadcast an (M, P, 1) density.
        p = int(np.prod(self.n_actions))
        if dens.shape != (m, p, m):
            raise ValueError(f"density must have shape {(m, p, m)}; got {dens.shape}")
        try:
            game = FiniteCSG(self.n_actions, self.costs, dens * w, self.discount,
                             self.initial, self.constraint_bounds, self.cost_bound)
        except ValueError as exc:
            raise ValueError(
                f"grid spec: costs must have shape (N, L+1, {m}, {p}), initial ({m},) and "
                f"constraint_bounds (N, L) on {m} points with {p} action profiles; as a game "
                f"(transitions = density * weights): {exc}") from exc
        for name, val in (("points", pts), ("weights", w), ("density", dens),
                          ("costs", game.costs), ("discount", game.discount),
                          ("initial", game.initial),
                          ("constraint_bounds", game.constraint_bounds),
                          ("cost_bound", game.cost_bound), ("game", game)):
            object.__setattr__(self, name, val)

    @property
    def n_points(self):
        return self.weights.shape[0]


@dataclass(frozen=True)
class StationaryProfile:
    """One stationary randomized strategy per player: rows[i] has shape (S, A_i)."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(_frozen_array(r) for r in self.rows)
        if not rows:
            raise ValueError("profile needs at least one player")
        for i, r in enumerate(rows):
            # rows[0] has passed the rank test by the time it is indexed.
            if r.ndim != 2 or r.shape[0] != rows[0].shape[0]:
                raise ValueError(f"player {i} rows must be (S, A_i); got {r.shape}")
            _require_distributions(r, f"player {i}")
        object.__setattr__(self, "rows", rows)

    @property
    def n_states(self):
        return self.rows[0].shape[0]

    @property
    def n_actions(self):
        return tuple(r.shape[1] for r in self.rows)


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
        _require_distributions(tail, "tail")
        for t, h in enumerate(head):
            if h.shape != tail.shape:
                raise ValueError(f"head step {t} has shape {h.shape}, tail {tail.shape}")
            _require_distributions(h, f"head step {t}")
        object.__setattr__(self, "player", _integer(self.player, "player"))
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)


@dataclass(frozen=True)
class CorrelatedStrategy:
    """Per-state joint distribution over action profiles (row-major order)."""

    n_actions: tuple
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_actions", _counts(self.n_actions))
        table = _frozen_array(self.table)
        p = int(np.prod(self.n_actions))
        if table.ndim != 2 or table.shape[1] != p:
            raise ValueError(f"table must be (S, {p}); got {table.shape}")
        _require_distributions(table, "profile table")
        object.__setattr__(self, "table", table)

    @property
    def n_states(self):
        return self.table.shape[0]


def validate_game(game):
    """Check stochasticity, bounds, and discount of a FiniteCSG.

    Transition rows and the initial distribution are held to ROW_SUM_TOL, as
    strategy rows are, and so is |c| against the declared cost bound.
    Returns the tuple of issues, one string per violated invariant naming
    the offending location; it is empty exactly when the game is valid.
    Every check is written so that a NaN or infinite entry fails it.  Inputs
    are never modified or renormalized here.
    """
    issues = []
    if not (0.0 < game.discount < 1.0):
        issues.append(f"discount must lie in (0, 1); got {game.discount!r}")
    if not (0.0 < game.cost_bound < math.inf):
        issues.append(f"cost bound must be positive and finite; got {game.cost_bound!r}")
    for (s, j), fault in _row_faults(game.transitions):
        issues.append(f"transition row (state {s}, profile {game.profile_tuple(j)}) {fault}")
    for _, fault in _row_faults(game.initial[None]):
        issues.append(f"initial distribution {fault}")
    if not np.all(np.isfinite(game.constraint_bounds)):
        issues.append("constraint bounds must be finite")
    outside = ~(np.abs(game.costs) <= game.cost_bound + ROW_SUM_TOL)
    if np.any(outside):
        i, l, s, j = (int(k[0]) for k in np.nonzero(outside))
        issues.append(
            f"cost (player {i}, layer {l}, state {s}, profile {game.profile_tuple(j)}) "
            f"= {game.costs[i, l, s, j]:.17g} is outside the declared bound {game.cost_bound:.17g}"
        )
    return tuple(issues)


def validate_spec(spec):
    """Check a ContinuousGameSpec up to ROW_SUM_TOL: its quadrature weights,
    the sign of its density, then validate_game on its grid game, whose row
    sums are the density integrals.  Bad weights are reported alone, since
    every kernel row is then off too.  A NaN or infinite entry fails.
    Returns the tuple of issues, as validate_game does."""
    issues = []
    if not np.all(spec.weights > 0.0):
        issues.append("quadrature weights must be strictly positive")
    issues += [f"quadrature weight row {fault}" for _, fault in _row_faults(spec.weights[None])]
    if issues:
        return tuple(issues)
    if np.any(spec.density < -ROW_SUM_TOL):
        issues.append("density has a negative entry")
    return tuple(issues) + validate_game(spec.game)


def _row_product(rows, n_states):
    """Per-state product of independent (S, A_k) rows, over the joint actions
    in row-major order; a single column of ones when rows is empty."""
    table = np.ones((n_states, 1))
    for r in rows:
        table = (table[:, :, None] * r[:, None, :]).reshape(n_states, -1)
    return table


def product_strategy(profile):
    """Joint per-state profile distribution of independent stationary strategies.

    Derived from validated rows, it is built by `_derived` (see the module
    docstring), without CorrelatedStrategy's row check: N rows each within
    ROW_SUM_TOL of 1 make a product row within about N * ROW_SUM_TOL of 1,
    which that check would refuse for a profile the loaders accept.
    """
    return _derived(CorrelatedStrategy, n_actions=profile.n_actions,
                    table=_row_product(profile.rows, profile.n_states))


def marginal_excluding(psi, player):
    """Per-state marginal of a correlated strategy over the other players'
    profiles (row-major over (a_1, ..., a_N) with player's axis removed).

    Returns an (S, P_-i) array.  For a single-player game this is the
    one-column table of an empty product.
    """
    _require_player(player, len(psi.n_actions))
    s = psi.n_states
    tensor = psi.table.reshape((s,) + psi.n_actions)
    return tensor.sum(axis=1 + player).reshape(s, -1)

