"""Exact and Monte Carlo evaluation of discounted cost functionals.

All evaluators return normalized values J = (1 - alpha) E[sum alpha^(t-1) c].
Every exact evaluation, and the occupation measure of best_response, goes
through one LU solve of (I - alpha * K) x = b in `_discounted_solve`, checked
against RESIDUAL_TOL.  The solve calls LAPACK's getrf and getrs directly, the
routines scipy.linalg.lu_factor and lu_solve wrap, so it gives their answers
bit for bit without their per-call checks; an inf or NaN in the system
reaches the residual, so non-finite input raises RuntimeError.  They come
from scipy.linalg._flapack, which `_compiled.load` loads by file: importing
scipy.linalg would add 0.2-0.3 s to every fresh process.  One
factorization serves all players and cost layers, since the kernel under a
fixed joint strategy does not depend on them.

`simulate` samples every step by inverse transform over row CDFs with one
exact sampler, `_count_below`: a branchless binary search for the first CDF
entry >= u.  It only compares, so on the non-decreasing rows `_rows_cdf`
builds it picks the same index as counting the entries below u, in
ceil(log2 width) rounds instead of O(width) work per draw.  Trajectories
run in chunks whose uniforms fit in SIMULATE_BLOCK_BYTES.  Each chunk runs in
`_simulate_chunk`, whose block of uniforms and step buffers die when it
returns, so one block is alive at a time; its step loop writes into those
buffers and allocates nothing per step but a small weighted cost table.

The constrained MDP one player faces against fixed opponents (`induced_mdp`)
is a one-player FiniteCSG, so every game function applies to it; its budgets
are overridden with dataclasses.replace(mdp, constraint_bounds=[[...]]).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._compiled import load
from .game import (
    CorrelatedStrategy,
    FiniteCSG,
    MarkovStrategy,
    StationaryProfile,
    _derived,
    _frozen_array,
    _require_player,
    _row_product,
    product_strategy,
)

__all__ = [
    "CostVector",
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
# Largest block of uniforms simulate draws at once: a chunk holds at most as
# many trajectories as fit their 1 + 2H draws in it (and at least one).  At
# H = 153 that is about 8,500 rows.  On a 30-state game (2-core x86-64 VM)
# 8,192-row blocks ran as fast as 16,384-row ones, and 4,096 rows about 10%
# slower.
SIMULATE_BLOCK_BYTES = 20 * 2**20
# LAPACK's LU factorization and solve for float64, the very objects
# scipy.linalg.lapack.get_lapack_funcs returns: the scipy.linalg wrappers
# around them cost several times a small solve.
_flapack = load("scipy.linalg._flapack")
_GETRF, _GETRS = _flapack.dgetrf, _flapack.dgetrs


@dataclass(frozen=True)
class CostVector:
    """Discounted costs of a strategy: J[i, l] from the initial distribution
    and Jx[i, l, s] per initial state."""

    J: np.ndarray
    Jx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "J", _frozen_array(self.J))
        object.__setattr__(self, "Jx", _frozen_array(self.Jx))


@dataclass(frozen=True)
class SimulationResult:
    """Monte Carlo estimates with per-entry confidence radii (standard errors)."""

    estimates: np.ndarray
    radii: np.ndarray
    n_trajectories: int
    horizon: int
    bias_bound: float


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

    LAPACK's getrf and getrs, the routines scipy.linalg.lu_factor and
    lu_solve call, do the work, so x is theirs bit for bit; an exactly zero
    pivot warns LinAlgWarning as lu_factor does.  rhs may hold several
    right-hand sides as columns.  Raises RuntimeError if the solve residual
    exceeds RESIDUAL_TOL or is NaN (a sign of a malformed kernel).  Non-finite
    input raises it too, unless rhs has no entry to check: an inf or NaN in
    the system or in rhs makes the residual inf or NaN.
    """
    a_mat = np.eye(kernel.shape[0]) - discount * kernel
    lu, piv, info = _GETRF(a_mat)
    if info > 0:
        from scipy.linalg import LinAlgWarning

        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      LinAlgWarning, stacklevel=2)
    x = _GETRS(lu, piv, rhs)[0]
    residual = np.abs(a_mat @ x - rhs).max() if x.size else 0.0
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


def evaluate_markov(game, others, strategy):
    """Evaluate the game when strategy.player follows the Markov strategy (a
    MarkovReplacement is one) and the other players (in ascending order)
    follow the stationary rows in `others`.  Raises ValueError if the player
    is not in the game or the rows do not make up a profile of its shape."""
    if not isinstance(strategy, MarkovStrategy):
        raise ValueError("strategy must be a MarkovStrategy")
    player = strategy.player
    _require_player(player, game.n_players, "strategy is for player")

    def combine(own):
        return StationaryProfile((*others[:player], own, *others[player:]))

    heads = [combine(h) for h in strategy.head]
    return evaluate_markov_profile(game, heads, combine(strategy.tail))


def induced_mdp_from_marginal(game, player, marginal):
    """Constrained MDP faced by `player` when the others' joint behavior is the
    per-state distribution `marginal` over their profiles (row-major with the
    player's axis removed), as a one-player FiniteCSG with n_actions (A_i,).
    Raises ValueError if the player is not in the game."""
    _require_player(player, game.n_players)
    marginal = np.asarray(marginal, dtype=float)
    s = game.n_states
    a_i = game.n_actions[player]
    p_minus = game.n_profiles // a_i
    if marginal.shape != (s, p_minus):
        raise ValueError(f"marginal must have shape {(s, p_minus)}; got {marginal.shape}")
    # Reshape profile axes, move the player's axis last, contract the rest.
    # The axis orders are np.moveaxis's, without its per-call argument checks.
    others = [k for k in range(game.n_players) if k != player]
    cost_t = game.costs[player].reshape((game.n_layers + 1, s) + game.n_actions)
    cost_t = cost_t.transpose([0, 1] + [2 + k for k in others] + [2 + player])
    cost_t = cost_t.reshape(game.n_layers + 1, s, p_minus, a_i)
    trans_t = game.transitions.reshape((s,) + game.n_actions + (s,))
    trans_t = trans_t.transpose([0] + [1 + k for k in others] + [1 + player, 1 + game.n_players])
    trans_t = trans_t.reshape(s, p_minus, a_i, s)
    costs = np.einsum("sm,lsma->lsa", marginal, cost_t)
    kernel = np.einsum("sm,smat->sat", marginal, trans_t)
    return _derived(FiniteCSG, n_actions=(a_i,), costs=costs[None], transitions=kernel,
                    discount=game.discount, initial=game.initial, cost_bound=game.cost_bound,
                    constraint_bounds=game.constraint_bounds[player:player + 1])


def induced_mdp(game, player, others):
    """Constrained MDP faced by `player` against independent stationary
    strategies of the other players (ascending order, player excluded).
    Raises ValueError if the player is not in the game or unless the rows have
    shapes [(S, A_j) for j != player], so no row is broadcast over states."""
    _require_player(player, game.n_players)
    others = [np.asarray(r, dtype=float) for r in others]
    shapes = [(game.n_states, a) for j, a in enumerate(game.n_actions) if j != player]
    if [r.shape for r in others] != shapes:
        raise ValueError(f"other players' rows must have shapes {shapes}; "
                         f"got {[r.shape for r in others]}")
    return induced_mdp_from_marginal(game, player, _row_product(others, game.n_states))


def evaluate_policy(mdp, policy):
    """Exact per-layer values of a stationary policy in a one-player game,
    such as an induced MDP.

    Returns (J, Jx) with shapes (L+1,) and (L+1, S).
    """
    cv = evaluate_correlated(mdp, CorrelatedStrategy(mdp.n_actions, policy))
    return cv.J[0], cv.Jx[0]


def simulation_horizon(tol, discount, cost_bound):
    """Smallest horizon whose truncation bias is below tol.

    Uses the tail bound (1 - alpha) * sum_{t > T} alpha^(t-1) b = alpha^T b,
    with an extra (1 - alpha) safety factor folded into the target.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive; got {tol}")
    if cost_bound <= 0.0:
        return 1
    target = tol * (1.0 - discount) / cost_bound
    if target >= 1.0:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(discount)))


def _rows_cdf(table):
    """Inverse-transform CDFs of the last axis, flattened to (rows, width).

    Entries are clipped at 0 before the cumsum, so every row is
    non-decreasing (validation admits entries down to -ROW_SUM_TOL) and a
    negative entry gets no mass.  Every entry from the row's last one with
    mass on is set to 1.0, so no u < 1 lands past it on an entry without
    mass, even when the row sums to slightly less than 1.
    """
    mass = np.maximum(table, 0.0).reshape(-1, table.shape[-1])
    cdf = np.cumsum(mass, axis=1)
    last = mass.shape[1] - 1 - np.argmax(mass[:, ::-1] > 0.0, axis=1)
    cdf[np.arange(mass.shape[1]) >= last[:, None]] = 1.0
    return cdf


def _count_below(cdf, rows, u, out=None, scratch=None):
    """First index k with cdf[rows, k] >= u, clipped to width - 1.

    A branchless binary search over each flattened row: ceil(log2 width)
    rounds of gather, compare and add.  The answer lies in [pos, pos + n);
    it is at least pos + half exactly when the entry at pos + half - 1 is
    below u.  On non-decreasing rows this is the count of entries below u,
    clipped to width - 1, and it never reads the last entry.

    `simulate` passes `out` (an intp array shaped like rows, which receives
    the answer) and `scratch` from `_search_scratch`, so the search
    allocates nothing.
    """
    width = cdf.shape[1]
    flat = cdf.ravel()
    base, idx, vals, below = _search_scratch(len(rows)) if scratch is None else scratch
    np.multiply(rows, width, out=base)
    pos = np.empty_like(base) if out is None else out
    np.copyto(pos, base)
    n = width
    while n > 1:
        half = n // 2
        np.add(pos, half - 1, out=idx)
        # Every index is inside flat; "clip" only spares the copy of `out`
        # that take makes in its default "raise" mode.
        np.take(flat, idx, out=vals, mode="clip")
        np.less(vals, u, out=below)
        pos += np.multiply(below, half, out=idx)
        n -= half
    return np.subtract(pos, base, out=pos)


def _search_scratch(size):
    """Work arrays for `_count_below` on `size` draws: row offsets and
    gather indices, gathered CDF entries and their comparisons."""
    return (np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp),
            np.empty(size), np.empty(size, dtype=bool))


def _simulate_chunk(rng, acc, horizon, discount, n_profiles, cdfs, ctab):
    """Add the discounted costs of acc.shape[0] trajectories to the zeroed
    `acc`, drawing their uniforms from rng as one block.

    The block and every step buffer are made here and die when this
    returns, so `simulate` holds one block at a time.
    """
    initial_cdf, action_cdf, state_cdf = cdfs
    size = acc.shape[0]
    u = rng.random((size, 1 + 2 * horizon))
    scratch = _search_scratch(size)
    state = _count_below(initial_cdf, np.zeros(size, dtype=np.intp), u[:, 0], scratch=scratch)
    action = np.empty(size, dtype=np.intp)
    sa = np.empty(size, dtype=np.intp)
    cols = np.empty((2, size))
    cost = np.empty_like(acc)
    weight = 1.0 - discount
    for t in range(horizon):
        # One contiguous copy of the step's two columns: the search reads
        # u once per round, and a strided read costs about twice as much.
        np.copyto(cols, u[:, 1 + 2 * t:3 + 2 * t].T)
        _count_below(action_cdf, state, cols[0], out=action, scratch=scratch)
        np.multiply(state, n_profiles, out=sa)
        sa += action
        # The same products as weight * ctab[sa], entry for entry; every sa
        # is a row of ctab, so "clip" changes nothing.
        acc += np.take(weight * ctab, sa, axis=0, out=cost, mode="clip")
        _count_below(state_cdf, sa, cols[1], out=state, scratch=scratch)
        weight *= discount


def simulate(game, psi, n_trajectories=1000, tol=1e-6, seed=0, chunk=16384):
    """Monte Carlo estimate of all discounted costs under a correlated strategy.

    Trajectory k consumes a dedicated slice of a counter-based Philox stream
    keyed by `seed`, so results do not depend on chunking or execution order.
    Each step draws the joint action from the state's strategy row and the
    next state from the (state, action) kernel row by inverse transform:
    `_count_below` finds the first CDF entry >= u by binary search.  That
    search only compares, so it picks the same index as counting the entries
    below u, and estimates do not depend on how the search is done.
    The returned radii are standard errors of the per-trajectory discounted
    sums; the truncation bias bound is reported separately.  A chunk holds at
    most `chunk` trajectories, fewer when their uniforms would take more than
    SIMULATE_BLOCK_BYTES.  Chunks run one after another, and a chunk's
    uniforms and step buffers are freed before the next chunk draws, so one
    block is alive at a time.
    """
    _check_psi(game, psi)
    if n_trajectories < 2:
        raise ValueError("need at least two trajectories for a confidence radius")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1; got {chunk}")
    horizon = simulation_horizon(tol, game.discount, game.cost_bound)
    cdfs = (_rows_cdf(game.initial), _rows_cdf(psi.table), _rows_cdf(game.transitions))
    n, layers = game.n_players, game.n_layers + 1
    # (S*P, N, L+1) cost lookup, indexed by sa = state * P + action like the
    # rows of state_cdf, so one gather per step covers every cost.
    ctab = np.moveaxis(game.costs, (0, 1), (2, 3)).reshape(-1, n, layers)
    chunk = max(1, min(chunk, SIMULATE_BLOCK_BYTES // (8 * (1 + 2 * horizon))))
    rng = np.random.Generator(np.random.Philox(key=seed))
    totals = np.zeros((n_trajectories, n, layers))
    for start in range(0, n_trajectories, chunk):
        _simulate_chunk(rng, totals[start:start + chunk], horizon, game.discount,
                        game.n_profiles, cdfs, ctab)
    estimates = totals.mean(axis=0)
    radii = totals.std(axis=0, ddof=1) / math.sqrt(n_trajectories)
    bias = game.discount ** horizon * game.cost_bound
    return SimulationResult(
        estimates=estimates,
        radii=radii,
        n_trajectories=int(n_trajectories),
        horizon=int(horizon),
        bias_bound=float(bias),
    )
