"""Exact and Monte Carlo evaluation of discounted cost functionals.

All evaluators return normalized values J = (1 - alpha) E[sum alpha^(t-1) c].
Every exact evaluation, and the occupation measure of best_response, goes
through one LU solve of (I - alpha * K) x = b in `_discounted_solve`, checked
against RESIDUAL_TOL times max(1, |x|_inf).  The solve calls LAPACK's getrf
and getrs directly, the routines scipy.linalg.lu_factor and lu_solve wrap,
so it gives their answers bit for bit without their per-call checks.  A
singular matrix raises RuntimeError, as does an inf or NaN, which reaches
the residual.  They come from scipy.linalg._flapack, which `_compiled.load`
loads by file without importing scipy.linalg (see `_compiled`).  One
factorization serves all players and cost layers, since the kernel under a
fixed joint strategy does not depend on them.

`simulate` samples every step by inverse transform over row CDFs with one
exact sampler, `_advance`: a branchless binary search for the first CDF
entry >= u, on flat positions into the CDF table.  It only compares, so on
the non-decreasing rows `_rows_cdf` builds it picks the same index as
counting the entries below u, in ceil(log2 width) rounds instead of
O(width) work per draw.  How `simulate` splits trajectories into blocks
and overlaps their draws with the step loop is told in its docstring.

The constrained MDP one player faces against fixed opponents (`induced_mdp`)
is a one-player FiniteCSG, so every game function applies to it; its budgets
are overridden with dataclasses.replace(mdp, constraint_bounds=[[...]]).
"""

import math
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
# Most bytes of uniforms simulate holds at once, in two blocks of at most
# half this each, so its memory is bounded at any horizon.  At H = 153 a
# block holds about 4,250 rows.  On a 30-state game (2-core x86-64 VM),
# before the fill was overlapped, 8,192-row blocks ran as fast as 16,384-row
# ones, and 4,096 rows about 10% slower.
SIMULATE_BLOCK_BYTES = 20 * 2**20
# Most trajectories in one block: the budget bounds memory, and this keeps
# the step loop in cache.  On the sample-grid `pair` game (H = 21) the budget
# alone gives 30,481-row blocks, and 100k trajectories took a median 0.080 s
# against 0.069 s at 16,384 rows, slower in 16 of 16 alternations
# (in-process, BLAS on 1 thread, 2-core x86-64 VM).
SIMULATE_MAX_ROWS = 16384
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
    lu_solve call, do the work, so x is theirs bit for bit.  rhs may hold
    several right-hand sides as columns.  Raises RuntimeError at once if
    getrf finds an exactly zero pivot, and if x is not finite or the residual
    is NaN or exceeds RESIDUAL_TOL * max(1, |x|_inf), a sign of a malformed
    kernel.  An inf or NaN in the system or in rhs makes x or the residual
    so, and raises it too, unless rhs has no entry to check.
    """
    a_mat = np.eye(kernel.shape[0]) - discount * kernel
    lu, piv, info = _GETRF(a_mat)
    if info > 0:
        raise RuntimeError(f"policy evaluation matrix is singular: pivot {info} is exactly zero")
    x = _GETRS(lu, piv, rhs)[0]
    residual, size = (np.abs(a_mat @ x - rhs).max(), np.abs(x).max()) if x.size else (0.0, 0.0)
    bound = RESIDUAL_TOL * max(1.0, size)  # relative for large x; a non-finite x fails
    if not (residual <= bound and size < math.inf):
        raise RuntimeError(f"policy evaluation residual {residual:.3e} exceeds {bound:.1e}")
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
    Raises ValueError unless each of them has the game's states and actions.
    """
    v = evaluate_profile(game, tail).Jx
    for prof in reversed(list(heads)):
        psi = product_strategy(prof)
        _check_psi(game, psi)
        kernel, costs = _joint_kernel_costs(game, psi.table)
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


def _advance(flat, width, pos, u, scratch):
    """Move each flat position `pos` from the start of its CDF row to the
    first entry >= u there, clipped to the row's last entry.

    A branchless binary search: ceil(log2 width) rounds of gather, compare
    and add, all in place.  The answer lies in [pos, pos + n); it is at
    least pos + half exactly when the entry at pos + half - 1 is below u, so
    each round gathers from flat[half - 1:] at pos.  It only compares, and
    it never reads a row's last entry.  `scratch` holds its work arrays,
    each shaped like pos: intp steps, float gathered entries and bool
    comparisons; so the search allocates nothing.
    """
    step, vals, below = scratch
    n = width
    while n > 1:
        half = n // 2
        # Every index is inside flat; "clip" only spares the copy of `out`
        # that take makes in its default "raise" mode.
        np.take(flat[half - 1:], pos, out=vals, mode="clip")
        np.less(vals, u, out=below)
        pos += np.multiply(below, half, out=step)
        n -= half


def _simulate_chunk(u, acc, horizon, discount, cdfs, ctab):
    """Add to the zeroed `acc` the discounted costs of its trajectories,
    whose uniforms are the rows of `u`.

    The searches run on flat positions.  The initial state's starts at 0,
    initial_cdf's one row.  The action search starts at state * P, the
    state's row of action_cdf, and ends at state * P + action: the (state,
    action) row of state_cdf and of ctab.  The next-state search starts at
    that row's start in state_cdf, which it then subtracts.
    """
    initial_cdf, action_cdf, state_cdf = cdfs
    n_profiles, n_states = action_cdf.shape[1], state_cdf.shape[1]
    action_flat, state_flat = action_cdf.ravel(), state_cdf.ravel()
    size = acc.shape[0]
    scratch = np.empty(size, dtype=np.intp), np.empty(size), np.empty(size, dtype=bool)
    pos = np.zeros(size, dtype=np.intp)
    _advance(initial_cdf.ravel(), n_states, pos, u[:, 0], scratch)
    pos *= n_profiles
    base = np.empty_like(pos)
    cols = np.empty((2, size))
    cost = np.empty_like(acc)
    weight = 1.0 - discount
    for t in range(horizon):
        # One contiguous copy of the step's two columns: the search reads
        # u once per round, and a strided read costs about twice as much.
        np.copyto(cols, u[:, 1 + 2 * t:3 + 2 * t].T)
        _advance(action_flat, n_profiles, pos, cols[0], scratch)
        # The same products as weight * ctab[sa], entry for entry; every
        # position is a row of ctab, so "clip" changes nothing.
        acc += np.take(weight * ctab, pos, axis=0, out=cost, mode="clip")
        np.multiply(pos, n_states, out=base)
        np.copyto(pos, base)
        _advance(state_flat, n_states, pos, cols[1], scratch)
        pos -= base
        pos *= n_profiles
        weight *= discount


def simulate(game, psi, n_trajectories=1000, tol=1e-6, seed=0):
    """Monte Carlo estimate of all discounted costs under a correlated strategy.

    Trajectory k consumes a dedicated slice of a counter-based Philox stream
    keyed by `seed`, so results do not depend on chunking or execution order.
    Each step draws the joint action from the state's strategy row and the
    next state from the (state, action) kernel row by inverse transform:
    `_advance` finds the first CDF entry >= u by binary search.  That search
    only compares, so it picks the same index as counting the entries below
    u, and estimates do not depend on how the search is done.
    The returned radii are standard errors of the per-trajectory discounted
    sums; the truncation bias bound is reported separately.  A chunk holds
    SIMULATE_MAX_ROWS trajectories, fewer when their uniforms would take more
    than half of SIMULATE_BLOCK_BYTES, and at least one.  Each chunk's block
    of uniforms is allocated here.  This thread fills the first; one helper
    thread fills the next chunk's block while this thread runs the step loop
    on the current one, so at most two blocks are alive.  numpy's Philox fill
    runs without the GIL, so the two overlap on two cores.  The fills are
    made one after another from the one generator, so every trajectory gets
    the draws it gets on one thread.  The helper is joined before this
    returns or raises, and a fill's exception is raised here.
    """
    # Only simulate uses it, and it takes about 5 ms to import.
    from concurrent.futures import ThreadPoolExecutor

    _check_psi(game, psi)
    if n_trajectories < 2:
        raise ValueError("need at least two trajectories for a confidence radius")
    horizon = simulation_horizon(tol, game.discount, game.cost_bound)
    cdfs = (_rows_cdf(game.initial), _rows_cdf(psi.table), _rows_cdf(game.transitions))
    n, layers = game.n_players, game.n_layers + 1
    # (S*P, N, L+1) cost lookup, indexed by sa = state * P + action like the
    # rows of state_cdf, so one gather per step covers every cost.
    ctab = np.moveaxis(game.costs, (0, 1), (2, 3)).reshape(-1, n, layers)
    draws = 1 + 2 * horizon
    chunk = max(1, min(SIMULATE_MAX_ROWS, SIMULATE_BLOCK_BYTES // 2 // (8 * draws)))
    rng = np.random.Generator(np.random.Philox(key=seed))
    totals = np.zeros((n_trajectories, n, layers))
    chunks = [totals[start:start + chunk] for start in range(0, n_trajectories, chunk)]

    def block(k):
        # Allocated on this thread: glibc gives each thread its own malloc
        # arena, which would keep a helper's freed blocks.
        return np.empty((len(chunks[k]), draws))

    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = None
        for k, acc in enumerate(chunks):
            # The first block is filled here, so a one-block call starts no
            # thread.
            u = rng.random(out=block(0)) if pending is None else pending.result()
            if k + 1 < len(chunks):
                pending = helper.submit(rng.random, out=block(k + 1))
            _simulate_chunk(u, acc, horizon, game.discount, cdfs, ctab)
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
