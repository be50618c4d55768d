"""Constrained best responses through occupation-measure linear programs.

The normalized occupation measure of a policy sigma from initial distribution
eta collects theta[s, a] = (1 - alpha) sum_t alpha^(t-1) P(x_t = s, a_t = a).
It satisfies the flow balance

    sum_a theta[s', a] = (1 - alpha) eta[s'] + alpha sum_{s,a} theta[s, a] q(s' | s, a)

and every layer cost is the linear functional sum theta * c.  Minimizing the
objective layer over this polytope subject to the budget rows is the
constrained best response; the optimal policy is recovered by disintegration.
Whether any strategy meets the budgets is the best response's `feasible`, and
its strategy is then a witness.  One LP builder, `_occupation_lp`, sets up
and checks this program for the best response and the Slater margin.  It
hands each LP to HiGHS directly, through scipy's bundled `_highspy._core`
module, which `_compiled.load` loads by file without importing
scipy.optimize (see `_compiled` for what that saves).  Each thread keeps one
solver (`_solver`), set up once from the one table HIGHS_OPTIONS: scipy's
linprog settings, this module's tolerances, and every presolve rule on
except the dependent-equations search, which cannot remove a row of an
occupation LP; `_occupation_lp` gives the proof.  Each LP goes to that
solver as plain arrays in compressed-column form, and passing a model drops
the previous basis, so every LP is solved from scratch as on a new solver.

Every function here takes the MDP as a one-player FiniteCSG, such as
`induced_mdp` returns; to solve under other budgets, pass
dataclasses.replace(mdp, constraint_bounds=[[...]]).
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ._compiled import load
from .evaluation import _discounted_solve, evaluate_policy
from .game import _frozen_array, _require_distributions

_h = load("scipy.optimize._highspy._core")

__all__ = [
    "BestResponseResult",
    "SlaterResult",
    "occupation_measure",
    "recover_strategy",
    "constrained_best_response",
    "slater_margin",
    "optimal_policy_values",
]

FLOW_TOL = 1e-9
SOLUTION_TOL = 1e-9
# Set on each new solver, in order: scipy's linprog(method="highs") settings,
# the feasibility tolerances, and presolve_rule_off's bit for HiGHS's rule 10,
# kPresolveRuleDependentEquations.
HIGHS_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "presolve": "on",
    "simplex_strategy": int(_h.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "highs_debug_level": int(_h.HighsDebugLevel.kHighsDebugLevelNone),
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "presolve_rule_off": 1 << 10,
}
# Above this many matrix entries an LP's solver is not kept: it would hold
# the model and factorization, about 6 MB after an S=120, A=6 LP, while a new
# solver costs about 0.1 ms and an LP of 10,080 entries about 9 ms.
_LARGE_LP_ENTRIES = 10_000
_COLWISE = int(_h.MatrixFormat.kColwise)
_MINIMIZE = int(_h.ObjSense.kMinimize)


def __getattr__(name):
    # scipy's linprog, imported on first access (PEP 562), for perfbench's
    # tracer, which wraps this attribute; csgames itself never imports
    # scipy.optimize.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_local = threading.local()


def _solver(entries):
    """This thread's HiGHS solver for an LP of `entries` matrix entries,
    kept for the thread's next LP unless `entries` exceeds _LARGE_LP_ENTRIES.
    A new solver gets each HIGHS_OPTIONS entry in turn; if HiGHS refuses one,
    this raises RuntimeError and keeps nothing."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = _h._Highs()
        for name, value in HIGHS_OPTIONS.items():
            if highs.setOptionValue(name, value) == _h.HighsStatus.kError:
                raise RuntimeError(f"LP solver failure: HiGHS refused option {name}={value!r}")
    _local.highs = highs if entries <= _LARGE_LP_ENTRIES else None
    return highs


@dataclass(frozen=True)
class BestResponseResult:
    """A constrained best response: `value` is the objective layer's entry of
    layer_values.  multipliers holds the budget rows' Lagrange multipliers
    lambda >= 0, read from the LP's duals.  All are NaN when no strategy
    meets the budgets."""

    status: str
    layer_values: np.ndarray
    strategy: np.ndarray
    multipliers: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def feasible(self):
        return self.status == "optimal"

    @property
    def value(self):
        return float(self.layer_values[0])


@dataclass(frozen=True)
class SlaterResult:
    """Largest uniform slack: margin = max over feasible occupations of
    min_l (kappa_l - J_l).  Negative means the budgets cannot be met;
    +inf when there are no constraint layers."""

    margin: float
    strategy: np.ndarray


def _dims(mdp):
    """(S, A) of a one-player game; a game with more players is refused, since
    its joint profiles are not one player's actions."""
    if mdp.n_players != 1:
        raise ValueError(f"expected a one-player game such as induced_mdp returns; "
                         f"got {mdp.n_players} players")
    return mdp.n_states, mdp.n_profiles


def occupation_measure(mdp, policy):
    """Occupation measure of a stationary policy, by the transposed
    discounted solve, as a read-only (S, A) array.  The policy must be
    (S, A), with rows that are probability vectors up to ROW_SUM_TOL, as
    evaluate_policy requires; ValueError otherwise."""
    dims = _dims(mdp)
    policy = np.asarray(policy, dtype=float)
    if policy.shape != dims:
        raise ValueError(f"policy must be (S, A) = {dims}; got {policy.shape}")
    _require_distributions(policy, "policy")
    kernel = np.einsum("sa,sat->st", policy, mdp.transitions)
    masses = _discounted_solve(kernel.T, mdp.discount, (1.0 - mdp.discount) * mdp.initial)
    return _frozen_array(masses[:, None] * policy)


def recover_strategy(occupation):
    """Disintegrate an (S, A) occupation measure into a policy; states whose
    mass is at most 1e-12 get the uniform row."""
    table = np.asarray(occupation, dtype=float)
    masses = table.sum(axis=1, keepdims=True)
    policy = np.full_like(table, 1.0 / table.shape[1])
    return np.divide(table, masses, out=policy, where=masses > 1e-12)


def _occupation_lp(mdp, objective):
    """Minimize objective @ x over the normalized occupation measures x of
    `mdp` that meet the budget rows costs[0, 1:] @ x <= constraint_bounds[0],
    as one HiGHS model on this thread's solver whose rows are the budget rows
    followed by the flow rows.

    An objective of S*A + 1 entries gives x a free last column z, the
    epigraph variable, that is added to every budget row; any other length
    than S*A or S*A + 1 raises ValueError.  Returns None when HiGHS proves
    that no occupation measure meets the budgets, else (x, theta, residuals,
    multipliers): theta is the occupation part of x clipped at zero,
    residuals its flow-balance, mass and sign errors, and multipliers =
    max(-row_dual, 0) over the budget rows, their Lagrange multipliers
    lambda >= 0 (HiGHS gives an active upper bound of a minimization a
    nonpositive dual).  Raises RuntimeError on any other outcome but an
    optimum, on an optimum that holds a NaN or breaks a bound, a budget row
    or a flow row by more than SOLUTION_TOL (scipy's linprog applies the same
    test, at its looser default tolerance of sqrt(1e-9) * 10), and on a
    flow residual of x above FLOW_TOL.

    Presolve runs without its dependent-equations search, which looks for
    equality rows that are linear combinations of others and is the costliest
    presolve step on a large occupation LP.  It can remove no row here:
    - the equality rows are the S flow rows [I - alpha P_a^T]_a, one column
      block per action, plus an all-zero column for the epigraph variable;
    - for any deterministic policy pi the S x S block of columns (s, pi(s))
      is I - alpha P_pi^T, and since P_pi is row-stochastic and alpha < 1,
      each of its columns has diagonal 1 - alpha P_pi[s, s] above the
      off-diagonal sum alpha (1 - P_pi[s, s]).  The block is strictly
      diagonally dominant, hence invertible, so the flow rows have full row
      rank S;
    - the budget rows and the epigraph row are inequalities, which the
      search does not look at.
    Turning a presolve rule off never changes the LP, and this one has no
    row to remove, so skipping it changes the solve time and not the answer.
    """
    (s, a), n_layers = _dims(mdp), mdp.n_layers
    n_cols, n_rows = len(objective), n_layers + s
    if n_cols not in (s * a, s * a + 1):
        raise ValueError(f"{n_cols} costs for {s * a} or {s * a + 1} columns")
    # Column (s, a) of flow row s' is [s' == s] - alpha q(s' | s, a).
    flow = np.multiply(-mdp.discount, mdp.transitions.reshape(s * a, s).T, order="C")
    diagonal = np.einsum("ssa->sa", flow.reshape(s, s, a))  # a writeable view of flow
    diagonal += 1.0
    # The matrix column by column: the budget rows, then the flow rows; z
    # has a 1 in each budget row.
    columns = np.zeros((n_cols, n_rows))
    columns[:s * a, :n_layers] = mdp.costs[0, 1:].reshape(n_layers, s * a).T
    columns[:s * a, n_layers:] = flow.T
    columns[s * a:, :n_layers] = 1.0
    lower = np.zeros(n_cols)
    lower[s * a:] = -np.inf
    # The compressed-column form of the matrix, as scipy.sparse.csc_array
    # builds it.  The flat positions of the nonzeros in `columns` give each
    # one's row, and the first position at or past a column's start is where
    # its entries start; HiGHS takes no closing start.
    nonzero = np.flatnonzero(columns)
    start = np.searchsorted(nonzero, np.arange(0, n_cols * n_rows, n_rows)).astype(np.int32)
    index = (nonzero % n_rows).astype(np.int32)
    value = columns.ravel()[nonzero]
    b_eq = (1.0 - mdp.discount) * mdp.initial
    row_upper = np.concatenate([mdp.constraint_bounds[0], b_eq])
    row_lower = row_upper.copy()
    row_lower[:n_layers] = -np.inf
    highs = _solver(value.size)
    # The integrality array must hold one kContinuous per column: HiGHS reads
    # num_col entries from it, however short it is.
    if (highs.passModel(n_cols, n_rows, value.size, _COLWISE, _MINIMIZE, 0.0, objective, lower,
                        np.full(n_cols, np.inf), row_lower, row_upper, start, index, value,
                        np.zeros(n_cols, dtype=np.int32)) == _h.HighsStatus.kError
            or highs.run() == _h.HighsStatus.kError):
        raise RuntimeError("LP solver failure: HiGHS reported an error "
                           f"({highs.modelStatusToString(highs.getModelStatus())})")
    status = highs.getModelStatus()
    if status == _h.HighsModelStatus.kInfeasible:
        return None
    if status != _h.HighsModelStatus.kOptimal:
        raise RuntimeError(f"LP solver failure: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x, row_value = np.array(solution.col_value), np.array(solution.row_value)
    multipliers = np.maximum(-np.array(solution.row_dual[:n_layers]), 0.0)
    # The budget rows' slack, then the flow rows' residual; each test below
    # is written so that a NaN fails it.
    gap = row_upper - row_value
    if not ((x >= lower - SOLUTION_TOL).all() and (gap[:n_layers] >= -SOLUTION_TOL).all()
            and (np.abs(gap[n_layers:]) <= SOLUTION_TOL).all()):
        raise RuntimeError(f"LP solution breaks a bound or constraint by more than "
                           f"{SOLUTION_TOL:.1e} although HiGHS reported it optimal")
    occ = x[:s * a]
    residuals = {
        "flow_balance": float(np.abs(flow @ occ - b_eq).max()),
        "mass": abs(float(occ.sum()) - 1.0),
        "negativity": max(0.0, -float(occ.min())) if occ.size else 0.0,
    }
    if not residuals["flow_balance"] <= FLOW_TOL:
        raise RuntimeError(f"LP flow-balance residual {residuals['flow_balance']:.3e} "
                           f"exceeds {FLOW_TOL:.1e}")
    return x, np.maximum(occ.reshape(s, a), 0.0), residuals, multipliers


def constrained_best_response(mdp):
    """Minimize the objective layer over occupation measures meeting the
    budget rows.  Returns status 'infeasible' (`feasible` False) when no
    strategy meets them; otherwise `strategy` is a feasible witness."""
    (s, a), layers = _dims(mdp), mdp.n_layers + 1
    costs = mdp.costs[0].reshape(layers, s * a)
    lp = _occupation_lp(mdp, costs[0])
    if lp is None:
        return BestResponseResult("infeasible", np.full(layers, math.nan),
                                  np.full((s, a), math.nan), np.full(layers - 1, math.nan))
    x, theta, residuals, multipliers = lp
    layer_values = costs @ x
    return BestResponseResult(
        status="optimal",
        layer_values=layer_values,
        strategy=recover_strategy(theta),
        multipliers=multipliers,
        residuals=residuals,
    )


def slater_margin(mdp):
    """Epigraph LP for the best uniform constraint slack.

    Maximizes z subject to flow balance and sum c_l theta + z <= kappa_l for
    every layer.  A strictly positive margin certifies a strict (Slater)
    point; for an MDP without constraint layers the margin is +inf.
    """
    s, a = _dims(mdp)
    if mdp.n_layers == 0:
        return SlaterResult(math.inf, np.full((s, a), 1.0 / a))
    obj = np.zeros(s * a + 1)
    obj[-1] = -1.0
    lp = _occupation_lp(mdp, obj)
    if lp is None:
        raise RuntimeError("slack LP reported infeasible; flow polytope should never be empty")
    x, theta = lp[:2]
    return SlaterResult(float(x[-1]), recover_strategy(theta))


def optimal_policy_values(mdp):
    """Optimal per-state values of the unconstrained objective layer, by
    policy iteration; the constraint layers are ignored.

    Howard iteration with lowest-index greedy tie-breaking terminates finitely
    and gives values exact up to the linear-solve residual.
    """
    s, a = _dims(mdp)
    costs = mdp.costs[0, 0]
    policy_idx = np.argmin(costs, axis=1)
    for _ in range(max(1000, 20 * s * a)):
        policy = np.zeros((s, a))
        policy[np.arange(s), policy_idx] = 1.0
        _, jx = evaluate_policy(mdp, policy)
        v = jx[0]
        q = (1.0 - mdp.discount) * costs + mdp.discount * mdp.transitions @ v
        greedy = np.argmin(q, axis=1)
        improved = q[np.arange(s), greedy] < q[np.arange(s), policy_idx] - 1e-13
        if not np.any(improved):
            return v, policy
        policy_idx = np.where(improved, greedy, policy_idx)
    raise RuntimeError("policy iteration failed to settle; kernel is likely malformed")
