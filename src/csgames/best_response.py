"""Constrained best responses through occupation-measure linear programs.

The normalized occupation measure of a policy sigma from initial distribution
eta collects theta[s, a] = (1 - alpha) sum_t alpha^(t-1) P(x_t = s, a_t = a).
It satisfies the flow balance

    sum_a theta[s', a] = (1 - alpha) eta[s'] + alpha sum_{s,a} theta[s, a] q(s' | s, a)

and every layer cost is the linear functional sum theta * c.  Minimizing the
objective layer over this polytope subject to the budget rows is the
constrained best response; the optimal policy is recovered by disintegration.
One LP builder, `_occupation_lp`, sets up and checks this program for the
best response, the feasibility test and the Slater margin.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .evaluation import _discounted_solve, evaluate_policy, induced_mdp

__all__ = [
    "OccupationMeasure",
    "BestResponseResult",
    "SlaterResult",
    "SlaterScan",
    "occupation_measure",
    "recover_strategy",
    "constrained_best_response",
    "feasibility",
    "slater_margin",
    "slater_scan",
    "optimal_policy_values",
]

FLOW_TOL = 1e-9
LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class OccupationMeasure:
    """Normalized state-action occupation measure, table shape (S, A)."""

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def mass(self):
        return float(self.table.sum())

    def state_masses(self):
        return self.table.sum(axis=1)


@dataclass(frozen=True)
class BestResponseResult:
    status: str
    value: float
    layer_values: np.ndarray
    occupation: OccupationMeasure
    strategy: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def feasible(self):
        return self.status == "optimal"


@dataclass(frozen=True)
class SlaterResult:
    """Largest uniform slack: margin = max over feasible occupations of
    min_l (kappa_l - J_l).  Negative means the budgets cannot be met;
    +inf when there are no constraint layers."""

    margin: float
    strategy: np.ndarray


@dataclass(frozen=True)
class SlaterScan:
    margins: np.ndarray
    worst: float
    worst_index: int


def occupation_measure(mdp, policy):
    """Occupation measure of a stationary policy, by the transposed
    discounted solve."""
    policy = np.asarray(policy, dtype=float)
    kernel = np.einsum("sa,sat->st", policy, mdp.kernel)
    masses = _discounted_solve(kernel.T, mdp.discount, (1.0 - mdp.discount) * mdp.initial)
    return OccupationMeasure(masses[:, None] * policy)


def recover_strategy(occupation, mass_tol=1e-12):
    """Disintegrate an occupation measure into a policy; states without mass
    get the uniform row."""
    table = occupation.table if isinstance(occupation, OccupationMeasure) else np.asarray(occupation)
    masses = table.sum(axis=1)
    n_actions = table.shape[1]
    policy = np.full_like(table, 1.0 / n_actions)
    covered = masses > mass_tol
    policy[covered] = table[covered] / masses[covered, None]
    return policy


def _occupation_lp(mdp, bounds, objective, epigraph=False):
    """Minimize objective @ x over the normalized occupation measures x of
    `mdp` that meet the budget rows costs[1:] @ x <= kappa.

    With `epigraph`, x gains a free last column z that is added to every
    budget row.  Returns None when no occupation measure meets the budgets,
    else (x, theta, residuals): theta is the occupation part of x clipped at
    zero, and residuals its flow-balance, mass and sign errors.  Raises
    RuntimeError on solver failure or a flow residual above FLOW_TOL.
    """
    kappa = mdp.constraint_bounds if bounds is None else np.asarray(bounds, dtype=float)
    n_layers = kappa.shape[0]
    if mdp.costs.shape[0] != n_layers + 1:
        raise ValueError(f"{mdp.costs.shape[0] - 1} cost layers but {n_layers} budgets")
    s, a = mdp.n_states, mdp.n_actions
    eye = np.repeat(np.eye(s)[:, :, None], a, axis=2)
    flow = (eye - mdp.discount * np.moveaxis(mdp.kernel, 2, 0)).reshape(s, s * a)
    b_eq = (1.0 - mdp.discount) * mdp.initial
    a_ub = mdp.costs[1:].reshape(n_layers, s * a) if n_layers else None
    b_ub = kappa if n_layers else None
    a_eq, box = flow, (0, None)
    if epigraph:
        a_eq = np.hstack([flow, np.zeros((s, 1))])
        a_ub = np.hstack([a_ub, np.ones((n_layers, 1))])
        box = [(0, None)] * (s * a) + [(None, None)]
    res = linprog(objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=box, method="highs", options=LP_OPTIONS)
    if res.status not in (0, 2):
        raise RuntimeError(f"LP solver failure (status {res.status}): {res.message}")
    if res.status == 2:
        return None
    occ = res.x[:s * a]
    residuals = {
        "flow_balance": float(np.max(np.abs(flow @ occ - b_eq))),
        "mass": abs(float(occ.sum()) - 1.0),
        "negativity": max(0.0, -float(occ.min())) if occ.size else 0.0,
    }
    if not residuals["flow_balance"] <= FLOW_TOL:
        raise RuntimeError(f"LP flow-balance residual {residuals['flow_balance']:.3e} "
                           f"exceeds {FLOW_TOL:.1e}")
    return res.x, np.maximum(occ.reshape(s, a), 0.0), residuals


def constrained_best_response(mdp, bounds=None):
    """Minimize the objective layer over occupation measures meeting the
    budget rows.  Returns status 'infeasible' when no strategy meets them."""
    s, a, layers = mdp.n_states, mdp.n_actions, mdp.costs.shape[0]
    lp = _occupation_lp(mdp, bounds, mdp.costs[0].reshape(s * a))
    if lp is None:
        return BestResponseResult("infeasible", math.nan, np.full(layers, math.nan),
                                  OccupationMeasure(np.zeros((s, a))), np.full((s, a), math.nan))
    x, theta, residuals = lp
    layer_values = mdp.costs.reshape(layers, s * a) @ x
    return BestResponseResult(
        status="optimal",
        value=float(layer_values[0]),
        layer_values=layer_values,
        occupation=OccupationMeasure(theta),
        strategy=recover_strategy(theta),
        residuals=residuals,
    )


def feasibility(mdp, bounds=None):
    """Is any strategy within the budgets?  Returns (bool, witness policy or None)."""
    lp = _occupation_lp(mdp, bounds, np.zeros(mdp.n_states * mdp.n_actions))
    if lp is None:
        return False, None
    return True, recover_strategy(lp[1])


def slater_margin(mdp, bounds=None):
    """Epigraph LP for the best uniform constraint slack.

    Maximizes z subject to flow balance and sum c_l theta + z <= kappa_l for
    every layer.  A strictly positive margin certifies a strict (Slater)
    point; for an MDP without constraint layers the margin is +inf.
    """
    s, a = mdp.n_states, mdp.n_actions
    if mdp.n_layers == 0:
        return SlaterResult(math.inf, np.full((s, a), 1.0 / a))
    obj = np.zeros(s * a + 1)
    obj[-1] = -1.0
    lp = _occupation_lp(mdp, bounds, obj, epigraph=True)
    if lp is None:
        raise RuntimeError("slack LP reported infeasible; flow polytope should never be empty")
    x, theta, _ = lp
    return SlaterResult(float(x[-1]), recover_strategy(theta))


def slater_scan(game, player, opponent_samples):
    """Slater margin of one player's induced MDP across sampled opponent
    profiles.  opponent_samples is an iterable of `others` row lists."""
    margins = []
    for others in opponent_samples:
        margins.append(slater_margin(induced_mdp(game, player, others)).margin)
    margins = np.asarray(margins, dtype=float)
    if margins.size == 0:
        raise ValueError("no opponent samples given")
    worst = int(np.argmin(margins))
    return SlaterScan(margins=margins, worst=float(margins[worst]), worst_index=worst)


def optimal_policy_values(mdp, layer=0):
    """Optimal per-state values of one unconstrained layer, by policy iteration.

    Howard iteration with lowest-index greedy tie-breaking terminates finitely
    and gives values exact up to the linear-solve residual.
    """
    s, a = mdp.n_states, mdp.n_actions
    costs = mdp.costs[layer]
    policy_idx = np.argmin(costs, axis=1)
    for _ in range(max(1000, 20 * s * a)):
        policy = np.zeros((s, a))
        policy[np.arange(s), policy_idx] = 1.0
        _, jx = evaluate_policy(mdp, policy)
        v = jx[layer]
        q = (1.0 - mdp.discount) * costs + mdp.discount * mdp.kernel @ v
        greedy = np.argmin(q, axis=1)
        improved = q[np.arange(s), greedy] < q[np.arange(s), policy_idx] - 1e-13
        if not np.any(improved):
            return v, policy
        policy_idx = np.where(improved, greedy, policy_idx)
    raise RuntimeError("policy iteration failed to settle; kernel is likely malformed")
