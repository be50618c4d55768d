"""Equilibrium verification and search for constrained discounted games.

Three checkable solution concepts:

* approximate equilibrium: every player meets the budgets up to epsilon and
  cannot lower the objective by more than epsilon with any stationary
  deviation that itself meets the budgets (aggregated from the initial
  distribution);
* statewise equilibrium: per-initial-state epsilon-optimality with the
  constraint layers ignored;
* weak correlated equilibrium: a correlated strategy meets the budgets up to
  epsilon and no player gains more than epsilon by abandoning the correlation
  device against the others' marginal.

Deviation infima are exact finite LPs over occupation measures, so every
certificate is a checked numerical statement, not a heuristic.  The search
may finish with a semismooth Newton solve of the equilibrium conditions
(_newton_proposal), but only a profile's certificate decides PASS.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .best_response import constrained_best_response, optimal_policy_values
from .discretization import resolution_for
from .evaluation import (
    _discounted_solve,
    _joint_kernel_costs,
    evaluate_correlated,
    evaluate_profile,
    induced_mdp,
    induced_mdp_from_marginal,
)
from .game import (
    CorrelatedStrategy,
    StationaryProfile,
    _derived,
    _row_product,
    marginal_excluding,
    product_strategy,
)

__all__ = [
    "PlayerCertificate",
    "EquilibriumCertificate",
    "StatewiseCertificate",
    "SearchConfig",
    "SearchResult",
    "SequenceLevel",
    "CorrelatedSequenceResult",
    "verify_approx_equilibrium",
    "verify_statewise_equilibrium",
    "verify_weak_correlated",
    "search_equilibrium",
    "correlated_limit_sequence",
]

FEASIBILITY_TOL = 1e-9
GAP_TOL = 1e-8
REGRET_TOL = 1e-9
# Fraction of the way to the best responses that search_equilibrium's damped
# iterate moves, and the most iterations a restart runs.
DAMPING = 0.5
MAX_ITERATIONS = 60
# Iterations of each restart after which search_equilibrium tries a Newton
# finish from its best profile (it also tries one when a restart ends short
# of its target), and the limits of one try: a residual max-norm that ends
# it, a number of steps, and the halvings of one step's line search, whose
# Armijo test asks |F|^2 to fall by a share 2 * ARMIJO * t of itself.
# A try that stalls ends after one failed line search, so it stays cheap.
NEWTON_CHECKPOINTS = (4, 8, 16, 32)
NEWTON_TOL = 1e-13
NEWTON_STEPS = 40
NEWTON_HALVINGS = 6
ARMIJO = 1e-4


@dataclass(frozen=True)
class PlayerCertificate:
    """One player's side of an equilibrium certificate.

    feasibility_excess is max_l (J_l - kappa_l), or None when the game has no
    constraint layers.  best_response_gap is J_0 minus the constrained
    deviation infimum; when no deviation meets the budgets the requirement is
    vacuous and the gap is None with vacuous=True.
    """

    objective: float
    constraint_values: np.ndarray
    feasibility_excess: float | None
    best_response_value: float | None
    best_response_gap: float | None
    vacuous: bool

    @property
    def epsilon(self):
        parts = [v for v in (self.feasibility_excess, self.best_response_gap) if v is not None]
        return max(parts) if parts else 0.0


@dataclass(frozen=True)
class EquilibriumCertificate:
    concept: str
    players: tuple
    epsilon: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class StatewiseCertificate:
    """Per-initial-state unconstrained optimality gaps, shape (N, S), and
    one-shot regrets: regrets[i, s] = J_i(s) - (T J_i)(s) is sigma_i's
    expected one-shot cost (1 - alpha) c_i^0 + alpha E[J_i(next)] against the
    others' rows minus its best pure action's, with J_i the profile's values
    and T the Bellman optimality operator of player i's induced MDP.
    `flagged` holds the states where some regret exceeds REGRET_TOL, so
    suboptimal play shows even on states without initial mass.  Per player,
    with J* = T J* the optimal values:

        regret <= gap at every state, as J_i >= J* gives T J_i >= T J* = J*;
        max gap <= max regret / (1 - alpha), as T is an alpha-contraction.
    """

    gaps: np.ndarray
    regrets: np.ndarray
    flagged: tuple
    epsilon: float
    threshold: float
    passed: bool
    concept: str = "statewise"


def _certificate(concept, players, threshold):
    # A NaN part or threshold fails `value <= threshold + tol`, and so the certificate.
    passed = all(value is None or value <= threshold + tol for cert in players
                 for value, tol in ((cert.feasibility_excess, FEASIBILITY_TOL),
                                    (cert.best_response_gap, GAP_TOL)))
    epsilon = max(cert.epsilon for cert in players)
    return EquilibriumCertificate(
        concept=concept,
        players=tuple(players),
        epsilon=float(epsilon),
        threshold=float(threshold),
        passed=passed,
    )


def _induced_mdp(game, profile, player):
    """A player's induced MDP against the other players' rows."""
    return induced_mdp(game, player, profile.rows[:player] + profile.rows[player + 1:])


def _certify(concept, game, cost_vector, mdp_of, threshold, beat=math.inf):
    """The certificate of the players' cost vector against the constrained
    best responses in their induced MDPs, judged at `threshold` by
    _certificate whatever the concept, and those BestResponseResults.

    mdp_of(i) builds player i's induced MDP; it is called just before that
    player's LP is solved.  A finite `beat` bounds the search's interest:
    once a part of the certificate reaches it, its epsilon cannot fall below
    `beat` (the max only grows, or is NaN if an earlier part was), so
    (None, None) is returned with no further LP.  Budget excesses
    max_l (J_l - kappa_l), which need no LP (None without layers), are
    checked first, then each player's epsilon as its LP is solved.
    A NaN on either side is never `>= beat`, so it never stops the work.
    """
    def out_of_reach(value):
        return beat < math.inf and value is not None and value >= beat

    excesses = [float(np.max(cost_vector.J[i, 1:] - game.constraint_bounds[i]))
                if game.n_layers else None for i in range(game.n_players)]
    if any(out_of_reach(excess) for excess in excesses):
        return None, None
    players, responses = [], []
    for i, excess in enumerate(excesses):
        br = constrained_best_response(mdp_of(i))
        layer_values, vacuous = cost_vector.J[i], not br.feasible
        players.append(PlayerCertificate(
            objective=float(layer_values[0]),
            constraint_values=layer_values[1:].copy(),
            feasibility_excess=excess,
            best_response_value=None if vacuous else float(br.value),
            best_response_gap=None if vacuous else float(layer_values[0] - br.value),
            vacuous=vacuous,
        ))
        if out_of_reach(players[-1].epsilon):
            return None, None
        responses.append(br)
    return _certificate(concept, players, threshold), responses


def verify_approx_equilibrium(game, profile, epsilon):
    """Certify a stationary profile as an approximate equilibrium.

    For each player, checks the budgets up to epsilon and compares the
    objective against the exact constrained deviation infimum.  The certified
    epsilon is the max over players of max(feasibility excess, gap); it can
    only dip below zero by solver tolerance.
    """
    return _approx_certificate(game, profile, epsilon)[0]


def _approx_certificate(game, profile, epsilon, beat=math.inf):
    """The approximate-equilibrium certificate of a profile, and the
    per-player BestResponseResults it was computed from; (None, None) once it
    cannot beat `beat` (see _certify)."""
    return _certify("approximate", game, evaluate_profile(game, profile),
                    lambda i: _induced_mdp(game, profile, i), epsilon, beat=beat)


def verify_statewise_equilibrium(game, profile, epsilon):
    """Certify per-initial-state epsilon-optimality with constraints ignored,
    and report each state's one-shot regrets (see StatewiseCertificate)."""
    values = evaluate_profile(game, profile).Jx[:, 0]
    alpha = game.discount
    gaps = np.empty((game.n_players, game.n_states))
    regrets = np.empty_like(gaps)
    for i, own in enumerate(profile.rows):
        mdp = _induced_mdp(game, profile, i)
        gaps[i] = values[i] - optimal_policy_values(mdp)[0]
        q = (1.0 - alpha) * mdp.costs[0, 0] + alpha * mdp.transitions @ values[i]
        regrets[i] = np.sum(own * q, axis=1) - np.min(q, axis=1)
    worst = float(np.max(gaps))
    return StatewiseCertificate(
        gaps=gaps,
        regrets=regrets,
        flagged=tuple(int(s) for s in np.flatnonzero(np.max(regrets, axis=0) > REGRET_TOL)),
        epsilon=worst,
        threshold=float(epsilon),
        passed=bool(worst <= epsilon + GAP_TOL),
    )


def verify_weak_correlated(game, psi, epsilon=0.0):
    """Certify a correlated strategy at accuracy epsilon, judged as
    verify_approx_equilibrium judges: budgets hold and no player improves by
    playing the induced MDP against the others' marginal.  A product
    strategy's parts are those of its profile's approximate certificate."""
    cv = evaluate_correlated(game, psi)
    return _certify("weak-correlated", game, cv,
                    lambda i: induced_mdp_from_marginal(game, i, marginal_excluding(psi, i)),
                    epsilon)[0]


@dataclass(frozen=True)
class SearchConfig:
    """Restarts, target epsilon and seed of search_equilibrium; its damped
    step and iterations per restart are the module constants DAMPING and
    MAX_ITERATIONS."""

    restarts: int = 4
    target_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1; got {self.restarts}")


@dataclass(frozen=True)
class SearchResult:
    """The best certificate a search found, at its target, and its profile;
    `converged` is that verdict.  newton_attempts counts the Newton finishes
    tried, and newton_adopted those whose profile certified strictly better."""

    profile: StationaryProfile
    certificate: EquilibriumCertificate
    iterations: int
    restarts_used: int
    skipped: tuple = field(default_factory=tuple)
    newton_attempts: int = 0
    newton_adopted: int = 0

    @property
    def converged(self):
        return self.certificate.passed


def _uniform_profile(game):
    return StationaryProfile(tuple(np.full((game.n_states, a), 1.0 / a) for a in game.n_actions))


def _fischer_burmeister(a, b):
    """phi(a, b) = sqrt(a^2 + b^2) - a - b, which is 0 exactly when a >= 0,
    b >= 0 and a * b = 0."""
    return np.hypot(a, b) - a - b


def _fischer_burmeister_slopes(a, b):
    """The partial derivatives of phi in a and in b; at a = b = 0, its kink,
    both are taken as 1/sqrt(2) - 1."""
    r = np.hypot(a, b)
    at_kink = r == 0.0
    r_safe = np.where(at_kink, 1.0, r)
    kink = math.sqrt(0.5) - 1.0
    return np.where(at_kink, kink, a / r_safe - 1.0), np.where(at_kink, kink, b / r_safe - 1.0)


@functools.cache
def _against_subscripts(n, keep):
    """The einsum subscripts of _against for n players and the kept ones."""
    letters = "abcdefghijklmnopqrstuvwxy"[:n]
    inputs = ["z" + letters + "..."] + ["z" + letters[k] for k in range(n) if k not in keep]
    return ",".join(inputs) + "->z" + "".join(letters[k] for k in keep) + "..."


def _against(table, rows, keep):
    """A per-state table (S, A_1, ..., A_N, ...) summed over the actions of
    every player not in `keep`, weighted by that player's row at the state:
    shape (S, *[A_k for k in keep], ...), the kept axes in keep's order."""
    operands = [rows[k] for k in range(len(rows)) if k not in keep]
    return np.einsum(_against_subscripts(len(rows), keep), table, *operands)


class _EquilibriumSystem:
    """The stationary equilibrium conditions of a game as a square system
    F(z) = 0 (Filar, Schultz, Thuijsman & Vrieze, Math. Prog. 50, 1991), in
    the Fischer-Burmeister form (Fischer, Optimization 24, 1992).

    Per player i the unknowns are sigma_i (S x A_i), the normalized
    Lagrangian values v_i (S) and the multipliers lambda_i (L), laid out in
    that order, player after player; the equations, in the same layout, are

        phi(sigma_i(s, a), Q_i(s, a) - v_i(s)) = 0,
        sum_a sigma_i(s, a) - 1 = 0,
        phi(lambda_il, kappa_il - J_il(sigma)) = 0,

    where Q_i(s, a) = E_{sigma_-i}[(1 - alpha)(c_i^0 + lambda_i . c_i^{1..L})
    + alpha q . v_i] at s.  At a zero, sigma_i is greedy for its Lagrangian
    cost at every state, v_i is its Lagrangian value, and the budgets hold
    with complementary slackness, so sigma_i is a constrained best response
    (Lagrangian sufficiency) and sigma an exact stationary equilibrium.

    Each player's unknowns are read from z, and their equations written to F
    and the Jacobian, through index arrays made once, in __init__.
    Everything that does not depend on z is computed once, in __init__, with
    the same operations, and so the same bits, as computing it on every call.
    """

    def __init__(self, game):
        self.game = game
        s, self.n_layers, alpha = game.n_states, game.n_layers, game.discount
        shape = (s,) + game.n_actions
        self.costs = game.costs.reshape((game.n_players, self.n_layers + 1) + shape)
        self.kernel = game.transitions.reshape(shape + (s,))
        self.alpha_kernel = alpha * self.kernel
        # Per player: the budget layers as an (L, S * P) matrix, and as an
        # (S, A_1, ..., A_N, L) table, plain and weighted by 1 - alpha.
        self.layer_matrix = [c[1:].reshape(self.n_layers, c[0].size) for c in self.costs]
        self.layer_costs = [np.moveaxis(c[1:], 0, -1) for c in self.costs]
        self.weighted_layer_costs = [(1.0 - alpha) * c for c in self.layer_costs]
        self.eye = np.eye(s)[:, None, :]
        # The positions of the unknowns in z, laid out like them: per player,
        # sigma_i's (S, A_i), v_i's and lambda_i's.
        self.sigma_at, self.value_at, self.lam_at, self.size = [], [], [], 0
        for a in game.n_actions:
            at = np.arange(self.size, self.size + s * a + s + self.n_layers)
            sigma, value, lam = np.split(at, [s * a, s * a + s])
            self.sigma_at.append(sigma.reshape(s, a))
            self.value_at.append(value)
            self.lam_at.append(lam)
            self.size += at.size

    def rows(self, z):
        """The profile part of z, as one (S, A_i) array per player."""
        return [z[at] for at in self.sigma_at]

    def point(self, rows, values, multipliers):
        z = np.empty(self.size)
        for i, (row, v, mult) in enumerate(zip(rows, values, multipliers)):
            z[self.sigma_at[i]], z[self.value_at[i]], z[self.lam_at[i]] = row, v, mult
        return z

    def __call__(self, z, jacobian=False):
        """F(z), and with `jacobian` also its Jacobian (else None).  Raises
        RuntimeError when the profile's evaluation fails its residual check."""
        game, alpha, n_layers = self.game, self.game.discount, self.n_layers
        s, n = game.n_states, game.n_players
        rows = self.rows(z)
        kernel, costs = _joint_kernel_costs(game, _row_product(rows, s))
        # Per-state values of every budget layer, (S, N * L), column i * L + l.
        layer_values = _discounted_solve(kernel, alpha,
                                         (1.0 - alpha) * costs[:, 1:].reshape(-1, s).T)
        budget_excess = game.constraint_bounds - (game.initial @ layer_values).reshape(n, -1)
        F = np.empty(self.size)
        jac = np.zeros((self.size, self.size)) if jacobian else None
        if jacobian:
            occupation = _discounted_solve(kernel.T, alpha, (1.0 - alpha) * game.initial)
            weights = (occupation / (1.0 - alpha))[:, None, None]
        sigma_at = self.sigma_at
        for i in range(n):
            value_at, lam_at = self.value_at[i], self.lam_at[i]
            v, lam = z[value_at], z[lam_at]
            # lambda_i . c_i^{1..L}, as np.tensordot(lam, costs[i, 1:], 1) computes it.
            penalty = np.dot(lam[None], self.layer_matrix[i]).reshape(self.costs.shape[2:])
            lagrangian = (1.0 - alpha) * (self.costs[i, 0] + penalty) + self.alpha_kernel @ v
            gap = _against(lagrangian, rows, (i,)) - v[:, None]
            F[sigma_at[i]] = _fischer_burmeister(rows[i], gap)
            F[value_at] = rows[i].sum(axis=1) - 1.0
            F[lam_at] = _fischer_burmeister(lam, budget_excess[i])
            if not jacobian:
                continue
            d_sigma, d_gap = _fischer_burmeister_slopes(rows[i], gap)
            d_lam, d_excess = _fischer_burmeister_slopes(lam, budget_excess[i])
            own, col = sigma_at[i][:, :, None], d_gap[:, :, None]
            jac[sigma_at[i], sigma_at[i]] = d_sigma
            for j in range(n):
                if j != i:
                    jac[own, sigma_at[j][:, None, :]] = col * _against(lagrangian, rows, (i, j))
            jac[own, value_at] = col * (alpha * _against(self.kernel, rows, (i,)) - self.eye)
            jac[own, lam_at] = col * (1.0 - alpha) * _against(self.layer_costs[i], rows, (i,))
            jac[value_at[:, None], sigma_at[i]] = 1.0
            jac[lam_at, lam_at] = d_lam
            # Policy gradient: dJ_il / dsigma_j(s, b) = d(s) / (1 - alpha) times
            # the one-shot table of layer l, with values of that layer, at (s, b).
            layer_tables = (self.weighted_layer_costs[i]
                            + self.alpha_kernel @ layer_values[:, i * n_layers:(i + 1) * n_layers])
            for j in range(n):
                gradient = _against(layer_tables, rows, (j,)) * weights
                jac[lam_at[:, None, None], sigma_at[j][None]] = \
                    -d_excess[:, None, None] * np.moveaxis(gradient, -1, 0)
        return F, jac


def _newton_proposal(game, profile, responses):
    """A profile proposed by a semismooth Newton solve of _EquilibriumSystem
    from `profile` (None if no step was taken), and |F|_inf at the last
    iterate.

    The start is sigma = the profile's rows, lambda_i = responses[i]'s budget
    multipliers, and v_i = the per-state Lagrangian value of responses[i]'s
    strategy in player i's induced MDP, so no LP is solved.  Each step solves
    J d = -F (by least squares if J is singular) and backtracks on |F|^2 by
    the Armijo rule, halving up to NEWTON_HALVINGS times.  It stops at
    |F|_inf <= NEWTON_TOL, after NEWTON_STEPS steps, or at a failed line
    search.  The proposal is sigma clipped at 0 with its rows renormalized;
    it is a proposal only, which its certificate accepts or refutes.
    """
    system = _EquilibriumSystem(game)
    values = []
    # Through this module's induced_mdp and evaluate_correlated, as every
    # evaluation of the search, so perfbench's tracer counts them.
    for i, br in enumerate(responses):
        mdp = _induced_mdp(game, profile, i)
        jx = evaluate_correlated(mdp, CorrelatedStrategy(mdp.n_actions, br.strategy)).Jx[0]
        values.append(jx[0] + br.multipliers @ jx[1:])
    z = system.point(profile.rows, values, [br.multipliers for br in responses])
    F = system(z)[0]
    taken = 0
    try:
        while taken < NEWTON_STEPS and not np.max(np.abs(F)) <= NEWTON_TOL:
            jac = system(z, jacobian=True)[1]
            try:
                step = np.linalg.solve(jac, -F)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(jac, -F, rcond=None)[0]
            merit, t = F @ F, 1.0
            for _ in range(NEWTON_HALVINGS + 1):
                trial = system(z + t * step)[0]
                if trial @ trial <= (1.0 - 2.0 * ARMIJO * t) * merit:
                    break
                t /= 2.0
            else:
                break
            z, F, taken = z + t * step, trial, taken + 1
    except (RuntimeError, np.linalg.LinAlgError):
        pass  # an iterate's evaluation failed its residual check: keep the last step
    residual = float(np.max(np.abs(F)))
    rows = [np.maximum(row, 0.0) for row in system.rows(z)]
    sums = [row.sum(axis=1, keepdims=True) for row in rows]
    if not taken or not all(np.all(total > 0.0) for total in sums):
        return None, residual
    return StationaryProfile(tuple(row / total for row, total in zip(rows, sums))), residual


def search_equilibrium(game, config=SearchConfig(), initial=None):
    """Damped best-response iteration with seeded random restarts, finished
    by a Newton solve of the equilibrium conditions.

    Each iteration computes every player's constrained best response; both the
    undamped best-response profile (the candidate) and the damped iterate,
    which moves a fraction DAMPING of the way to the responses, are
    considered, and the best certificate seen (least epsilon) is returned;
    the search never returns without one.  Profiles are certified at the
    target, and the search stops once the best certificate passes, as
    `verify` would judge it.  Iterations where a player's deviation set is
    empty skip that player's update and are logged in `skipped`.

    Certifying a profile solves each player's best-response LP against it, so
    each restart first certifies its starting profile (`initial`, the uniform
    profile or a seeded random one), whose certificate holds the first
    iteration's best responses, and each damped iterate's certificate holds
    the next iteration's.  A warm start whose certificate passes thus
    ends the search after its N LPs, with no iteration.  The candidate's best
    responses drive no move; it only matters if its epsilon is below the best
    so far, so its certificate stops, with no further LP, as soon as a budget
    excess or a player's epsilon reaches that best (_certify's `beat`).  An
    iteration thus solves N LPs for the damped iterate plus only those
    candidate LPs that could still beat the best certificate, with the same
    iterates and certificates as certifying every profile in full.

    Newton finish: after the iterations NEWTON_CHECKPOINTS of each restart,
    and when a restart ends short of the target, the search tries
    _newton_proposal from its best profile and the best responses its
    certificate holds, so the try solves no LP.  It never tries twice from
    the same best profile, nor when some player's deviation set is empty.
    The proposal is certified like a candidate and adopted only if its
    certificate is strictly better, so the certificate alone decides PASS;
    the damped iterates and their LPs are those of the search without the
    finish, up to the iteration where the search stops.  `newton_attempts`
    and `newton_adopted` count the tries and the adopted proposals.
    """
    best = None  # (profile, certificate, responses) of the best certificate so far
    newton_from = None
    newton_attempts = newton_adopted = 0
    skipped = []
    iterations = restarts_used = 0

    def consider(profile, bounded):
        nonlocal best
        beat = best[1].epsilon if bounded else math.inf
        cert, responses = _approx_certificate(game, profile, config.target_epsilon, beat=beat)
        if cert is not None and (best is None or cert.epsilon < best[1].epsilon):
            best = (profile, cert, responses)
        return responses

    def finish():
        """Try a Newton finish from the best profile; True once best passes."""
        nonlocal newton_from, newton_attempts, newton_adopted
        profile, _, responses = best
        if profile is newton_from or not all(br.feasible for br in responses):
            return False
        newton_from = profile
        newton_attempts += 1
        proposal = _newton_proposal(game, profile, responses)[0]
        if proposal is not None:
            consider(proposal, bounded=True)
            newton_adopted += best[0] is proposal
        return best[1].passed

    for restart in range(config.restarts):
        restarts_used = restart + 1
        if restart == 0:
            profile = _uniform_profile(game) if initial is None else initial
        else:
            rng = np.random.default_rng([config.seed, restart])
            profile = StationaryProfile(tuple(rng.dirichlet(np.ones(a), size=game.n_states)
                                              for a in game.n_actions))
        responses = consider(profile, bounded=False)
        if best[1].passed:
            break
        for k in range(1, MAX_ITERATIONS + 1):
            iterations += 1
            skipped += [(restart, iterations, i) for i, br in enumerate(responses)
                        if not br.feasible]
            # Best responses and damped rows are derived distributions.
            consider(_derived(StationaryProfile, rows=tuple(
                br.strategy if br.feasible else row
                for br, row in zip(responses, profile.rows))), bounded=True)
            if best[1].passed:
                break
            damped_rows = tuple(
                (1.0 - DAMPING) * row + DAMPING * br.strategy if br.feasible else row
                for br, row in zip(responses, profile.rows))
            step = max(float(np.max(np.abs(new - old)))
                       for new, old in zip(damped_rows, profile.rows))
            profile = _derived(StationaryProfile, rows=damped_rows)
            responses = consider(profile, bounded=False)
            if best[1].passed or step < 1e-13:
                break
            if k in NEWTON_CHECKPOINTS and finish():
                break
        if best[1].passed or finish():
            break

    return SearchResult(best[0], best[1], iterations, restarts_used, tuple(skipped),
                        newton_attempts, newton_adopted)


@dataclass(frozen=True)
class SequenceLevel:
    """A certified level of correlated_limit_sequence; it plays product_strategy(profile)."""

    index: int
    epsilon_target: float
    resolution: float
    profile: StationaryProfile
    certificate: EquilibriumCertificate


@dataclass(frozen=True)
class CorrelatedSequenceResult:
    levels: tuple
    final_certificate: EquilibriumCertificate | None
    completed: bool


def correlated_limit_sequence(game, epsilon0, n_levels, config=SearchConfig()):
    """Build the halving-target sequence of certified approximate equilibria
    whose product strategies approach a weak correlated equilibrium.

    Level n targets epsilon0 / 2^n for n = 0..n_levels and also reports the
    state-space resolution that would certify that accuracy after
    discretization.  Certificates are re-thresholded, which solves no LP.
    The one in hand, of the last level's profile, is checked at the level's
    search target min(epsilon0 / 2^n, config.target_epsilon); the level is
    searched from that profile only if it fails, since such a search would
    certify the profile first and stop there.  The level's certificate is
    the profile's at epsilon0 / 2^n.  The last product is re-verified as a
    weak correlated equilibrium and its residual reported.  The sequence
    stops early (completed=False) if some level's target cannot be
    certified, and raises ValueError up front if the last target is 0.0.
    """
    if not epsilon0 > 0.0:
        raise ValueError(f"epsilon0 must be positive; got {epsilon0}")
    if n_levels < 0:
        raise ValueError(f"n_levels must be nonnegative; got {n_levels}")
    if math.ldexp(epsilon0, -n_levels) == 0.0:
        raise ValueError(f"epsilon0 / 2^{n_levels} underflows to 0 for epsilon0 = {epsilon0!r}")

    def at(threshold):
        return _certificate("approximate", found.certificate.players, threshold)

    levels, found = [], None
    for n in range(n_levels + 1):
        eps_n = math.ldexp(epsilon0, -n)
        target = min(eps_n, config.target_epsilon)
        if found is None or not at(target).passed:
            found = search_equilibrium(game, replace(config, target_epsilon=target),
                                       initial=None if found is None else found.profile)
        cert = at(eps_n)
        if not cert.passed:
            break
        levels.append(SequenceLevel(
            index=n,
            epsilon_target=eps_n,
            resolution=resolution_for(eps_n, game.discount, game.cost_bound),
            profile=found.profile,
            certificate=cert,
        ))
    final = verify_weak_correlated(game, product_strategy(levels[-1].profile)) if levels else None
    return CorrelatedSequenceResult(levels=tuple(levels), final_certificate=final,
                                    completed=len(levels) == n_levels + 1)
