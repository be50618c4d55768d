"""Equilibrium verification and search for constrained discounted games.

Three checkable solution concepts:

* approximate equilibrium: every player meets the budgets up to epsilon and
  cannot lower the objective by more than epsilon with any stationary
  deviation that itself meets the budgets (aggregated from the initial
  distribution);
* statewise equilibrium: per-initial-state epsilon-optimality with the
  constraint layers ignored;
* weak correlated equilibrium: a correlated strategy meets the budgets and no
  player gains by abandoning the correlation device against the others'
  marginal.

Deviation infima are exact finite LPs over occupation measures, so every
certificate is a checked numerical statement, not a heuristic.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .best_response import constrained_best_response, optimal_policy_values
from .discretization import resolution_for
from .evaluation import (
    evaluate_correlated,
    evaluate_profile,
    induced_mdp,
    induced_mdp_from_marginal,
)
from .game import StationaryProfile, _row_faults, _row_product, marginal_excluding, product_strategy

__all__ = [
    "PlayerCertificate",
    "EquilibriumCertificate",
    "StatewiseCertificate",
    "OneShotGame",
    "ConsistencyReport",
    "SearchConfig",
    "SearchResult",
    "SequenceLevel",
    "CorrelatedSequenceResult",
    "verify_approx_equilibrium",
    "verify_statewise_equilibrium",
    "verify_weak_correlated",
    "search_equilibrium",
    "correlated_limit_sequence",
    "one_shot_game",
    "verify_one_shot_nash",
    "one_shot_consistency",
]

FEASIBILITY_TOL = 1e-9
GAP_TOL = 1e-8
REGRET_TOL = 1e-9
# Fraction of the way to the best responses that search_equilibrium's damped
# iterate moves.
DAMPING = 0.5


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
    """Per-initial-state unconstrained optimality gaps, shape (N, S)."""

    gaps: np.ndarray
    epsilon: float
    threshold: float
    passed: bool
    concept: str = "statewise"


@dataclass(frozen=True)
class OneShotGame:
    """Auxiliary one-shot game at a state: current cost plus the discounted
    continuation values, payoffs[i, p] over joint profiles."""

    state: int
    n_actions: tuple
    payoffs: np.ndarray


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-state one-shot Nash check of a stationary profile against its own
    continuation values.  States in `flagged` have a regret above REGRET_TOL;
    an equilibrium can only be excused there if they carry no initial mass."""

    regrets: np.ndarray
    flagged: tuple
    initial_masses: np.ndarray

    @property
    def consistent_on_support(self):
        return all(self.initial_masses[s] <= 0.0 for s in self.flagged)


def _budget_excess(game, cost_vector, player):
    """max_l (J_l - kappa_l) of a player, or None without constraint layers."""
    if not game.n_layers:
        return None
    return float(np.max(cost_vector.J[player, 1:] - game.constraint_bounds[player]))


def _player_certificate(cost_vector, player, excess, br):
    layer_values = cost_vector.J[player]
    vacuous = not br.feasible
    return PlayerCertificate(
        objective=float(layer_values[0]),
        constraint_values=layer_values[1:].copy(),
        feasibility_excess=excess,
        best_response_value=None if vacuous else float(br.value),
        best_response_gap=None if vacuous else float(layer_values[0] - br.value),
        vacuous=vacuous,
    )


def _certificate(concept, players, threshold, feas_tol, gap_tol):
    # Written as `not x <= bound`, so a NaN threshold fails the certificate.
    passed = True
    for cert in players:
        for value, tol in ((cert.feasibility_excess, feas_tol), (cert.best_response_gap, gap_tol)):
            if value is not None and not value <= threshold + tol:
                passed = False
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


def _certify(concept, game, cost_vector, mdp_of, threshold, feas_tol, gap_tol, beat=math.inf):
    """The certificate of the players' cost vector against the constrained
    best responses in their induced MDPs, and those BestResponseResults.

    mdp_of(i) builds player i's induced MDP; it is called just before that
    player's LP is solved.  A finite `beat` bounds the search's interest:
    once a part of the certificate reaches it, its epsilon cannot fall below
    `beat` (the max only grows, or is NaN if an earlier part was), so
    (None, None) is returned with no further LP.  Budget excesses, which need
    no LP, are checked first, then each player's epsilon as its LP is solved.
    A NaN on either side is never `>= beat`, so it never stops the work.
    """
    def out_of_reach(value):
        return beat < math.inf and value is not None and value >= beat

    excesses = [_budget_excess(game, cost_vector, i) for i in range(game.n_players)]
    if any(out_of_reach(excess) for excess in excesses):
        return None, None
    players, responses = [], []
    for i, excess in enumerate(excesses):
        br = constrained_best_response(mdp_of(i))
        players.append(_player_certificate(cost_vector, i, excess, br))
        if out_of_reach(players[-1].epsilon):
            return None, None
        responses.append(br)
    return _certificate(concept, players, threshold, feas_tol, gap_tol), responses


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
                    lambda i: _induced_mdp(game, profile, i), epsilon,
                    FEASIBILITY_TOL, GAP_TOL, beat=beat)


def verify_statewise_equilibrium(game, profile, epsilon):
    """Certify per-initial-state epsilon-optimality with constraints ignored."""
    cv = evaluate_profile(game, profile)
    gaps = np.array([
        cv.Jx[i, 0] - optimal_policy_values(_induced_mdp(game, profile, i))[0]
        for i in range(game.n_players)])
    worst = float(np.max(gaps))
    return StatewiseCertificate(
        gaps=gaps,
        epsilon=worst,
        threshold=float(epsilon),
        passed=bool(worst <= epsilon + GAP_TOL),
    )


def verify_weak_correlated(game, psi, tol=GAP_TOL):
    """Certify a correlated strategy: budgets hold and no player improves by
    playing the induced MDP against the others' marginal."""
    cv = evaluate_correlated(game, psi)
    return _certify("weak-correlated", game, cv,
                    lambda i: induced_mdp_from_marginal(game, i, marginal_excluding(psi, i)),
                    0.0, tol, tol)[0]


def one_shot_game(game, state, values):
    """One-shot game at a state: payoffs (1-alpha) c_0 + alpha * E[v(next)].

    values has shape (N, S): each player's continuation value function.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (game.n_players, game.n_states):
        raise ValueError(f"values must have shape {(game.n_players, game.n_states)}")
    current = (1.0 - game.discount) * game.costs[:, 0, state, :]
    future = game.discount * values @ game.transitions[state].T
    return OneShotGame(state=int(state), n_actions=game.n_actions, payoffs=current + future)


def verify_one_shot_nash(osg, mixed):
    """Check a mixed profile of the one-shot game; regret_i is the payoff drop
    available to player i by a best pure action, and the check passes when
    every regret is at most REGRET_TOL.  Each player's mixed action must be
    a probability vector over its actions, up to ROW_SUM_TOL."""
    mixed = [np.asarray(m, dtype=float) for m in mixed]
    if len(mixed) != len(osg.n_actions):
        raise ValueError("one mixed action per player required")
    for i, (own, a) in enumerate(zip(mixed, osg.n_actions)):
        if own.shape != (a,):
            raise ValueError(f"player {i} mixed action must have shape {(a,)}; got {own.shape}")
        faults = _row_faults(own[None])
        if faults:
            raise ValueError(f"player {i} mixed action {faults[0][1]}")
    regrets = np.zeros(len(mixed))
    for i, own in enumerate(mixed):
        # Player i's payoffs with its actions last, against the others' joint mix.
        table = np.moveaxis(osg.payoffs[i].reshape(osg.n_actions), i, -1)
        table = table.reshape(-1, osg.n_actions[i])
        against = _row_product([m[None] for m in mixed[:i] + mixed[i + 1:]], 1)[0] @ table
        regrets[i] = float(against @ own) - float(np.min(against))
    return bool(np.max(regrets) <= REGRET_TOL), regrets


def one_shot_consistency(game, profile):
    """Check the per-state one-shot Nash condition of a stationary profile
    against its own continuation values, up to REGRET_TOL.

    An aggregated equilibrium only pins behavior down on states that are
    charged by the initial distribution, so suboptimal choices can hide on
    null states; this reports exactly where.
    """
    cv = evaluate_profile(game, profile)
    values = cv.Jx[:, 0, :]
    regrets = np.zeros((game.n_players, game.n_states))
    for state in range(game.n_states):
        osg = one_shot_game(game, state, values)
        _, reg = verify_one_shot_nash(osg, [r[state] for r in profile.rows])
        regrets[:, state] = reg
    worst = regrets.max(axis=0)
    flagged = tuple(int(s) for s in np.nonzero(worst > REGRET_TOL)[0])
    return ConsistencyReport(
        regrets=regrets,
        flagged=flagged,
        initial_masses=game.initial.copy(),
    )


@dataclass(frozen=True)
class SearchConfig:
    """Restarts, iterations per restart, target epsilon and seed of
    search_equilibrium; its damped step is the module constant DAMPING."""

    restarts: int = 4
    max_iterations: int = 60
    target_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1; got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1; got {self.max_iterations}")


@dataclass(frozen=True)
class SearchResult:
    profile: StationaryProfile
    certificate: EquilibriumCertificate
    iterations: int
    restarts_used: int
    converged: bool
    skipped: tuple = field(default_factory=tuple)


def _uniform_profile(game):
    return StationaryProfile(tuple(
        np.full((game.n_states, a), 1.0 / a) for a in game.n_actions
    ))


def _random_profile(game, rng):
    rows = []
    for a in game.n_actions:
        rows.append(rng.dirichlet(np.ones(a), size=game.n_states))
    return StationaryProfile(tuple(rows))


def search_equilibrium(game, config=SearchConfig(), initial=None):
    """Damped best-response iteration with seeded random restarts.

    Each iteration computes every player's constrained best response; both the
    undamped best-response profile (the candidate) and the damped iterate,
    which moves a fraction DAMPING of the way to the responses, are
    considered, and the best certificate seen is returned (the search never
    returns without one).  Iterations where a player's deviation set is empty
    skip that player's update and are logged in `skipped`.

    Certifying a profile solves each player's best-response LP against it, so
    the damped iterate's certificate already holds the next iteration's best
    responses and they are reused: only the first iteration of each restart
    solves its own N LPs.  The candidate's best responses drive no move; it
    only matters if its epsilon is below the best so far, so its certificate
    stops, with no further LP, as soon as a budget excess or a player's
    epsilon reaches that best (_certify's `beat`).  An iteration thus solves
    N LPs for the damped iterate plus only those candidate LPs that could
    still beat the best certificate, with the same iterates and certificates
    as certifying every profile in full.
    """
    best_profile = None
    best_cert = None
    skipped = []
    iterations = 0
    restarts_used = 0
    converged = False

    def consider(profile, bounded):
        nonlocal best_profile, best_cert, converged
        beat = best_cert.epsilon if bounded and best_cert is not None else math.inf
        cert, responses = _approx_certificate(game, profile, config.target_epsilon, beat=beat)
        if cert is not None and (best_cert is None or cert.epsilon < best_cert.epsilon):
            best_profile, best_cert = profile, cert
        if best_cert.epsilon <= config.target_epsilon:
            converged = True
        return responses

    for restart in range(config.restarts):
        restarts_used = restart + 1
        if restart == 0 and initial is not None:
            profile = initial
        elif restart == 0:
            profile = _uniform_profile(game)
        else:
            rng = np.random.default_rng([config.seed, restart])
            profile = _random_profile(game, rng)
        responses = None
        for _ in range(config.max_iterations):
            iterations += 1
            if responses is None:
                responses = [constrained_best_response(_induced_mdp(game, profile, i))
                             for i in range(game.n_players)]
            moves = []
            for i, br in enumerate(responses):
                if br.feasible:
                    moves.append(br.strategy)
                else:
                    moves.append(None)
                    skipped.append((restart, iterations, i))
            candidate_rows = tuple(
                move if move is not None else row
                for move, row in zip(moves, profile.rows)
            )
            consider(StationaryProfile(candidate_rows), bounded=True)
            if converged:
                break
            damped_rows = tuple(
                row if move is None else (1.0 - DAMPING) * row + DAMPING * move
                for move, row in zip(moves, profile.rows)
            )
            step = max(
                float(np.max(np.abs(new - old)))
                for new, old in zip(damped_rows, profile.rows)
            )
            profile = StationaryProfile(damped_rows)
            responses = consider(profile, bounded=False)
            if converged or step < 1e-13:
                break
        if converged:
            break

    return SearchResult(
        profile=best_profile,
        certificate=best_cert,
        iterations=iterations,
        restarts_used=restarts_used,
        converged=converged,
        skipped=tuple(skipped),
    )


@dataclass(frozen=True)
class SequenceLevel:
    index: int
    epsilon_target: float
    resolution: float
    profile: StationaryProfile
    correlated: object
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
    discretization.  Each level's profile is certified at its target: the
    search's certificate of that profile is re-thresholded at epsilon0 / 2^n,
    which solves no LP, since only the threshold differs.  The last product is
    re-verified as a weak correlated equilibrium and its residual reported.
    The sequence stops early (completed=False) if some level's target cannot
    be certified.
    """
    if not epsilon0 > 0.0:
        raise ValueError(f"epsilon0 must be positive; got {epsilon0}")
    if n_levels < 0:
        raise ValueError(f"n_levels must be nonnegative; got {n_levels}")
    levels = []
    warm = None
    completed = True
    for n in range(n_levels + 1):
        eps_n = epsilon0 / 2.0 ** n
        target = min(eps_n, config.target_epsilon)
        found = search_equilibrium(game, replace(config, target_epsilon=target), initial=warm)
        cert = _certificate("approximate", found.certificate.players, eps_n,
                            FEASIBILITY_TOL, GAP_TOL)
        if not cert.passed:
            completed = False
            break
        levels.append(SequenceLevel(
            index=n,
            epsilon_target=eps_n,
            resolution=resolution_for(eps_n, game.discount, game.cost_bound),
            profile=found.profile,
            correlated=product_strategy(found.profile),
            certificate=cert,
        ))
        warm = found.profile
    final = None
    if levels:
        final = verify_weak_correlated(game, levels[-1].correlated)
    return CorrelatedSequenceResult(
        levels=tuple(levels),
        final_certificate=final,
        completed=completed,
    )
