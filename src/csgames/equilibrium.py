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
from .game import StationaryProfile, marginal_excluding, product_strategy

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
    continuation values.  States in `flagged` fail the condition; an
    equilibrium can only be excused there if they carry no initial mass."""

    regrets: np.ndarray
    flagged: tuple
    conforming: tuple
    initial_masses: np.ndarray
    tol: float

    @property
    def consistent_on_support(self):
        return all(self.initial_masses[s] <= 0.0 for s in self.flagged)


def _player_certificate(game, cost_vector, player, br):
    layer_values = cost_vector.J[player]
    excess = None
    if game.n_layers:
        excess = float(np.max(layer_values[1:] - game.constraint_bounds[player]))
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
    passed = True
    for cert in players:
        if cert.feasibility_excess is not None and cert.feasibility_excess > threshold + feas_tol:
            passed = False
        if cert.best_response_gap is not None and cert.best_response_gap > threshold + gap_tol:
            passed = False
    epsilon = max(cert.epsilon for cert in players)
    return EquilibriumCertificate(
        concept=concept,
        players=tuple(players),
        epsilon=float(epsilon),
        threshold=float(threshold),
        passed=passed,
    )


def verify_approx_equilibrium(game, profile, epsilon,
                              feas_tol=FEASIBILITY_TOL, gap_tol=GAP_TOL):
    """Certify a stationary profile as an approximate equilibrium.

    For each player, checks the budgets up to epsilon and compares the
    objective against the exact constrained deviation infimum.  The certified
    epsilon is the max over players of max(feasibility excess, gap); it can
    only dip below zero by solver tolerance.
    """
    if profile.n_actions != game.n_actions or profile.n_states != game.n_states:
        raise ValueError("profile does not match the game dimensions")
    cv = evaluate_profile(game, profile)
    players = []
    for i in range(game.n_players):
        others = [r for j, r in enumerate(profile.rows) if j != i]
        br = constrained_best_response(induced_mdp(game, i, others))
        players.append(_player_certificate(game, cv, i, br))
    return _certificate("approximate", players, epsilon, feas_tol, gap_tol)


def verify_statewise_equilibrium(game, profile, epsilon, gap_tol=GAP_TOL):
    """Certify per-initial-state epsilon-optimality with constraints ignored."""
    if profile.n_actions != game.n_actions or profile.n_states != game.n_states:
        raise ValueError("profile does not match the game dimensions")
    cv = evaluate_profile(game, profile)
    gaps = np.zeros((game.n_players, game.n_states))
    for i in range(game.n_players):
        others = [r for j, r in enumerate(profile.rows) if j != i]
        v_star, _ = optimal_policy_values(induced_mdp(game, i, others), layer=0)
        gaps[i] = cv.Jx[i, 0] - v_star
    worst = float(np.max(gaps))
    return StatewiseCertificate(
        gaps=gaps,
        epsilon=worst,
        threshold=float(epsilon),
        passed=bool(worst <= epsilon + gap_tol),
    )


def verify_weak_correlated(game, psi, tol=GAP_TOL):
    """Certify a correlated strategy: budgets hold and no player improves by
    playing the induced MDP against the others' marginal."""
    cv = evaluate_correlated(game, psi)
    players = []
    for i in range(game.n_players):
        marginal = marginal_excluding(psi, i)
        br = constrained_best_response(induced_mdp_from_marginal(game, i, marginal))
        players.append(_player_certificate(game, cv, i, br))
    return _certificate("weak-correlated", players, 0.0, tol, tol)


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


def _mixed_payoff_and_deviations(osg, mixed, player):
    """Expected payoff of the mixed profile for `player`, and the payoff of
    each of their pure actions against the others' mix."""
    tensor = osg.payoffs[player].reshape(osg.n_actions)
    against = tensor
    for j in range(len(osg.n_actions) - 1, -1, -1):
        if j == player:
            continue
        against = np.tensordot(against, mixed[j], axes=([j], [0]))
    value = float(against @ mixed[player])
    return value, against


def verify_one_shot_nash(osg, mixed, tol=REGRET_TOL):
    """Check a mixed profile of the one-shot game; regret_i is the payoff drop
    available to player i by a best pure action."""
    mixed = [np.asarray(m, dtype=float) for m in mixed]
    if len(mixed) != len(osg.n_actions):
        raise ValueError("one mixed action per player required")
    regrets = np.zeros(len(mixed))
    for i in range(len(mixed)):
        value, against = _mixed_payoff_and_deviations(osg, mixed, i)
        regrets[i] = value - float(np.min(against))
    return bool(np.max(regrets) <= tol), regrets


def one_shot_consistency(game, profile, tol=REGRET_TOL):
    """Check the per-state one-shot Nash condition of a stationary profile
    against its own continuation values.

    An aggregated equilibrium only pins behavior down on states that are
    charged by the initial distribution, so suboptimal choices can hide on
    null states; this reports exactly where.
    """
    cv = evaluate_profile(game, profile)
    values = cv.Jx[:, 0, :]
    regrets = np.zeros((game.n_players, game.n_states))
    for state in range(game.n_states):
        osg = one_shot_game(game, state, values)
        _, reg = verify_one_shot_nash(osg, [r[state] for r in profile.rows], tol)
        regrets[:, state] = reg
    worst = regrets.max(axis=0)
    flagged = tuple(int(s) for s in np.nonzero(worst > tol)[0])
    conforming = tuple(int(s) for s in np.nonzero(worst <= tol)[0])
    return ConsistencyReport(
        regrets=regrets,
        flagged=flagged,
        conforming=conforming,
        initial_masses=game.initial.copy(),
        tol=float(tol),
    )


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 4
    max_iterations: int = 60
    damping: float = 0.5
    target_epsilon: float = 1e-8
    seed: int = 0


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
    undamped best-response profile and the damped iterate are certified, and
    the best certificate seen is returned (the search never returns without
    one).  Iterations where a player's deviation set is empty skip that
    player's update and are logged in `skipped`.
    """
    best_profile = None
    best_cert = None
    skipped = []
    iterations = 0
    restarts_used = 0
    converged = False

    def consider(profile):
        nonlocal best_profile, best_cert, converged
        cert = verify_approx_equilibrium(game, profile, config.target_epsilon)
        if best_cert is None or cert.epsilon < best_cert.epsilon:
            best_profile, best_cert = profile, cert
        if best_cert.epsilon <= config.target_epsilon:
            converged = True
        return cert

    for restart in range(max(1, config.restarts)):
        restarts_used = restart + 1
        if restart == 0 and initial is not None:
            profile = initial
        elif restart == 0:
            profile = _uniform_profile(game)
        else:
            rng = np.random.default_rng([config.seed, restart])
            profile = _random_profile(game, rng)
        for _ in range(config.max_iterations):
            iterations += 1
            responses = []
            for i in range(game.n_players):
                others = [r for j, r in enumerate(profile.rows) if j != i]
                br = constrained_best_response(induced_mdp(game, i, others))
                if br.feasible:
                    responses.append(br.strategy)
                else:
                    responses.append(None)
                    skipped.append((restart, iterations, i))
            candidate_rows = tuple(
                resp if resp is not None else row
                for resp, row in zip(responses, profile.rows)
            )
            consider(StationaryProfile(candidate_rows))
            if converged:
                break
            damped_rows = tuple(
                row if resp is None else (1.0 - config.damping) * row + config.damping * resp
                for resp, row in zip(responses, profile.rows)
            )
            step = max(
                float(np.max(np.abs(new - old)))
                for new, old in zip(damped_rows, profile.rows)
            )
            profile = StationaryProfile(damped_rows)
            consider(profile)
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
    discretization.  Each level's profile is certified; the last product is
    re-verified as a weak correlated equilibrium and its residual reported.
    The sequence stops early (completed=False) if some level's target cannot
    be certified.
    """
    if epsilon0 <= 0.0:
        raise ValueError("epsilon0 must be positive")
    levels = []
    warm = None
    completed = True
    for n in range(n_levels + 1):
        eps_n = epsilon0 / 2.0 ** n
        target = min(eps_n, config.target_epsilon)
        found = search_equilibrium(game, replace(config, target_epsilon=target), initial=warm)
        cert = verify_approx_equilibrium(game, found.profile, eps_n)
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
