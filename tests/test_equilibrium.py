import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csgames import (
    FiniteCSG,
    StationaryProfile,
    constrained_best_response,
    correlated_limit_sequence,
    evaluate_profile,
    optimal_policy_values,
    induced_mdp,
    product_strategy,
    search_equilibrium,
    verify_approx_equilibrium,
    verify_statewise_equilibrium,
    verify_weak_correlated,
)
from csgames import sample_games
from csgames import equilibrium
from csgames.cli import EXIT_OK, EXIT_SOLVER, game_to_payload, load_game, main


def zero_cost_game(rng, n_players=2):
    game = sample_games.random_game(rng, n_players=n_players, n_states=2)
    return FiniteCSG(
        n_actions=game.n_actions,
        costs=np.zeros_like(game.costs),
        transitions=game.transitions,
        discount=game.discount,
        initial=game.initial,
        constraint_bounds=np.ones_like(game.constraint_bounds),
        cost_bound=1.0,
    )


def test_zero_cost_profile_is_exact_equilibrium(rng):
    game = zero_cost_game(rng)
    profile = sample_games.random_profile(rng, game)
    cert = verify_approx_equilibrium(game, profile, 0.0)
    assert cert.passed
    assert cert.epsilon <= 1e-12


def test_decoupled_pair_optimum_certifies(pair):
    profile = StationaryProfile((
        sample_games.trap_profile(0.75, n_states=4).rows[0],
        sample_games.trap_profile(0.75, n_states=4).rows[0],
    ))
    cert = verify_approx_equilibrium(pair, profile, 1e-8)
    assert cert.passed
    assert cert.epsilon <= 1e-8
    for pc in cert.players:
        assert not pc.vacuous
        assert pc.feasibility_excess <= 1e-10


def test_perturbed_pair_gap_matches_closed_form(pair):
    rows = sample_games.trap_profile(0.75, n_states=4).rows[0]
    bad = sample_games.trap_profile(0.9, n_states=4).rows[0]
    profile = StationaryProfile((bad, rows))
    cert = verify_approx_equilibrium(pair, profile, 1e-6)
    assert not cert.passed
    alpha = pair.discount
    excess = 0.9 * (1.0 - alpha) / (1.0 - alpha * 0.9) - 0.6
    assert abs(cert.players[0].feasibility_excess - excess) <= 1e-9
    assert abs(cert.epsilon - excess) <= 1e-9


def test_budget_excess_reported(ctrap):
    cert = verify_approx_equilibrium(ctrap, sample_games.trap_profile(1.0), 0.1)
    assert not cert.passed
    assert abs(cert.players[0].feasibility_excess - 0.4) <= 1e-9
    relaxed = verify_approx_equilibrium(ctrap, sample_games.trap_profile(1.0),
                                        0.4 + 1e-6)
    assert relaxed.passed


def test_vacuous_deviation_set(ctrap):
    # Budget below every achievable constraint cost: no feasible deviation
    # exists, so only the feasibility excess remains in the certificate.
    game = FiniteCSG(
        n_actions=ctrap.n_actions,
        costs=ctrap.costs,
        transitions=ctrap.transitions,
        discount=ctrap.discount,
        initial=ctrap.initial,
        constraint_bounds=np.array([[-0.5]]),
        cost_bound=ctrap.cost_bound,
    )
    cert = verify_approx_equilibrium(game, sample_games.trap_profile(0.75), 0.1)
    pc = cert.players[0]
    assert pc.vacuous
    assert pc.best_response_gap is None
    assert abs(pc.feasibility_excess - (0.6 + 0.5)) <= 1e-9
    assert abs(cert.epsilon - 1.1) <= 1e-9


def test_statewise_single_player_optimum(rng):
    game = sample_games.random_game(rng, n_players=1, n_states=3,
                                    n_actions=(3,), n_layers=0)
    _, policy = optimal_policy_values(induced_mdp(game, 0, []))
    cert = verify_statewise_equilibrium(game, StationaryProfile((policy,)), 0.0)
    assert cert.passed
    np.testing.assert_allclose(cert.gaps, 0.0, atol=1e-9)


def test_statewise_suboptimal_trap_choice(trap):
    cert = verify_statewise_equilibrium(trap, sample_games.trap_profile(0.0), 0.0)
    assert not cert.passed
    assert abs(cert.gaps[0, 0] - 1.0) <= 1e-9
    assert abs(cert.gaps[0, 1]) <= 1e-9


def test_statewise_zero_costs(rng):
    game = zero_cost_game(rng)
    profile = sample_games.random_profile(rng, game)
    cert = verify_statewise_equilibrium(game, profile, 0.0)
    assert cert.passed


def test_weak_correlated_single_player_optimum(ctrap):
    result = constrained_best_response(induced_mdp(ctrap, 0, []))
    psi = product_strategy(StationaryProfile((result.strategy,)))
    cert = verify_weak_correlated(ctrap, psi)
    assert cert.passed


def test_weak_correlated_budget_violation(ctrap):
    psi = product_strategy(sample_games.trap_profile(1.0))
    cert = verify_weak_correlated(ctrap, psi)
    assert not cert.passed
    assert abs(cert.players[0].feasibility_excess - 0.4) <= 1e-9


def test_weak_correlated_product_of_nash(pair):
    rows = sample_games.trap_profile(0.75, n_states=4).rows[0]
    psi = product_strategy(StationaryProfile((rows, rows)))
    cert = verify_weak_correlated(pair, psi)
    assert cert.passed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       n_actions=st.sampled_from([(2,), (2, 2), (3, 2), (2, 2, 2)]),
       n_layers=st.integers(0, 2), slack=st.sampled_from([-0.05, 0.0, 0.05]))
def test_product_strategy_certifies_as_its_profile(seed, n_actions, n_layers, slack):
    # A profile's weak-correlated certificate, of its product, is its
    # approximate certificate: the same parts, judged by the same rule at
    # every threshold.  Nash existence for ARAT games rests on this identity.
    rng = np.random.default_rng(seed)
    game = sample_games.random_constrained_game(
        rng, n_players=len(n_actions), n_states=int(rng.integers(1, 4)), n_actions=n_actions,
        n_layers=n_layers, slack=slack)
    profile = sample_games.random_profile(rng, game)
    approx = verify_approx_equilibrium(game, profile, 0.0)
    weak = verify_weak_correlated(game, product_strategy(profile))
    for a, w in zip(approx.players, weak.players, strict=True):
        assert a.vacuous == w.vacuous
        for x, y in ((a.feasibility_excess, w.feasibility_excess),
                     (a.best_response_gap, w.best_response_gap), (a.objective, w.objective)):
            assert (x is None) == (y is None)
            assert x is None or abs(x - y) <= 1e-12
    assert approx.passed == weak.passed
    for epsilon in (approx.epsilon - 1e-6, approx.epsilon + 1e-6):
        passed = verify_approx_equilibrium(game, profile, epsilon).passed
        assert verify_weak_correlated(game, product_strategy(profile), epsilon).passed == passed
        assert passed == (epsilon > approx.epsilon)


def self_loop_game(n_actions, objective, discount=0.5):
    """A one-state game, every joint action looping back to it, with
    objective costs objective[i, p] and no budget layer."""
    objective = np.asarray(objective, dtype=float)
    n, p = objective.shape
    return FiniteCSG(n_actions=n_actions, costs=objective[:, None, None, :],
                     transitions=np.ones((1, p, 1)), discount=discount,
                     initial=np.ones(1), constraint_bounds=np.zeros((n, 0)),
                     cost_bound=float(np.max(np.abs(objective))))


def self_loop_regrets(n_actions, objective, mixed, discount=0.5):
    game = self_loop_game(n_actions, objective, discount)
    profile = StationaryProfile(tuple(np.asarray(m, dtype=float)[None] for m in mixed))
    return verify_statewise_equilibrium(game, profile, 0.0)


def test_one_shot_zero_values_scales_stage_costs(rng):
    # One state: every action has the same continuation value, so each regret
    # is (1 - alpha) times the stage game's regret.
    objective = rng.uniform(-1.0, 1.0, size=(2, 6))
    mixed = [rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3))]
    report = self_loop_regrets((2, 3), objective, mixed, discount=0.7)
    q0 = objective[0].reshape(2, 3) @ mixed[1]
    q1 = mixed[0] @ objective[1].reshape(2, 3)
    stage = [mixed[0] @ q0 - q0.min(), mixed[1] @ q1 - q1.min()]
    np.testing.assert_allclose(report.regrets[:, 0], 0.3 * np.array(stage), rtol=0, atol=1e-12)


def test_one_shot_constant_values_shift(trap):
    # A constant added to every objective cost shifts every value by it and
    # leaves the regrets unchanged.
    shifted = replace(trap, costs=trap.costs + 0.5, cost_bound=1.5)
    profile = sample_games.trap_profile(0.3)
    report = verify_statewise_equilibrium(trap, profile, 0.0)
    assert report.flagged == (0,)
    np.testing.assert_allclose(verify_statewise_equilibrium(shifted, profile, 0.0).regrets,
                               report.regrets, rtol=0, atol=1e-12)


def test_one_shot_argmin_is_bellman_action():
    # Only the Bellman-optimal action escapes a flag.
    game = self_loop_game((3,), [[0.4, -0.2, 0.9]])
    _, policy = optimal_policy_values(induced_mdp(game, 0, []))
    assert verify_statewise_equilibrium(game, StationaryProfile((policy,)), 0.0).flagged == ()
    assert int(np.argmax(policy[0])) == 1
    for action in (0, 2):
        report = verify_statewise_equilibrium(game, StationaryProfile((np.eye(3)[[action]],)), 0.0)
        assert report.flagged == (0,)


def test_one_shot_nash_matching_pennies():
    payoffs = [
        [1.0, -1.0, -1.0, 1.0],
        [-1.0, 1.0, 1.0, -1.0],
    ]
    report = self_loop_regrets((2, 2), payoffs, [[0.5, 0.5], [0.5, 0.5]])
    assert report.flagged == ()
    np.testing.assert_allclose(report.regrets, 0.0, atol=1e-12)


def test_one_shot_nash_dominated_action():
    # action 1 of player 0 dominates action 0 by exactly 0.3 a stage
    payoffs = [
        [0.5, 0.5, 0.2, 0.2],
        [0.0, 0.0, 0.0, 0.0],
    ]
    report = self_loop_regrets((2, 2), payoffs, [[1.0, 0.0], [0.5, 0.5]], discount=0.5)
    assert report.flagged == (0,)
    np.testing.assert_allclose(report.regrets[0], (1.0 - 0.5) * 0.3, atol=1e-12)


def test_one_shot_nash_single_action():
    report = self_loop_regrets((1, 1), [[2.0], [3.0]], [[1.0], [1.0]])
    assert report.flagged == ()
    np.testing.assert_allclose(report.regrets, 0.0, atol=1e-15)


@pytest.mark.parametrize("n_players", [2, 3])
def test_consistency_regrets_match_induced_mdps(n_players):
    # Each player's Q_i = (1 - alpha) c_i + alpha P_i J_i in its induced MDP,
    # regret sigma_i . Q_i - min Q_i, against the profile's own values J_i.
    # The reference takes the joint-action route: the one-shot table over
    # (S, A_1, ..., A_N), summed over the other players' rows.
    rng = np.random.default_rng([17, n_players])
    for _ in range(10):
        game = sample_games.random_game(rng, n_players=n_players, n_states=4)
        # At state 0 no action matters, so no regret is positive there.
        costs, transitions = game.costs.copy(), game.transitions.copy()
        costs[:, :, 0], transitions[0] = costs[:, :, 0, :1], transitions[0, :1]
        game = replace(game, costs=costs, transitions=transitions)
        profile = sample_games.random_profile(rng, game)
        rows = list(profile.rows)
        report = verify_statewise_equilibrium(game, profile, 0.0)
        values = evaluate_profile(game, profile).Jx[:, 0, :]
        alpha, expected = game.discount, np.empty((n_players, game.n_states))
        shape = (game.n_states, *game.n_actions)
        for i in range(n_players):
            table = (1.0 - alpha) * game.costs[i, 0] + alpha * game.transitions @ values[i]
            q = equilibrium._against(table.reshape(shape), rows, (i,))
            expected[i] = np.sum(rows[i] * q, axis=1) - np.min(q, axis=1)
        np.testing.assert_allclose(report.regrets, expected, rtol=0, atol=1e-12)
        worst = expected.max(axis=0)
        assert report.flagged == tuple(np.nonzero(worst > equilibrium.REGRET_TOL)[0])
        assert 0 not in report.flagged


def test_consistency_single_player_optimum(trap):
    _, policy = optimal_policy_values(induced_mdp(trap, 0, []))
    report = verify_statewise_equilibrium(trap, StationaryProfile((policy,)), 0.0)
    assert report.flagged == ()
    assert all(trap.initial[s] == 0.0 for s in report.flagged)


def test_consistency_flags_shadowed_state():
    game = sample_games.shadowed_state_game()
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    report = verify_statewise_equilibrium(game, StationaryProfile((rows,)), 0.0)
    assert list(report.flagged) == [2]
    assert all(game.initial[s] == 0.0 for s in report.flagged)
    assert abs(report.regrets[0, 2] - 0.5) <= 1e-9


def test_consistency_zero_costs(rng):
    game = zero_cost_game(rng, n_players=1)
    profile = sample_games.random_profile(rng, game)
    report = verify_statewise_equilibrium(game, profile, 0.0)
    assert report.flagged == ()


def test_statewise_regrets_bracket_gaps():
    # For every player, regret <= gap at every state and max gap <= max
    # regret / (1 - alpha), so the gaps vanish exactly when the regrets do;
    # on this sample, passing at epsilon 0 is having no flagged state.  200
    # games: 1-2 players, 1-6 states, 1-3 actions, L in {0, 1}, and pure
    # rows in 30% of the profiles.
    rng = np.random.default_rng(26)
    for _ in range(200):
        n_players = int(rng.integers(1, 3))
        n_actions = tuple(int(a) for a in rng.integers(1, 4, size=n_players))
        game = sample_games.random_game(rng, n_players, int(rng.integers(1, 7)), n_actions,
                                        n_layers=int(rng.integers(0, 2)))
        profile = sample_games.random_profile(rng, game)
        if rng.random() < 0.3:
            profile = StationaryProfile(tuple(np.eye(a)[rng.integers(a, size=game.n_states)]
                                              for a in n_actions))
        cert = verify_statewise_equilibrium(game, profile, 0.0)
        assert np.all(cert.regrets <= cert.gaps + 1e-12)
        bound = np.max(cert.regrets, axis=1) / (1.0 - game.discount)
        assert np.all(np.max(cert.gaps, axis=1) <= bound + 1e-12)
        assert cert.passed == (cert.flagged == ())


def test_search_single_player_one_iteration(ctrap):
    result = search_equilibrium(ctrap, target_epsilon=1e-8)
    assert result.converged
    assert result.certificate.epsilon <= 1e-8
    assert result.iterations == 1


def test_search_decoupled_pair(pair):
    result = search_equilibrium(pair, target_epsilon=1e-8)
    assert result.converged
    assert result.certificate.epsilon <= 1e-8


@pytest.mark.parametrize("restarts", [0, -5])
def test_search_needs_a_restart(restarts):
    # A search with no restart would have no certificate to return.
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        search_equilibrium(sample_games.decoupled_pair(), restarts=restarts)


def test_search_keeps_a_warm_start_that_meets_the_target(pair):
    # The starting profile is certified first: a warm start that already
    # meets the target is returned as it is, after its N LPs and no
    # iteration, where the iterations used to replace it by their own.
    rows = sample_games.trap_profile(0.75, n_states=4).rows[0]
    nash = StationaryProfile((rows, rows))
    result = search_equilibrium(pair, initial=nash, target_epsilon=1e-8)
    assert result.converged and result.iterations == 0
    assert result.profile is nash


def test_search_zero_costs(rng):
    game = zero_cost_game(rng)
    result = search_equilibrium(game, target_epsilon=0.0)
    assert result.converged
    assert result.certificate.epsilon <= 1e-12


def test_sequence_schedule_and_final_certificate(pair):
    seq = correlated_limit_sequence(pair, 0.2, 2)
    assert len(seq.levels) == 3
    np.testing.assert_allclose(
        [lvl.certificate.threshold for lvl in seq.levels], [0.2, 0.1, 0.05])
    assert seq.completed
    for lvl in seq.levels:
        assert lvl.certificate.epsilon <= lvl.certificate.threshold
    assert seq.final_certificate.passed
    assert seq.final_certificate.epsilon <= 1e-6


def test_sequence_single_level(pair):
    seq = correlated_limit_sequence(pair, 0.2, 0)
    assert len(seq.levels) == 1
    assert seq.levels[0].certificate.threshold == 0.2


def test_sequence_targets_below_2_to_the_minus_1024(pair):
    # 2.0 ** 1024 overflows a float; a target is epsilon0 scaled by 2^-n,
    # and past n = 1023 it is a subnormal.
    seq = correlated_limit_sequence(pair, 0.1, 1030)
    assert seq.completed and len(seq.levels) == 1031
    assert seq.levels[1023].certificate.threshold == 0.1 / 2.0 ** 1023
    assert seq.levels[-1].certificate.threshold == math.ldexp(0.1, -1030) > 0.0


def test_sequence_searches_only_levels_its_profile_misses(monkeypatch):
    # Level 0's search reaches epsilon <= 1e-8, the search target of every
    # later level; each is certified by re-thresholding, with no LP.  The
    # sequence used to search again at each level, and each such search
    # certified the profile it was given with N more LPs before stopping.
    lps = []

    def counted(mdp):
        lps.append(1)
        return constrained_best_response(mdp)

    monkeypatch.setattr(equilibrium, "constrained_best_response", counted)
    counts = {}
    for n_levels in (0, 3):
        lps.clear()
        seq = correlated_limit_sequence(sample_games.decoupled_pair(), 0.1, n_levels)
        assert seq.completed and len(seq.levels) == n_levels + 1
        counts[n_levels] = len(lps)
    assert counts[3] == counts[0]


def test_sequence_level_searches_when_its_target_fails(pair, monkeypatch):
    # A level whose target the profile in hand misses is searched again,
    # warm-started from that profile: a search target above its epsilon
    # makes level 1's re-threshold fail.
    monkeypatch.setattr(equilibrium, "TARGET_EPSILON", 0.15)
    seq = correlated_limit_sequence(pair, 0.2, 1)
    first = search_equilibrium(pair, target_epsilon=0.15)
    second = search_equilibrium(pair, initial=first.profile, target_epsilon=0.1)
    assert seq.completed and first.certificate.epsilon > 0.1 + equilibrium.GAP_TOL
    for level, found in zip(seq.levels, (first, second)):
        assert all(np.array_equal(x, y) for x, y in zip(level.profile.rows, found.profile.rows))


def test_certificate_epsilon_decomposition(ctrap):
    cert = verify_approx_equilibrium(ctrap, sample_games.trap_profile(0.5), 1.0)
    pc = cert.players[0]
    expected = max(pc.feasibility_excess, pc.best_response_gap)
    assert abs(pc.epsilon - expected) <= 1e-15
    assert abs(cert.epsilon - expected) <= 1e-15


def assert_same_certificate(a, b):
    """Field-for-field equality, arrays exactly."""
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "players":
            assert len(x) == len(y)
            for px, py in zip(x, y):
                assert_same_certificate(px, py)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def test_nan_threshold_fails_certificate(pair):
    cert = verify_approx_equilibrium(pair, StationaryProfile((
        sample_games.trap_profile(0.75, n_states=4).rows[0],
        sample_games.trap_profile(0.75, n_states=4).rows[0],
    )), np.nan)
    assert cert.epsilon <= 1e-8
    assert not cert.passed


def test_mismatched_profile_raises(pair):
    # The profile is checked against the game once, by evaluate_profile.
    row = sample_games.trap_profile(0.75).rows[0]
    wrong_states = StationaryProfile((row, row))
    one_player = sample_games.trap_profile(0.75, n_states=4)
    for verify in (verify_approx_equilibrium, verify_statewise_equilibrium):
        with pytest.raises(ValueError, match="strategy has 2 states, game has 4"):
            verify(pair, wrong_states, 0.1)
        with pytest.raises(ValueError, match="strategy actions .2,. do not match"):
            verify(pair, one_player, 0.1)


@pytest.mark.parametrize("epsilon0", [np.nan, 0.0, -0.1])
def test_sequence_rejects_non_positive_epsilon0(pair, epsilon0):
    with pytest.raises(ValueError, match="epsilon0 must be positive"):
        correlated_limit_sequence(pair, epsilon0, 1)


def test_sequence_rejects_negative_level_count(pair):
    # With n_levels = -1 the sequence searched nothing and reported
    # completed=True with no levels.
    with pytest.raises(ValueError, match="n_levels must be nonnegative"):
        correlated_limit_sequence(pair, 0.2, -1)


@pytest.mark.parametrize("epsilon0, n_levels", [(5e-324, 1), (0.1, 1075)])
def test_sequence_rejects_a_last_target_that_underflows(pair, epsilon0, n_levels):
    # 5e-324 / 2 rounds to 0.0, and so does 0.1 / 2^n from n = 1072 on, so
    # the last level would target 0.0 and not epsilon0 / 2^n_levels.
    with pytest.raises(ValueError, match="underflows to 0"):
        correlated_limit_sequence(pair, epsilon0, n_levels)


def lps_needed(cert, beat):
    """The LPs a certificate costs when it stops once a part reaches `beat`:
    none if a budget excess does, else one per player up to and including the
    first whose epsilon does."""
    if not beat < np.inf:
        return len(cert.players)
    if any(pc.feasibility_excess is not None and pc.feasibility_excess >= beat
           for pc in cert.players):
        return 0
    for i, pc in enumerate(cert.players):
        if pc.epsilon >= beat:
            return i + 1
    return len(cert.players)


def reference_search(game, config, initial=None, newton=True):
    """The search as it was before certificates handed back their best
    responses: 3N LPs per iteration, N of them solved again for the damped
    iterate, and every profile certified in full.  With `newton`, it tries
    equilibrium._newton_proposal after the iterations NEWTON_CHECKPOINTS of
    each restart and when a restart ends short of its target, never twice
    from the same best profile nor when a player's best response against it
    is infeasible, and certifies the proposal as a candidate.  Each restart
    first certifies its starting profile.  `config` holds search_equilibrium's
    target_epsilon, restarts and seed.  Returns the result fields, the
    number of LPs the search needs (for each certified profile, what
    lps_needed gives with the best epsilon so far as the bound for a
    candidate or a proposal, and none for a starting profile or a damped
    iterate) and the damped iterates in order."""
    best = {"profile": None, "cert": None, "converged": False, "lps": 0, "newton_from": None,
            "attempts": 0, "adopted": 0}
    skipped, iterations, restarts_used, damped = [], 0, 0, []

    def consider(profile, bounded):
        cert = verify_approx_equilibrium(game, profile, config["target_epsilon"])
        beat = best["cert"].epsilon if bounded and best["cert"] is not None else np.inf
        best["lps"] += lps_needed(cert, beat)
        if best["cert"] is None or cert.epsilon < best["cert"].epsilon:
            best["profile"], best["cert"] = profile, cert
        if best["cert"].passed:
            best["converged"] = True

    def best_responses(profile):
        return [constrained_best_response(
            induced_mdp(game, i, [r for j, r in enumerate(profile.rows) if j != i]))
            for i in range(game.n_players)]

    def finish():
        if not newton or best["profile"] is best["newton_from"]:
            return
        responses = best_responses(best["profile"])
        if not all(br.feasible for br in responses):
            return
        best["newton_from"] = best["profile"]
        best["attempts"] += 1
        proposal = equilibrium._newton_proposal(game, best["profile"], responses)[0]
        if proposal is not None:
            consider(proposal, bounded=True)
            best["adopted"] += best["profile"] is proposal

    for restart in range(config["restarts"]):
        restarts_used = restart + 1
        if restart == 0 and initial is not None:
            profile = initial
        elif restart == 0:
            profile = StationaryProfile(tuple(
                np.full((game.n_states, a), 1.0 / a) for a in game.n_actions))
        else:
            rng = np.random.default_rng([config["seed"], restart])
            profile = StationaryProfile(tuple(
                rng.dirichlet(np.ones(a), size=game.n_states) for a in game.n_actions))
        consider(profile, bounded=False)
        if best["converged"]:
            break
        for k in range(1, equilibrium.MAX_ITERATIONS + 1):
            iterations += 1
            responses = []
            for i, br in enumerate(best_responses(profile)):
                if br.feasible:
                    responses.append(br.strategy)
                else:
                    responses.append(None)
                    skipped.append((restart, iterations, i))
            consider(StationaryProfile(tuple(
                resp if resp is not None else row
                for resp, row in zip(responses, profile.rows))), bounded=True)
            if best["converged"]:
                break
            damped_rows = tuple(
                row if resp is None
                else (1.0 - equilibrium.DAMPING) * row + equilibrium.DAMPING * resp
                for resp, row in zip(responses, profile.rows))
            step = max(float(np.max(np.abs(new - old)))
                       for new, old in zip(damped_rows, profile.rows))
            profile = StationaryProfile(damped_rows)
            damped.append(profile)
            consider(profile, bounded=False)
            if best["converged"] or step < 1e-13:
                break
            if k in equilibrium.NEWTON_CHECKPOINTS:
                finish()
                if best["converged"]:
                    break
        if not best["converged"]:
            finish()
        if best["converged"]:
            break
    return (best["profile"], best["cert"], iterations, restarts_used, best["converged"],
            tuple(skipped), best["attempts"], best["adopted"]), best["lps"], damped


def test_search_matches_reference_with_2n_lps(monkeypatch):
    # Every LP the search solves is for an induced MDP built just for it; a
    # Newton attempt builds one more per player, for its start values.
    calls, built = [], []

    def counted(mdp):
        calls.append(1)
        return constrained_best_response(mdp)

    def counted_mdp(*args):
        built.append(1)
        return induced_mdp(*args)

    monkeypatch.setattr(equilibrium, "constrained_best_response", counted)
    monkeypatch.setattr(equilibrium, "induced_mdp", counted_mdp)
    monkeypatch.setattr(equilibrium, "MAX_ITERATIONS", 5)
    any_skipped = any_converged = any_adopted = any_cut_short = False
    for k in range(10):
        rng = np.random.default_rng([31, k])
        n_players = 1 + k % 3
        game = sample_games.random_constrained_game(
            rng, n_players=n_players, n_states=2 + k % 3, n_actions=(2,) * n_players,
            slack=-0.1 if k % 4 == 3 else 0.02)
        config = dict(restarts=2, seed=k, target_epsilon=1e-2 if k % 2 else 1e-8)
        expected, lps, damped = reference_search(game, config)
        # The Newton finish leaves the damped iterates as they were, up to
        # where the search stops.
        damped_alone = reference_search(game, config, newton=False)[2]
        assert len(damped) <= len(damped_alone), k
        for new, old in zip(damped, damped_alone):
            assert all(np.array_equal(x, y) for x, y in zip(new.rows, old.rows)), k
        calls.clear()
        built.clear()
        result = search_equilibrium(game, **config)
        profile, cert, iterations, restarts_used, converged, skipped, attempts, adopted = expected
        assert len(result.profile.rows) == len(profile.rows)
        for new, old in zip(result.profile.rows, profile.rows):
            assert np.array_equal(new, old), k
        assert_same_certificate(result.certificate, cert)
        assert (result.iterations, result.restarts_used, result.converged, result.skipped,
                result.newton_attempts, result.newton_adopted) \
            == (iterations, restarts_used, converged, skipped, attempts, adopted), k
        assert len(calls) == lps, k
        assert len(built) == len(calls) + n_players * attempts, k
        any_skipped |= bool(skipped)
        any_converged |= converged
        any_adopted |= adopted > 0
        any_cut_short |= len(damped) < len(damped_alone)
    assert any_skipped and any_converged and any_adopted and any_cut_short


@pytest.mark.parametrize("game", [sample_games.decoupled_pair(),
                                  sample_games.shadowed_state_game()],
                         ids=["pair", "shadowed"])
def test_sequence_levels_are_fresh_certificates(game):
    seq = correlated_limit_sequence(game, 0.2, 2)
    assert seq.levels
    for level in seq.levels:
        assert_same_certificate(
            level.certificate,
            verify_approx_equilibrium(game, level.profile, level.certificate.threshold))


def solved_mdps(game, config, eager=False):
    """Search the game, and list (costs, transitions) bytes of every MDP whose
    best-response LP the search solved.  With eager=True every profile is
    certified in full, as if nothing could be pruned."""
    solved = []
    certify = equilibrium._certify

    def recorded(mdp):
        solved.append((mdp.costs.tobytes(), mdp.transitions.tobytes()))
        return constrained_best_response(mdp)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "constrained_best_response", recorded)
        if eager:
            patch.setattr(equilibrium, "_certify", lambda *args, beat=math.inf: certify(*args))
        result = search_equilibrium(game, **config)
    return result, solved


def assert_same_search(a, b):
    assert len(a.profile.rows) == len(b.profile.rows)
    for x, y in zip(a.profile.rows, b.profile.rows):
        assert np.array_equal(x, y)
    assert_same_certificate(a.certificate, b.certificate)
    assert (a.iterations, a.restarts_used, a.converged, a.skipped) \
        == (b.iterations, b.restarts_used, b.converged, b.skipped)


# Hand-picked draws: pruned LPs in a search that converges, one that hits the
# iteration cap, and one that skips vacuous players' updates.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_players=st.integers(1, 3), n_states=st.integers(1, 4),
       n_layers=st.integers(0, 2), slack=st.sampled_from([0.05, 0.0, -0.05, -0.2]),
       target=st.sampled_from([5e-2, 1e-8]), max_iterations=st.integers(1, 8))
@example(seed=5, n_players=3, n_states=2, n_layers=1, slack=0.0, target=5e-2,
         max_iterations=6)
@example(seed=13, n_players=2, n_states=2, n_layers=1, slack=0.0, target=5e-2,
         max_iterations=6)
@example(seed=22, n_players=2, n_states=3, n_layers=1, slack=-0.05, target=1e-8,
         max_iterations=6)
def test_lazy_search_matches_eager_search(seed, n_players, n_states, n_layers, slack,
                                          target, max_iterations):
    # A candidate stops being certified once it cannot beat the best
    # certificate; the search must end exactly where certifying it in full
    # would, with no more LPs.
    rng = np.random.default_rng(seed)
    game = sample_games.random_constrained_game(
        rng, n_players=n_players, n_states=n_states,
        n_actions=tuple(int(a) for a in rng.integers(1, 4, size=n_players)),
        n_layers=n_layers, slack=slack)
    config = dict(restarts=2, seed=seed % 1000, target_epsilon=target)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "MAX_ITERATIONS", max_iterations)
        lazy, lazy_lps = solved_mdps(game, config)
        eager, eager_lps = solved_mdps(game, config, eager=True)
        assert_same_search(lazy, eager)
        assert len(lazy_lps) <= len(eager_lps)
        # Each profile the search considers, against its full certificate: a
        # pruned one could not have beaten the bound, any other is the same.
        approx = equilibrium._approx_certificate

        def checked(game, profile, epsilon, beat=math.inf):
            cert, responses = approx(game, profile, epsilon, beat=beat)
            full = approx(game, profile, epsilon)[0]
            if cert is None:
                assert not full.epsilon < beat
            else:
                assert_same_certificate(cert, full)
            return cert, responses

        patch.setattr(equilibrium, "_approx_certificate", checked)
        assert_same_search(search_equilibrium(game, **config), lazy)


def test_certify_prunes_only_below_a_finite_bound(pair):
    # A certificate stops at a part that reaches a finite bound.  The default
    # bound prunes nothing, not even an infinite part, and neither does NaN.
    profile = sample_games.random_profile(np.random.default_rng(3), pair)
    cert, responses = equilibrium._approx_certificate(pair, profile, 0.0)
    assert_same_certificate(cert, verify_approx_equilibrium(pair, profile, 0.0))
    assert len(responses) == 2
    assert equilibrium._approx_certificate(pair, profile, 0.0, beat=cert.epsilon) \
        == (None, None)
    assert_same_certificate(
        equilibrium._approx_certificate(pair, profile, 0.0, beat=math.nan)[0], cert)
    cv = evaluate_profile(pair, profile)
    J = cv.J.copy()
    J[1, 1] = math.inf
    unbounded, _ = equilibrium._certify(
        "approximate", pair, replace(cv, J=J),
        lambda i: equilibrium._induced_mdp(pair, profile, i), 0.0)
    assert unbounded.epsilon == math.inf


def failing_on(keys):
    def doctored(mdp):
        if (mdp.costs.tobytes(), mdp.transitions.tobytes()) in keys:
            raise RuntimeError("LP solver failure: doctored")
        return constrained_best_response(mdp)
    return doctored


def coupled_game():
    """A two-player constrained game whose search with one restart prunes
    candidate LPs and converges through an adopted Newton step."""
    return sample_games.random_constrained_game(
        np.random.default_rng(6), n_players=2, n_states=2, n_actions=(2, 3), slack=0.0)


def pruning_search_game(tmp_path):
    """coupled_game written to disk, read back as the CLI reads it, and the
    search's keywords."""
    game = coupled_game()
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_payload(game)))
    return str(path), load_game(str(path))[0], {"restarts": 1}


def test_pruned_lp_failure_is_never_seen(tmp_path, monkeypatch):
    # An LP the search no longer solves cannot fail it: a best response that
    # raises only for a pruned candidate player changes no output and no exit
    # code, though the eager search, which solves it, fails.
    path, game, config = pruning_search_game(tmp_path)
    lazy, lazy_lps = solved_mdps(game, config)
    eager_lps = solved_mdps(game, config, eager=True)[1]
    pruned = set(eager_lps) - set(lazy_lps)
    assert pruned
    assert main(["solve", path, "--restarts", "1", "--out-dir", str(tmp_path / "a")]) == EXIT_OK
    monkeypatch.setattr(equilibrium, "constrained_best_response", failing_on(pruned))
    assert_same_search(search_equilibrium(game, **config), lazy)
    assert main(["solve", path, "--restarts", "1", "--out-dir", str(tmp_path / "b")]) == EXIT_OK
    for name in ("solve.certificate.json", "solve.strategy.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    certify = equilibrium._certify
    monkeypatch.setattr(equilibrium, "_certify", lambda *args, beat=math.inf: certify(*args))
    with pytest.raises(RuntimeError, match="doctored"):
        search_equilibrium(game, **config)


def test_needed_lp_failure_exits_4(tmp_path, monkeypatch, capsys):
    # The last LP a search solves, a candidate's or a damped iterate's, is one
    # it needs; its failure still raises and exits 4.
    path, game, config = pruning_search_game(tmp_path)
    needed = {solved_mdps(game, config)[1][-1]}
    monkeypatch.setattr(equilibrium, "constrained_best_response", failing_on(needed))
    with pytest.raises(RuntimeError, match="doctored"):
        search_equilibrium(game, **config)
    assert main(["solve", path, "--restarts", "1", "--out-dir", str(tmp_path)]) == EXIT_SOLVER
    assert "solver error: LP solver failure: doctored" in capsys.readouterr().err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_players=st.integers(1, 3), n_states=st.integers(1, 3),
       n_layers=st.integers(0, 2))
def test_newton_jacobian_matches_central_differences(seed, n_players, n_states, n_layers):
    rng = np.random.default_rng(seed)
    game = sample_games.random_constrained_game(
        rng, n_players=n_players, n_states=n_states,
        n_actions=tuple(int(a) for a in rng.integers(1, 4, size=n_players)),
        n_layers=n_layers, slack=0.0)
    system = equilibrium._EquilibriumSystem(game)
    z = system.point(sample_games.random_profile(rng, game).rows,
                     rng.normal(size=(n_players, n_states)),
                     rng.uniform(0.0, 2.0, size=(n_players, n_layers)))
    radii = []
    fischer_burmeister = equilibrium._fischer_burmeister

    def recorded(a, b):
        radii.append(np.min(np.hypot(a, b), initial=np.inf))
        return fischer_burmeister(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "_fischer_burmeister", recorded)
        jac = system(z, jacobian=True)[1]
    # Central differences need phi smooth within h of every pair it is given.
    assume(min(radii) > 1e-3)
    h = 1e-6
    numeric = np.column_stack([(system(z + h * e)[0] - system(z - h * e)[0]) / (2.0 * h)
                               for e in np.eye(system.size)])
    np.testing.assert_allclose(jac, numeric, rtol=0.0,
                               atol=1e-7 * max(1.0, float(np.max(np.abs(jac)))))


def test_converged_newton_profile_certifies(monkeypatch):
    # From the best profile of 8 damped iterations, a Newton solve that
    # reaches |F|_inf <= NEWTON_TOL proposes a profile whose certificate
    # passes at 1e-8.  Five of these twelve coupled games get there, so the
    # check is not vacuous.
    converged = 0
    for k in range(12):
        rng = np.random.default_rng([41, k])
        n_players = 2 + k % 2
        game = sample_games.random_constrained_game(
            rng, n_players=n_players, n_states=4 + k % 3, n_actions=(3, 2, 2)[:n_players],
            n_layers=1 + k % 2, slack=0.05)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equilibrium, "NEWTON_CHECKPOINTS", ())
            patch.setattr(equilibrium, "_newton_proposal", lambda *args: (None, math.inf))
            patch.setattr(equilibrium, "MAX_ITERATIONS", 8)
            start = search_equilibrium(game, restarts=1).profile
        cert, responses = equilibrium._approx_certificate(game, start, 1e-8)
        if not all(br.feasible for br in responses):
            continue
        proposal, residual = equilibrium._newton_proposal(game, start, responses)
        if residual <= equilibrium.NEWTON_TOL:
            converged += 1
            assert verify_approx_equilibrium(game, proposal, 1e-8).passed, k
    assert converged >= 4


def assert_certificate_of_profile(game, result):
    """The search's certificate is its profile's own, as certified afresh at
    the default target."""
    cert, _ = equilibrium._approx_certificate(game, result.profile, equilibrium.TARGET_EPSILON)
    assert_same_certificate(result.certificate, cert)


def test_singular_newton_system_falls_back_to_least_squares(monkeypatch):
    # When the Newton system cannot be solved, the step is its least-squares
    # solution, and the search goes on to the same converged certificate.
    game, config = coupled_game(), {"restarts": 1}
    lstsq, least_squares = np.linalg.lstsq, []

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    def recorded(*args, **kwargs):
        least_squares.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(equilibrium.np.linalg, "solve", singular)
    monkeypatch.setattr(equilibrium.np.linalg, "lstsq", recorded)
    result = search_equilibrium(game, **config)
    assert least_squares
    assert (result.newton_attempts, result.newton_adopted, result.converged) == (1, 1, True)
    assert_certificate_of_profile(game, result)


def test_failed_newton_evaluation_keeps_the_last_step(monkeypatch):
    # An iterate whose evaluation fails ends the Newton try, which proposes
    # its last accepted iterate: here, the one-step proposal, bit for bit.
    game = coupled_game()
    profile = equilibrium._uniform_profile(game)
    responses = equilibrium._approx_certificate(game, profile, 1e-8)[1]
    solve, calls = equilibrium._discounted_solve, []

    def failing_after(limit):
        def doctored(*args):
            calls.append(args)
            if len(calls) > limit:
                raise RuntimeError("policy evaluation residual: doctored")
            return solve(*args)
        return doctored

    monkeypatch.setattr(equilibrium, "_discounted_solve", failing_after(math.inf))
    monkeypatch.setattr(equilibrium, "NEWTON_STEPS", 1)
    one_step, _ = equilibrium._newton_proposal(game, profile, responses)
    monkeypatch.setattr(equilibrium, "NEWTON_STEPS", 40)
    first_step_calls, calls[:] = len(calls), []
    monkeypatch.setattr(equilibrium, "_discounted_solve", failing_after(first_step_calls))
    kept, _ = equilibrium._newton_proposal(game, profile, responses)
    assert len(calls) == first_step_calls + 1
    for x, y in zip(kept.rows, one_step.rows):
        assert np.array_equal(x, y)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_newton_trial_point_keeps_the_last_step(monkeypatch):
    # A step so long that the trial profile's product of rows overflows
    # makes that trial's evaluation fail with RuntimeError, like a residual
    # failure; the try keeps its last step instead of raising out of the
    # search, which the CLI would report as a validation error.
    game = coupled_game()
    profile = equilibrium._uniform_profile(game)
    responses = equilibrium._approx_certificate(game, profile, 1e-8)[1]
    solve = np.linalg.solve
    monkeypatch.setattr(equilibrium.np.linalg, "solve", lambda *args: 1e300 * solve(*args))
    proposal, residual = equilibrium._newton_proposal(game, profile, responses)
    # No step was taken, so the residual is the starting point's.
    monkeypatch.setattr(equilibrium, "NEWTON_STEPS", 0)
    assert (proposal, residual) == equilibrium._newton_proposal(game, profile, responses)
    assert proposal is None and math.isfinite(residual)


def test_search_survives_failed_newton_evaluations(monkeypatch):
    # Every Newton try fails after its first evaluation, so none proposes a
    # profile; the search still counts each try and returns the certificate
    # of its best damped or candidate profile.
    game, config = coupled_game(), {"restarts": 1}
    solve, propose, calls = equilibrium._discounted_solve, equilibrium._newton_proposal, []

    def doctored(*args):
        calls.append(args)
        if len(calls) > 1:
            raise RuntimeError("policy evaluation residual: doctored")
        return solve(*args)

    def proposal(*args):
        calls.clear()
        return propose(*args)

    monkeypatch.setattr(equilibrium, "_discounted_solve", doctored)
    monkeypatch.setattr(equilibrium, "_newton_proposal", proposal)
    result = search_equilibrium(game, **config)
    assert result.newton_attempts >= 1
    assert result.newton_adopted == 0
    assert_certificate_of_profile(game, result)
