from dataclasses import fields

import numpy as np
import pytest

from csgames import (
    FiniteCSG,
    OneShotGame,
    SearchConfig,
    StationaryProfile,
    constrained_best_response,
    correlated_limit_sequence,
    evaluate_profile,
    one_shot_consistency,
    one_shot_game,
    optimal_policy_values,
    induced_mdp,
    product_strategy,
    search_equilibrium,
    verify_approx_equilibrium,
    verify_one_shot_nash,
    verify_statewise_equilibrium,
    verify_weak_correlated,
)
from csgames import sample_games


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


def test_one_shot_zero_values_scales_stage_costs(trap):
    osg = one_shot_game(trap, 0, np.zeros((1, 2)))
    np.testing.assert_allclose(
        osg.payoffs, (1.0 - trap.discount) * trap.costs[:, 0, 0, :], atol=1e-12)


def test_one_shot_constant_values_shift(trap):
    osg0 = one_shot_game(trap, 0, np.zeros((1, 2)))
    osg1 = one_shot_game(trap, 0, np.ones((1, 2)))
    np.testing.assert_allclose(osg1.payoffs, osg0.payoffs + trap.discount,
                               atol=1e-12)


def test_one_shot_argmin_is_bellman_action(trap):
    values, _ = optimal_policy_values(induced_mdp(trap, 0, []))
    osg = one_shot_game(trap, 0, values[None, :])
    assert int(np.argmin(osg.payoffs[0])) == 0


def test_one_shot_nash_matching_pennies():
    payoffs = np.array([
        [1.0, -1.0, -1.0, 1.0],
        [-1.0, 1.0, 1.0, -1.0],
    ])
    osg = OneShotGame(state=0, n_actions=(2, 2), payoffs=payoffs)
    half = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    ok, regrets = verify_one_shot_nash(osg, half)
    assert ok
    np.testing.assert_allclose(regrets, 0.0, atol=1e-12)


def test_one_shot_nash_dominated_action():
    # action 1 of player 0 dominates action 0 by exactly 0.3
    payoffs = np.array([
        [0.5, 0.5, 0.2, 0.2],
        [0.0, 0.0, 0.0, 0.0],
    ])
    osg = OneShotGame(state=0, n_actions=(2, 2), payoffs=payoffs)
    pure = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
    ok, regrets = verify_one_shot_nash(osg, pure)
    assert not ok
    np.testing.assert_allclose(regrets[0], 0.3, atol=1e-12)


def test_one_shot_nash_single_action():
    osg = OneShotGame(state=0, n_actions=(1, 1), payoffs=np.array([[2.0], [3.0]]))
    ok, regrets = verify_one_shot_nash(osg, [np.ones(1), np.ones(1)])
    assert ok
    np.testing.assert_allclose(regrets, 0.0, atol=1e-15)


def test_consistency_single_player_optimum(trap):
    _, policy = optimal_policy_values(induced_mdp(trap, 0, []))
    report = one_shot_consistency(trap, StationaryProfile((policy,)))
    assert report.flagged == ()
    assert report.consistent_on_support


def test_consistency_flags_shadowed_state():
    game = sample_games.shadowed_state_game()
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    report = one_shot_consistency(game, StationaryProfile((rows,)))
    assert list(report.flagged) == [2]
    assert report.consistent_on_support
    assert abs(report.regrets[0, 2] - 0.5) <= 1e-9


def test_consistency_zero_costs(rng):
    game = zero_cost_game(rng, n_players=1)
    profile = sample_games.random_profile(rng, game)
    report = one_shot_consistency(game, profile)
    assert report.flagged == ()


def test_search_single_player_one_iteration(ctrap):
    result = search_equilibrium(ctrap, SearchConfig(target_epsilon=1e-8))
    assert result.converged
    assert result.certificate.epsilon <= 1e-8
    assert result.iterations == 1


def test_search_decoupled_pair(pair):
    result = search_equilibrium(pair, SearchConfig(target_epsilon=1e-8))
    assert result.converged
    assert result.certificate.epsilon <= 1e-8


@pytest.mark.parametrize("restarts", [0, -5])
def test_search_config_needs_a_restart(restarts):
    # A search with no restart would have no certificate to return.
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        SearchConfig(restarts=restarts)


@pytest.mark.parametrize("max_iterations", [0, -3])
def test_search_config_needs_an_iteration(max_iterations):
    # With no iteration no profile is certified, so there is nothing to return.
    with pytest.raises(ValueError, match="max_iterations must be at least 1"):
        SearchConfig(max_iterations=max_iterations)


@pytest.mark.parametrize("damping", [0.0, -0.5, 1.5, float("nan")])
def test_search_config_damping_is_a_step_fraction(damping):
    # Outside (0, 1] the damped iterate stands still or leaves the simplex.
    with pytest.raises(ValueError, match=r"damping must be in \(0, 1\]"):
        SearchConfig(damping=damping)


def test_search_zero_costs(rng):
    game = zero_cost_game(rng)
    result = search_equilibrium(game, SearchConfig(target_epsilon=0.0))
    assert result.converged
    assert result.certificate.epsilon <= 1e-12


def test_sequence_schedule_and_final_certificate(pair):
    seq = correlated_limit_sequence(pair, 0.2, 2)
    assert len(seq.levels) == 3
    np.testing.assert_allclose(
        [lvl.epsilon_target for lvl in seq.levels], [0.2, 0.1, 0.05])
    np.testing.assert_allclose(
        [lvl.resolution for lvl in seq.levels], [0.1, 0.05, 0.025])
    assert seq.completed
    for lvl in seq.levels:
        assert lvl.certificate.epsilon <= lvl.epsilon_target
    assert seq.final_certificate.passed
    assert seq.final_certificate.epsilon <= 1e-6


def test_sequence_single_level(pair):
    seq = correlated_limit_sequence(pair, 0.2, 0)
    assert len(seq.levels) == 1
    assert seq.levels[0].epsilon_target == 0.2


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


def reference_search(game, config, initial=None):
    """The search as it was before certificates handed back their best
    responses: 3N LPs per iteration, N of them solved again for the damped
    iterate.  Returns the result fields and the number of certified profiles."""
    best = {"profile": None, "cert": None, "converged": False, "certified": 0}
    skipped, iterations, restarts_used = [], 0, 0

    def consider(profile):
        cert = verify_approx_equilibrium(game, profile, config.target_epsilon)
        best["certified"] += 1
        if best["cert"] is None or cert.epsilon < best["cert"].epsilon:
            best["profile"], best["cert"] = profile, cert
        if best["cert"].epsilon <= config.target_epsilon:
            best["converged"] = True

    for restart in range(config.restarts):
        restarts_used = restart + 1
        if restart == 0 and initial is not None:
            profile = initial
        elif restart == 0:
            profile = StationaryProfile(tuple(
                np.full((game.n_states, a), 1.0 / a) for a in game.n_actions))
        else:
            rng = np.random.default_rng([config.seed, restart])
            profile = StationaryProfile(tuple(
                rng.dirichlet(np.ones(a), size=game.n_states) for a in game.n_actions))
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
            consider(StationaryProfile(tuple(
                resp if resp is not None else row
                for resp, row in zip(responses, profile.rows))))
            if best["converged"]:
                break
            damped_rows = tuple(
                row if resp is None else (1.0 - config.damping) * row + config.damping * resp
                for resp, row in zip(responses, profile.rows))
            step = max(float(np.max(np.abs(new - old)))
                       for new, old in zip(damped_rows, profile.rows))
            profile = StationaryProfile(damped_rows)
            consider(profile)
            if best["converged"] or step < 1e-13:
                break
        if best["converged"]:
            break
    return (best["profile"], best["cert"], iterations, restarts_used, best["converged"],
            tuple(skipped)), best["certified"]


def test_search_matches_reference_with_2n_lps(monkeypatch):
    import csgames.equilibrium as equilibrium

    calls = []

    def counted(mdp):
        calls.append(1)
        return constrained_best_response(mdp)

    monkeypatch.setattr(equilibrium, "constrained_best_response", counted)
    any_skipped = any_converged = False
    for k in range(10):
        rng = np.random.default_rng([31, k])
        n_players = 1 + k % 3
        game = sample_games.random_constrained_game(
            rng, n_players=n_players, n_states=2 + k % 3, n_actions=(2,) * n_players,
            slack=-0.1 if k % 4 == 3 else 0.02)
        config = SearchConfig(restarts=2, max_iterations=5, seed=k,
                              target_epsilon=1e-2 if k % 2 else 1e-8)
        expected, certified = reference_search(game, config)
        calls.clear()
        result = search_equilibrium(game, config)
        profile, cert, iterations, restarts_used, converged, skipped = expected
        assert len(result.profile.rows) == len(profile.rows)
        for new, old in zip(result.profile.rows, profile.rows):
            assert np.array_equal(new, old), k
        assert_same_certificate(result.certificate, cert)
        assert (result.iterations, result.restarts_used, result.converged, result.skipped) \
            == (iterations, restarts_used, converged, skipped), k
        assert len(calls) == n_players * (restarts_used + certified), k
        any_skipped |= bool(skipped)
        any_converged |= converged
    assert any_skipped and any_converged


@pytest.mark.parametrize("game", [sample_games.decoupled_pair(),
                                  sample_games.shadowed_state_game()],
                         ids=["pair", "shadowed"])
def test_sequence_levels_are_fresh_certificates(game):
    seq = correlated_limit_sequence(game, 0.2, 2)
    assert seq.levels
    for level in seq.levels:
        assert_same_certificate(
            level.certificate,
            verify_approx_equilibrium(game, level.profile, level.epsilon_target))
