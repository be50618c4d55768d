from dataclasses import replace

import numpy as np
import pytest

from csgames import (
    FiniteCSG,
    StationaryProfile,
    constrained_best_response,
    evaluate_policy,
    evaluate_profile,
    feasibility,
    induced_mdp,
    occupation_measure,
    optimal_policy_values,
    recover_strategy,
    slater_margin,
    slater_scan,
)
from csgames import sample_games


def value_iteration(mdp, layer=0, sweeps=20000, tol=1e-13):
    """Plain Bellman iteration on the normalized objective; oracle for the
    LP and policy-iteration paths."""
    v = np.zeros(mdp.n_states)
    for _ in range(sweeps):
        q = (1.0 - mdp.discount) * mdp.costs[layer] + mdp.discount * mdp.kernel @ v
        nxt = q.min(axis=1)
        if np.max(np.abs(nxt - v)) < tol:
            return nxt
        v = nxt
    return v


def test_occupation_absorbing_point_mass():
    game = FiniteCSG(
        n_actions=(1,),
        costs=np.zeros((1, 1, 1, 1)),
        transitions=np.ones((1, 1, 1)),
        discount=0.5,
        initial=np.array([1.0]),
        constraint_bounds=np.zeros((1, 0)),
        cost_bound=1.0,
    )
    mdp = induced_mdp(game, 0, [])
    theta = occupation_measure(mdp, np.ones((1, 1)))
    np.testing.assert_allclose(theta.table, [[1.0]], atol=1e-14)


def test_occupation_symmetric_chain():
    transitions = np.array([
        [[0.5, 0.5], [0.5, 0.5]],
        [[0.5, 0.5], [0.5, 0.5]],
    ])
    game = FiniteCSG(
        n_actions=(2,),
        costs=np.zeros((1, 1, 2, 2)),
        transitions=transitions,
        discount=0.5,
        initial=np.array([0.5, 0.5]),
        constraint_bounds=np.zeros((1, 0)),
        cost_bound=1.0,
    )
    mdp = induced_mdp(game, 0, [])
    theta = occupation_measure(mdp, np.full((2, 2), 0.5))
    np.testing.assert_allclose(theta.table, 0.25, atol=1e-14)


def test_occupation_mass_and_costs(rng):
    for _ in range(10):
        game = sample_games.random_game(rng, n_players=1, n_states=4,
                                        n_actions=(3,), n_layers=1)
        profile = sample_games.random_profile(rng, game)
        mdp = induced_mdp(game, 0, [])
        theta = occupation_measure(mdp, profile.rows[0])
        assert abs(theta.mass - 1.0) <= 1e-10
        values = mdp.costs.reshape(2, -1) @ theta.table.reshape(-1)
        np.testing.assert_allclose(values, evaluate_profile(game, profile).J[0],
                                   atol=1e-10)


def test_recover_uniform_row():
    theta = np.array([[0.25, 0.25], [0.5, 0.0]])
    sigma = recover_strategy(theta)
    np.testing.assert_allclose(sigma, [[0.5, 0.5], [1.0, 0.0]])


def test_recover_unvisited_state_uniform():
    theta = np.array([[1.0, 0.0], [0.0, 0.0]])
    sigma = recover_strategy(theta)
    np.testing.assert_allclose(sigma[1], [0.5, 0.5])


def test_recover_round_trip(rng):
    for _ in range(10):
        game = sample_games.random_game(rng, n_players=1, n_states=3,
                                        n_actions=(3,))
        profile = sample_games.random_profile(rng, game)
        mdp = induced_mdp(game, 0, [])
        theta = occupation_measure(mdp, profile.rows[0])
        sigma = recover_strategy(theta.table)
        visited = theta.state_masses() > 1e-9
        np.testing.assert_allclose(sigma[visited], profile.rows[0][visited],
                                   atol=1e-9)


def test_unconstrained_lp_matches_value_iteration(rng):
    for _ in range(10):
        game = sample_games.random_game(rng, n_players=1, n_states=4,
                                        n_actions=(3,), n_layers=0)
        mdp = induced_mdp(game, 0, [])
        result = constrained_best_response(mdp)
        oracle = value_iteration(mdp) @ mdp.initial
        assert abs(result.value - oracle) <= 1e-8


def test_trap_constrained_optimum(ctrap):
    result = constrained_best_response(induced_mdp(ctrap, 0, []))
    assert result.status == "optimal"
    assert abs(result.value - 0.4) <= 1e-6
    assert abs(result.layer_values[1] - 0.6) <= 1e-6
    assert abs(result.strategy[0, 0] - 0.75) <= 1e-4


def test_impossible_budget_is_infeasible(ctrap):
    mdp = induced_mdp(ctrap, 0, [])
    result = constrained_best_response(mdp, bounds=np.array([-1.0]))
    assert result.status == "infeasible"
    assert not result.feasible
    assert np.isnan(result.value)


def test_lp_never_beaten_by_strategy_grid(rng):
    # The LP optimum over occupation measures cannot be improved by any
    # stationary strategy on a feasibility-checked grid.
    for _ in range(5):
        game = sample_games.random_constrained_game(rng, n_states=2,
                                                    n_actions=(2,), slack=0.05)
        mdp = induced_mdp(game, 0, [])
        result = constrained_best_response(mdp)
        assert result.feasible
        qs = np.linspace(0.0, 1.0, 101)
        best = np.inf
        for q0 in qs:
            for q1 in qs:
                rows = np.array([[q0, 1.0 - q0], [q1, 1.0 - q1]])
                j = evaluate_profile(game, StationaryProfile((rows,))).J[0]
                if j[1] <= game.constraint_bounds[0, 0] and j[0] < best:
                    best = j[0]
        assert result.value <= best + 1e-6


def test_feasibility_cases(ctrap):
    mdp = induced_mdp(ctrap, 0, [])
    ok, witness = feasibility(mdp)
    assert ok
    j = evaluate_profile(ctrap, StationaryProfile((witness,))).J[0]
    assert j[1] <= ctrap.constraint_bounds[0, 0] + 1e-9
    always, _ = feasibility(mdp, bounds=np.array([1.0]))
    assert always
    impossible, none = feasibility(mdp, bounds=np.array([-0.1]))
    assert not impossible
    assert none is None


def test_slater_margin_trap(ctrap):
    result = slater_margin(induced_mdp(ctrap, 0, []))
    assert abs(result.margin - 0.6) <= 1e-8
    j = evaluate_profile(ctrap, StationaryProfile((result.strategy,))).J[0]
    assert j[1] <= ctrap.constraint_bounds[0, 0] - result.margin + 1e-8


def test_slater_margin_boundary(ctrap):
    # constraint cost identically equal to the budget: zero slack everywhere
    costs = ctrap.costs.copy()
    costs[0, 1] = 0.6
    game = FiniteCSG(
        n_actions=ctrap.n_actions,
        costs=costs,
        transitions=ctrap.transitions,
        discount=ctrap.discount,
        initial=ctrap.initial,
        constraint_bounds=ctrap.constraint_bounds,
        cost_bound=ctrap.cost_bound,
    )
    result = slater_margin(induced_mdp(game, 0, []))
    assert abs(result.margin) <= 1e-9


def test_slater_margin_infeasible_is_negative(ctrap):
    mdp = induced_mdp(ctrap, 0, [])
    result = slater_margin(mdp, bounds=np.array([-0.25]))
    assert result.margin < 0.0
    assert abs(result.margin - (-0.25)) <= 1e-8


def test_slater_margin_unconstrained_is_infinite(trap):
    result = slater_margin(induced_mdp(trap, 0, []))
    assert result.margin == np.inf


def test_slater_scan_single_player(ctrap):
    scan = slater_scan(ctrap, 0, [[]])
    assert scan.margins.shape == (1,)
    base = slater_margin(induced_mdp(ctrap, 0, []))
    np.testing.assert_allclose(scan.worst, base.margin, atol=1e-10)


def test_slater_scan_decoupled_constant(pair, rng):
    samples = [[sample_games.random_profile(rng, pair).rows[1]]
               for _ in range(4)]
    scan = slater_scan(pair, 0, samples)
    np.testing.assert_allclose(scan.margins, scan.margins[0], atol=1e-8)


def test_slater_scan_vacuous_budget(rng):
    game = sample_games.random_game(rng, n_players=2, n_states=2, n_layers=1)
    vacuous = FiniteCSG(
        n_actions=game.n_actions,
        costs=np.concatenate([game.costs[:, :1],
                              np.zeros_like(game.costs[:, 1:])], axis=1),
        transitions=game.transitions,
        discount=game.discount,
        initial=game.initial,
        constraint_bounds=np.ones((2, 1)),
        cost_bound=game.cost_bound,
    )
    for player in range(2):
        other = 1 - player
        samples = [[sample_games.random_profile(rng, vacuous).rows[other]]
                   for _ in range(3)]
        scan = slater_scan(vacuous, player, samples)
        np.testing.assert_allclose(scan.margins, 1.0, atol=1e-9)


def test_optimal_policy_values_match_value_iteration(rng):
    for _ in range(8):
        game = sample_games.random_game(rng, n_players=1, n_states=5,
                                        n_actions=(3,), n_layers=0)
        mdp = induced_mdp(game, 0, [])
        values, policy = optimal_policy_values(mdp)
        np.testing.assert_allclose(values, value_iteration(mdp), atol=1e-9)
        _, jx = evaluate_policy(mdp, policy)
        np.testing.assert_allclose(jx[0], values, atol=1e-9)


def test_flow_residuals_reported(ctrap):
    result = constrained_best_response(induced_mdp(ctrap, 0, []))
    assert result.residuals["flow_balance"] <= 1e-9
    assert result.residuals["mass"] <= 1e-9


def test_feasibility_best_response_and_slater_agree(rng):
    # Budgets sit a random slack away from a random witness's costs, often
    # below anything a strategy can reach; the feasibility test, the best
    # response and the Slater margin must agree on whether they can be met.
    seen = set()
    for _ in range(30):
        n_players = int(rng.integers(1, 3))
        game = sample_games.random_constrained_game(
            rng, n_players=n_players, n_states=int(rng.integers(2, 6)),
            n_actions=tuple(int(a) for a in rng.integers(2, 4, size=n_players)),
            n_layers=int(rng.integers(1, 3)), slack=float(rng.uniform(-0.4, 0.1)))
        others = sample_games.random_profile(rng, game).rows[1:]
        mdp = induced_mdp(game, 0, others)
        feasible = feasibility(mdp)[0]
        assert constrained_best_response(mdp).feasible == feasible
        assert (slater_margin(mdp).margin >= -1e-9) == feasible
        seen.add(feasible)
    assert seen == {True, False}


@pytest.mark.filterwarnings("ignore")
def test_discounted_solve_rejects_singular_kernel(trap):
    # Kernel rows summing to 1/alpha make I - alpha K singular: the occupation
    # measure and the policy values must refuse it instead of returning NaN.
    mdp = induced_mdp(trap, 0, [])
    bad = replace(mdp, kernel=mdp.kernel / mdp.discount)
    for solve in (occupation_measure, evaluate_policy):
        with pytest.raises(RuntimeError):
            solve(bad, np.full((2, 2), 0.5))
