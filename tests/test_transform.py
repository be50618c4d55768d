import re
from dataclasses import replace

import numpy as np
import pytest

from csgames import (
    FiniteCSG,
    Partition,
    StationaryProfile,
    caratheodory_reduce,
    cellwise_match,
    evaluate_markov,
    evaluate_profile,
    induced_mdp,
    markov_replacement,
    mix_occupations,
    mixing_weight,
    occupation_measure,
    recover_strategy,
    validate_game,
    wessels_cost_relation,
    wessels_transform,
)
from csgames import sample_games


def random_rows(rng, shape):
    return rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])


# ---------------------------------------------------------------- Caratheodory


def test_caratheodory_three_points_line():
    values = np.array([[0.0], [1.0], [2.0]])
    weights = np.full(3, 1.0 / 3.0)
    cert = caratheodory_reduce(values, weights)
    assert cert.support_size <= 2
    target = cert.weights @ values[cert.indices]
    np.testing.assert_allclose(target, [1.0], atol=1e-12)
    np.testing.assert_allclose(cert.target, [1.0], atol=1e-12)


def test_caratheodory_point_mass():
    values = np.array([[0.3, 1.0], [0.7, -1.0]])
    weights = np.array([0.0, 1.0])
    cert = caratheodory_reduce(values, weights)
    assert cert.support_size == 1
    assert cert.indices[0] == 1
    np.testing.assert_allclose(cert.weights, [1.0], atol=1e-15)


def test_caratheodory_rejects_nan():
    with pytest.raises(ValueError):
        caratheodory_reduce(np.array([[0.3, 1.0], [0.7, -1.0]]), np.array([np.nan, 1.0]))
    with pytest.raises(RuntimeError):
        caratheodory_reduce(np.array([[np.nan, 1.0]]), np.array([1.0]))


def test_caratheodory_constant_values():
    values = np.tile([0.4, 0.2], (6, 1))
    weights = np.full(6, 1.0 / 6.0)
    cert = caratheodory_reduce(values, weights)
    assert cert.support_size == 1
    np.testing.assert_allclose(cert.target, [0.4, 0.2], atol=1e-15)


def test_caratheodory_gives_negative_weights_no_mass():
    # Weights are held to ROW_SUM_TOL, as every probability input is; a
    # negative entry that passes gets no mass, and the target is the mean of
    # the rest.  The weights were refused unless every entry was >= 0.
    values = np.array([[0.0, 1.0], [1.0, 0.0], [5.0, 5.0]])
    cert = caratheodory_reduce(values, np.array([0.25 + 1e-10, 0.75, -1e-10]))
    assert 2 not in cert.indices and abs(cert.weights.sum() - 1.0) <= 1e-15
    np.testing.assert_allclose(cert.target, [0.75, 0.25], atol=1e-9)
    np.testing.assert_allclose(cert.weights @ values[cert.indices], cert.target, atol=1e-15)
    with pytest.raises(ValueError, match="weights must be a probability vector"):
        caratheodory_reduce(values, np.array([0.25 + 1e-8, 0.75, -1e-8]))


def test_caratheodory_random_instances(rng):
    for _ in range(60):
        k = int(rng.integers(2, 12))
        d = int(rng.integers(1, 4))
        values = rng.uniform(-1.0, 1.0, size=(k, d))
        weights = rng.dirichlet(np.ones(k))
        cert = caratheodory_reduce(values, weights)
        assert cert.support_size <= d + 1
        assert np.all(cert.weights >= 0.0)
        assert abs(cert.weights.sum() - 1.0) <= 1e-10
        direct = weights @ values
        reduced = cert.weights @ values[cert.indices]
        np.testing.assert_allclose(reduced, direct, atol=1e-10)


# -------------------------------------------------------------- cellwise match


def two_state_cell():
    return Partition(resolution=1.0, cells=(np.array([0, 1]),),
                     representatives=np.array([0]))


def test_cellwise_match_identity_when_constant():
    partition = two_state_cell()
    payoffs = np.array([[[0.2, 0.8], [0.2, 0.8]]])
    strategy = np.array([[0.6, 0.4], [0.6, 0.4]])
    rho = np.array([0.3, 0.7])
    f = cellwise_match(partition, payoffs, rho, strategy)
    np.testing.assert_allclose(f, strategy, atol=1e-12)


def test_cellwise_match_no_payoff_rows():
    # With d = 0 there is no integral to keep: each cell takes one member's row.
    partition = two_state_cell()
    strategy = np.array([[0.6, 0.4], [0.1, 0.9]])
    f = cellwise_match(partition, np.zeros((0, 2, 2)), np.array([0.3, 0.7]), strategy)
    np.testing.assert_allclose(f, np.tile(strategy[0], (2, 1)), atol=1e-12)


def test_cellwise_match_rejects_nan_payoffs():
    # `ptp > 1e-9` is False for NaN, which then failed inside caratheodory_reduce.
    payoffs = np.array([[[0.2, np.nan], [0.2, 0.8]]])
    with pytest.raises(ValueError, match="payoff table"):
        cellwise_match(two_state_cell(), payoffs, np.array([0.5, 0.5]), np.full((2, 2), 0.5))


def test_cellwise_match_two_states_hand():
    # one cell, two states, one payoff layer linear in the action probability
    partition = two_state_cell()
    payoffs = np.array([[[0.0, 1.0], [0.0, 1.0]]])
    strategy = np.array([[1.0, 0.0], [0.0, 1.0]])
    rho = np.array([0.25, 0.75])
    f = cellwise_match(partition, payoffs, rho, strategy)
    # integral of payoff: 0.25 * 0 + 0.75 * 1 = 0.75, so P(action 1) = 0.75
    np.testing.assert_allclose(f[0], [0.25, 0.75], atol=1e-10)
    np.testing.assert_allclose(f[0], f[1], atol=1e-15)


def test_cellwise_match_point_mass_copies():
    partition = two_state_cell()
    payoffs = np.array([[[0.1, 0.9], [0.1, 0.9]]])
    strategy = np.array([[0.3, 0.7], [0.9, 0.1]])
    rho = np.array([0.0, 1.0])
    f = cellwise_match(partition, payoffs, rho, strategy)
    np.testing.assert_allclose(f[0], strategy[1], atol=1e-12)
    np.testing.assert_allclose(f[1], strategy[1], atol=1e-12)


def test_cellwise_match_massless_cell_is_uniform():
    # A cell the distribution does not reach has no integral to keep: its
    # members play the uniform row, and the other cell is matched as usual.
    partition = Partition(resolution=1.0, cells=(np.array([0, 1]), np.array([2, 3])),
                          representatives=np.array([0, 2]))
    strategy = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0]])
    payoffs = np.tile([0.0, 1.0, 2.0], (1, 4, 1))
    f = cellwise_match(partition, payoffs, np.array([0.25, 0.75, 0.0, 0.0]), strategy)
    np.testing.assert_array_equal(f[2:], np.full((2, 3), 1.0 / 3.0))
    np.testing.assert_allclose(f[:2], np.tile([0.25, 0.75, 0.0], (2, 1)), atol=1e-12)


def test_cellwise_match_preserves_integrals(rng):
    for _ in range(20):
        n_states, n_actions, d = 5, 3, 2
        cells = (np.array([0, 1, 2]), np.array([3, 4]))
        partition = Partition(resolution=1.0, cells=cells,
                              representatives=np.array([0, 3]))
        payoffs = rng.uniform(-1.0, 1.0, size=(d, 1, n_actions))
        payoffs = np.repeat(payoffs, n_states, axis=1)
        strategy = random_rows(rng, (n_states, n_actions))
        rho = rng.dirichlet(np.ones(n_states))
        f = cellwise_match(partition, payoffs, rho, strategy)
        for cell in cells:
            mass = rho[cell].sum()
            if mass <= 1e-12:
                continue
            want = np.einsum("x,dxa,xa->d", rho[cell], payoffs[:, cell], strategy[cell])
            got = np.einsum("x,dxa,xa->d", rho[cell], payoffs[:, cell], f[cell])
            np.testing.assert_allclose(got, want, atol=1e-10)
        # constant on each cell
        for cell in cells:
            np.testing.assert_allclose(f[cell], np.tile(f[cell[0]], (cell.size, 1)),
                                       atol=1e-12)


# ------------------------------------------------------------ markov replacement


def test_replacement_identity_when_piecewise_constant(rng):
    game, partition = sample_games.random_cell_constant_game(rng, n_cells=3)
    rows = random_rows(rng, (partition.n_cells, game.n_actions[0]))
    strategy = rows[partition.cell_of]
    rep = markov_replacement(game, partition, 0, [], strategy, horizon=4)
    for step in rep.head:
        np.testing.assert_allclose(step, strategy, atol=1e-10)


def test_replacement_matches_all_layers(rng):
    for _ in range(5):
        game, partition = sample_games.random_cell_constant_game(
            rng, n_cells=3, n_layers=2)
        strategy = random_rows(rng, (game.n_states, game.n_actions[0]))
        horizon = 5
        rep = markov_replacement(game, partition, 0, [], strategy, horizon)
        got = evaluate_markov(game, [], rep).J
        want = evaluate_profile(game, StationaryProfile((strategy,))).J
        np.testing.assert_allclose(got, want, atol=horizon * 1e-9)


def test_replacement_takes_every_game_validation_accepts():
    # An initial distribution with an entry of -1e-10 passes validate_game;
    # the head's cell weights inherit it, and caratheodory_reduce refused them.
    game, partition = sample_games.random_cell_constant_game(
        np.random.default_rng(5), n_cells=3, n_players=1, n_actions=(2,))
    initial = game.initial.copy()
    initial[0] += initial[1] + 1e-10
    initial[1] = -1e-10
    game = replace(game, initial=initial)
    assert validate_game(game) == ()
    strategy = np.full((game.n_states, 2), 0.5)
    rep = markov_replacement(game, partition, 0, [], strategy, 3)
    np.testing.assert_allclose(evaluate_markov(game, [], rep).J,
                               evaluate_profile(game, StationaryProfile((strategy,))).J,
                               atol=3e-9)


def test_replacement_head_is_piecewise_constant(rng):
    game, partition = sample_games.random_cell_constant_game(rng, n_cells=4)
    strategy = random_rows(rng, (game.n_states, game.n_actions[0]))
    rep = markov_replacement(game, partition, 0, [], strategy, horizon=3)
    for step in rep.head:
        for cell in partition.cells:
            np.testing.assert_allclose(step[cell],
                                       np.tile(step[cell[0]], (cell.size, 1)),
                                       atol=1e-12)


def test_replacement_tail_bound(rng):
    game, partition = sample_games.random_cell_constant_game(rng, n_cells=2)
    strategy = random_rows(rng, (game.n_states, game.n_actions[0]))
    rep = markov_replacement(game, partition, 0, [], strategy, horizon=6)
    assert abs(rep.tail_bound
               - game.discount ** 6 * 2.0 * game.cost_bound) <= 1e-15


def test_replacement_rejects_non_constant_game(rng, ctrap):
    partition = Partition(resolution=1.0, cells=(np.array([0, 1]),),
                          representatives=np.array([0]))
    strategy = random_rows(rng, (2, 2))
    with pytest.raises(ValueError):
        markov_replacement(ctrap, partition, 0, [], strategy, horizon=2)


# ------------------------------------------------------------------- mixing


def test_mix_occupations_endpoints_and_average():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(mix_occupations(a, b, 1.0), a)
    np.testing.assert_allclose(mix_occupations(a, b, 0.0), b)
    np.testing.assert_allclose(mix_occupations(a, b, 0.5), 0.5 * (a + b))
    assert not mix_occupations(a, b, 0.5).flags.writeable


def test_mix_trap_constraint_cost(ctrap):
    mdp = induced_mdp(ctrap, 0, [])
    theta1 = occupation_measure(mdp, sample_games.trap_profile(0.0).rows[0])
    theta2 = occupation_measure(mdp, sample_games.trap_profile(1.0).rows[0])
    mixed = mix_occupations(theta2, theta1, 0.5)
    sigma = recover_strategy(mixed)
    j = evaluate_profile(ctrap, StationaryProfile((sigma,))).J[0]
    assert abs(j[1] - 0.5) <= 1e-10


def test_mixed_occupation_costs_are_linear(rng):
    game = sample_games.random_game(rng, n_players=1, n_states=3,
                                    n_actions=(2,), n_layers=1)
    mdp = induced_mdp(game, 0, [])
    pa = sample_games.random_profile(rng, game).rows[0]
    pb = sample_games.random_profile(rng, game).rows[0]
    ta = occupation_measure(mdp, pa)
    tb = occupation_measure(mdp, pb)
    ja = evaluate_profile(game, StationaryProfile((pa,))).J[0]
    jb = evaluate_profile(game, StationaryProfile((pb,))).J[0]
    for xi in (0.0, 0.25, 0.6, 1.0):
        mixed = mix_occupations(ta, tb, xi)
        sigma = recover_strategy(mixed)
        j = evaluate_profile(game, StationaryProfile((sigma,))).J[0]
        np.testing.assert_allclose(j, xi * ja + (1.0 - xi) * jb, atol=1e-9)


def test_mixing_weight_values():
    assert abs(mixing_weight(0.1, 0.05, 0.5) - 0.15 / 0.55) <= 1e-15
    assert mixing_weight(1e-9, 1e-9, 0.5) <= 1e-8
    assert abs(mixing_weight(0.49, 0.0, 0.5) - 0.98) <= 1e-15


def test_mixing_weight_domain():
    with pytest.raises(ValueError):
        mixing_weight(0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        mixing_weight(-0.1, 0.0, 0.5)
    for args in ((np.nan, 0.0, 0.5), (0.1, np.nan, 0.5), (0.1, 0.0, np.nan)):
        with pytest.raises(ValueError):
            mixing_weight(*args)


# ------------------------------------------------------------------- Wessels


def test_wessels_constant_weight_masses(ctrap):
    wg = wessels_transform(ctrap, np.array([2.0, 2.0]), 1.2)
    trans = wg.game.transitions
    assert wg.game.n_states == 3
    # every original row sends 1 - 1/1.2 to the absorbing state
    np.testing.assert_allclose(trans[:2, :, 2], 1.0 - 1.0 / 1.2, atol=1e-12)
    np.testing.assert_allclose(trans[2, :, 2], 1.0, atol=1e-15)
    np.testing.assert_allclose(wg.game.costs[:, :, 2, :], 0.0, atol=1e-15)


def test_wessels_near_identity(ctrap):
    wg = wessels_transform(ctrap, np.ones(2), 1.0 + 1e-9)
    np.testing.assert_allclose(wg.game.transitions[:2, :, 2], 0.0, atol=2e-9)
    np.testing.assert_allclose(
        wg.game.transitions[:2, :, :2], ctrap.transitions, atol=2e-9)


def uneven_weight_game(rng, n_players=1, discount=0.4):
    """Two states weighted (1, 3), kernel rows built to respect the growth
    budget sum omega * p <= 2 * omega(x)."""
    n_actions = (2,) * n_players
    n_profiles = int(np.prod(n_actions))
    transitions = np.empty((2, n_profiles, 2))
    # at state 0 the budget caps the state-1 mass at 1/2
    t0 = rng.uniform(0.0, 0.5, size=n_profiles)
    transitions[0, :, 1] = t0
    transitions[0, :, 0] = 1.0 - t0
    transitions[1] = random_rows(rng, (n_profiles, 2))
    costs = rng.uniform(-1.0, 1.0, size=(n_players, 2, 2, n_profiles))
    return FiniteCSG(
        n_actions=n_actions,
        costs=costs,
        transitions=transitions,
        discount=discount,
        initial=np.array([0.7, 0.3]),
        constraint_bounds=rng.uniform(0.0, 1.0, size=(n_players, 1)),
        cost_bound=1.0,
    )


def test_wessels_hand_kernel(rng):
    game = uneven_weight_game(rng)
    omega = np.array([1.0, 3.0])
    beta = 2.0
    wg = wessels_transform(game, omega, beta)
    for s in range(2):
        for m in range(2):
            row = game.transitions[s, m] * omega / (beta * omega[s])
            np.testing.assert_allclose(wg.game.transitions[s, m, :2], row,
                                       atol=1e-12)
            np.testing.assert_allclose(wg.game.transitions[s, m, 2],
                                       1.0 - row.sum(), atol=1e-12)
    assert abs(wg.game.discount - 0.8) <= 1e-15


def test_wessels_rejects_bad_parameters(ctrap):
    with pytest.raises(ValueError):
        wessels_transform(ctrap, np.ones(2), 0.9)
    with pytest.raises(ValueError):
        wessels_transform(ctrap, np.array([0.5, 1.0]), 1.2)
    with pytest.raises(ValueError):
        wessels_transform(ctrap, np.ones(2), 2.1)  # alpha*beta >= 1


def test_wessels_rejects_kernel_growth(ctrap):
    # Action 1 moves state 0 to state 1: sum omega * p = 3 > beta * omega(0) = 1.5.
    with pytest.raises(ValueError,
                       match=r"kernel growth violated at \(state 0, profile \(1,\)\)"):
        wessels_transform(ctrap, [1, 3], 1.5)


def test_wessels_relation_constant_weight(ctrap):
    for q in (0.0, 0.3, 0.75, 1.0):
        report = wessels_cost_relation(ctrap, np.full(2, 2.0), 1.5,
                                       sample_games.trap_profile(q))
        assert report.passed
        assert report.max_error <= 1e-10


def test_wessels_relation_varying_weight(rng):
    game = uneven_weight_game(rng, n_players=2)
    omega = np.array([1.0, 3.0])
    for _ in range(20):
        profile = sample_games.random_profile(rng, game)
        report = wessels_cost_relation(game, omega, 2.0, profile)
        assert report.passed
        assert report.max_error <= 1e-8


def test_wessels_zero_costs(rng):
    game = sample_games.random_game(rng, n_players=1, n_states=2,
                                    n_actions=(2,), n_layers=0, discount=0.5)
    zero = FiniteCSG(
        n_actions=game.n_actions,
        costs=np.zeros_like(game.costs),
        transitions=game.transitions,
        discount=game.discount,
        initial=game.initial,
        constraint_bounds=game.constraint_bounds,
        cost_bound=1.0,
    )
    report = wessels_cost_relation(zero, np.array([1.0, 2.0]), 1.8,
                                   sample_games.trap_profile(0.5))
    assert report.passed
    assert report.max_error <= 1e-14


@pytest.mark.parametrize("build, message", [
    (lambda: caratheodory_reduce(np.zeros(3), np.full(3, 1 / 3)),
     "values must be (K, d) with one weight per row"),
    (lambda: caratheodory_reduce(np.zeros((3, 1)), np.full(2, 0.5)),
     "values must be (K, d) with one weight per row"),
    (lambda: caratheodory_reduce(np.zeros((2, 1)), np.array([0.5, 0.6])),
     "weights must be a probability vector"),
    (lambda: cellwise_match(two_state_cell(), np.zeros((2, 2)), np.full(2, 0.5),
                            np.full((2, 2), 0.5)),
     "payoffs must be (d, S, A) over the partition's grid"),
    (lambda: cellwise_match(two_state_cell(), np.zeros((1, 3, 2)), np.full(2, 0.5),
                            np.full((2, 2), 0.5)),
     "payoffs must be (d, S, A) over the partition's grid"),
    (lambda: markov_replacement(sample_games.constrained_trap_game(), two_state_cell(), 0, [],
                                np.full((2, 2), 0.5), -1),
     "horizon must be nonnegative"),
    (lambda: mix_occupations(np.zeros((2, 2)), np.zeros((2, 2)), 1.5),
     "weight must lie in [0, 1]"),
    (lambda: mix_occupations(np.zeros((2, 2)), np.zeros((2, 3)), 0.5),
     "occupation shapes differ: (2, 2) vs (2, 3)"),
    (lambda: wessels_transform(sample_games.constrained_trap_game(), np.ones(3), 1.5),
     "omega must have shape (2,)"),
], ids=["values-ndim", "weights-count", "weights-sum", "payoffs-ndim", "payoffs-grid",
        "horizon", "mix-weight", "mix-shapes", "omega-shape"])
def test_surgery_guards(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
