from dataclasses import replace

import numpy as np
import pytest

from csgames import (
    CorrelatedStrategy,
    FiniteCSG,
    StationaryProfile,
    marginal_excluding,
    observed_cost_bound,
    product_strategy,
    renormalize,
    validate_game,
    validate_spec,
)
from csgames import sample_games


def _with_transitions(game, transitions):
    return FiniteCSG(
        n_actions=game.n_actions,
        costs=game.costs,
        transitions=transitions,
        discount=game.discount,
        initial=game.initial,
        constraint_bounds=game.constraint_bounds,
        cost_bound=game.cost_bound,
    )


def _with_entry(obj, field, index, value):
    """Copy of a game or spec with one array entry, or with index None the
    scalar field itself, set to value."""
    if index is not None:
        table = getattr(obj, field).copy()
        table[index] = value
        value = table
    return replace(obj, **{field: value})


def test_validate_clean_fixture(ctrap):
    report = validate_game(ctrap)
    assert report.ok
    assert report.issues == ()


def test_validate_names_bad_transition_row(ctrap):
    for value in (0.9, np.nan, np.inf):
        trans = ctrap.transitions.copy()
        trans[0, 0, 0] = value
        report = validate_game(_with_transitions(ctrap, trans))
        assert not report.ok, value
        assert any("state 0" in issue and "(0,)" in issue for issue in report.issues), value


def test_validate_names_cost_bound_violation(ctrap):
    for value in (2.0 * ctrap.cost_bound, np.nan, -np.inf):
        costs = ctrap.costs.copy()
        costs[0, 0, 1, 1] = value
        bad = FiniteCSG(
            n_actions=ctrap.n_actions,
            costs=costs,
            transitions=ctrap.transitions,
            discount=ctrap.discount,
            initial=ctrap.initial,
            constraint_bounds=ctrap.constraint_bounds,
            cost_bound=ctrap.cost_bound,
        )
        report = validate_game(bad)
        assert not report.ok, value
        assert any("bound" in issue for issue in report.issues), value


@pytest.mark.parametrize("field, index", [
    ("initial", (0,)),
    ("constraint_bounds", (0, 0)),
    ("cost_bound", None),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_rejects_non_finite(ctrap, field, index, value):
    assert not validate_game(_with_entry(ctrap, field, index, value)).ok


def test_validate_random_games_clean(rng):
    for _ in range(10):
        game = sample_games.random_game(rng, n_players=2, n_states=3)
        assert validate_game(game).ok


def test_validate_spec_clean(rng):
    spec = sample_games.random_continuous_spec(rng, n_points=9, n_players=2,
                                               n_actions=(2, 2))
    assert validate_spec(spec).ok


@pytest.mark.parametrize("field, index", [
    ("costs", (0, 0, 3, 1)),
    ("density", (2, 0, 4)),
    ("weights", (5,)),
    ("initial", (1,)),
    ("constraint_bounds", (1, 0)),
    ("cost_bound", None),
])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_spec_rejects_non_finite(rng, field, index, value):
    spec = sample_games.random_continuous_spec(rng, n_points=9, n_players=2,
                                               n_actions=(2, 2), n_layers=1)
    assert not validate_spec(_with_entry(spec, field, index, value)).ok


def test_game_arrays_frozen(ctrap):
    with pytest.raises(ValueError):
        ctrap.costs[0, 0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        ctrap.transitions[0, 0, 0] = 0.0


def test_profile_index_round_trip():
    game = sample_games.random_game(np.random.default_rng(3), n_players=3,
                                    n_states=2, n_actions=(2, 3, 2))
    for m in range(game.n_profiles):
        assert game.profile_index(game.profile_tuple(m)) == m
    # row-major: last player's action varies fastest
    assert game.profile_tuple(0) == (0, 0, 0)
    assert game.profile_tuple(1) == (0, 0, 1)


def test_product_uniform_two_players():
    rows = np.full((1, 2), 0.5)
    psi = product_strategy(StationaryProfile((rows, rows)))
    np.testing.assert_allclose(psi.table, [[0.25, 0.25, 0.25, 0.25]])


def test_product_deterministic_is_point_mass():
    r1 = np.array([[0.0, 1.0]])
    r2 = np.array([[1.0, 0.0]])
    psi = product_strategy(StationaryProfile((r1, r2)))
    np.testing.assert_allclose(psi.table, [[0.0, 0.0, 1.0, 0.0]])


def test_product_mixed_times_pure():
    r1 = np.array([[0.75, 0.25]])
    r2 = np.array([[1.0, 0.0]])
    psi = product_strategy(StationaryProfile((r1, r2)))
    np.testing.assert_allclose(psi.table, [[0.75, 0.0, 0.25, 0.0]])


def test_marginal_of_product_recovers_factors(rng):
    for _ in range(5):
        game = sample_games.random_game(rng, n_players=3, n_states=2,
                                        n_actions=(2, 2, 3))
        profile = sample_games.random_profile(rng, game)
        psi = product_strategy(profile)
        for i in range(3):
            others = [r for j, r in enumerate(profile.rows) if j != i]
            expected = product_strategy(StationaryProfile(tuple(others))).table
            np.testing.assert_allclose(marginal_excluding(psi, i), expected,
                                       atol=1e-12)


def test_marginal_of_point_mass():
    psi = CorrelatedStrategy((2, 2), np.array([[0.0, 0.0, 1.0, 0.0]]))
    np.testing.assert_allclose(marginal_excluding(psi, 0), [[1.0, 0.0]])
    np.testing.assert_allclose(marginal_excluding(psi, 1), [[0.0, 1.0]])


def test_marginal_hand_value():
    psi = CorrelatedStrategy((2, 2), np.array([[0.1, 0.2, 0.3, 0.4]]))
    np.testing.assert_allclose(marginal_excluding(psi, 1), [[0.3, 0.7]])
    # excluding player 0 sums over the first axis of the (a, b) table
    np.testing.assert_allclose(marginal_excluding(psi, 0), [[0.4, 0.6]])


def test_observed_cost_bound(ctrap):
    zero = FiniteCSG(
        n_actions=ctrap.n_actions,
        costs=np.zeros_like(ctrap.costs),
        transitions=ctrap.transitions,
        discount=ctrap.discount,
        initial=ctrap.initial,
        constraint_bounds=ctrap.constraint_bounds,
        cost_bound=ctrap.cost_bound,
    )
    assert observed_cost_bound(zero) == 0.0
    assert observed_cost_bound(ctrap) == 1.0
    tripled = FiniteCSG(
        n_actions=ctrap.n_actions,
        costs=3.0 * ctrap.costs,
        transitions=ctrap.transitions,
        discount=ctrap.discount,
        initial=ctrap.initial,
        constraint_bounds=ctrap.constraint_bounds,
        cost_bound=3.0 * ctrap.cost_bound,
    )
    assert observed_cost_bound(tripled) == 3.0 * observed_cost_bound(ctrap)


def test_profile_rows_must_be_stochastic():
    with pytest.raises(ValueError):
        StationaryProfile((np.array([[0.5, 0.4]]),))
    with pytest.raises(ValueError):
        StationaryProfile((np.array([[1.2, -0.2]]),))


def test_profile_replace(ctrap):
    profile = sample_games.trap_profile(0.75)
    new = profile.replace(0, np.tile([0.5, 0.5], (2, 1)))
    np.testing.assert_allclose(new.rows[0][:, 0], 0.5)
    np.testing.assert_allclose(profile.rows[0][0, 0], 0.75)


def test_renormalize_fixes_drift(ctrap):
    trans = ctrap.transitions * 0.999
    drifted = _with_transitions(ctrap, trans)
    assert not validate_game(drifted).ok
    fixed = renormalize(drifted)
    assert validate_game(fixed).ok
    np.testing.assert_allclose(fixed.transitions.sum(axis=2), 1.0, atol=1e-15)


def test_shape_mismatch_raises(ctrap):
    with pytest.raises(ValueError):
        FiniteCSG(
            n_actions=(2,),
            costs=ctrap.costs[:, :, :, :1],
            transitions=ctrap.transitions,
            discount=ctrap.discount,
            initial=ctrap.initial,
            constraint_bounds=ctrap.constraint_bounds,
            cost_bound=ctrap.cost_bound,
        )
