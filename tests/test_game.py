import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgames import (
    CorrelatedStrategy,
    FiniteCSG,
    MarkovStrategy,
    StationaryProfile,
    induced_mdp,
    marginal_excluding,
    product_strategy,
    search_equilibrium,
    validate_game,
    validate_spec,
)
from csgames import equilibrium, sample_games


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
    assert validate_game(ctrap) == ()


def test_validate_names_bad_transition_row(ctrap):
    for value in (0.9, np.nan, np.inf):
        trans = ctrap.transitions.copy()
        trans[0, 0, 0] = value
        issues = validate_game(_with_transitions(ctrap, trans))
        assert issues, value
        assert any("state 0" in issue and "(0,)" in issue for issue in issues), value


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
        issues = validate_game(bad)
        assert issues, value
        assert any("bound" in issue for issue in issues), value


@pytest.mark.parametrize("field, index", [
    ("initial", (0,)),
    ("constraint_bounds", (0, 0)),
    ("cost_bound", None),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_rejects_non_finite(ctrap, field, index, value):
    assert validate_game(_with_entry(ctrap, field, index, value))


def test_validate_random_games_clean(rng):
    for _ in range(10):
        game = sample_games.random_game(rng, n_players=2, n_states=3)
        assert validate_game(game) == ()


def test_validate_spec_clean(rng):
    spec = sample_games.random_continuous_spec(rng, n_points=9, n_players=2,
                                               n_actions=(2, 2))
    assert validate_spec(spec) == ()


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
    assert validate_spec(_with_entry(spec, field, index, value))


def test_game_arrays_frozen(ctrap):
    with pytest.raises(ValueError):
        ctrap.costs[0, 0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        ctrap.transitions[0, 0, 0] = 0.0


def test_profile_index_round_trip():
    game = sample_games.random_game(np.random.default_rng(3), n_players=3,
                                    n_states=2, n_actions=(2, 3, 2))
    for m in range(game.n_profiles):
        assert np.ravel_multi_index(game.profile_tuple(m), game.n_actions) == m
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


def test_profile_rows_must_be_stochastic():
    with pytest.raises(ValueError):
        StationaryProfile((np.array([[0.5, 0.4]]),))
    with pytest.raises(ValueError):
        StationaryProfile((np.array([[1.2, -0.2]]),))


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0],
                                 [0.5, 0.4], [1.2, -0.2]])
def test_strategies_require_distributions(bad):
    # Checked as `r < -tol` and `|sum - 1| > tol`, a NaN row passed both
    # tests, and a Markov strategy's rows were not checked at all.
    good = np.full((2, 2), 0.5)
    table = np.array([bad, [0.5, 0.5]])
    for build in (lambda: StationaryProfile((good, table)),
                  lambda: CorrelatedStrategy((2,), table),
                  lambda: MarkovStrategy(0, (good,), table),
                  lambda: MarkovStrategy(0, (good, table), good)):
        with pytest.raises(ValueError):
            build()


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


def _grid_spec():
    return sample_games.random_continuous_spec(np.random.default_rng(0), n_points=9, n_players=2,
                                               n_actions=(2, 2))


_HALF = np.full((2, 2), 0.5)


@pytest.mark.parametrize("build, message", [
    (lambda: replace(sample_games.constrained_trap_game(), n_actions=()),
     "n_actions must list a positive count per player"),
    (lambda: replace(sample_games.constrained_trap_game(), initial=np.full(3, 1 / 3)),
     "initial must have shape (2,); got (3,)"),
    (lambda: replace(sample_games.constrained_trap_game(), constraint_bounds=np.zeros((1, 2))),
     "constraint_bounds must have shape (1, 1); got (1, 2)"),
    (lambda: replace(_grid_spec(), points=np.linspace(0.0, 1.0, 8)),
     "points and weights disagree on grid size"),
    (lambda: replace(_grid_spec(), density=np.ones((9, 1, 9))),
     "density must have shape (9, 4, 9); got (9, 1, 9)"),
    (lambda: StationaryProfile(()), "profile needs at least one player"),
    (lambda: StationaryProfile((_HALF, np.full((3, 2), 0.5))),
     "player 1 rows must be (S, A_i); got (3, 2)"),
    (lambda: MarkovStrategy(0, (), np.full(2, 0.5)), "tail must be an (S, A_i) array"),
    (lambda: MarkovStrategy(0, (np.full((3, 2), 0.5),), _HALF),
     "head step 0 has shape (3, 2), tail (2, 2)"),
    (lambda: CorrelatedStrategy((2, 2), _HALF), "table must be (S, 4); got (2, 2)"),
    (lambda: sample_games.decoupled_product(sample_games.decoupled_pair(),
                                            sample_games.trap_game()),
     "decoupled_product takes two single-player games"),
    (lambda: sample_games.decoupled_product(sample_games.trap_game(),
                                            replace(sample_games.trap_game(), discount=0.25)),
     "factors must share the discount"),
    (lambda: sample_games.decoupled_product(sample_games.trap_game(),
                                            sample_games.constrained_trap_game()),
     "factors must share the number of constraint layers"),
], ids=["no-players", "initial-shape", "bounds-shape", "points-weights", "density-shape",
        "empty-profile", "profile-rows", "tail-ndim", "head-shape", "correlated-table",
        "product-players", "product-discount", "product-layers"])
def test_constructors_reject_bad_shapes(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_integer_fields_take_numpy_integers_as_ints(ctrap):
    game = replace(ctrap, n_actions=np.array([2]))
    psi = CorrelatedStrategy((np.int32(2),), _HALF)
    markov = MarkovStrategy(np.int64(0), (), _HALF)
    for value in (*game.n_actions, *psi.n_actions, markov.player):
        assert type(value) is int
    assert (game.n_actions, psi.n_actions, markov.player) == ((2,), (2,), 0)
    with pytest.raises(ValueError, match=re.escape("n_actions entry must be an integer")):
        CorrelatedStrategy((np.bool_(True), 2), _HALF)


def _leaves(obj):
    """The field values of a dataclass, with tuples flattened."""
    return [item for f in fields(obj) for value in [getattr(obj, f.name)]
            for item in (value if isinstance(value, tuple) else (value,))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_players=st.integers(1, 3),
       n_states=st.integers(1, 3), n_layers=st.integers(0, 2))
def test_derived_objects_are_what_the_public_constructors_build(seed, n_players, n_states,
                                                                n_layers):
    # Induced MDPs, product strategies and the search's iterates skip
    # validation; each must be read-only and rebuild through its public
    # constructor unchanged.
    rng = np.random.default_rng(seed)
    game = sample_games.random_constrained_game(
        rng, n_players=n_players, n_states=n_states,
        n_actions=tuple(int(a) for a in rng.integers(1, 4, size=n_players)),
        n_layers=n_layers)
    profile = sample_games.random_profile(rng, game)
    considered = []
    certify = equilibrium._approx_certificate

    def recorded(game, profile, *args, **kwargs):
        considered.append(profile)
        return certify(game, profile, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium, "_approx_certificate", recorded)
        patch.setattr(equilibrium, "MAX_ITERATIONS", 3)
        found = search_equilibrium(game, restarts=1).profile
    mdps = [induced_mdp(game, i, profile.rows[:i] + profile.rows[i + 1:])
            for i in range(n_players)]
    assert any(found is p for p in considered)
    for obj in [*mdps, product_strategy(profile), product_strategy(found), *considered]:
        leaves = _leaves(obj)
        assert not any(a.flags.writeable for a in leaves if isinstance(a, np.ndarray))
        rebuilt = _leaves(type(obj)(**{f.name: getattr(obj, f.name) for f in fields(obj)}))
        assert len(rebuilt) == len(leaves)
        for new, old in zip(rebuilt, leaves):
            assert type(new) is type(old)
            if isinstance(old, np.ndarray):
                assert new.dtype == old.dtype and np.array_equal(new, old)
            else:
                assert new == old
    for mdp in mdps:
        assert validate_game(mdp) == ()
