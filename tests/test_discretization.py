import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgames import discretization
from csgames import (
    ContinuousGameSpec,
    Partition,
    StationaryProfile,
    build_partition,
    check_partition,
    error_bound,
    evaluate_profile,
    grid_game,
    lift_strategy,
    resolution_for,
    surrogate_game,
    surrogate_grid_game,
    verify_approximation_bound,
)
from csgames import sample_games
from csgames.cli import EXIT_OK, _dump, main, spec_to_payload


def random_rows(rng, shape):
    return rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])


def flat_spec(n_points=7, discount=0.5):
    """State-independent costs and density: every point matches point 0."""
    points = np.linspace(0.0, 1.0, n_points)
    weights = np.full(n_points, 1.0 / n_points)
    density = np.ones((n_points, 2, n_points))
    costs = np.tile(np.array([0.25, -0.5]), (1, 1, n_points, 1))
    return ContinuousGameSpec(
        n_actions=(2,),
        points=points,
        weights=weights,
        density=density,
        costs=costs,
        discount=discount,
        initial=weights.copy(),
        constraint_bounds=np.zeros((1, 0)),
        cost_bound=1.0,
    )


def test_error_bound_values():
    assert error_bound(0.0, 0.5, 1.0) == 0.0
    assert abs(error_bound(0.1, 0.5, 1.0) - 0.2) <= 1e-15
    assert abs(error_bound(0.06, 0.9, 2.0) - 1.14) <= 1e-12


def test_resolution_for_values():
    assert abs(resolution_for(0.2, 0.5, 1.0) - 0.1) <= 1e-15
    assert resolution_for(0.0, 0.5, 1.0) == 0.0
    schedule = [resolution_for(0.2 / 2 ** n, 0.5, 1.0) for n in range(3)]
    np.testing.assert_allclose(schedule, [0.1, 0.05, 0.025], atol=1e-15)


def test_error_bound_round_trip(rng):
    for _ in range(20):
        gamma = float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(0.1, 3.0))
        back = resolution_for(error_bound(gamma, alpha, b), alpha, b)
        assert abs(back - gamma) <= 1e-12


def test_error_bound_domain():
    with pytest.raises(ValueError):
        error_bound(-0.1, 0.5, 1.0)
    with pytest.raises(ValueError):
        error_bound(0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        resolution_for(-0.1, 0.5, 1.0)


@pytest.mark.parametrize("value", [float("nan"), -np.inf, -0.1])
def test_nan_or_negative_inputs_are_rejected(value):
    # `value < 0.0` is false for NaN, so a NaN input once came back as NaN.
    with pytest.raises(ValueError, match="resolution must be nonnegative"):
        error_bound(value, 0.5, 1.0)
    with pytest.raises(ValueError, match="error must be nonnegative"):
        resolution_for(value, 0.5, 1.0)
    with pytest.raises(ValueError, match="resolution must be positive"):
        build_partition(sample_games.linear_cost_grid_spec(n_points=11), value)


def test_flat_spec_single_cell():
    partition = build_partition(flat_spec(), 0.05)
    assert partition.n_cells == 1
    assert partition.representatives[0] == 0


def test_linear_cost_partition_representatives():
    spec = sample_games.linear_cost_grid_spec()
    partition = build_partition(spec, 0.3)
    assert partition.n_cells == 4
    np.testing.assert_allclose(spec.points[partition.representatives],
                               [0.0, 0.3, 0.6, 0.9], atol=1e-12)


def test_huge_resolution_single_cell():
    spec = sample_games.linear_cost_grid_spec()
    partition = build_partition(spec, 10.0)
    assert partition.n_cells == 1


def test_random_partitions_check_clean(rng):
    for _ in range(8):
        spec = sample_games.random_continuous_spec(rng, n_points=15,
                                                   n_players=2, n_actions=(2, 2))
        partition = build_partition(spec, float(rng.uniform(0.05, 1.0)))
        check_partition(spec, partition)


def test_check_partition_rejects_mixed_cells():
    spec = sample_games.linear_cost_grid_spec(n_points=11)
    bad = Partition(resolution=0.05, cells=(np.arange(11),),
                    representatives=np.array([0]))
    with pytest.raises(ValueError):
        check_partition(spec, bad)


def nan_row_spec():
    """Unvalidated 11-point linear spec whose density row at point 3 is NaN,
    with the partition into single points."""
    spec = sample_games.linear_cost_grid_spec(n_points=11)
    density = spec.density.copy()
    density[3] = np.nan
    singles = Partition(resolution=0.05, cells=tuple(np.arange(11)[:, None]),
                        representatives=np.arange(11))
    return replace(spec, density=density), singles


def test_check_partition_rejects_nan_distances():
    spec, singles = nan_row_spec()
    with pytest.raises(ValueError, match="density distance nan"):
        check_partition(spec, singles)
    with pytest.raises(ValueError):
        build_partition(spec, 0.05)


def test_surrogate_game_rejects_nan_rows(monkeypatch):
    spec, singles = nan_row_spec()
    with pytest.raises(ValueError):
        surrogate_game(spec, singles)
    # The row-sum check alone, past the partition check that catches it first.
    monkeypatch.setattr(discretization, "check_partition", lambda spec, partition: None)
    with pytest.raises(ValueError, match="sums to nan"):
        surrogate_game(spec, singles)


def test_partition_requires_disjoint_cover():
    with pytest.raises(ValueError):
        Partition(resolution=1.0, cells=(np.array([0, 1]), np.array([1, 2])),
                  representatives=np.array([0, 1]))
    with pytest.raises(ValueError):
        Partition(resolution=1.0, cells=(np.array([0, 1]),),
                  representatives=np.array([2]))


def test_single_cell_surrogate_self_loop():
    disc = surrogate_game(flat_spec(), build_partition(flat_spec(), 0.05))
    assert disc.game.n_states == 1
    np.testing.assert_allclose(disc.game.transitions, 1.0, atol=1e-12)


def test_flat_spec_surrogate_evaluates_exactly(rng):
    spec = flat_spec()
    partition = build_partition(spec, 0.05)
    surrogate = surrogate_game(spec, partition).game
    original = grid_game(spec)
    for _ in range(5):
        cell_profile = StationaryProfile((
            np.tile(rng.dirichlet(np.ones(2)), (1, 1)),
        ))
        lifted = lift_strategy(partition, cell_profile)
        a = evaluate_profile(surrogate, cell_profile).J
        b = evaluate_profile(original, lifted).J
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_four_cell_surrogate_tables():
    spec = sample_games.linear_cost_grid_spec()
    partition = build_partition(spec, 0.3)
    disc = surrogate_game(spec, partition)
    assert disc.game.n_states == 4
    np.testing.assert_allclose(
        disc.game.costs[0, 0, :, 0], spec.points[partition.representatives],
        atol=1e-12)
    assert abs(disc.certified_error - 0.6) <= 1e-12


def test_lift_single_cell_constant(rng):
    spec = flat_spec()
    partition = build_partition(spec, 0.05)
    row = rng.dirichlet(np.ones(2))
    lifted = lift_strategy(partition, StationaryProfile((row[None, :],)))
    np.testing.assert_allclose(lifted.rows[0], np.tile(row, (spec.n_points, 1)),
                               atol=1e-15)


def test_lift_identity_partition(rng):
    spec = sample_games.linear_cost_grid_spec(n_points=5)
    partition = Partition(resolution=0.0,
                          cells=tuple(np.array([i]) for i in range(5)),
                          representatives=np.arange(5))
    profile = StationaryProfile((random_rows(rng, (5, 2)),))
    lifted = lift_strategy(partition, profile)
    np.testing.assert_allclose(lifted.rows[0], profile.rows[0], atol=1e-15)


def test_lift_step_function():
    spec = sample_games.linear_cost_grid_spec(n_points=9)
    partition = build_partition(spec, 0.3)
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    lifted = lift_strategy(partition, StationaryProfile((rows,)))
    for k, cell in enumerate(partition.cells):
        np.testing.assert_allclose(lifted.rows[0][cell],
                                   np.tile(rows[k], (cell.size, 1)), atol=1e-15)


def test_flat_spec_bound_is_zero(rng):
    spec = flat_spec()
    partition = build_partition(spec, 0.05)
    strategies = [StationaryProfile((random_rows(rng, (spec.n_points, 2)),))
                  for _ in range(5)]
    report = verify_approximation_bound(spec, partition, strategies)
    assert report.max_deviation <= 1e-10
    assert report.within_bound


def test_linear_fixture_bound(rng):
    spec = sample_games.linear_cost_grid_spec()
    partition = build_partition(spec, 0.3)
    strategies = [StationaryProfile((random_rows(rng, (101, 2)),))
                  for _ in range(50)]
    report = verify_approximation_bound(spec, partition, strategies)
    assert abs(report.certified_error - 0.6) <= 1e-12
    assert report.max_deviation <= 0.6 + 1e-8
    assert report.within_bound


def test_vacuous_bound_single_strategy(rng):
    spec = sample_games.random_continuous_spec(rng, n_points=10)
    partition = build_partition(spec, 50.0)
    profile = StationaryProfile((
        random_rows(rng, (10, spec.n_actions[0])),))
    report = verify_approximation_bound(spec, partition, [profile])
    assert report.within_bound


def test_random_specs_within_bound(rng):
    for _ in range(5):
        spec = sample_games.random_continuous_spec(rng, n_points=12,
                                                   n_players=2, n_actions=(2, 2))
        partition = build_partition(spec, float(rng.uniform(0.1, 0.8)))
        strategies = []
        for _ in range(10):
            rows = tuple(random_rows(rng, (12, 2)) for _ in range(2))
            strategies.append(StationaryProfile(rows))
        heads = [StationaryProfile(tuple(random_rows(rng, (12, 2))
                                         for _ in range(2))) for _ in range(2)]
        tail = strategies[0]
        strategies.append((heads, tail))
        report = verify_approximation_bound(spec, partition, strategies)
        assert report.within_bound


def test_approximation_bound_refuses_a_head_of_the_wrong_shape(rng):
    # One player with four actions has the joint table of a (2, 2) game; a
    # Markov entry's head is refused as its tail is.
    spec = sample_games.random_continuous_spec(rng, n_points=12, n_players=2, n_actions=(2, 2))
    partition = build_partition(spec, 0.5)
    good = StationaryProfile(tuple(random_rows(rng, (12, 2)) for _ in range(2)))
    bad = StationaryProfile((random_rows(rng, (12, 4)),))
    for entry in (([good], bad), ([bad], good)):
        with pytest.raises(ValueError, match=r"actions \(4,\) do not match game \(2, 2\)"):
            verify_approximation_bound(spec, partition, [entry])


def test_grid_of_surrogate_data_matches_surrogate():
    spec = sample_games.linear_cost_grid_spec(n_points=21)
    partition = build_partition(spec, 0.3)
    lifted_game = surrogate_grid_game(spec, partition)
    assert lifted_game.n_states == spec.n_points
    # every state in a cell carries the representative's data
    for k, cell in enumerate(partition.cells):
        rep = partition.representatives[k]
        for s in cell:
            np.testing.assert_allclose(lifted_game.costs[:, :, s, :],
                                       spec.costs[:, :, rep, :], atol=1e-15)


def reference_build_partition(spec, resolution):
    """The greedy before it met check_partition by construction: full
    distance rows for every representative, then a trailing check."""
    def cost_distances(game, rep):
        diff = np.abs(game.costs - game.costs[:, :, rep:rep + 1, :])
        return diff.max(axis=3).sum(axis=1).max(axis=0)

    def density_distances(game, rep):
        diff = np.abs(game.transitions - game.transitions[rep:rep + 1])
        return diff.sum(axis=2).max(axis=1)

    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    game = spec.game
    reps, members, cost_rows, density_rows = [], [], [], []
    for m in range(game.n_states):
        placed = False
        for k in range(len(reps)):
            if cost_rows[k][m] < resolution and density_rows[k][m] < resolution:
                members[k].append(m)
                placed = True
                break
        if not placed:
            reps.append(m)
            members.append([m])
            cost_rows.append(cost_distances(game, m))
            density_rows.append(density_distances(game, m))
    partition = Partition(resolution=resolution,
                          cells=tuple(np.array(c, dtype=int) for c in members),
                          representatives=np.array(reps, dtype=int))
    check_partition(spec, partition)
    return partition


def test_build_partition_matches_reference(rng, tmp_path, monkeypatch):
    specs = [sample_games.linear_cost_grid_spec()]
    for _ in range(8):
        specs.append(sample_games.random_continuous_spec(
            rng, n_points=int(rng.integers(15, 62)), n_players=int(rng.integers(1, 3)),
            n_layers=int(rng.integers(0, 2))))
    for spec in specs:
        for resolution in (0.02, 0.1, 0.3, float(rng.uniform(0.05, 1.0)), 5.0):
            got = build_partition(spec, resolution)
            want = reference_build_partition(spec, resolution)
            np.testing.assert_array_equal(got.representatives, want.representatives)
            assert len(got.cells) == len(want.cells)
            for a, b in zip(got.cells, want.cells):
                np.testing.assert_array_equal(a, b)

    # The 401-point grids of the benchmark, at its two resolutions.
    rng = np.random.default_rng([3, 3])
    for spec in (sample_games.linear_cost_grid_spec(401),
                 sample_games.random_continuous_spec(rng, n_points=401, n_players=1,
                                                     n_actions=(2,), n_layers=1)):
        for resolution in (0.02, 0.005):
            got = build_partition(spec, resolution)
            want = reference_build_partition(spec, resolution)
            assert got.n_cells > 1
            np.testing.assert_array_equal(got.representatives, want.representatives)
            assert len(got.cells) == len(want.cells)
            for a, b in zip(got.cells, want.cells):
                np.testing.assert_array_equal(a, b)

    # One check per discretize run: surrogate_game's, none in build_partition.
    calls = []
    checked = discretization.check_partition
    monkeypatch.setattr(discretization, "check_partition",
                        lambda *args: calls.append(1) or checked(*args))
    path = tmp_path / "spec.json"
    path.write_text(_dump(spec_to_payload(specs[0])))
    assert main(["discretize", str(path), "--gamma", "0.3",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == 1



def first_fit_reference(spec, resolution):
    """build_partition's first-fit loop before its distances were pruned:
    from each new representative, full cost and density distances to every
    later point.  Returns the cells as lists of grid indices."""
    def distances(game, rep, points):
        costs = np.abs(game.costs[:, :, points, :] - game.costs[:, :, rep:rep + 1, :])
        rows = np.abs(game.transitions[points] - game.transitions[rep:rep + 1])
        return costs.max(axis=3).sum(axis=1).max(axis=0), rows.sum(axis=2).max(axis=1)

    game = spec.game
    members = []
    rows = []
    for m in range(game.n_states):
        for cell, (cost, density) in zip(members, rows):
            if cost[m - cell[0]] < resolution and density[m - cell[0]] < resolution:
                cell.append(m)
                break
        else:
            cost, density = distances(game, m, slice(m, None))
            discretization._require_within(len(members), [m], (cost[:1], density[:1]),
                                           resolution)
            members.append([m])
            rows.append((cost, density))
    return members


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.sampled_from(range(1, 13)),
       n_actions=st.sampled_from([(1,), (2,), (3,), (2, 2)]), n_layers=st.integers(0, 2),
       constant_costs=st.booleans(), nan=st.sampled_from([None, None, "cost", "kernel"]),
       resolution=st.sampled_from([0.25, 0.5, 0.75, 1.0]) | st.floats(1e-3, 2.0))
def test_pruned_partition_is_the_first_fit_partition(seed, n_points, n_actions, n_layers,
                                                     constant_costs, nan, resolution):
    # Points copy one of three rows, some entries moved by a step.  Costs are
    # multiples of 1/4 and kernel entries of 1/8, so distances land exactly
    # on the resolutions that are multiples of 1/4, where a point must not
    # join.  A NaN cost or kernel entry must raise the reference's error.
    rng = np.random.default_rng(seed)
    n, p = len(n_actions), int(np.prod(n_actions))
    source = rng.integers(0, 3, size=n_points)
    costs = rng.integers(0, 5, size=(n, n_layers + 1, 3, p))[:, :, source] / 4
    costs += rng.integers(-1, 2, size=costs.shape) * (rng.random(costs.shape) < 0.2) / 4
    if constant_costs:
        costs[...] = 0.5
    density = rng.integers(0, 4, size=(3, p, n_points))[source].astype(float)
    density += rng.integers(-1, 2, size=density.shape) * (rng.random(density.shape) < 0.2)
    if nan == "cost":
        costs[tuple(rng.integers(0, k) for k in costs.shape)] = np.nan
    elif nan == "kernel":
        density[tuple(rng.integers(0, k) for k in density.shape)] = np.nan
    spec = ContinuousGameSpec(
        n_actions=n_actions, points=np.arange(n_points), weights=np.full(n_points, 0.125),
        density=density, costs=costs, discount=0.5, initial=np.full(n_points, 1 / n_points),
        constraint_bounds=np.zeros((n, n_layers)), cost_bound=2.0)
    try:
        want = first_fit_reference(spec, resolution)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build_partition(spec, resolution)
        return
    got = build_partition(spec, resolution)
    assert np.array_equal(got.representatives, [cell[0] for cell in want])
    assert len(got.cells) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got.cells, want))


@pytest.mark.parametrize("field", ["costs", "density"])
def test_points_at_exactly_the_resolution_do_not_join(field):
    # Point 1 is exactly 0.25 from point 0 in one distance and 0 in the
    # other; point 2 is 0.125 from point 1 and 0.375 from point 0.
    costs = np.zeros((1, 1, 3, 1))
    density = np.ones((3, 1, 3))
    if field == "costs":
        costs[0, 0, :, 0] = [0.0, 0.25, 0.375]
    else:
        density[:, 0, 0] += [0.0, 2.0, 3.0]  # weights of 1/8: kernel steps of 1/4 and 1/8
    spec = ContinuousGameSpec(
        n_actions=(1,), points=np.arange(3), weights=np.full(3, 0.125), density=density,
        costs=costs, discount=0.5, initial=np.full(3, 1 / 3),
        constraint_bounds=np.zeros((1, 0)), cost_bound=1.0)
    partition = build_partition(spec, 0.25)
    assert [c.tolist() for c in partition.cells] == [[0], [1, 2]]
    assert partition.representatives.tolist() == [0, 1]

def _halves():
    """Two cells over four grid points."""
    return Partition(resolution=1.0, cells=(np.array([0, 1]), np.array([2, 3])),
                     representatives=np.array([0, 2]))


@pytest.mark.parametrize("build, message", [
    (lambda: resolution_for(0.1, 1.0, 1.0), "discount must lie in (0, 1)"),
    (lambda: Partition(resolution=1.0, cells=(np.array([0, 1]),), representatives=np.array([0, 1])),
     "one representative per cell required"),
    (lambda: Partition(resolution=1.0, cells=(np.array([0, 2]),), representatives=np.array([0])),
     "cell member index out of range"),
    (lambda: Partition(resolution=1.0, cells=(np.array([0, 1]), np.array([2, 3])),
                       representatives=np.array([0, 1])),
     "representative of cell 1 is not a member"),
    (lambda: Partition(resolution=1.0, cells=(np.array([0, 1]), np.array([2, 7]),
                                              np.array([4, 5])),
                       representatives=np.array([2, 2, 0])),
     "representative of cell 0 is not a member"),
    (lambda: Partition(resolution=1.0, cells=(np.array([0, 1]), np.array([2, 7]),
                                              np.array([4, 5])),
                       representatives=np.array([0, 4, 0])),
     "cell member index out of range"),
    (lambda: check_partition(flat_spec(n_points=7), _halves()),
     "partition covers 4 points, spec has 7"),
    (lambda: lift_strategy(_halves(), StationaryProfile((np.full((3, 2), 0.5),))),
     "profile has 3 states, partition 2 cells"),
], ids=["resolution-discount", "representative-count", "member-range", "representative-member",
        "first-failing-cell", "range-before-membership", "partition-size", "lift-size"])
def test_partition_guards(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
