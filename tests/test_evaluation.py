import re
import threading
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from csgames import (
    FiniteCSG,
    StationaryProfile,
    evaluate_correlated,
    evaluate_markov,
    evaluate_markov_profile,
    evaluate_policy,
    evaluate_profile,
    induced_mdp,
    induced_mdp_from_marginal,
    product_strategy,
    simulate,
    simulation_horizon,
    validate_game,
)
from csgames import evaluation, sample_games


def truncated_value(game, psi, horizon):
    """Truncated-horizon discounted costs by exact forward propagation of the
    state distribution; independent of the linear-solve path."""
    kernel = np.einsum("sp,spt->st", psi.table, game.transitions)
    stage = np.einsum("ilsp,sp->ils", game.costs, psi.table)
    dist = game.initial.copy()
    total = np.zeros((game.n_players, game.n_layers + 1))
    weight = 1.0
    for _ in range(horizon):
        total += weight * stage @ dist
        dist = dist @ kernel
        weight *= game.discount
    return (1.0 - game.discount) * total


def constant_cost_game(value, discount=0.5):
    costs = np.full((1, 1, 2, 2), value)
    transitions = np.tile(np.array([[0.5, 0.5]]), (2, 2, 1))
    return FiniteCSG(
        n_actions=(2,),
        costs=costs,
        transitions=transitions,
        discount=discount,
        initial=np.array([1.0, 0.0]),
        constraint_bounds=np.zeros((1, 0)),
        cost_bound=max(abs(value), 1e-9),
    )


def test_constant_cost_normalization():
    game = constant_cost_game(0.3)
    cv = evaluate_profile(game, sample_games.trap_profile(0.4))
    np.testing.assert_allclose(cv.J, 0.3, atol=1e-12)
    np.testing.assert_allclose(cv.Jx, 0.3, atol=1e-12)


def test_trap_closed_form(ctrap):
    cv = evaluate_profile(ctrap, sample_games.trap_profile(0.75))
    np.testing.assert_allclose(cv.J[0], [0.4, 0.6], atol=1e-12)
    cv1 = evaluate_profile(ctrap, sample_games.trap_profile(1.0))
    np.testing.assert_allclose(cv1.J[0], [0.0, 1.0], atol=1e-12)
    cv0 = evaluate_profile(ctrap, sample_games.trap_profile(0.0))
    np.testing.assert_allclose(cv0.J[0], [1.0, 0.0], atol=1e-12)


def test_trap_curve_matches_formula(ctrap):
    alpha = ctrap.discount
    for q in np.linspace(0.0, 1.0, 11):
        cv = evaluate_profile(ctrap, sample_games.trap_profile(q))
        expected = q * (1.0 - alpha) / (1.0 - alpha * q)
        np.testing.assert_allclose(cv.J[0], [1.0 - expected, expected], atol=1e-12)


def test_zero_costs_evaluate_to_zero(rng):
    game = sample_games.random_game(rng, n_players=2, n_states=3)
    zero = FiniteCSG(
        n_actions=game.n_actions,
        costs=np.zeros_like(game.costs),
        transitions=game.transitions,
        discount=game.discount,
        initial=game.initial,
        constraint_bounds=game.constraint_bounds,
        cost_bound=1.0,
    )
    psi = sample_games.random_correlated(rng, zero)
    np.testing.assert_allclose(evaluate_correlated(zero, psi).J, 0.0, atol=1e-15)


def test_linear_solve_matches_truncated_sum(rng):
    for _ in range(15):
        game = sample_games.random_game(rng, n_players=2, n_states=4,
                                        discount=float(rng.uniform(0.3, 0.7)))
        psi = sample_games.random_correlated(rng, game)
        exact = evaluate_correlated(game, psi).J
        horizon = simulation_horizon(1e-12, game.discount, game.cost_bound)
        approx = truncated_value(game, psi, horizon)
        np.testing.assert_allclose(exact, approx, atol=1e-10)


@pytest.mark.parametrize("s", [1, 2, 8, 25, 120])
def test_discounted_solve_matches_scipy_lu_bit_for_bit(s):
    # The solve calls LAPACK's getrf and getrs itself; scipy's lu_factor and
    # lu_solve wrap the same routines, so they must give the same bits, for
    # one right-hand side and for several, and for the transposed kernel the
    # occupation measure solves with.
    rng = np.random.default_rng([20, s])
    kernel = rng.random((s, s))
    kernel /= kernel.sum(axis=1, keepdims=True)
    for k in (kernel, kernel.T):
        factors = scipy.linalg.lu_factor(np.eye(s) - 0.95 * k)
        for rhs in (rng.normal(size=s), rng.normal(size=(s, 3))):
            x = evaluation._discounted_solve(k, 0.95, rhs)
            assert x.shape == rhs.shape
            assert np.array_equal(x, scipy.linalg.lu_solve(factors, rhs))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_discounted_solve_refuses_singular_and_non_finite_systems():
    # discount * kernel = I makes every pivot exactly zero: LAPACK reports
    # it, and the solve raises at once, with no warning, even when there is
    # no right-hand side to check.  An inf or NaN in the kernel or the
    # right-hand side makes the residual check raise RuntimeError, not
    # scipy's ValueError for non-finite input.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rhs in (np.ones(3), np.ones((3, 0))):
            with pytest.raises(RuntimeError, match="singular: pivot 1 is exactly zero"):
                evaluation._discounted_solve(2.0 * np.eye(3), 0.5, rhs)
    kernel = np.full((3, 3), 1.0 / 3.0)
    for bad in (np.nan, np.inf, -np.inf):
        broken = kernel.copy()
        broken[1, 2] = bad
        with pytest.raises(RuntimeError, match="residual"):
            evaluation._discounted_solve(broken, 0.9, np.ones((3, 2)))
        with pytest.raises(RuntimeError, match="residual"):
            evaluation._discounted_solve(kernel, 0.9, np.array([1.0, bad, 1.0]))


def test_profile_equals_correlated_product(rng):
    for _ in range(5):
        game = sample_games.random_game(rng, n_players=3, n_states=2,
                                        n_actions=(2, 2, 2))
        profile = sample_games.random_profile(rng, game)
        a = evaluate_profile(game, profile)
        b = evaluate_correlated(game, product_strategy(profile))
        np.testing.assert_allclose(a.J, b.J, atol=1e-12)
        np.testing.assert_allclose(a.Jx, b.Jx, atol=1e-12)



def test_product_of_rows_at_the_tolerance_evaluates(pair):
    # Each row sums to 1 + 0.9e-9, inside ROW_SUM_TOL, so the profile is
    # valid; its product rows sum to about 1 + 1.8e-9, and product_strategy
    # must not refuse them by CorrelatedStrategy's row check.
    rows = np.tile([0.5, 0.5 + 0.9e-9], (pair.n_states, 1))
    profile = StationaryProfile((rows, rows))
    psi = product_strategy(profile)
    assert abs(psi.table.sum(axis=1)[0] - 1.0) > 1e-9
    assert psi.n_actions == (2, 2) and not psi.table.flags.writeable
    np.testing.assert_array_equal(psi.table, np.einsum("sa,sb->sab", rows, rows).reshape(-1, 4))
    exact = evaluate_profile(pair, StationaryProfile((np.full_like(rows, 0.5),) * 2))
    np.testing.assert_allclose(evaluate_profile(pair, profile).Jx, exact.Jx, rtol=0, atol=1e-8)

def test_markov_head_equal_tail_is_stationary(ctrap, rng):
    tail = sample_games.trap_profile(0.6)
    heads = [tail] * 5
    a = evaluate_markov_profile(ctrap, heads, tail)
    b = evaluate_profile(ctrap, tail)
    np.testing.assert_allclose(a.J, b.J, atol=1e-12)
    np.testing.assert_allclose(a.Jx, b.Jx, atol=1e-12)


def test_markov_trap_hand_value(ctrap):
    # Play the trap action first (no budget charge), then the safe action
    # forever: state 1 absorbs after one step and the budget layer stays 0.
    head = [sample_games.trap_profile(0.0)]
    tail = sample_games.trap_profile(1.0)
    cv = evaluate_markov_profile(ctrap, head, tail)
    np.testing.assert_allclose(cv.J[0, 1], 0.0, atol=1e-12)


def test_markov_zero_costs(rng):
    game = sample_games.random_game(rng, n_players=1, n_states=3, n_actions=(2,))
    zero = FiniteCSG(
        n_actions=game.n_actions,
        costs=np.zeros_like(game.costs),
        transitions=game.transitions,
        discount=game.discount,
        initial=game.initial,
        constraint_bounds=game.constraint_bounds,
        cost_bound=1.0,
    )
    heads, tail = sample_games.random_markov_plan(rng, zero, 3)
    np.testing.assert_allclose(evaluate_markov_profile(zero, heads, tail).J, 0.0,
                               atol=1e-15)


def test_markov_profile_matches_truncated_sum(rng):
    for _ in range(5):
        game = sample_games.random_game(rng, n_players=2, n_states=3,
                                        discount=0.5)
        heads, tail = sample_games.random_markov_plan(rng, game, 3)
        got = evaluate_markov_profile(game, heads, tail).J
        # Propagate the head steps by hand, then close with the stationary tail.
        dist = game.initial.copy()
        total = np.zeros((2, game.n_layers + 1))
        weight = 1.0
        for prof in heads:
            psi = product_strategy(prof)
            stage = np.einsum("ilsp,sp->ils", game.costs, psi.table)
            total += weight * (1.0 - game.discount) * stage @ dist
            dist = dist @ np.einsum("sp,spt->st", psi.table, game.transitions)
            weight *= game.discount
        tail_vals = evaluate_profile(game, tail).Jx
        total += weight * tail_vals @ dist
        np.testing.assert_allclose(got, total, atol=1e-10)


def test_simulate_constant_cost_has_zero_variance():
    game = constant_cost_game(0.3)
    psi = product_strategy(sample_games.trap_profile(0.5))
    sim = simulate(game, psi, n_trajectories=50, tol=1e-9, seed=1)
    np.testing.assert_allclose(sim.estimates, 0.3, atol=1e-8)
    np.testing.assert_allclose(sim.radii, 0.0, atol=1e-15)


def test_simulate_trap_within_three_sigma(ctrap):
    psi = product_strategy(sample_games.trap_profile(0.75))
    sim = simulate(ctrap, psi, n_trajectories=100_000, tol=1e-6, seed=5)
    err = np.abs(sim.estimates[0] - np.array([0.4, 0.6]))
    assert np.all(err <= 3.0 * sim.radii[0] + sim.bias_bound)


def test_simulate_deterministic(ctrap):
    psi = product_strategy(sample_games.trap_profile(0.75))
    a = simulate(ctrap, psi, n_trajectories=500, seed=11)
    b = simulate(ctrap, psi, n_trajectories=500, seed=11)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    np.testing.assert_array_equal(a.radii, b.radii)


def test_simulate_needs_two_trajectories(ctrap):
    psi = product_strategy(sample_games.trap_profile(0.75))
    with pytest.raises(ValueError, match="at least two trajectories"):
        simulate(ctrap, psi, n_trajectories=1)


def test_simulate_chunk_invariant(ctrap, monkeypatch):
    psi = product_strategy(sample_games.trap_profile(0.75))
    b = simulate(ctrap, psi, n_trajectories=300, seed=2)
    monkeypatch.setattr(evaluation, "SIMULATE_MAX_ROWS", 7)
    a = simulate(ctrap, psi, n_trajectories=300, seed=2)
    np.testing.assert_array_equal(a.estimates, b.estimates)


def test_simulate_caps_each_block_of_uniforms(ctrap, monkeypatch):
    # A chunk draws its uniforms into one (rows, 1 + 2H) block.  At alpha =
    # 0.999 SIMULATE_MAX_ROWS rows would make that block 5.2 GiB, so the rows
    # are capped to keep it within half of SIMULATE_BLOCK_BYTES (two blocks
    # are alive), one row at the least.  The 19 and 20 blocks filled here, most
    # of them on the helper thread, must give the one-block run's bytes.
    psi = product_strategy(sample_games.trap_profile(0.75))
    cases = []
    for n_trajectories, budget_rows, rows in ((300, 32, 16), (20, 1, 1)):
        want = simulate(ctrap, psi, n_trajectories=n_trajectories, seed=2)
        cases.append((n_trajectories, budget_rows, rows, want))
    draws = 1 + 2 * want.horizon
    shapes = []

    class Recording(np.random.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            shapes.append(out.shape)
            return super().random(size, dtype, out)

    monkeypatch.setattr(np.random, "Generator", Recording)
    for n_trajectories, budget_rows, rows, want in cases:
        # A budget with room for `budget_rows` trajectories' draws and not
        # one more: each block gets half of it, and 1 row gets none.
        monkeypatch.setattr(evaluation, "SIMULATE_BLOCK_BYTES", 8 * draws * budget_rows + 7)
        shapes.clear()
        got = simulate(ctrap, psi, n_trajectories=n_trajectories, seed=2)
        full, rest = divmod(n_trajectories, rows)
        assert shapes == [(rows, draws)] * full + [(rest, draws)] * bool(rest)
        assert got.estimates.tobytes() == want.estimates.tobytes()
        assert got.radii.tobytes() == want.radii.tobytes()
    # A row cap below the budget's stays as given.
    monkeypatch.setattr(evaluation, "SIMULATE_BLOCK_BYTES", 8 * draws * 32)
    monkeypatch.setattr(evaluation, "SIMULATE_MAX_ROWS", 7)
    shapes.clear()
    simulate(ctrap, psi, n_trajectories=20, seed=2)
    assert shapes == [(7, draws), (7, draws), (6, draws)]


def test_simulate_keeps_one_block_of_uniforms_alive(ctrap, monkeypatch):
    # At most two blocks of half the budget are alive: the one the step loop
    # reads and the one the helper fills.  A chunk's block must be freed
    # before the block after the next one is made; otherwise the peak holds
    # three half blocks.
    psi = product_strategy(sample_games.trap_profile(0.75))
    draws = 1 + 2 * simulation_horizon(1e-6, ctrap.discount, ctrap.cost_bound)
    assert draws == 43
    block = 8 * draws * 2000
    monkeypatch.setattr(evaluation, "SIMULATE_BLOCK_BYTES", block)
    n_trajectories = 10_000
    tracemalloc.start()
    try:
        simulate(ctrap, psi, n_trajectories=n_trajectories, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    totals = 8 * n_trajectories * ctrap.n_players * (ctrap.n_layers + 1)
    assert peak - totals < 1.5 * block


class Fault(Exception):
    pass


@pytest.mark.parametrize("fault", [None, "step loop", "fill"])
def test_simulate_leaves_no_thread_running(ctrap, monkeypatch, fault):
    # Three blocks a call: the caller fills the first, the helper the other
    # two.  Whether the step loop raises on the second block or the second
    # fill raises, simulate joins the helper and raises that very exception,
    # and no thread outlives the call.
    psi = product_strategy(sample_games.trap_profile(0.75))
    draws = 1 + 2 * simulation_horizon(1e-6, ctrap.discount, ctrap.cost_bound)
    monkeypatch.setattr(evaluation, "SIMULATE_BLOCK_BYTES", 2 * 8 * draws * 100)
    calls, fills, raised = [], [], []
    step_loop = evaluation._simulate_chunk

    def failing_step_loop(*args):
        calls.append(len(calls) + 1)
        if fault == "step loop" and len(calls) == 2:
            raised.append(Fault())
            raise raised[0]
        return step_loop(*args)

    class FailingFill(np.random.Generator):
        def random(self, size=None, dtype=np.float64, out=None):
            fills.append(threading.current_thread())
            if fault == "fill" and len(fills) == 2:
                raised.append(Fault())
                raise raised[0]
            return super().random(size, dtype, out)

    monkeypatch.setattr(evaluation, "_simulate_chunk", failing_step_loop)
    monkeypatch.setattr(np.random, "Generator", FailingFill)
    outcome = []

    def call():
        try:
            outcome.append(simulate(ctrap, psi, n_trajectories=300, seed=3))
        except Fault as exc:
            outcome.append(exc)

    # The call runs on a thread of its own, so a hang fails the test.
    caller = threading.Thread(target=call, daemon=True)
    before = threading.active_count()
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert fills[0] is caller and caller not in fills[1:]
    if fault is None:
        assert outcome[0].n_trajectories == 300
        assert (len(calls), len(fills)) == (3, 3)
    else:
        assert outcome[0] is raised[0]
        # The step loop's fault leaves the third fill to finish; the fill's
        # fault stops the loop before its second block.
        assert (len(calls), len(fills)) == ((2, 3) if fault == "step loop" else (1, 2))
    assert threading.active_count() == before


def counting_rule(cdf_rows, u):
    """Index of the first CDF entry >= u by counting the entries below u."""
    return np.minimum((cdf_rows < u[:, None]).sum(axis=1), cdf_rows.shape[1] - 1)


def advance_from_row_starts(cdf, rows, u, scratch=None):
    """Index within its row that `_advance` reaches from each row's flat
    start, with fresh work arrays unless `scratch` is given."""
    width = cdf.shape[1]
    if scratch is None:
        scratch = np.empty(u.size, dtype=np.intp), np.empty(u.size), np.empty(u.size, dtype=bool)
    pos = rows * width
    evaluation._advance(cdf.ravel(), width, pos, u, scratch)
    return pos - rows * width


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       width=st.integers(1, 70) | st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
       zero_frac=st.floats(0.0, 0.9))
def test_advance_is_the_counting_rule(seed, width, zero_frac):
    # Zero-mass entries repeat a CDF value, so ties are common; u = 0 and u
    # equal to an entry of its own row are drawn on purpose.
    rng = np.random.default_rng(seed)
    mass = rng.random((5, width)) * (rng.random((5, width)) >= zero_frac)
    cdf = np.cumsum(mass, axis=1)
    rows = rng.integers(0, 5, size=400)
    u = rng.random(400) * (1.1 * cdf.max() + 0.1)
    u[:50] = 0.0
    u[50:200] = cdf[rows[50:200], rng.integers(0, width, size=150)]
    want = counting_rule(cdf[rows], u)
    np.testing.assert_array_equal(advance_from_row_starts(cdf, rows, u), want)
    # As simulate calls it: work arrays reused, holding another search's
    # leftovers.
    n = rows.size
    scratch = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n, dtype=bool)
    advance_from_row_starts(cdf, rows[::-1].copy(), u[::-1], scratch)
    np.testing.assert_array_equal(advance_from_row_starts(cdf, rows, u, scratch), want)


def test_advance_skips_entries_without_mass():
    # Validation admits entries down to -1e-9 in kernels and strategies
    # alike, and row sums off by up to 1e-9.  On the raw cumsum the
    # counting rule picks a negative entry when u falls in the dip below it,
    # and a trailing entry without mass when u is above a short row's sum.
    table = np.array([[-1e-12, 0.5, -1e-12, 0.5 + 2e-12],
                      [0.5, 0.5 - 1e-12, -1e-12, 0.0]])
    cdf = evaluation._rows_cdf(table)
    assert np.all(np.diff(cdf, axis=1) >= 0.0)
    rng = np.random.default_rng(7)
    u = np.concatenate([0.5 + np.linspace(-5e-12, 5e-12, 101),
                        1.0 - np.geomspace(1e-16, 1e-11, 50), rng.random(1000),
                        [5e-324, 1e-13, np.nextafter(1.0, 0.0)]])
    raw = np.cumsum(table, axis=1)
    for row in range(2):
        rows = np.full(u.size, row)
        assert np.all(table[row, advance_from_row_starts(cdf, rows, u)] > 0.0)
        assert np.any(table[row, counting_rule(raw[rows], u)] <= 0.0)


def counting_simulate(game, psi, n_trajectories, seed, tol=1e-6):
    """The O(width) sampler simulate used before its binary search: each
    draw gathers CDF rows and counts the entries below u."""
    def rows_cdf(table):
        cdf = np.cumsum(table, axis=-1)
        cdf[..., -1] = 1.0
        return cdf

    horizon = simulation_horizon(tol, game.discount, game.cost_bound)
    action_cdf = rows_cdf(psi.table)
    state_cdf = rows_cdf(game.transitions)
    initial_cdf = rows_cdf(game.initial[None, :])[0]
    ctab = np.moveaxis(game.costs, (0, 1), (2, 3))
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random((n_trajectories, 1 + 2 * horizon))
    state = np.minimum(np.searchsorted(initial_cdf, u[:, 0], side="left"), game.n_states - 1)
    totals = np.zeros((n_trajectories, game.n_players, game.n_layers + 1))
    weight = 1.0 - game.discount
    for t in range(horizon):
        action = counting_rule(action_cdf[state], u[:, 1 + 2 * t])
        totals += weight * ctab[state, action]
        state = counting_rule(state_cdf[state, action], u[:, 2 + 2 * t])
        weight *= game.discount
    return totals.mean(axis=0), totals.std(axis=0, ddof=1) / np.sqrt(n_trajectories)


@pytest.mark.parametrize("seed", range(10))
def test_simulate_matches_counting_oracle(seed, monkeypatch):
    # Sparse and deterministic rows put ties in the CDFs.
    rng = np.random.default_rng([31, seed])
    n_actions = [(int(rng.integers(1, 10)),),
                 (int(rng.integers(1, 4)), int(rng.integers(1, 4)))][seed % 2]
    game = sample_games.random_game(rng, len(n_actions), int(rng.integers(1, 61)), n_actions,
                                    discount=float(rng.uniform(0.3, 0.9)))
    s, p = game.n_states, game.n_profiles
    transitions = game.transitions * (rng.random((s, p, s)) < 0.4)
    transitions[..., 0] += 1e-3
    transitions /= transitions.sum(axis=-1, keepdims=True)
    if seed % 3 == 0:
        transitions = np.eye(s)[rng.integers(0, s, size=(s, p))]
    game = FiniteCSG(game.n_actions, game.costs, transitions, game.discount, game.initial,
                     game.constraint_bounds, game.cost_bound)
    rows = []
    for a in n_actions:
        support = rng.random((s, a)) < 0.7
        support[:, 0] = True
        row = rng.dirichlet(np.ones(a), size=s) * support
        rows.append(row / row.sum(axis=1, keepdims=True))
    psi = product_strategy(StationaryProfile(tuple(rows)))
    estimates, radii = counting_simulate(game, psi, 150, seed)
    for max_rows in (7, 150):
        monkeypatch.setattr(evaluation, "SIMULATE_MAX_ROWS", max_rows)
        sim = simulate(game, psi, n_trajectories=150, seed=seed)
        np.testing.assert_array_equal(sim.estimates, estimates)
        np.testing.assert_array_equal(sim.radii, radii)


def test_simulation_horizon_bounds_tail():
    alpha, b = 0.7, 2.0
    horizon = simulation_horizon(1e-6, alpha, b)
    assert alpha ** horizon * b <= 1e-6
    # minimal for the safety-factor target tol * (1 - alpha)
    assert alpha ** (horizon - 1) * b > 1e-6 * (1.0 - alpha)


def test_simulation_horizon_is_one_when_one_step_suffices():
    # Without costs there is nothing to truncate, and a tolerance of the
    # whole cost range over (1 - alpha) admits any one-step tail; the second
    # holds for an infinite tolerance too, whose log the general formula
    # cannot take.
    assert simulation_horizon(1e-6, 0.5, 0.0) == 1
    for tol in (2.0, np.inf):
        assert simulation_horizon(tol, 0.5, 1.0) == 1
        assert 0.5 ** 1 * 1.0 <= tol


@pytest.mark.parametrize("build, message", [
    (lambda: evaluate_markov(sample_games.trap_game(), [], np.full((2, 2), 0.5)),
     "strategy must be a MarkovStrategy"),
    (lambda: induced_mdp_from_marginal(sample_games.decoupled_pair(), 0, np.ones((4, 1))),
     "marginal must have shape (4, 2); got (4, 1)"),
], ids=["not-markov", "marginal-shape"])
def test_evaluation_guards(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
def test_simulation_horizon_rejects_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        simulation_horizon(tol, 0.5, 1.0)


def test_induced_mdp_single_player_identity(ctrap):
    mdp = induced_mdp(ctrap, 0, [])
    np.testing.assert_array_equal(mdp.costs[0], ctrap.costs[0])
    np.testing.assert_array_equal(mdp.transitions, ctrap.transitions)


def test_induced_mdp_deterministic_opponent(rng):
    game = sample_games.random_game(rng, n_players=2, n_states=2,
                                    n_actions=(2, 2))
    fixed = np.tile([0.0, 1.0], (2, 1))
    mdp = induced_mdp(game, 0, [fixed])
    # opponent pinned on action 1: profiles (a, 1) in row-major order
    trans = game.transitions.reshape(2, 2, 2, 2)
    np.testing.assert_allclose(mdp.transitions, trans[:, :, 1, :], atol=1e-15)
    costs = game.costs[0].reshape(-1, 2, 2, 2)
    np.testing.assert_allclose(mdp.costs[0], costs[:, :, :, 1], atol=1e-15)


def test_induced_mdp_uniform_opponent_averages(rng):
    game = sample_games.random_game(rng, n_players=2, n_states=2,
                                    n_actions=(2, 2))
    uniform = np.full((2, 2), 0.5)
    mdp = induced_mdp(game, 0, [uniform])
    trans = game.transitions.reshape(2, 2, 2, 2)
    np.testing.assert_allclose(mdp.transitions, trans.mean(axis=2), atol=1e-15)


def test_evaluate_policy_matches_profile(rng):
    for _ in range(5):
        game = sample_games.random_game(rng, n_players=1, n_states=3,
                                        n_actions=(3,))
        profile = sample_games.random_profile(rng, game)
        mdp = induced_mdp(game, 0, [])
        j, jx = evaluate_policy(mdp, profile.rows[0])
        cv = evaluate_profile(game, profile)
        np.testing.assert_allclose(j, cv.J[0], atol=1e-12)
        np.testing.assert_allclose(jx, cv.Jx[0], atol=1e-12)


def test_mismatched_strategy_rejected(ctrap):
    with pytest.raises(ValueError):
        evaluate_profile(ctrap, StationaryProfile((np.full((3, 2), 0.5),)))


def test_markov_profile_checks_its_heads_as_its_tail():
    # One player with four actions has the joint table of a (2, 2) game;
    # as a head it must be refused as it is as the tail, not evaluated.
    game = sample_games.random_game(np.random.default_rng(1), 2, 3, (2, 2), 1)
    good = StationaryProfile((np.full((3, 2), 0.5),) * 2)
    wrong_actions = StationaryProfile((np.full((3, 4), 0.25),))
    wrong_states = StationaryProfile((np.full((2, 2), 0.5),) * 2)
    for bad, message in ((wrong_actions, r"actions \(4,\) do not match game \(2, 2\)"),
                         (wrong_states, "strategy has 2 states, game has 3")):
        for heads, tail in (([good], bad), ([bad], good), ([good, bad, good], good)):
            with pytest.raises(ValueError, match=message):
                evaluate_markov_profile(game, heads, tail)


def test_induced_mdp_rejects_bad_player_and_row_shapes(rng):
    game = sample_games.random_game(rng, n_players=2, n_states=3, n_actions=(2, 2))
    # A (1, 2) row would broadcast over the states: play that ignores the state.
    with pytest.raises(ValueError, match=r"shapes \[\(3, 2\)\]; got \[\(1, 2\)\]"):
        induced_mdp(game, 0, [np.full((1, 2), 0.5)])
    for player in (-1, 2):
        with pytest.raises(ValueError, match=f"no player {player}"):
            induced_mdp(game, player, [np.full((3, 2), 0.5)])
        with pytest.raises(ValueError, match=f"no player {player}"):
            induced_mdp_from_marginal(game, player, np.full((3, 2), 0.5))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_players=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_induced_mdp_is_a_one_player_game(n_players, seed):
    # Each player's induced MDP is a valid one-player game whose policy
    # values are that player's row of the profile's values.
    rng = np.random.default_rng(seed)
    game = sample_games.random_game(rng, n_players=n_players,
                                    n_states=int(rng.integers(1, 5)),
                                    n_layers=int(rng.integers(0, 3)))
    profile = sample_games.random_profile(rng, game)
    cv = evaluate_profile(game, profile)
    for i in range(n_players):
        others = [r for j, r in enumerate(profile.rows) if j != i]
        mdp = induced_mdp(game, i, others)
        assert mdp.n_actions == (game.n_actions[i],)
        assert validate_game(mdp) == ()
        j, jx = evaluate_policy(mdp, profile.rows[i])
        np.testing.assert_allclose(j, cv.J[i], rtol=0, atol=1e-12)
        np.testing.assert_allclose(jx, cv.Jx[i], rtol=0, atol=1e-12)
    if n_players == 1:
        mdp = induced_mdp(game, 0, [])
        for f in fields(FiniteCSG):
            np.testing.assert_array_equal(getattr(mdp, f.name), getattr(game, f.name))
