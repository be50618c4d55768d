import math
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
from scipy.sparse import csc_array

from csgames import (
    FiniteCSG,
    StationaryProfile,
    constrained_best_response,
    evaluate_policy,
    evaluate_profile,
    induced_mdp,
    occupation_measure,
    optimal_policy_values,
    recover_strategy,
    slater_margin,
)
from csgames import best_response, sample_games
from csgames.best_response import HIGHS_OPTIONS
from csgames.cli import EXIT_SOLVER, _dump, game_to_payload, main, strategy_to_payload


def value_iteration(mdp, layer=0, sweeps=20000, tol=1e-13):
    """Plain Bellman iteration on the normalized objective; oracle for the
    LP and policy-iteration paths."""
    v = np.zeros(mdp.n_states)
    for _ in range(sweeps):
        q = (1.0 - mdp.discount) * mdp.costs[0, layer] + mdp.discount * mdp.transitions @ v
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
    np.testing.assert_allclose(theta, [[1.0]], atol=1e-14)
    assert not theta.flags.writeable


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
    np.testing.assert_allclose(theta, 0.25, atol=1e-14)


def test_occupation_mass_and_costs(rng):
    for _ in range(10):
        game = sample_games.random_game(rng, n_players=1, n_states=4,
                                        n_actions=(3,), n_layers=1)
        profile = sample_games.random_profile(rng, game)
        mdp = induced_mdp(game, 0, [])
        theta = occupation_measure(mdp, profile.rows[0])
        assert abs(theta.sum() - 1.0) <= 1e-10
        values = mdp.costs[0].reshape(2, -1) @ theta.reshape(-1)
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
        sigma = recover_strategy(theta)
        visited = theta.sum(axis=1) > 1e-9
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
    result = constrained_best_response(replace(mdp, constraint_bounds=[[-1.0]]))
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
    result = constrained_best_response(mdp)
    assert result.feasible
    j = evaluate_profile(ctrap, StationaryProfile((result.strategy,))).J[0]
    assert j[1] <= ctrap.constraint_bounds[0, 0] + 1e-9
    assert constrained_best_response(replace(mdp, constraint_bounds=[[1.0]])).feasible
    impossible = constrained_best_response(replace(mdp, constraint_bounds=[[-0.1]]))
    assert not impossible.feasible
    assert np.isnan(impossible.strategy).all()


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
    result = slater_margin(replace(mdp, constraint_bounds=[[-0.25]]))
    assert result.margin < 0.0
    assert abs(result.margin - (-0.25)) <= 1e-8


def test_slater_margin_unconstrained_is_infinite(trap):
    result = slater_margin(induced_mdp(trap, 0, []))
    assert result.margin == np.inf


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
    # below anything a strategy can reach; the best response and the Slater
    # margin must agree on whether they can be met.
    seen = set()
    for _ in range(30):
        n_players = int(rng.integers(1, 3))
        game = sample_games.random_constrained_game(
            rng, n_players=n_players, n_states=int(rng.integers(2, 6)),
            n_actions=tuple(int(a) for a in rng.integers(2, 4, size=n_players)),
            n_layers=int(rng.integers(1, 3)), slack=float(rng.uniform(-0.4, 0.1)))
        others = sample_games.random_profile(rng, game).rows[1:]
        mdp = induced_mdp(game, 0, others)
        feasible = constrained_best_response(mdp).feasible
        assert (slater_margin(mdp).margin >= -1e-9) == feasible
        seen.add(feasible)
    assert seen == {True, False}


@pytest.mark.filterwarnings("ignore")
def test_discounted_solve_rejects_singular_kernel(trap):
    # Kernel rows summing to 1/alpha make I - alpha K singular: the occupation
    # measure and the policy values must refuse it instead of returning NaN.
    mdp = induced_mdp(trap, 0, [])
    bad = replace(mdp, transitions=mdp.transitions / mdp.discount)
    for solve in (occupation_measure, evaluate_policy):
        with pytest.raises(RuntimeError):
            solve(bad, np.full((2, 2), 0.5))


def test_multi_player_game_is_refused(pair):
    # A two-player game's joint profiles are not one player's actions; the
    # oracles take induced MDPs, one-player games, only.
    policy = np.full((pair.n_states, pair.n_profiles), 1.0 / pair.n_profiles)
    calls = [constrained_best_response, slater_margin, optimal_policy_values,
             lambda game: occupation_measure(game, policy)]
    for call in calls:
        with pytest.raises(ValueError, match="expected a one-player game"):
            call(pair)


@pytest.mark.parametrize("policy, message", [
    ([[0.7, 0.7], [0.5, 0.5]], r"policy row \(state 0\) sums to 1.3999"),
    ([[2, 0], [0, 1]], r"policy row \(state 0\) sums to 2"),
    ([[1], [1]], r"policy must be \(S, A\) = \(2, 2\); got \(2, 1\)"),
    ([[0.5, 0.5]], r"policy must be \(S, A\) = \(2, 2\); got \(1, 2\)"),
    ([[np.nan, 1.0], [0.5, 0.5]], r"policy row \(state 0\) sums to nan"),
], ids=["mass-1.4", "entry-2", "one-action", "one-state", "nan"])
def test_occupation_measure_refuses_what_evaluate_policy_refuses(ctrap, policy, message):
    # Unchecked, the first returned a measure of mass 1.615, and the next two
    # raised the numerical-failure RuntimeError of a NaN residual.
    mdp = induced_mdp(ctrap, 0, [])
    with pytest.raises(ValueError, match=message):
        occupation_measure(mdp, policy)
    if np.shape(policy) == (2, 2):
        with pytest.raises(ValueError, match="row"):
            evaluate_policy(mdp, policy)


def test_direct_highs_matches_linprog(monkeypatch):
    # Each LP goes to HiGHS as one model; scipy's linprog, given the
    # occupation LP's matrices built here from the MDP, the same bounds and
    # HIGHS_OPTIONS' two tolerances, must report the same status and the
    # same x to the last bit.  Budgets uniform in [-1, 1] are often
    # unreachable, so infeasible LPs are among them.
    lps = []
    tolerances = {key: HIGHS_OPTIONS[key]
                  for key in ("primal_feasibility_tolerance", "dual_feasibility_tolerance")}

    def recording(mdp, objective):
        solved = occupation_lp(mdp, objective)
        lps.append((mdp, objective, solved))
        return solved

    occupation_lp = best_response._occupation_lp
    monkeypatch.setattr(best_response, "_occupation_lp", recording)
    mdps = []
    for seed in range(60):
        rng = np.random.default_rng([7, seed])
        s, a, n_layers = int(rng.integers(2, 41)), int(rng.integers(2, 6)), int(rng.integers(0, 3))
        mdps.append(sample_games.random_game(rng, n_players=1, n_states=s, n_actions=(a,),
                                             n_layers=n_layers))
    # Dense games as large as the benchmark's, where the dependent-equations
    # search that linprog still runs took most of the solve time.
    for seed, (s, a) in enumerate([(60, 4), (90, 5), (120, 6)]):
        mdps.append(sample_games.random_constrained_game(np.random.default_rng([8, seed]), 1, s,
                                                         (a,), 2, slack=0.05))
    for mdp in mdps:
        constrained_best_response(mdp)
        if mdp.n_layers:
            slater_margin(mdp)
    statuses = set()
    for mdp, objective, solved in lps:
        s, a, n_layers = mdp.n_states, mdp.n_profiles, mdp.n_layers
        epigraph = len(objective) == s * a + 1
        # Column (s, a) of flow row s' is [s' == s] - alpha q(s' | s, a); the
        # epigraph column z is in no flow row and in every budget row.
        a_eq = np.eye(s).repeat(a, axis=1) - mdp.discount * mdp.transitions.reshape(s * a, s).T
        a_ub = mdp.costs[0, 1:].reshape(n_layers, s * a)
        if epigraph:
            a_eq = np.hstack([a_eq, np.zeros((s, 1))])
            a_ub = np.hstack([a_ub, np.ones((n_layers, 1))])
        budgets = {"A_ub": a_ub, "b_ub": mdp.constraint_bounds[0]} if n_layers else {}
        bounds = [(0.0, None)] * (s * a) + [(None, None)] * epigraph
        res = linprog(objective, A_eq=a_eq, b_eq=(1.0 - mdp.discount) * mdp.initial,
                      bounds=bounds, method="highs", options=tolerances, **budgets)
        assert res.status in (0, 2)
        assert (solved is None) == (res.status == 2)
        if solved is not None:
            x, multipliers = solved[0], solved[3]
            assert np.array_equal(x, res.x)
            # The budget rows' multipliers are linprog's marginals, negated.
            assert np.array_equal(multipliers, np.maximum(-res.ineqlin.marginals, 0.0))
        statuses.add((res.status, epigraph))
    assert statuses == {(0, False), (2, False), (0, True)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 30), a=st.integers(1, 5),
       discount=st.floats(0.01, 0.999), deterministic=st.booleans(), epigraph=st.booleans())
def test_flow_rows_have_full_row_rank(seed, s, a, discount, deterministic, epigraph):
    # Why presolve may skip its dependent-equations search: the equality rows
    # of every occupation LP, epigraph or not, as HiGHS receives them, have
    # rank S.
    rng = np.random.default_rng(seed)
    mdp = sample_games.random_game(rng, n_players=1, n_states=s, n_actions=(a,),
                                   discount=discount)
    if deterministic:
        mdp = replace(mdp, transitions=np.eye(s)[rng.integers(0, s, size=(s, a))])
    models = []

    def passModel(self, *args):
        models.append(args)
        return _core._Highs.passModel(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        _use_highs(patch, {"passModel": passModel})
        best_response._occupation_lp(mdp, np.zeros(s * a + epigraph))
    # passModel's num_col, num_row, ..., row_lower, row_upper, start, index,
    # value: the matrix in compressed-column form, without its closing start.
    ((n_cols, n_rows, *_, row_lower, row_upper, start, index, value, _),) = models
    matrix = csc_array((value, index, np.append(start, value.size)),
                       shape=(n_rows, n_cols)).toarray()
    a_eq = matrix[row_lower == row_upper]
    assert a_eq.shape == (s, s * a + epigraph)
    assert np.linalg.matrix_rank(a_eq) == s


def test_private_highs_surface_is_pinned():
    # The LPs use scipy's private HiGHS binding; a scipy that moves or
    # renames any of this fails here, not in a certificate.
    assert best_response._h is _core
    for name in ("_Highs", "MatrixFormat", "ObjSense", "HighsModelStatus", "HighsStatus",
                 "HighsDebugLevel", "simplex_constants"):
        assert hasattr(_core, name), name
    for enum, member in ((_core.MatrixFormat, "kColwise"), (_core.ObjSense, "kMinimize"),
                         (_core.HighsModelStatus, "kOptimal"),
                         (_core.HighsModelStatus, "kInfeasible"), (_core.HighsStatus, "kError")):
        assert hasattr(enum, member), member
    # Each option is set, and reads back, as _solver sets it; the table
    # holds scipy's linprog settings, the tolerances and the presolve bit.
    highs = _core._Highs()
    for key, value in HIGHS_OPTIONS.items():
        assert highs.setOptionValue(key, value) == _core.HighsStatus.kOk, key
        assert highs.getOptionValue(key) == (_core.HighsStatus.kOk, value), key
    assert HIGHS_OPTIONS == {
        "output_flag": False, "log_to_console": False, "presolve": "on",
        "simplex_strategy": int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        "highs_debug_level": int(_core.HighsDebugLevel.kHighsDebugLevelNone),
        "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
        "presolve_rule_off": 1024}
    # The array overload of passModel, as _occupation_lp calls it: minimize x0 + 2 x1
    # subject to x0 + x1 == 1 and x >= 0.
    assert highs.passModel(2, 1, 2, best_response._COLWISE, best_response._MINIMIZE, 0.0,
                           np.array([1.0, 2.0]), np.zeros(2), np.full(2, np.inf), np.ones(1),
                           np.ones(1), np.array([0, 1], dtype=np.int32),
                           np.zeros(2, dtype=np.int32), np.ones(2),
                           np.zeros(2, dtype=np.int32)) == _core.HighsStatus.kOk
    assert highs.getNumCol() == 2 and highs.getNumRow() == 1 and highs.getNumNz() == 2
    assert highs.run() == _core.HighsStatus.kOk
    assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal
    solution = highs.getSolution()
    assert list(solution.col_value) == [1.0, 0.0] and list(solution.row_value) == [1.0]


def _fresh_solver(monkeypatch):
    """Make the next LP build its solver anew, from the current `_h` and
    `HIGHS_OPTIONS`, and drop it when the test ends."""
    monkeypatch.setattr(best_response, "_local", threading.local())


def test_presolve_skips_only_dependent_equations(ctrap, monkeypatch, capfd):
    # HiGHS numbers its presolve rules; if it renumbers them, bit 1024 would
    # switch off another rule without a word, so read the name from its log.
    monkeypatch.setitem(HIGHS_OPTIONS, "output_flag", True)
    monkeypatch.setitem(HIGHS_OPTIONS, "log_to_console", True)
    _fresh_solver(monkeypatch)
    assert constrained_best_response(induced_mdp(ctrap, 0, [])).feasible
    log = capfd.readouterr().out
    block = log.split("Presolve rules not allowed:\n", 1)[1].split("Presolving model", 1)[0]
    assert block.splitlines() == ["   Rule 10 (bit 1024): Dependent equations"]


def test_refused_option_is_named_and_no_solver_kept(ctrap, monkeypatch):
    monkeypatch.setitem(HIGHS_OPTIONS, "presolve", "sometimes")
    _fresh_solver(monkeypatch)
    with pytest.raises(RuntimeError, match="HiGHS refused option presolve='sometimes'"):
        constrained_best_response(induced_mdp(ctrap, 0, []))
    assert getattr(best_response._local, "highs", None) is None


def _doctor(field, index, change):
    """getSolution that passes the solver's answer on with one entry changed."""
    def getSolution(self):
        solution = _core._Highs.getSolution(self)
        values = getattr(solution, field)
        values[index] = change(values[index])
        setattr(solution, field, values)
        return solution
    return {"getSolution": getSolution}


def _use_highs(monkeypatch, methods):
    doctored = type("DoctoredHighs", (_core._Highs,), methods)
    monkeypatch.setattr(best_response, "_h", SimpleNamespace(**{**vars(_core), "_Highs": doctored}))
    _fresh_solver(monkeypatch)


# At the constrained trap's optimum x = [0.6, 0.2, 0.2, 0]; row 0 is the
# budget (0.6, binding) and rows 1-2 are the flow rows.
DOCTORED = {
    "column below its bound": _doctor("col_value", 3, lambda v: -2e-9),
    "budget row over": _doctor("row_value", 0, lambda v: 0.6 + 2e-9),
    "equality residual": _doctor("row_value", 1, lambda v: v + 2e-9),
    "NaN": _doctor("col_value", 0, lambda v: math.nan),
}


@pytest.mark.parametrize("case", DOCTORED)
def test_solution_check_rejects_doctored_optimum(ctrap, monkeypatch, case):
    _use_highs(monkeypatch, DOCTORED[case])
    with pytest.raises(RuntimeError, match="breaks a bound or constraint"):
        constrained_best_response(induced_mdp(ctrap, 0, []))


@pytest.mark.parametrize("methods", [
    _doctor("col_value", 3, lambda v: -5e-10),
    _doctor("row_value", 0, lambda v: 0.6 + 5e-10),
    _doctor("row_value", 1, lambda v: v + 5e-10),
])
def test_solution_check_allows_errors_within_tolerance(ctrap, monkeypatch, methods):
    _use_highs(monkeypatch, methods)
    assert constrained_best_response(induced_mdp(ctrap, 0, [])).feasible


@pytest.mark.parametrize("methods", [
    {"getModelStatus": lambda self: _core.HighsModelStatus.kUnboundedOrInfeasible},
    {"getModelStatus": lambda self: _core.HighsModelStatus.kIterationLimit},
    {"run": lambda self: _core.HighsStatus.kError},
    {"passModel": lambda self, *args: _core.HighsStatus.kError},
    {"setOptionValue": lambda self, name, value: _core.HighsStatus.kError},
])
def test_solver_failure_raises(ctrap, monkeypatch, methods):
    _use_highs(monkeypatch, methods)
    with pytest.raises(RuntimeError, match="LP solver failure"):
        constrained_best_response(induced_mdp(ctrap, 0, []))


# HiGHS's optimum with x[0] moved by 1e-6 and its row values left alone:
# the solution checks on the rows pass, and only the flow-balance check on
# x itself stands between it and a certificate.
OFF_FLOW = _doctor("col_value", 0, lambda v: v + 1e-6)


def test_flow_balance_check_rejects_what_solve_passes(ctrap, monkeypatch):
    _use_highs(monkeypatch, OFF_FLOW)
    with pytest.raises(RuntimeError, match="LP flow-balance residual 5.000e-07"):
        constrained_best_response(induced_mdp(ctrap, 0, []))


@pytest.mark.parametrize("case", [*DOCTORED, "off flow balance"])
def test_best_respond_on_doctored_optimum_exits_4(ctrap, tmp_path, monkeypatch, case):
    game = tmp_path / "game.json"
    game.write_text(_dump(game_to_payload(ctrap)))
    strat = tmp_path / "strategy.json"
    strat.write_text(_dump(strategy_to_payload(sample_games.trap_profile(0.2))))
    _use_highs(monkeypatch, DOCTORED.get(case, OFF_FLOW))
    out = tmp_path / "out"
    assert main(["best-respond", str(game), str(strat), "--player", "0",
                 "--out-dir", str(out)]) == EXIT_SOLVER


def test_slater_margin_refuses_an_infeasible_flow_polytope(ctrap, monkeypatch):
    _use_highs(monkeypatch, {"getModelStatus": lambda self: _core.HighsModelStatus.kInfeasible})
    with pytest.raises(RuntimeError, match="slack LP reported infeasible"):
        slater_margin(induced_mdp(ctrap, 0, []))


@pytest.mark.parametrize("extra", [-1, 2])
def test_objective_length_sets_the_lp_width(ctrap, extra):
    # S*A entries solve the occupation LP, S*A + 1 add the epigraph column,
    # and any other length is refused rather than truncated or padded.
    mdp = induced_mdp(ctrap, 0, [])
    s_a = mdp.n_states * mdp.n_profiles
    assert best_response._occupation_lp(mdp, np.zeros(s_a))[0].shape == (s_a,)
    assert best_response._occupation_lp(mdp, np.zeros(s_a + 1))[0].shape == (s_a + 1,)
    with pytest.raises(ValueError, match="columns"):
        best_response._occupation_lp(mdp, np.zeros(s_a + extra))


LP_KINDS = {
    "best response": constrained_best_response,
    "slater": slater_margin,
}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 15), a=st.integers(1, 4),
       n_layers=st.integers(1, 2), data=st.data(),
       lps=st.lists(st.tuples(st.sampled_from(sorted(LP_KINDS)), st.booleans()),
                    min_size=2, max_size=10))
def test_reused_solver_matches_a_fresh_one(seed, s, a, n_layers, data, lps):
    # Each thread keeps one solver for its LPs.  Passing it a model drops
    # the previous basis, so it must give what a new solver per LP gives, bit
    # for bit, infeasible LPs and a failed run() along the way included.  As
    # in a search, the LPs share a shape, so a kept basis would fit the next.
    # One LP is above _LARGE_LP_ENTRIES (S=60, A=6: about 22k entries): its
    # solver is dropped whatever the outcome, and the next LP makes another.
    rng = np.random.default_rng(seed)
    large_at = data.draw(st.integers(0, len(lps) - 1), label="large_at")
    mdps = []
    for k, (kind, infeasible) in enumerate(lps):
        n_states, n_actions = (60, 6) if k == large_at else (s, a)
        mdp = sample_games.random_game(rng, n_players=1, n_states=n_states,
                                       n_actions=(n_actions,), n_layers=n_layers)
        if infeasible:
            # Costs lie in [-1, 1], so no strategy meets a budget of -2.
            mdp = replace(mdp, constraint_bounds=np.full((1, n_layers), -2.0))
        mdps.append((LP_KINDS[kind], mdp))
    fail_at = data.draw(st.integers(0, len(mdps) - 1), label="fail_at")

    def solve_all(fresh):
        runs = []

        class FailOnce(_core._Highs):
            def run(self):
                runs.append(self)
                if len(runs) == fail_at + 1:
                    return _core.HighsStatus.kError
                return _core._Highs.run(self)

        results = []

        def recording(*args):
            results.append(occupation_lp(*args))
            return results[-1]

        occupation_lp = best_response._occupation_lp
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(best_response, "_h",
                          SimpleNamespace(**{**vars(_core), "_Highs": FailOnce}))
            patch.setattr(best_response, "_occupation_lp", recording)
            patch.setattr(best_response, "_local", threading.local())
            for k, (call, mdp) in enumerate(mdps):
                if fresh:
                    patch.setattr(best_response, "_local", threading.local())
                try:
                    call(mdp)
                except RuntimeError as error:
                    results.append(str(error))
                kept = getattr(best_response._local, "highs", None)
                assert (kept is None) == (k == large_at)
        assert len(runs) == len(mdps)
        # `runs` holds every solver, so no two share an id.
        made = len(mdps) if fresh else 1 + (large_at < len(mdps) - 1)
        assert len({id(highs) for highs in runs}) == made
        return results

    reused, fresh = solve_all(fresh=False), solve_all(fresh=True)
    assert len(reused) == len(fresh) == len(mdps)
    assert sum(isinstance(x, str) for x in reused) == 1
    assert isinstance(reused[fail_at], str) and "LP solver failure" in reused[fail_at]
    for got, want in zip(reused, fresh):
        assert type(got) is type(want)
        if isinstance(got, tuple):
            # (x, theta, residuals, multipliers): the arrays bit for bit.
            assert [got[k].tobytes() for k in (0, 1, 3)] == [want[k].tobytes() for k in (0, 1, 3)]
            assert got[2] == want[2]
        else:
            assert got == want


def test_threads_keep_their_own_solvers():
    # Two threads solve alternate LPs of one list at the same time; each
    # answer equals the one-thread answer bit for bit, and each thread made
    # its own solver.
    mdps = []
    for seed in range(24):
        rng = np.random.default_rng([11, seed])
        s, a = int(rng.integers(2, 20)), int(rng.integers(2, 5))
        mdps.append(sample_games.random_game(rng, n_players=1, n_states=s, n_actions=(a,),
                                             n_layers=int(rng.integers(0, 3))))

    def solve(mdp):
        lp = best_response._occupation_lp(mdp, mdp.costs[0, 0].ravel())
        return None if lp is None else lp[0]

    want = [solve(mdp) for mdp in mdps]
    assert any(x is None for x in want) and any(x is not None for x in want)
    got, solvers, errors = [None] * len(mdps), [None, None], []
    start = threading.Barrier(2, timeout=30)

    def work(k):
        try:
            start.wait()
            for index in range(k, len(mdps), 2):
                got[index] = solve(mdps[index])
            solvers[k] = best_response._solver(0)
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for x, y in zip(got, want):
        assert (x is None) == (y is None)
        if x is not None:
            assert x.tobytes() == y.tobytes()
    assert solvers[0] is not solvers[1]
    assert best_response._solver(0) not in solvers
