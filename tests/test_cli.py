import json
import math

import numpy as np
import pytest

from csgames import FiniteCSG, sample_games, wessels_cost_relation
from csgames.cli import (
    EXIT_CERTIFIED_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    _dump,
    certificate_to_payload,
    game_to_payload,
    main,
    spec_to_payload,
    strategy_to_payload,
)
from csgames.equilibrium import verify_approx_equilibrium
from csgames.game import CorrelatedStrategy, MarkovStrategy, StationaryProfile


def write(path, payload):
    path.write_text(_dump(payload))
    return str(path)


def write_game(tmp_path, game, name="game.json", extra=None):
    return write(tmp_path / name, game_to_payload(game, extra=extra))


def write_profile(tmp_path, profile, name="strategy.json"):
    return write(tmp_path / name, strategy_to_payload(profile))


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def zero_cost_single_player():
    base = sample_games.trap_game()
    return FiniteCSG(
        n_actions=base.n_actions,
        costs=np.zeros_like(base.costs),
        transitions=base.transitions,
        discount=base.discount,
        initial=base.initial,
        constraint_bounds=base.constraint_bounds,
        cost_bound=1.0,
    )


def asymmetric_pennies():
    """One state, two players, unique interior mixed equilibrium at
    (2/3, 1/2); best-response iteration cannot pin it down exactly."""
    costs = np.zeros((2, 1, 1, 4))
    costs[0, 0, 0] = [0.0, 1.0, 1.0, 0.0]
    costs[1, 0, 0] = [1.0, 0.0, 0.0, 2.0]
    transitions = np.ones((1, 4, 1))
    return FiniteCSG(
        n_actions=(2, 2),
        costs=costs,
        transitions=transitions,
        discount=0.5,
        initial=np.array([1.0]),
        constraint_bounds=np.zeros((2, 0)),
        cost_bound=2.0,
    )


def pair_profile(q1=0.75, q2=0.75):
    rows1 = sample_games.trap_profile(q1, n_states=4).rows[0]
    rows2 = sample_games.trap_profile(q2, n_states=4).rows[0]
    return StationaryProfile((rows1, rows2))


def test_evaluate_trap(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    assert main(["evaluate", game, strat, "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "evaluate.report.json")
    np.testing.assert_allclose(report["results"]["values"], [[0.4, 0.6]],
                               atol=1e-9)
    assert game in report["inputs"]


def test_evaluate_zero_costs(tmp_path):
    game = write_game(tmp_path, zero_cost_single_player())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.3))
    assert main(["evaluate", game, strat, "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "evaluate.report.json")
    np.testing.assert_allclose(report["results"]["values"], 0.0, atol=1e-15)


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    assert main(["evaluate", str(bad), strat,
                 "--out-dir", str(tmp_path)]) == EXIT_PARSE


def test_wrong_schema_exits_2(tmp_path):
    doc = game_to_payload(sample_games.trap_game())
    doc["schema"] = "something-else"
    game = write(tmp_path / "game.json", doc)
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    assert main(["evaluate", game, strat,
                 "--out-dir", str(tmp_path)]) == EXIT_PARSE


def test_invalid_rows_exit_3(tmp_path):
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    # Non-finite entries must fail validation too, although every comparison
    # with NaN is false.
    for field, index, value in (("transitions", (0, 0, 0), 0.7),
                                ("transitions", (0, 0, 0), math.nan),
                                ("transitions", (1, 1, 0), math.inf),
                                ("costs", (0, 0, 0, 0), math.nan),
                                ("initial", (1,), math.nan)):
        doc = game_to_payload(sample_games.trap_game())
        table = np.array(doc[field])
        table[index] = value
        doc[field] = table.tolist()
        game = write(tmp_path / "game.json", doc)
        for command in ("evaluate", "simulate"):
            assert main([command, game, strat, "--out-dir", str(tmp_path)]) \
                == EXIT_VALIDATION, (command, field, value)


def test_verify_pair_equilibrium(tmp_path):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    strat = write_profile(tmp_path, pair_profile())
    assert main(["verify", game, strat, "--epsilon", "1e-6",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    cert = read_json(tmp_path, "verify.certificate.json")
    assert cert["passed"]
    assert cert["epsilon"] <= 1e-6


def test_verify_budget_violation_reported(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(1.0))
    assert main(["verify", game, strat, "--epsilon", "0.1",
                 "--out-dir", str(tmp_path)]) == EXIT_CERTIFIED_FAIL
    cert = read_json(tmp_path, "verify.certificate.json")
    assert not cert["passed"]
    assert abs(cert["players"][0]["feasibility_excess"] - 0.4) <= 1e-9


def test_verify_single_action_game_all_concepts(tmp_path):
    game_obj = FiniteCSG(
        n_actions=(1, 1),
        costs=np.full((2, 1, 2, 1), 0.5),
        transitions=np.full((2, 1, 2), 0.5),
        discount=0.5,
        initial=np.array([1.0, 0.0]),
        constraint_bounds=np.zeros((2, 0)),
        cost_bound=1.0,
    )
    game = write_game(tmp_path, game_obj)
    ones = np.ones((2, 1))
    profile = write_profile(tmp_path, StationaryProfile((ones, ones)))
    corr = write(tmp_path / "corr.json", strategy_to_payload(
        CorrelatedStrategy((1, 1), np.ones((2, 1)))))
    for concept, strat in (("approx", profile), ("statewise", profile),
                           ("weak-correlated", corr)):
        assert main(["verify", game, strat, "--concept", concept,
                     "--epsilon", "0", "--out-dir", str(tmp_path)]) == EXIT_OK


def test_wrong_strategy_class_exits_3(tmp_path):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    strat = write_profile(tmp_path, pair_profile())
    assert main(["verify", game, strat, "--concept", "weak-correlated",
                 "--out-dir", str(tmp_path)]) == EXIT_VALIDATION


def test_solve_single_player(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    assert main(["solve", game, "--out-dir", str(tmp_path)]) == EXIT_OK
    cert = read_json(tmp_path, "solve.certificate.json")
    assert cert["epsilon"] <= 1e-8
    strat = read_json(tmp_path, "solve.strategy.json")
    assert abs(strat["rows"][0][0][0] - 0.75) <= 1e-4


def test_solve_zero_costs(tmp_path):
    game = write_game(tmp_path, zero_cost_single_player())
    assert main(["solve", game, "--out-dir", str(tmp_path)]) == EXIT_OK


def test_solve_unreachable_target_exits_1(tmp_path):
    game = write_game(tmp_path, asymmetric_pennies())
    rc = main(["solve", game, "--target-eps", "1e-10", "--restarts", "2",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_CERTIFIED_FAIL
    # best effort is still written
    cert = read_json(tmp_path, "solve.certificate.json")
    assert cert["epsilon"] > 1e-10
    report = read_json(tmp_path, "solve.report.json")
    assert not report["results"]["achieved"]


def test_best_respond(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.2))
    assert main(["best-respond", game, strat, "--player", "0",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "best-respond.report.json")
    assert abs(report["results"]["value"] - 0.4) <= 1e-6
    out = read_json(tmp_path, "best-respond.strategy.json")
    assert abs(out["rows"][0][0][0] - 0.75) <= 1e-4


def test_simulate_report(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    assert main(["simulate", game, strat, "--trajectories", "4000",
                 "--seed", "3", "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "simulate.report.json")
    est = np.array(report["results"]["estimates"])[0]
    radii = np.array(report["results"]["confidence_radii"])[0]
    bias = report["results"]["truncation_bias_bound"]
    assert np.all(np.abs(est - [0.4, 0.6]) <= 4.0 * radii + bias)


def test_discretize_flat_density_single_cell(tmp_path):
    spec = sample_games.linear_cost_grid_spec(n_points=9)
    # make the costs state-independent too: one cell suffices
    flat = spec_to_payload(spec)
    flat["costs"] = np.zeros_like(np.array(flat["costs"])).tolist()
    path = write(tmp_path / "spec.json", flat)
    assert main(["discretize", path, "--gamma", "0.5",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "discretize.report.json")
    assert report["results"]["n_cells"] == 1


def test_discretize_linear_fixture(tmp_path):
    spec = sample_games.linear_cost_grid_spec()
    path = write(tmp_path / "spec.json", spec_to_payload(spec))
    assert main(["discretize", path, "--gamma", "0.3",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "discretize.report.json")
    assert report["results"]["n_cells"] == 4
    assert abs(report["results"]["certified_error"] - 0.6) <= 1e-12
    game = read_json(tmp_path, "discretize.game.json")
    assert game["n_states"] == 4


def test_discretize_epsilon_sets_resolution(tmp_path):
    spec = sample_games.linear_cost_grid_spec()
    path = write(tmp_path / "spec.json", spec_to_payload(spec))
    assert main(["discretize", path, "--epsilon", "0.2",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "discretize.report.json")
    assert abs(report["results"]["resolution"] - 0.1) <= 1e-12


def test_discretize_gamma_epsilon_exclusive(tmp_path):
    spec = sample_games.linear_cost_grid_spec()
    path = write(tmp_path / "spec.json", spec_to_payload(spec))
    with pytest.raises(SystemExit):
        main(["discretize", path, "--gamma", "0.3", "--epsilon", "0.2"])


def test_transform_constant_weight(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game(),
                      extra={"transform": {"omega": [2.0, 2.0], "beta": 1.2}})
    assert main(["transform", game, "--out-dir", str(tmp_path)]) == EXIT_OK
    out = read_json(tmp_path, "transform.game.json")
    trans = np.array(out["transitions"])
    np.testing.assert_allclose(trans[:2, :, 2], 1.0 - 1.0 / 1.2, atol=1e-12)


def test_transform_uneven_weight_relation(tmp_path):
    base = sample_games.constrained_trap_game()
    # state 0 can reach state 1, so omega must not grow along that edge:
    # sum omega(y) p(y | 0, a1) = omega(1) <= beta * omega(0) holds easily
    omega = [3.0, 1.0]
    game = write_game(tmp_path, base,
                      extra={"transform": {"omega": omega, "beta": 1.5}})
    assert main(["transform", game, "--out-dir", str(tmp_path)]) == EXIT_OK
    report = wessels_cost_relation(base, np.array(omega), 1.5,
                                   sample_games.trap_profile(0.75))
    assert report.passed


def test_transform_bad_discount_exits_3(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game(),
                      extra={"transform": {"omega": [1.0, 1.0], "beta": 2.5}})
    assert main(["transform", game,
                 "--out-dir", str(tmp_path)]) == EXIT_VALIDATION


def test_transform_missing_block_exits_3(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    assert main(["transform", game,
                 "--out-dir", str(tmp_path)]) == EXIT_VALIDATION


def test_sequence_monotone_targets(tmp_path):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    assert main(["correlated-sequence", game, "--eps0", "0.2", "--n", "3",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "correlated-sequence.report.json")
    targets = [lvl["epsilon_target"] for lvl in report["results"]["levels"]]
    np.testing.assert_allclose(targets, [0.2, 0.1, 0.05, 0.025], atol=1e-15)
    assert report["results"]["final_passed"]


def test_sequence_single_level(tmp_path):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    assert main(["correlated-sequence", game, "--eps0", "0.2", "--n", "0",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "correlated-sequence.report.json")
    assert len(report["results"]["levels"]) == 1


def test_reports_deterministic_modulo_timing(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        assert main(["solve", game, "--seed", "9",
                     "--out-dir", str(tmp_path / sub)]) == EXIT_OK
    for name in ("solve.report.json", "solve.strategy.json",
                 "solve.certificate.json"):
        docs = []
        for sub in ("a", "b"):
            doc = json.loads((tmp_path / sub / name).read_text())
            doc.pop("timing", None)
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


def test_document_round_trip_is_byte_stable(tmp_path):
    rng = np.random.default_rng(5)
    pair = sample_games.decoupled_pair()
    one = sample_games.random_game(rng, n_players=1, n_states=3)
    heads, tail = sample_games.random_markov_plan(rng, one, 2)
    documents = {
        "finite game": game_to_payload(pair),
        "stationary": strategy_to_payload(pair_profile()),
        "correlated": strategy_to_payload(sample_games.random_correlated(rng, pair)),
        "markov": strategy_to_payload(
            MarkovStrategy(0, tuple(h.rows[0] for h in heads), tail.rows[0])),
        "grid spec": spec_to_payload(sample_games.random_continuous_spec(rng, n_points=7)),
        "certificate": certificate_to_payload(
            verify_approx_equilibrium(pair, pair_profile(), 0.0)),
    }
    for name, payload in documents.items():
        path = tmp_path / "doc.json"
        write(path, payload)
        raw = path.read_bytes()
        assert _dump(json.loads(raw)).encode() == raw, name
