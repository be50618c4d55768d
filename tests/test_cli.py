import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csgames import (
    ContinuousGameSpec,
    FiniteCSG,
    evaluate_markov,
    evaluate_profile,
    markov_replacement,
    sample_games,
    validate_spec,
    wessels_cost_relation,
)
from csgames.cli import (
    EXIT_CERTIFIED_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    _dump,
    _plain,
    certificate_to_payload,
    game_to_payload,
    load_game,
    load_spec,
    load_strategy,
    main,
    spec_to_payload,
    strategy_to_payload,
)
from csgames.equilibrium import verify_approx_equilibrium
from csgames.game import CorrelatedStrategy, MarkovStrategy, StationaryProfile, product_strategy


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
    (2/3, 1/2); damped best-response iteration cannot pin it down exactly,
    and the search's Newton finish does."""
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


def test_evaluate_and_verify_large_costs(tmp_path):
    # Scaled by 1e7, the values' solve residual is about 4e-10, as accurate
    # relative to them as the unscaled solve; an absolute 1e-10 bound made
    # this valid game exit 4.
    rng = np.random.default_rng(3)
    game = sample_games.random_game(rng, 2, 30, (2, 2), discount=0.99)
    strat = write_profile(tmp_path, sample_games.random_profile(rng, game))
    big = replace(game, costs=game.costs * 1e7, constraint_bounds=game.constraint_bounds * 1e7,
                  cost_bound=1e7)
    values = {}
    for name, g in (("small", game), ("big", big)):
        path = write_game(tmp_path, g, name=f"{name}.json")
        out = tmp_path / name
        assert main(["evaluate", path, strat, "--out-dir", str(out)]) == EXIT_OK
        values[name] = np.array(read_json(out, "evaluate.report.json")["results"]
                                ["values_per_state"])
        assert main(["verify", path, strat, "--epsilon", "1e9",
                     "--out-dir", str(out)]) == EXIT_OK
    np.testing.assert_allclose(values["big"], 1e7 * values["small"], rtol=1e-12, atol=0.0)


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    assert main(["evaluate", str(bad), strat,
                 "--out-dir", str(tmp_path)]) == EXIT_PARSE


def test_report_digests_the_bytes_read(tmp_path, monkeypatch):
    # Each input is read once; its digest is of those bytes, whichever command
    # read it and even if the file changes before the report is written.
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    expected = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (game, strat)}
    assert main(["evaluate", game, strat, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert read_json(tmp_path, "evaluate.report.json")["inputs"] == expected

    def rewrite_then_evaluate(*args):
        Path(game).write_text(Path(game).read_text() + "\n")
        return evaluate_profile(*args)

    monkeypatch.setattr("csgames.cli.evaluate_profile", rewrite_then_evaluate)
    assert main(["evaluate", game, strat, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert read_json(tmp_path, "evaluate.report.json")["inputs"] == expected


def test_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["evaluate", str(bad), str(bad), "--out-dir", str(tmp_path)]) == EXIT_PARSE
    assert "bad.json is not UTF-8 text" in capsys.readouterr().err


def test_wrong_schema_exits_2(tmp_path):
    doc = game_to_payload(sample_games.trap_game())
    doc["schema"] = "something-else"
    game = write(tmp_path / "game.json", doc)
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    assert main(["evaluate", game, strat,
                 "--out-dir", str(tmp_path)]) == EXIT_PARSE


@pytest.mark.parametrize("case, message", [
    ("missing-discount", "missing field 'discount'"),
    ("top-level-list", "top level must be a JSON object"),
    ("directory", "cannot read"),
], ids=["missing-discount", "top-level-list", "directory"])
def test_unreadable_game_exits_2(tmp_path, capsys, case, message):
    doc = game_to_payload(sample_games.trap_game())
    del doc["discount"]
    if case == "directory":
        game = str(tmp_path)
    else:
        game = write(tmp_path / "game.json", doc if case == "missing-discount" else [1, 2])
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    out = tmp_path / "out"
    assert main(["evaluate", game, strat, "--out-dir", str(out)]) == EXIT_PARSE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("document, key, value", [
    ("game", "kind", []),
    ("game", "kind", {}),
    ("game", "n_actions", [math.inf]),
    ("strategy", "class", []),
    ("strategy", "rows", [1, 2]),
    ("spec", "kind", {}),
    ("spec", "points", None),
    ("spec", "points", 0),
    ("spec", "points", 2.5),
    ("spec", "weights", None),
    ("spec", "weights", 0),
    ("spec", "weights", 2.5),
    ("game", "discount", "0.5"),
    ("game", "cost_bound", "1"),
    ("game", "initial", ["1.0", "0.0"]),
    ("game", "initial", [1.0, "0.0"]),
    ("game", "initial", [None, "0.0"]),
    ("strategy", "rows", [[["0.75", "0.25"], ["0.75", "0.25"]]]),
    ("spec", "weights", ["0.5"] * 101),
    ("game", "initial", [True, False]),
    ("game", "initial", [True, 0.0]),
    ("game", "cost_bound", True),
    ("game", "discount", False),
    ("strategy", "rows", [[[True, False], [True, False]]]),
    ("spec", "weights", [True] + [0.0] * 100),
    ("game", "n_states", 7),
    ("game", "n_constraint_layers", 5),
    ("game", "n_states", "2"),
    ("game", "n_states", None),
    ("game", "n_states", 2.0),
    ("spec", "n_points", 3),
    ("spec", "n_constraint_layers", True),
], ids=["game-kind-list", "game-kind-object", "game-n_actions-inf", "strategy-class-list",
        "strategy-rows-scalars", "spec-kind-object", "spec-points-null", "spec-points-0",
        "spec-points-2.5", "spec-weights-null", "spec-weights-0", "spec-weights-2.5",
        "game-discount-string", "game-cost_bound-string", "game-initial-strings",
        "game-initial-number-and-string", "game-initial-null-and-string",
        "strategy-rows-strings", "spec-weights-strings", "game-initial-booleans",
        "game-initial-boolean-and-number", "game-cost_bound-true", "game-discount-false",
        "strategy-rows-booleans", "spec-weights-boolean-and-numbers", "game-n_states-7",
        "game-n_constraint_layers-5", "game-n_states-string", "game-n_states-null",
        "game-n_states-float", "spec-n_points-3", "spec-n_constraint_layers-true"])
def test_malformed_document_exits_2(tmp_path, capsys, document, key, value):
    # Each of these escaped main as a TypeError (an unhashable tag), an
    # IndexError (a shape read before the rank was checked) or an
    # OverflowError (an action count of Infinity, which json reads), or, for
    # numbers written as JSON strings or booleans, was read as the number (a
    # boolean as 0 or 1); a float field now refuses both, as an integer field
    # does.  The declared sizes were never read, so a wrong one loaded.
    docs = {"game": game_to_payload(sample_games.trap_game()),
            "strategy": strategy_to_payload(sample_games.trap_profile(0.75)),
            "spec": spec_to_payload(sample_games.linear_cost_grid_spec())}
    docs[document][key] = value
    paths = {name: write(tmp_path / f"{name}.json", doc) for name, doc in docs.items()}
    argv = (["discretize", paths["spec"], "--gamma", "0.5"] if document == "spec"
            else ["evaluate", paths["game"], paths["strategy"]])
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("parse error: ")
    assert not out.exists()


def test_deeply_nested_document_exits_2(tmp_path, capsys):
    # json's decoder recurses once per level; its RecursionError is a
    # RuntimeError, which main reported as a solver error (exit 4).
    game = tmp_path / "game.json"
    game.write_text("[" * 200_000 + "]" * 200_000)
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    out = tmp_path / "out"
    assert main(["evaluate", str(game), strat, "--out-dir", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"parse error: {game} is not valid JSON")
    assert not out.exists()


@pytest.mark.parametrize("out_dir, bad", [
    ("afile", "afile"),
    ("afile/sub", "afile/sub"),
    ("out", "out/evaluate.report.json"),
], ids=["out-dir-is-a-file", "out-dir-under-a-file", "report-is-a-folder"])
def test_unusable_out_dir_exits_3(tmp_path, capsys, out_dir, bad):
    # mkdir's FileExistsError and NotADirectoryError, and write_text's
    # IsADirectoryError, left main as tracebacks with exit 1, the code for a
    # target that was not met.  (A permission error is not tested: root may
    # write anywhere.)
    (tmp_path / "afile").write_text("")
    (tmp_path / "out" / "evaluate.report.json").mkdir(parents=True)
    game = write_game(tmp_path, sample_games.trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    assert main(["evaluate", game, strat, "--out-dir", str(tmp_path / out_dir)]) == EXIT_VALIDATION
    assert str(tmp_path / bad) in capsys.readouterr().err


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_unusable_out_dir_fails_before_the_work(tmp_path, capsys, monkeypatch, out_dir):
    # The folder was made only after the command's work, so `solve` ran its
    # whole search and printed its verdict before exiting 3.
    (tmp_path / "afile").write_text("")
    game = write_game(tmp_path, sample_games.decoupled_pair())
    monkeypatch.setattr("csgames.cli.search_equilibrium",
                        lambda *args: pytest.fail("the search ran"))
    assert main(["solve", game, "--out-dir", str(tmp_path / out_dir)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(tmp_path / out_dir) in captured.err


def test_failed_write_leaves_no_documents(tmp_path, capsys):
    # The report cannot be written over a folder; the strategy and the
    # certificate written before it are removed again, and the folder stays.
    game = write_game(tmp_path, sample_games.decoupled_pair())
    out = tmp_path / "out"
    (out / "solve.report.json").mkdir(parents=True)
    assert main(["solve", game, "--out-dir", str(out)]) == EXIT_VALIDATION
    assert str(out / "solve.report.json") in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["solve.report.json"]
    assert not any((out / "solve.report.json").iterdir())


def test_failed_run_removes_the_folders_it_made(tmp_path, capsys):
    game = write_game(tmp_path, sample_games.trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75, n_states=3))
    out = tmp_path / "new" / "out"
    assert main(["evaluate", game, strat, "--out-dir", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: ")
    assert not (tmp_path / "new").exists()


def test_only_strategies_are_written_as_strategies():
    with pytest.raises(TypeError, match="cannot serialize strategy"):
        strategy_to_payload(object())


@pytest.mark.parametrize("kind", ["fraction", "float", "string", "bool"])
@pytest.mark.parametrize("document, key", [
    ("game", "n_actions"), ("spec", "n_actions"), ("correlated", "n_actions"),
    ("markov", "player")])
def test_integer_fields_refuse_non_integers_exit_2(tmp_path, capsys, document, key, kind):
    # These fields went through int(): n_actions [2.9] or ["2"] loaded as
    # [2], and `evaluate` exited 0.
    profile = sample_games.trap_profile(0.75)
    docs = {"game": game_to_payload(sample_games.constrained_trap_game()),
            "spec": spec_to_payload(sample_games.linear_cost_grid_spec()),
            "correlated": strategy_to_payload(product_strategy(profile)),
            "markov": strategy_to_payload(MarkovStrategy(0, profile.rows, profile.rows[0]))}
    doc = docs[document]
    valid = doc[key][0] if key == "n_actions" else doc[key]
    bad = {"fraction": valid + 0.9, "float": float(valid), "string": str(valid),
           "bool": bool(valid)}[kind]
    if key == "n_actions":
        doc[key][0] = bad
    else:
        doc[key] = bad
    paths = {name: write(tmp_path / f"{name}.json", d) for name, d in docs.items()}
    if document == "spec":
        argv = ["discretize", paths["spec"], "--gamma", "0.5"]
    else:
        argv = ["evaluate", paths["game"], paths["markov" if document == "markov" else "correlated"]]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_PARSE
    what = "n_actions entry" if key == "n_actions" else "player"
    assert f"{what} must be an integer; got {bad!r}" in capsys.readouterr().err
    assert not out.exists()


def test_loaders_return_the_document_without_its_fields(tmp_path):
    # The fields leave the document as the loader builds its dataclass; the
    # entries that are not fields, such as a transform block, stay.
    block = {"omega": [1.0, 2.0], "beta": 0.5}
    game_doc = game_to_payload(sample_games.trap_game(), extra={"transform": block})
    spec_doc = spec_to_payload(sample_games.linear_cost_grid_spec())
    _, rest = load_game(write(tmp_path / "game.json", game_doc))
    assert rest == {key: game_doc[key] for key in ("schema", "kind", "n_states",
                                                   "n_constraint_layers", "transform")}
    assert not rest.keys() & {f.name for f in fields(FiniteCSG)}
    _, rest = load_spec(write(tmp_path / "spec.json", spec_doc))
    assert rest == {key: spec_doc[key] for key in ("schema", "kind", "n_points",
                                                   "n_constraint_layers")}
    assert not rest.keys() & {f.name for f in fields(ContinuousGameSpec)}


def test_discount_of_one_exits_3(tmp_path, capsys):
    # A game loads with any discount; validation refuses one outside (0, 1).
    doc = game_to_payload(sample_games.trap_game())
    doc["discount"] = 1.0
    game = write(tmp_path / "game.json", doc)
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    out = tmp_path / "out"
    assert main(["evaluate", game, strat, "--out-dir", str(out)]) == EXIT_VALIDATION
    assert "discount must lie in (0, 1); got 1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    ("verify", "expected kind 'finite', found 'grid'"),
    ("discretize", "expected kind 'grid', found 'finite'"),
])
def test_wrong_kind_of_game_exits_2(tmp_path, capsys, command, message):
    # verify takes a finite game and discretize a grid spec; each refuses
    # the other kind as a parse error.
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    argv = {
        "verify": ["verify", write(tmp_path / "spec.json",
                                   spec_to_payload(sample_games.linear_cost_grid_spec())), strat],
        "discretize": ["discretize", write_game(tmp_path, sample_games.trap_game()),
                       "--gamma", "0.5"],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_PARSE
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_linalg_error_exits_4(tmp_path, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")
    monkeypatch.setattr("csgames.cli.evaluate_profile", singular)
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    assert main(["evaluate", game, strat, "--out-dir", str(tmp_path)]) == EXIT_SOLVER


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


def test_concepts_share_one_threshold_rule(tmp_path, capsys):
    # Each player plays the safe action with q = 2J / (1 + J), so that its
    # budget layer is J = 0.6 + 5e-9, 5e-9 over the budget, at every state
    # of the decoupled pair.  A profile and its product have one set of
    # parts, so both concepts give one verdict at each threshold: the budget
    # slack is 1e-9 for both.  Weak-correlated used to ignore --epsilon and
    # allow 1e-8 of slack, and passed this profile at threshold 0.
    J = 0.6 + 5e-9
    profile = pair_profile(2.0 * J / (1.0 + J), 2.0 * J / (1.0 + J))
    game = write_game(tmp_path, sample_games.decoupled_pair())
    strategies = {"approx": write_profile(tmp_path, profile),
                  "weak-correlated": write_profile(tmp_path, product_strategy(profile),
                                                   "psi.json")}
    parts = {}
    for epsilon, code in (("0", EXIT_CERTIFIED_FAIL), ("1e-8", EXIT_OK)):
        for concept, strat in strategies.items():
            out = tmp_path / f"{concept}-{epsilon}"
            assert main(["verify", game, strat, "--concept", concept, "--epsilon", epsilon,
                         "--out-dir", str(out)]) == code, (concept, epsilon)
            assert f"(threshold {float(epsilon):g})" in capsys.readouterr().out
            cert = read_json(out, "verify.certificate.json")
            parts[concept] = [(p["feasibility_excess"], p["best_response_gap"])
                              for p in cert["players"]]
            assert 4e-9 < cert["epsilon"] < 6e-9
        np.testing.assert_allclose(parts["approx"], parts["weak-correlated"], rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("command, code", [("evaluate", EXIT_OK), ("simulate", EXIT_OK),
                                           ("verify", EXIT_CERTIFIED_FAIL)])
def test_profile_rows_at_the_tolerance_are_accepted(tmp_path, capsys, command, code):
    # Rows summing to 1 + 0.9e-9 load; their product rows sum to about
    # 1 + 1.8e-9, which must not make the command refuse the profile.
    game = write_game(tmp_path, sample_games.decoupled_pair())
    rows = np.tile([0.5, 0.5 + 0.9e-9], (4, 1))
    strat = write_profile(tmp_path, StationaryProfile((rows, rows)))
    extra = ["--trajectories", "100"] if command == "simulate" else []
    assert main([command, game, strat, *extra, "--out-dir", str(tmp_path)]) == code
    assert "error" not in capsys.readouterr().err


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
    # No certificate's epsilon is below -1e-3: it is a gap that only rounding
    # takes below zero.
    game = write_game(tmp_path, asymmetric_pennies())
    rc = main(["solve", game, "--target-eps=-1e-3", "--restarts", "2",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_CERTIFIED_FAIL
    # best effort is still written
    cert = read_json(tmp_path, "solve.certificate.json")
    assert cert["epsilon"] > -1e-3
    report = read_json(tmp_path, "solve.report.json")
    assert not report["results"]["achieved"]
    assert report["results"]["newton_attempts"] >= 1


def test_solve_exits_0_when_its_certificate_passes(tmp_path):
    # The search's best certificate here has epsilon 6.2801364607e-4, in the
    # band (target, target + GAP_TOL] where the certificate passes.  The
    # search used to require epsilon <= target: it ran all 60 iterations and
    # exited 1 while writing a passing certificate.
    game = str(Path(__file__).parent / "data" / "golden" / "inputs" / "rand2.game.json")
    assert main(["solve", game, "--restarts", "1", "--seed", "3",
                 "--target-eps", "0.00062801364", "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "solve.report.json")["results"]
    cert = read_json(tmp_path, "solve.certificate.json")
    assert report["achieved"] and cert["passed"]
    assert 0.00062801364 < cert["epsilon"] <= 0.00062801364 + 1e-8
    assert report["iterations"] < 60


def test_solve_finds_interior_mixed_equilibrium(tmp_path):
    # Damped best responses circle the mixed equilibrium; the Newton finish
    # lands on it, and the certificate confirms it.
    game = write_game(tmp_path, asymmetric_pennies())
    assert main(["solve", game, "--target-eps", "1e-10", "--restarts", "1",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "solve.report.json")["results"]
    assert report["epsilon"] <= 1e-10
    assert report["newton_adopted"] >= 1
    rows = read_json(tmp_path, "solve.strategy.json")["rows"]
    np.testing.assert_allclose([rows[0][0][0], rows[1][0][0]], [2.0 / 3.0, 0.5], atol=1e-9)


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


def test_discretized_game_is_accepted_by_solve(tmp_path):
    # The density integrates to 1 - 5e-10, within the row tolerance of specs
    # and games alike, so the surrogate discretize writes loads again.
    spec = sample_games.linear_cost_grid_spec(11)
    spec = replace(spec, density=spec.density * (1.0 - 5e-10))
    path = write(tmp_path / "spec.json", spec_to_payload(spec))
    assert main(["discretize", path, "--gamma", "0.3",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert main(["solve", str(tmp_path / "discretize.game.json"),
                 "--out-dir", str(tmp_path)]) == EXIT_OK


def test_bad_weight_is_reported_once_not_per_row(tmp_path, capsys):
    spec = sample_games.linear_cost_grid_spec(401)
    weights = spec.weights.copy()
    weights[5] = math.nan
    bad = replace(spec, weights=weights)
    assert 0 < len(validate_spec(bad)) <= 3
    path = write(tmp_path / "spec.json", spec_to_payload(bad))
    assert main(["discretize", path, "--gamma", "0.02",
                 "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
    # One header line, then one line per issue.
    assert len(capsys.readouterr().err.splitlines()) <= 4


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


@pytest.mark.parametrize("omega, beta", [
    ([2.0, 2.0], math.nan),
    ([math.nan, 2.0], 1.2),
    ([math.inf, 2.0], 1.2),
], ids=["nan-beta", "nan-omega", "inf-omega"])
def test_transform_non_finite_block_exits_3(tmp_path, omega, beta):
    # NaN fails no `x <= bound` test and inf passes `omega >= 1`; written out,
    # either would be a bare NaN or Infinity, which is not JSON.
    game = write_game(tmp_path, sample_games.constrained_trap_game(),
                      extra={"transform": {"omega": omega, "beta": beta}})
    assert main(["transform", game,
                 "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
    assert not (tmp_path / "transform.game.json").exists()


def test_transform_kernel_growth_exits_3(tmp_path, capsys):
    game = write_game(tmp_path, sample_games.constrained_trap_game(),
                      extra={"transform": {"omega": [1.0, 3.0], "beta": 1.5}})
    assert main(["transform", game,
                 "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
    assert "kernel growth violated at (state 0, profile (1,))" in capsys.readouterr().err
    assert not (tmp_path / "transform.game.json").exists()


def test_transform_malformed_block_exits_2(tmp_path, capsys):
    game = write_game(tmp_path, sample_games.constrained_trap_game(),
                      extra={"transform": {"omega": [2.0, 2.0], "beta": "x"}})
    assert main(["transform", game, "--out-dir", str(tmp_path)]) == EXIT_PARSE
    assert "malformed transform block" in capsys.readouterr().err
    assert not (tmp_path / "transform.game.json").exists()


@pytest.mark.parametrize("omega, beta", [
    ([2.0, 2.0], "1.2"),
    (["2.0", "2.0"], 1.2),
    ([2.0, "2.0"], 1.2),
], ids=["beta-string", "omega-strings", "omega-number-and-string"])
def test_transform_block_numbers_written_as_strings_exit_2(tmp_path, capsys, omega, beta):
    # float() and numpy parse "1.2"; such a block used to load as numbers.
    game = write_game(tmp_path, sample_games.constrained_trap_game(),
                      extra={"transform": {"omega": omega, "beta": beta}})
    assert main(["transform", game, "--out-dir", str(tmp_path)]) == EXIT_PARSE
    assert "malformed transform block" in capsys.readouterr().err
    assert not (tmp_path / "transform.game.json").exists()


@pytest.mark.parametrize("omega, beta", [
    ([2.0, 2.0], 10**400),
    ([10**400, 2.0], 1.2),
], ids=["beta", "omega"])
def test_transform_block_integers_too_large_for_a_float_exit_2(tmp_path, capsys, omega, beta):
    # float() of a 401-digit JSON integer raises OverflowError, which escaped
    # as a traceback and exit 1, the code for a certificate that was not met.
    game = write_game(tmp_path, sample_games.constrained_trap_game(),
                      extra={"transform": {"omega": omega, "beta": beta}})
    assert main(["transform", game, "--out-dir", str(tmp_path)]) == EXIT_PARSE
    assert "malformed transform block: int too large to convert to float" \
        in capsys.readouterr().err
    assert not (tmp_path / "transform.game.json").exists()


def test_transform_missing_block_exits_3(tmp_path):
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    assert main(["transform", game,
                 "--out-dir", str(tmp_path)]) == EXIT_VALIDATION


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_thresholds_exit_3(tmp_path, capsys, value):
    # A NaN threshold fails no `x > threshold` test, so before it was
    # rejected `verify --epsilon nan` printed PASS and exited 0; so did an
    # infinite threshold on a correlated strategy that breaks its budget, and
    # `discretize --gamma inf` wrote Infinity, which is not JSON, into its
    # documents.
    game = write_game(tmp_path, sample_games.decoupled_pair())
    strat = write_profile(tmp_path, pair_profile(0.9))
    psi = write_profile(tmp_path, product_strategy(pair_profile(0.9)), "psi.json")
    spec = write(tmp_path / "spec.json", spec_to_payload(sample_games.linear_cost_grid_spec(11)))
    runs = [
        ("--epsilon", ["verify", game, strat, "--concept", "approx"]),
        ("--epsilon", ["verify", game, psi, "--concept", "weak-correlated"]),
        ("--target-eps", ["solve", game]),
        ("--eps0", ["correlated-sequence", game, "--n", "1"]),
        ("--gamma", ["discretize", spec]),
        ("--epsilon", ["discretize", spec]),
    ]
    for k, (flag, argv) in enumerate(runs):
        out = tmp_path / f"out{k}"
        assert main(argv + [f"{flag}={value}", "--out-dir", str(out)]) == EXIT_VALIDATION, flag
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_verify_has_no_tol(capsys):
    # verify certifies every concept at --epsilon; its weak-correlated --tol,
    # which replaced both tolerances and ignored --epsilon, is gone.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "game.json", "psi.json", "--concept", "weak-correlated",
              "--tol", "1e-6"])
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_simulate_rejects_non_positive_tol(tmp_path, capsys, value):
    # Unchecked, NaN failed inside the horizon computation with "cannot
    # convert float NaN to integer" and 0 or -1 with "math domain error".
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    out = tmp_path / "out"
    assert main(["simulate", game, strat, f"--tol={value}",
                 "--out-dir", str(out)]) == EXIT_VALIDATION
    assert "--tol must be" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_tol_whose_target_underflows_exits_3(tmp_path, capsys):
    # The horizon's target tol * (1 - alpha) / b is 0 for --tol 5e-324 on
    # this game (alpha 0.5, b 1), and its log failed with "math domain error".
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    out = tmp_path / "out"
    assert main(["simulate", game, strat, "--tol=5e-324", "--trajectories", "2",
                 "--out-dir", str(out)]) == EXIT_VALIDATION
    assert "validation error: tol 5e-324 is too small" in capsys.readouterr().err
    assert not out.exists()
    assert main(["simulate", game, strat, "--tol=1e-320", "--trajectories", "2",
                 "--out-dir", str(out)]) == EXIT_OK


def test_simulate_too_many_trajectories_exits_3(tmp_path, capsys):
    # 10^13 trajectories need 291 TiB of totals, more than any address space
    # holds, so the allocation is refused at once and touches no memory.
    # Uncaught, numpy's MemoryError gave a traceback and exit 1, the code
    # for a certificate that was not met.
    game = write_game(tmp_path, sample_games.decoupled_pair())
    strat = write_profile(tmp_path, pair_profile())
    out = tmp_path / "out"
    assert main(["simulate", game, strat, "--trajectories", "10000000000000",
                 "--out-dir", str(out)]) == EXIT_VALIDATION
    assert "validation error: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("flag", ["--gamma", "--epsilon"])
def test_discretize_rejects_non_positive_threshold(tmp_path, capsys, flag, value):
    # Unchecked, `--epsilon=-1` failed with the library's "error must be
    # nonnegative" and the other three with "resolution must be positive",
    # naming no flag.
    spec = write(tmp_path / "spec.json", spec_to_payload(sample_games.linear_cost_grid_spec(11)))
    out = tmp_path / "out"
    assert main(["discretize", spec, f"{flag}={value}", "--out-dir", str(out)]) == EXIT_VALIDATION
    assert f"{flag} must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_discretize_epsilon_whose_resolution_underflows_exits_3(tmp_path, capsys):
    # --epsilon 5e-324 gives resolution 0.0 on this spec (alpha 0.5, b 1),
    # which build_partition refused as "resolution must be positive".
    spec = write(tmp_path / "spec.json", spec_to_payload(sample_games.linear_cost_grid_spec(11)))
    out = tmp_path / "out"
    assert main(["discretize", spec, "--epsilon=5e-324", "--out-dir", str(out)]) \
        == EXIT_VALIDATION
    assert "--epsilon 5e-324 is too small: its resolution underflows to 0" \
        in capsys.readouterr().err
    assert not out.exists()
    assert main(["discretize", spec, "--epsilon=1e-320", "--out-dir", str(out)]) == EXIT_OK


@pytest.mark.parametrize("flag, value, command, message", [
    ("--trajectories", "1", "simulate", "--trajectories must be at least 2"),
    ("--restarts", "0", "solve", "--restarts must be at least 1"),
    ("--restarts", "-5", "solve", "--restarts must be at least 1"),
    ("--seed", "-1", "simulate", "--seed must be nonnegative"),
    ("--seed", "-1", "solve", "--seed must be nonnegative"),
    ("--seed", "-1", "correlated-sequence", "--seed must be nonnegative"),
])
def test_numeric_flag_ranges_exit_3(tmp_path, capsys, flag, value, command, message):
    # Unchecked, `solve --restarts 0` ran one restart and exited 0; the others
    # exited 3 with library or numpy messages that named no flag, and
    # `solve --seed -1` only failed once a second restart drew from the seed.
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75))
    argv = {"simulate": ["simulate", game, strat],
            "solve": ["solve", game, "--restarts", "2"],
            "correlated-sequence": ["correlated-sequence", game, "--eps0", "0.2", "--n", "0"]}
    out = tmp_path / "out"
    assert main(argv[command] + [f"{flag}={value}", "--out-dir", str(out)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, kind", [
    (["simulate", "game.json", "strategy.json", "--tol", "small"], "float"),
    (["solve", "game.json", "--restarts", "1.5"], "int"),
])
def test_unparsable_number_is_a_usage_error(capsys, argv, kind):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    assert f"invalid {kind} value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_strategy_rows_exit_2(tmp_path, capsys, command, bad):
    # A stationary row [NaN, 1] passed the old checks: `simulate` printed
    # J0=0+-0 and exited 0, and `evaluate` exited 3 with scipy's "array must
    # not contain infs or NaNs".  A Markov strategy's rows were not checked.
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    profile = sample_games.trap_profile(0.75)
    docs = {
        "stationary": strategy_to_payload(profile),
        "correlated": strategy_to_payload(product_strategy(profile)),
        "markov": strategy_to_payload(MarkovStrategy(0, profile.rows, profile.rows[0])),
    }
    docs["stationary"]["rows"][0][0] = [bad, 1.0]
    docs["correlated"]["table"][0] = [bad, 1.0]
    docs["markov"]["head"][0][0] = [bad, 1.0]
    for name, doc in docs.items():
        strat = write(tmp_path / f"{name}.json", doc)
        out = tmp_path / f"out-{name}"
        assert main([command, game, strat, "--out-dir", str(out)]) == EXIT_PARSE, name
        assert "parse error" in capsys.readouterr().err
        assert not out.exists()


def test_markov_strategy_for_missing_player_exits_3(tmp_path, capsys):
    # A one-player game has no player 1 to look up the action count of.
    game = write_game(tmp_path, sample_games.constrained_trap_game())
    rows = sample_games.trap_profile(0.75).rows[0]
    strat = write(tmp_path / "markov.json", strategy_to_payload(MarkovStrategy(1, (rows,), rows)))
    out = tmp_path / "out"
    assert main(["evaluate", game, strat, "--out-dir", str(out)]) == EXIT_VALIDATION
    assert "strategy is for player 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    ("evaluate", "a markov strategy alone determines play only in a one-player game"),
    ("simulate", "needs a 'stationary' or 'correlated' strategy, found 'markov'"),
], ids=["evaluate", "simulate"])
def test_markov_strategy_in_two_player_game_exits_3(tmp_path, capsys, command, message):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    rows = sample_games.trap_profile(0.75, n_states=4).rows[0]
    strat = write(tmp_path / "markov.json", strategy_to_payload(MarkovStrategy(0, (rows,), rows)))
    out = tmp_path / "out"
    assert main([command, game, strat, "--out-dir", str(out)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("player", ["2", "-1"])
def test_best_respond_missing_player_exits_3(tmp_path, capsys, player):
    pair = sample_games.decoupled_pair()
    game = write_game(tmp_path, pair)
    strat = write_profile(tmp_path, sample_games.random_profile(np.random.default_rng(0), pair))
    out = tmp_path / "out"
    assert main(["best-respond", game, strat, f"--player={player}",
                 "--out-dir", str(out)]) == EXIT_VALIDATION
    assert f"no player {player}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("concept", ["approx", "statewise", "best-respond"])
def test_verify_mismatched_profile_exits_3(tmp_path, capsys, concept):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    strat = write_profile(tmp_path, sample_games.trap_profile(0.75, n_states=4))
    out = tmp_path / "out"
    command = (["best-respond", game, strat, "--player", "0"] if concept == "best-respond"
               else ["verify", game, strat, "--concept", concept])
    assert main(command + ["--out-dir", str(out)]) == EXIT_VALIDATION
    assert "do not match game" in capsys.readouterr().err
    assert not out.exists()


def test_sequence_negative_level_count_exits_3(tmp_path, capsys):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    out = tmp_path / "out"
    assert main(["correlated-sequence", game, "--eps0", "0.2", "--n=-1",
                 "--out-dir", str(out)]) == EXIT_VALIDATION
    assert "--n must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_spec_shape_error_names_spec_fields(tmp_path, capsys):
    doc = spec_to_payload(sample_games.linear_cost_grid_spec(11))
    doc["costs"] = np.array(doc["costs"])[:, :, :10].tolist()
    path = write(tmp_path / "spec.json", doc)
    assert main(["discretize", path, "--gamma", "0.1",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "grid spec: costs must have shape (N, L+1, 11, 2)" in err
    assert "transitions must have shape (10, 2, 10); got (11, 2, 11)" in err


def test_sequence_target_underflow_exits_3(tmp_path, capsys):
    # With --n 1 the last target, 5e-324 / 2, is 0.0; with --n 0 it is
    # 5e-324 itself, which the decoupled pair reaches.
    game = write_game(tmp_path, sample_games.decoupled_pair())
    out = tmp_path / "out"
    assert main(["correlated-sequence", game, "--eps0", "5e-324", "--n", "1",
                 "--out-dir", str(out)]) == EXIT_VALIDATION
    assert "underflows to 0" in capsys.readouterr().err
    assert not out.exists()
    assert main(["correlated-sequence", game, "--eps0", "5e-324", "--n", "0",
                 "--out-dir", str(out)]) == EXIT_OK
    levels = read_json(out, "correlated-sequence.report.json")["results"]["levels"]
    assert [level["epsilon_target"] for level in levels] == [5e-324]


def test_sequence_monotone_targets(tmp_path):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    assert main(["correlated-sequence", game, "--eps0", "0.2", "--n", "3",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "correlated-sequence.report.json")
    levels = report["results"]["levels"]
    assert [lvl["n"] for lvl in levels] == [0, 1, 2, 3]
    np.testing.assert_allclose([lvl["epsilon_target"] for lvl in levels],
                               [0.2, 0.1, 0.05, 0.025], atol=1e-15)
    # The pair's discount and cost bound make each resolution half its target.
    np.testing.assert_allclose([lvl["resolution"] for lvl in levels],
                               [0.1, 0.05, 0.025, 0.0125])
    assert report["results"]["final_passed"]


def test_sequence_past_2_to_the_1024_exits_0(tmp_path):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    assert main(["correlated-sequence", game, "--eps0", "0.1", "--n", "1030",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    levels = read_json(tmp_path, "correlated-sequence.report.json")["results"]["levels"]
    assert len(levels) == 1031
    assert levels[-1]["epsilon_target"] == math.ldexp(0.1, -1030)


def test_markov_replacement_is_written_as_its_markov_strategy(tmp_path):
    rng = np.random.default_rng(7)
    one, partition = sample_games.random_cell_constant_game(rng, n_cells=3)
    strategy = rng.dirichlet(np.ones(one.n_actions[0]), size=one.n_states)
    replacement = markov_replacement(one, partition, 0, [], strategy, horizon=3)
    payload = strategy_to_payload(replacement)
    assert payload == strategy_to_payload(
        MarkovStrategy(replacement.player, replacement.head, replacement.tail))
    path = write(tmp_path / "markov.json", payload)
    assert _dump(strategy_to_payload(load_strategy(path))) == Path(path).read_text()
    assert main(["evaluate", write_game(tmp_path, one), path,
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    assert read_json(tmp_path, "evaluate.report.json")["results"]["values"] \
        == evaluate_markov(one, [], replacement).J.tolist()


def test_sequence_single_level(tmp_path):
    game = write_game(tmp_path, sample_games.decoupled_pair())
    assert main(["correlated-sequence", game, "--eps0", "0.2", "--n", "0",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    report = read_json(tmp_path, "correlated-sequence.report.json")
    assert len(report["results"]["levels"]) == 1


@pytest.mark.parametrize("eps0, n, n_levels", [("1e-12", "2", 0), ("0.05", "6", 1)])
def test_sequence_stops_early_exits_1(tmp_path, eps0, n, n_levels):
    # Layer 1 costs 0.04 everywhere against a budget of 0, so no deviation
    # meets the budget and every profile's epsilon is its excess 0.04: level
    # 0 of 1e-12 fails, and with 0.05 level 0 passes and level 1 (target
    # 0.025) fails, however well the search does.
    trap = sample_games.constrained_trap_game()
    costs = trap.costs.copy()
    costs[:, 1] = 0.04
    game = write_game(tmp_path, replace(trap, costs=costs, constraint_bounds=[[0.0]]))
    assert main(["correlated-sequence", game, "--eps0", eps0, "--n", n,
                 "--out-dir", str(tmp_path)]) == EXIT_CERTIFIED_FAIL
    results = read_json(tmp_path, "correlated-sequence.report.json")["results"]
    assert len(results["levels"]) == n_levels
    assert results["completed"] is False
    for doc in ("strategy", "certificate"):
        assert (tmp_path / f"correlated-sequence.{doc}.json").exists() == (n_levels > 0)


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


@dataclass
class Pair:
    first: object
    second: object


_FLOATS = (st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, 1.7976931348623157e308])
           | st.floats(allow_nan=False, allow_infinity=False))
_INTS = st.sampled_from([2**64, -2**70, -1, 0]) | st.integers()
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
_TEXT = st.sampled_from(["", "\x00", '"', "\\", 'a"b\\c\nd', "\u2028", "\u00e9"]) | st.text(max_size=6)
_LEAVES = (st.none() | st.booleans() | _INTS | _FLOATS | _SPECIAL | _TEXT
           | _FLOATS.map(np.float64) | _INTS.filter(lambda i: -2**63 <= i < 2**63).map(np.int64)
           | st.booleans().map(np.bool_) | st.floats(width=32).map(np.float32))
_NUMBER_LISTS = (st.lists(_FLOATS, min_size=1) | st.lists(_INTS, min_size=1)
                 | st.lists(_FLOATS | _SPECIAL, min_size=1) | st.lists(_FLOATS | _INTS, min_size=1)
                 | st.lists(_INTS | st.booleans(), min_size=1))
_ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_, np.float32]),
                     hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
_PAYLOADS = st.recursive(
    _LEAVES | _NUMBER_LISTS | _ARRAYS,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)
                      | st.dictionaries(_INTS, children, max_size=2)
                      | st.builds(Pair, children, children)),
    max_leaves=25)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=_PAYLOADS)
def test_dump_is_json_dumps_byte_for_byte(payload):
    assert _dump(payload) == json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n"
