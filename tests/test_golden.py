"""Golden corpus: CLI documents stay byte-identical outside `timing`.

Each case below is one CLI run over the committed inputs in
tests/data/golden/inputs/; its expected outputs are in
tests/data/golden/<case>/, with the exit code and stdout in run.json.
Reports are compared after dropping their timing block and reducing input
paths to file names; every other document is compared byte for byte, with
the inputs directory written as <in> where a document names an input.

Regenerate only when an output change is intended, and say so:

    PYTHONPATH=src python tests/test_golden.py

It prints one line per case whose outputs changed, with its epsilon and exit
code before and after and the names of the changed files, for the list the
regeneration's commit gives.
"""

import argparse
import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgames import cli, sample_games
from csgames.cli import (EXIT_PARSE, _dump, game_to_payload, main, spec_to_payload,
                         strategy_to_payload)
from csgames.game import MarkovStrategy, StationaryProfile

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    "solve-pair": ["solve", "{in}/pair.game.json"],
    "solve-ctrap": ["solve", "{in}/ctrap.game.json"],
    "solve-rand2": ["solve", "{in}/rand2.game.json", "--restarts", "1", "--seed", "3"],
    "solve-rand3": ["solve", "{in}/rand3.game.json", "--restarts", "1", "--seed", "5"],
    "verify-pair-nash": ["verify", "{in}/pair.game.json", "{in}/pair.nash.json",
                         "--concept", "approx", "--epsilon", "1e-8"],
    "verify-pair-off": ["verify", "{in}/pair.game.json", "{in}/pair.off.json",
                        "--concept", "approx", "--epsilon", "1e-6"],
    "verify-ctrap-half": ["verify", "{in}/ctrap.game.json", "{in}/ctrap.half.json",
                          "--concept", "approx", "--epsilon", "0.1"],
    "verify-rand2": ["verify", "{in}/rand2.game.json", "{in}/rand2.profile.json",
                     "--concept", "approx", "--epsilon", "0.05"],
    "verify-rand3": ["verify", "{in}/rand3.game.json", "{in}/rand3.profile.json",
                     "--concept", "approx"],
    "verify-rand2-solved": ["verify", "{in}/rand2.game.json", "{in}/rand2.solved.json",
                            "--concept", "approx", "--epsilon", "1e-3"],
    "verify-rand2-statewise": ["verify", "{in}/rand2.game.json", "{in}/rand2.profile.json",
                               "--concept", "statewise", "--epsilon", "0.05"],
    "verify-pair-statewise": ["verify", "{in}/pair.game.json", "{in}/pair.safe.json",
                              "--concept", "statewise"],
    "verify-rand3-statewise": ["verify", "{in}/rand3.game.json", "{in}/rand3.profile.json",
                               "--concept", "statewise"],
    "verify-rand2-weak": ["verify", "{in}/rand2.game.json", "{in}/rand2.correlated.json",
                          "--concept", "weak-correlated"],
    "verify-rand2-weak-eps": ["verify", "{in}/rand2.game.json", "{in}/rand2.correlated.json",
                              "--concept", "weak-correlated", "--epsilon", "0.5"],
    "verify-rand3-weak": ["verify", "{in}/rand3.game.json", "{in}/rand3.correlated.json",
                          "--concept", "weak-correlated", "--epsilon", "1e-6"],
    "best-respond-rand2": ["best-respond", "{in}/rand2.game.json", "{in}/rand2.profile.json",
                           "--player", "1"],
    "best-respond-rand3-infeasible": ["best-respond", "{in}/rand3.game.json",
                                      "{in}/rand3.profile.json", "--player", "0"],
    "sequence-pair": ["correlated-sequence", "{in}/pair.game.json", "--eps0", "0.1",
                      "--n", "3"],
    "sequence-ctrap": ["correlated-sequence", "{in}/ctrap.game.json", "--eps0", "0.2",
                       "--n", "2"],
    "sequence-rdec": ["correlated-sequence", "{in}/rdec.game.json", "--eps0", "0.1",
                      "--n", "2"],
    "sequence-rand3": ["correlated-sequence", "{in}/rand3.game.json", "--eps0", "0.1",
                       "--n", "3"],
    "verify-rdec-weak": ["verify", "{in}/rdec.game.json", "{in}/rdec.correlated.json",
                         "--concept", "weak-correlated"],
    "discretize-linear-gamma": ["discretize", "{in}/linear.spec.json", "--gamma", "0.3"],
    "discretize-linear-epsilon": ["discretize", "{in}/linear.spec.json", "--epsilon", "0.2"],
    "discretize-smooth-fine": ["discretize", "{in}/smooth.spec.json", "--gamma", "0.05"],
    "discretize-smooth-coarse": ["discretize", "{in}/smooth.spec.json", "--gamma", "0.3"],
    "simulate-ctrap": ["simulate", "{in}/ctrap.game.json", "{in}/ctrap.half.json",
                       "--trajectories", "2000", "--seed", "4"],
    "simulate-rand2-correlated": ["simulate", "{in}/rand2.game.json",
                                  "{in}/rand2.correlated.json", "--trajectories", "2000",
                                  "--seed", "6"],
    "evaluate-rand2": ["evaluate", "{in}/rand2.game.json", "{in}/rand2.profile.json"],
    "evaluate-rand3-correlated": ["evaluate", "{in}/rand3.game.json",
                                  "{in}/rand3.correlated.json"],
    "evaluate-one-markov": ["evaluate", "{in}/one.game.json", "{in}/one.markov.json"],
    "transform-ctrap": ["transform", "{in}/ctrap.transform.json"],
}


def write_inputs(directory):
    """The seeded input documents; rand2.solved.json and rdec.correlated.json
    are written later, from the strategies of the solve-rand2 and
    sequence-rdec cases."""
    pair_nash = sample_games.trap_profile(0.75, n_states=4).rows[0]
    pair_off = sample_games.trap_profile(0.9, n_states=4).rows[0]
    pair_safe = sample_games.trap_profile(1.0, n_states=4).rows[0]
    rand2 = sample_games.random_constrained_game(
        np.random.default_rng([7, 1]), n_players=2, n_states=12, n_actions=(3, 3),
        slack=0.05)
    rand3 = sample_games.random_constrained_game(
        np.random.default_rng([7, 2]), n_players=3, n_states=6, n_actions=(2, 2, 2),
        slack=-0.02)
    # A decoupled product of two random games, whose search converges
    # without the Newton finish; rand3, a coupled game, needs it.
    rdec = sample_games.decoupled_product(*(
        sample_games.random_constrained_game(np.random.default_rng([8, 2, k]), n_states=s,
                                             slack=0.05, discount=0.6)
        for k, s in ((1, 3), (2, 4))))
    one = sample_games.random_constrained_game(
        np.random.default_rng([7, 8]), n_states=5, n_actions=(3,), slack=0.05)
    heads, tail = sample_games.random_markov_plan(np.random.default_rng([7, 9]), one, 2)
    smooth = sample_games.random_continuous_spec(
        np.random.default_rng([7, 7, 0]), n_points=61, n_players=2, n_actions=(2, 1))
    documents = {
        "pair.game.json": game_to_payload(sample_games.decoupled_pair()),
        "ctrap.game.json": game_to_payload(sample_games.constrained_trap_game()),
        "rand2.game.json": game_to_payload(rand2),
        "rand3.game.json": game_to_payload(rand3),
        "rdec.game.json": game_to_payload(rdec),
        "one.game.json": game_to_payload(one),
        "ctrap.transform.json": game_to_payload(
            sample_games.constrained_trap_game(),
            extra={"transform": {"omega": [3.0, 1.0], "beta": 1.5}}),
        "linear.spec.json": spec_to_payload(sample_games.linear_cost_grid_spec(101)),
        "smooth.spec.json": spec_to_payload(smooth),
        "pair.nash.json": strategy_to_payload(StationaryProfile((pair_nash, pair_nash))),
        "pair.off.json": strategy_to_payload(StationaryProfile((pair_off, pair_nash))),
        "pair.safe.json": strategy_to_payload(StationaryProfile((pair_safe, pair_safe))),
        "ctrap.half.json": strategy_to_payload(sample_games.trap_profile(0.5)),
        "rand2.profile.json": strategy_to_payload(
            sample_games.random_profile(np.random.default_rng([7, 3]), rand2)),
        "rand3.profile.json": strategy_to_payload(
            sample_games.random_profile(np.random.default_rng([7, 4]), rand3)),
        "rand2.correlated.json": strategy_to_payload(
            sample_games.random_correlated(np.random.default_rng([7, 5]), rand2)),
        "rand3.correlated.json": strategy_to_payload(
            sample_games.random_correlated(np.random.default_rng([7, 6]), rand3)),
        "one.markov.json": strategy_to_payload(
            MarkovStrategy(0, tuple(h.rows[0] for h in heads), tail.rows[0])),
    }
    directory.mkdir(parents=True, exist_ok=True)
    for name, payload in documents.items():
        (directory / name).write_text(_dump(payload))


def run_case(name, out_dir):
    """Run one case into out_dir; returns {file name: normalized text} for
    every output, run.json included."""
    argv = [arg.format(**{"in": INPUTS}) for arg in CASES[name]]
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        code = main(argv + ["--out-dir", str(out_dir)])
    stdout = captured.getvalue().replace(str(out_dir), "<out>")
    outputs = {"run.json": _dump({"argv": CASES[name], "exit_code": code, "stdout": stdout})}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text().replace(str(INPUTS), "<in>")
        if path.name.endswith(".report.json"):
            report = json.loads(text)
            del report["timing"]
            report["inputs"] = {Path(k).name: v for k, v in report["inputs"].items()}
            text = _dump(report)
        outputs[path.name] = text
    return outputs


def golden(name):
    """The committed outputs of a case, by file name."""
    return {path.name: path.read_text() for path in (GOLDEN / name).iterdir()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(name, tmp_path):
    assert run_case(name, tmp_path) == golden(name)


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    # main builds its argument parser once per process.  A usage error leaves
    # it fit for the next commands, whose outputs still match their cases.
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == EXIT_PARSE
        assert "required: game" in capsys.readouterr().err
        for name in ("solve-pair", "verify-rand2", "simulate-ctrap"):
            assert run_case(name, tmp_path / name) == golden(name)
    finally:
        cli.build_parser.cache_clear()
    # The root parser and each command's subparser, each built once.
    assert built.count("csgames") == 1
    assert sorted(built) == sorted(set(built)) and len(built) == 9


def test_inputs_are_what_write_inputs_writes(tmp_path):
    # The committed inputs are the seeded documents, byte for byte, so the
    # writers' output has not changed since they were made.
    write_inputs(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert len(written) == 18
    for name in written:
        assert (tmp_path / name).read_bytes() == (INPUTS / name).read_bytes(), name


# The cases the fuzzer draws from, none of which searches, and the values it writes.
FUZZED = sorted(name for name, argv in CASES.items()
                if argv[0] in ("evaluate", "verify", "best-respond", "simulate", "discretize",
                               "transform"))
REPLACEMENTS = (True, False, None, "1", [], {}, math.nan, math.inf, -math.inf, 1e308, 2**70,
                10**400)


def json_type(value):
    for name, types in (("boolean", bool), ("number", (int, float)), ("string", str),
                        ("null", type(None)), ("array", list), ("object", dict)):
        if isinstance(value, types):
            return name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_input_exits_with_a_documented_code(data):
    # One field or array entry of one input of a case is replaced.  Every
    # run ends in a documented exit code, 4 only for a solver error, and a
    # value of another JSON type is a parse or validation error.
    name = data.draw(st.sampled_from(FUZZED), label="case")
    argv = [arg.format(**{"in": INPUTS}) for arg in CASES[name]]
    position = data.draw(st.sampled_from([k for k, arg in enumerate(CASES[name])
                                          if "{in}" in arg]), label="input")
    doc = json.loads(Path(argv[position]).read_text())
    holder = doc
    while True:
        key = data.draw(st.sampled_from(sorted(holder) if isinstance(holder, dict)
                                        else range(len(holder))), label="key")
        inner = holder[key]
        if not (isinstance(inner, (dict, list)) and inner and data.draw(st.booleans())):
            break
        holder = inner
    replacement = data.draw(st.sampled_from(REPLACEMENTS), label="replacement")
    holder[key] = replacement
    with tempfile.TemporaryDirectory() as tmp:
        argv[position] = str(Path(tmp) / Path(argv[position]).name)
        Path(argv[position]).write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3) or code == 4 and err.getvalue().startswith("solver error:")
    if json_type(replacement) != json_type(inner):
        assert code in (2, 3), err.getvalue()


def outcome(outputs):
    """A case's epsilon and exit code, as text: the report's epsilon, else
    its final_epsilon (correlated-sequence), else none."""
    results = {}
    for file_name, text in outputs.items():
        if file_name.endswith(".report.json"):
            results = json.loads(text)["results"]
    epsilon = results.get("epsilon", results.get("final_epsilon"))
    exit_code = json.loads(outputs["run.json"])["exit_code"]
    return f"epsilon {'none' if epsilon is None else f'{epsilon:.6g}'}, exit {exit_code}"


def regenerate():
    """Rewrite the inputs and every case, and print each case whose outputs
    changed as `case: old outcome -> new outcome (changed files)`."""
    write_inputs(INPUTS)
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = run_case(name, Path(tmp))
            if name == "solve-rand2":
                shutil.copy(Path(tmp) / "solve.strategy.json", INPUTS / "rand2.solved.json")
            if name == "sequence-rdec":
                shutil.copy(Path(tmp) / "correlated-sequence.strategy.json",
                            INPUTS / "rdec.correlated.json")
        target = GOLDEN / name
        old = {path.name: path.read_text() for path in target.iterdir()} if target.is_dir() else {}
        changed = sorted(f for f in outputs.keys() | old.keys() if outputs.get(f) != old.get(f))
        if changed:
            print(f"{name}: {outcome(old) if old else 'new case'} -> {outcome(outputs)} "
                  f"({', '.join(changed)})")
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for file_name, text in outputs.items():
            (target / file_name).write_text(text)


if __name__ == "__main__":
    regenerate()
