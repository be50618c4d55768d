"""Benchmark workloads: seeded inputs written as JSON documents, and the fixed
list of CLI operations one pass runs over them.

Every input is drawn from `numpy.random.default_rng([seed, k])`, with a
fixed k per workload, so the same seed gives byte-identical documents.  The program receives only
the documents; the benchmark keeps nothing else from the generation.

`tiny=True` shrinks every size so the smoke test finishes in seconds; the
benchmark itself always runs the full sizes.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from csgames import cli, sample_games as sg

SEARCH_TARGET = 1e-8


@dataclass
class Op:
    """One CLI call: `argv` (without --out-dir), where it writes, and what the
    output check needs to know about its inputs."""

    command: str
    argv: list
    out_dir: Path
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list
    sizes: dict

    def op_mix(self):
        mix = {}
        for op in self.ops:
            mix[op.command] = mix.get(op.command, 0) + 1
        return mix


def write_doc(path, payload):
    # Same layout as the CLI's own outputs (indent 2, sorted keys), streamed
    # so set-up does not hold a second copy of a large document in memory.
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Builder:
    def __init__(self, in_dir, out_root):
        self.in_dir = Path(in_dir)
        self.out_root = Path(out_root)
        self.ops = []

    def doc(self, name, payload):
        path = self.in_dir / name
        write_doc(path, payload)
        return path

    def op(self, command, args, **params):
        out = self.out_root / f"{len(self.ops):02d}-{command}"
        self.ops.append(Op(command, [command, *map(str, args)], out, params))
        return out


def _decoupled_random(rng, factor_states):
    first = sg.random_constrained_game(rng, 1, factor_states, (2,), 1, slack=0.05)
    second = sg.random_constrained_game(rng, 1, factor_states, (2,), 1,
                                        discount=first.discount, slack=0.05)
    return sg.decoupled_product(first, second)


def search_small(seed, in_dir, out_root, tiny=False):
    """solve -> verify of the solved profile, and correlated-sequence, on small
    games: thousands of sub-5 ms LPs per pass."""
    rng = np.random.default_rng([seed, 1])
    b = _Builder(in_dir, out_root)
    games = [("pair", sg.decoupled_pair(), 4)]
    games.append(("dec9", _decoupled_random(rng, 3), 1))
    if not tiny:
        games.append(("dec25", _decoupled_random(rng, 5), 1))
    random_shapes = [((3, 3), 6, 2)] if tiny else [
        ((3, 3), 12, 2), ((3, 3), 12, 2), ((2, 2, 2), 8, 3), ((2, 2, 2), 8, 3)]
    for k, (actions, states, players) in enumerate(random_shapes):
        game = sg.random_constrained_game(rng, players, states, actions, 1, slack=0.05)
        games.append((f"rand{k}-n{players}s{states}", game, 1))
    for name, game, restarts in games:
        path = b.doc(f"{name}.game.json", cli.game_to_payload(game))
        out = b.op("solve", [path, "--target-eps", SEARCH_TARGET, "--restarts", restarts,
                             "--seed", seed], game=path, target=SEARCH_TARGET)
        b.op("verify", [path, out / "solve.strategy.json", "--concept", "approx",
                        "--epsilon", SEARCH_TARGET],
             game=path, strategy=out / "solve.strategy.json", solve_out=out,
             concept="approx")
        if name == "pair":
            b.op("correlated-sequence", [path, "--eps0", 0.1, "--n", 3, "--seed", seed],
                 game=path)
    sizes = {"games": [{"name": n, "n_actions": list(g.n_actions), "n_states": g.n_states,
                        "n_layers": g.n_layers, "restarts": r} for n, g, r in games]}
    return Workload(b.ops, sizes)


def certify_large(seed, in_dir, out_root, tiny=False):
    """Certificates and best responses on a large dense game: few LPs, each
    dominated by the HiGHS core, plus a multi-megabyte JSON load per op.
    One game keeps a pass short, so a run has several passes to take
    medians over; games of this size differ little in cost between seeds."""
    rng = np.random.default_rng([seed, 2])
    b = _Builder(in_dir, out_root)
    n_states, n_actions = (12, (3, 3)) if tiny else (120, (6, 6))
    game = sg.random_constrained_game(rng, 2, n_states, n_actions, 2, slack=0.05)
    profile = sg.random_profile(rng, game)
    gpath = b.doc("large.game.json", cli.game_to_payload(game))
    ppath = b.doc("large.strategy.json", cli.strategy_to_payload(profile))
    common = dict(game=gpath, strategy=ppath)
    b.op("verify", [gpath, ppath, "--concept", "approx", "--epsilon", 0.01],
         concept="approx", **common)
    b.op("verify", [gpath, ppath, "--concept", "statewise", "--epsilon", 0.01],
         concept="statewise", **common)
    for player in range(2):
        b.op("best-respond", [gpath, ppath, "--player", player], player=player, **common)
    b.op("evaluate", [gpath, ppath], **common)
    sizes = {"n_players": 2, "n_states": n_states, "n_actions": list(n_actions),
             "n_layers": 2, "game_bytes": gpath.stat().st_size}
    return Workload(b.ops, sizes)


def sample_grid(seed, in_dir, out_root, tiny=False):
    """Monte Carlo simulation and certified discretization: no LP at all."""
    rng = np.random.default_rng([seed, 3])
    b = _Builder(in_dir, out_root)
    trajectories = 2000 if tiny else 100000
    n_points = 41 if tiny else 401
    games = [
        ("mc30", sg.random_game(rng, 2, 30, (2, 2), 1, discount=0.9)),
        ("pair", sg.decoupled_pair()),
    ]
    for name, game in games:
        gpath = b.doc(f"{name}.game.json", cli.game_to_payload(game))
        ppath = b.doc(f"{name}.strategy.json",
                      cli.strategy_to_payload(sg.random_profile(rng, game)))
        b.op("simulate", [gpath, ppath, "--trajectories", trajectories, "--seed", seed],
             game=gpath, strategy=ppath)
        b.op("evaluate", [gpath, ppath], game=gpath, strategy=ppath)
    specs = [
        ("linear", sg.linear_cost_grid_spec(n_points)),
        ("smooth", sg.random_continuous_spec(rng, n_points=n_points, n_players=1,
                                             n_actions=(2,), n_layers=1)),
    ]
    for name, spec in specs:
        spath = b.doc(f"{name}.spec.json", cli.spec_to_payload(spec))
        for gamma in (0.02, 0.005):
            b.op("discretize", [spath, "--gamma", gamma], spec=spath, seed=seed)
    sizes = {"trajectories": trajectories,
             "games": [{"name": n, "n_actions": list(g.n_actions), "n_states": g.n_states,
                        "discount": g.discount} for n, g in games],
             "spec_points": n_points, "gammas": [0.02, 0.005]}
    return Workload(b.ops, sizes)


WORKLOADS = {
    "search-small": search_small,
    "certify-large": certify_large,
    "sample-grid": sample_grid,
}


def warmup_ops(in_dir, out_root):
    """One call of every command on the smallest inputs, so that lazy imports
    and first-call costs land in set-up, not in the first timed pass."""
    b = _Builder(in_dir, out_root)
    pair = sg.decoupled_pair()
    gpath = b.doc("pair.game.json", cli.game_to_payload(pair))
    ppath = b.doc("pair.strategy.json", cli.strategy_to_payload(
        sg.random_profile(np.random.default_rng(0), pair)))
    spath = b.doc("grid.spec.json", cli.spec_to_payload(sg.linear_cost_grid_spec(11)))
    b.op("solve", [gpath, "--restarts", 1])
    b.op("verify", [gpath, ppath, "--concept", "approx"])
    b.op("verify", [gpath, ppath, "--concept", "statewise"])
    b.op("best-respond", [gpath, ppath, "--player", 0])
    b.op("evaluate", [gpath, ppath])
    b.op("simulate", [gpath, ppath, "--trajectories", 100])
    b.op("correlated-sequence", [gpath, "--eps0", 0.1, "--n", 0])
    b.op("discretize", [spath, "--gamma", 0.1])
    return b.ops
