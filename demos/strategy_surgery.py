"""Rebuilding strategies without moving their costs.

Three operations that leave every discounted cost layer unchanged:

  * Caratheodory reduction: a mixture over many points is replaced by one
    over at most d+1 points with the same d-dimensional mean.
  * Markov replacement: a state-dependent strategy becomes a finite head of
    piecewise-constant steps plus the original tail, matching all layers
    exactly at every head length.
  * Occupation mixing: occupation measures mix linearly, so costs do too,
    and the mixed measure disintegrates back into a strategy.
"""

import numpy as np

from csgames import (
    StationaryProfile,
    caratheodory_reduce,
    evaluate_markov,
    evaluate_policy,
    evaluate_profile,
    induced_mdp,
    markov_replacement,
    mix_occupations,
    mixing_weight,
    occupation_measure,
    recover_strategy,
    sample_games,
)


def main():
    rng = np.random.default_rng(5)

    print("caratheodory reduction")
    values = rng.uniform(-1.0, 1.0, size=(9, 2))
    weights = rng.dirichlet(np.ones(9))
    cert = caratheodory_reduce(values, weights)
    print(f"  9 points in R^2 reduced to support {cert.support_size} "
          f"(bound d+1 = 3)")
    print(f"  kept indices {cert.indices.tolist()} with weights "
          f"{np.round(cert.weights, 4).tolist()}")
    print(f"  mean drift {np.max(np.abs(cert.weights @ values[cert.indices] - cert.target)):.2e}")

    print()
    print("markov replacement on a cell-constant game")
    game, partition = sample_games.random_cell_constant_game(
        rng, n_cells=3, n_players=1, n_layers=1)
    strategy = rng.dirichlet(np.ones(game.n_actions[0]), size=game.n_states)
    horizon = 6
    repl = markov_replacement(game, partition, 0, [], strategy, horizon)
    a = evaluate_markov(game, [], repl).J[0]
    b = evaluate_profile(game, StationaryProfile((strategy,))).J[0]
    print(f"  {game.n_states} states in {partition.n_cells} cells, head "
          f"length {horizon}")
    print(f"  layer costs, replaced vs original: "
          f"{np.round(a, 8).tolist()} vs {np.round(b, 8).tolist()}")
    print(f"  worst mismatch {np.max(np.abs(a - b)):.2e}; swapping the tail "
          f"costs at most {repl.tail_bound:.4f}")
    spread = max(np.ptp(h[partition.cells[0]], axis=0).max() for h in repl.head)
    print(f"  head steps are constant on cells (spread {spread:.1e}) even "
          f"though the input strategy is not")

    print()
    print("occupation mixing")
    mdp = induced_mdp(sample_games.constrained_trap_game(), 0, [])
    risky = np.array([[1.0, 0.0], [1.0, 0.0]])
    safe = np.array([[0.0, 1.0], [0.5, 0.5]])
    occ_r = occupation_measure(mdp, risky)
    occ_s = occupation_measure(mdp, safe)
    val_r, _ = evaluate_policy(mdp, risky)
    val_s, _ = evaluate_policy(mdp, safe)
    xi = 0.4
    mixed = recover_strategy(mix_occupations(occ_r, occ_s, xi))
    val_m, _ = evaluate_policy(mdp, mixed)
    print(f"  J(risky) = {np.round(val_r, 6).tolist()}, J(safe) = "
          f"{np.round(val_s, 6).tolist()}")
    print(f"  J(mix at xi = {xi}) = {np.round(val_m, 6).tolist()}")
    print(f"  xi-combination       {np.round(xi * val_r + (1 - xi) * val_s, 6).tolist()}")
    print(f"  note the mixed strategy row at state 0 is "
          f"{np.round(mixed[0], 4).tolist()}, not the naive row mix")

    print()
    print("how much mixing absorbs an accuracy loss: for a point with budget")
    print("slack 0.5 and drift 0.1, an epsilon = 0.05 loss needs weight")
    print(f"  xi = {mixing_weight(0.05, 0.1, 0.5):.4f}")


if __name__ == "__main__":
    main()
