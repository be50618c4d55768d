"""Turning weighted-cost games into bounded ones.

When costs are only bounded relative to a weight function omega >= 1 with a
growth budget sum_y omega(y) p(y | s, a) <= beta * omega(s), dividing costs
by omega and rescaling the kernel by omega(y) / (beta * omega(s)) produces a
game with bounded costs, discount alpha * beta, and one extra absorbing
state that soaks up the rescaling deficit.  Discounted costs transform by a
known scalar, so nothing is lost: the demo checks the identity numerically.
"""

import numpy as np

from csgames import sample_games, wessels_cost_relation, wessels_transform


def main():
    game = sample_games.constrained_trap_game()
    omega = np.array([3.0, 1.0])
    beta = 1.5
    print(f"trap game with weights omega = {omega.tolist()}, beta = {beta}")
    growth = (game.transitions @ omega) / omega[:, None]
    print(f"growth factors by (state, action): {np.round(growth, 3).tolist()} "
          f"(all <= beta)")

    wg = wessels_transform(game, omega, beta)
    print()
    print(f"transformed game: {wg.game.n_states} states (one absorbing added "
          f"last), discount {wg.game.discount}")
    print(f"cost bound c0 = {wg.game.cost_bound:.4f}, eta-weight {wg.eta_omega:.4f}, "
          f"value scale {wg.value_scale:.6f}")
    print("transformed kernel rows from state 0 (last column = absorbing):")
    for a in range(2):
        print(f"  action {a}: {np.round(wg.game.transitions[0, a], 4).tolist()}")

    print()
    print("cost relation across a sweep of strategies:")
    print(f"{'q':>6} {'transformed/scale':>18} {'original/eta_omega':>19} "
          f"{'mismatch':>10}")
    for q in (0.0, 0.3, 0.75, 1.0):
        report = wessels_cost_relation(game, omega, beta,
                                       sample_games.trap_profile(q))
        lhs = report.transformed_values[0]
        rhs = report.original_values[0]
        print(f"{q:6.2f} {lhs[0]:18.8f} {rhs[0]:19.8f} "
              f"{report.max_error:10.1e}")

    print()
    print("random games, random weights: the identity holds to solver")
    print("precision whenever the growth budget does")
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10):
        base = sample_games.random_game(rng, n_players=2, n_states=3)
        w = rng.uniform(1.0, 4.0, size=3)
        g = float(np.max((base.transitions @ w) / w[:, None]))
        b = max(g + 1e-9, 1.0 + 1e-6)
        rebuilt = sample_games.FiniteCSG(
            n_actions=base.n_actions,
            costs=base.costs,
            transitions=base.transitions,
            discount=min(0.9, 0.95 / b),
            initial=base.initial,
            constraint_bounds=base.constraint_bounds,
            cost_bound=base.cost_bound,
        )
        report = wessels_cost_relation(
            rebuilt, w, b, sample_games.random_profile(rng, rebuilt))
        worst = max(worst, report.max_error)
    print(f"worst mismatch over 10 games: {worst:.2e}")


if __name__ == "__main__":
    main()
