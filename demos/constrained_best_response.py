"""Constrained best responses through the occupation-measure LP.

A stationary strategy and its normalized state-action occupation measure
carry the same information, and every discounted cost is linear in the
measure.  Minimizing one layer subject to budgets on the others is therefore
a small LP: flow balance ties the measure to the dynamics, the budget rows
cap the constraint layers.  The demo walks the trap game's budget from loose
to infeasible and watches the optimal mix respond.  The induced MDP is a
one-player FiniteCSG, so each budget is set with dataclasses.replace.
"""

from dataclasses import replace

import numpy as np

from csgames import (
    constrained_best_response,
    feasibility,
    induced_mdp,
    sample_games,
    slater_margin,
)


def main():
    base = induced_mdp(sample_games.constrained_trap_game(), 0, [])
    print("trap game: minimize J0 subject to J1 <= kappa")
    print("J1 charges the safe action, so a tight budget forces risk")
    print()
    print(f"{'kappa':>6} {'status':>10} {'J0*':>10} {'J1*':>10} {'q*':>8} "
          f"{'slater':>8}")
    for budget in (1.0, 0.8, 0.6, 0.4, 0.2, 0.0, -0.1):
        mdp = replace(base, constraint_bounds=[[budget]])
        result = constrained_best_response(mdp)
        margin = slater_margin(mdp).margin
        if result.feasible:
            print(f"{budget:6.2f} {result.status:>10} {result.value:10.6f} "
                  f"{result.layer_values[1]:10.6f} "
                  f"{result.strategy[0, 0]:8.4f} {margin:8.4f}")
        else:
            print(f"{budget:6.2f} {result.status:>10} {'-':>10} {'-':>10} "
                  f"{'-':>8} {margin:8.4f}")

    print()
    print("the optimum trades objective against budget linearly in the")
    print("occupation measure; at kappa = 0.6 the mix is q* = 3/4 with the")
    print("budget exactly tight.")

    feasible, witness = feasibility(base)
    print()
    print(f"feasibility oracle at kappa = 0.6: {feasible}, witness row at "
          f"state 0 = {np.round(witness[0], 4)}")
    result = constrained_best_response(base)
    print("LP residuals:", {k: f"{v:.2e}" for k, v in result.residuals.items()})
    print(f"occupation mass = {result.occupation.mass:.12f} (should be 1)")


if __name__ == "__main__":
    main()
