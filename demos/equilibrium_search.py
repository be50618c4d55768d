"""Finding and certifying equilibria of a two-player constrained game.

The fixture is two independent copies of the constrained trap game, so in
every equilibrium each player gets their own constrained optimum value,
J = (0.4, 0.6): objective 0.4 with the budget 0.6 tight.  The equilibrium
profile is not unique: q* = 3/4 at every state is one, but a player's row
may vary with the other player's state as long as their own occupation
measure is the optimal one.  The search does not know any of this: it runs
damped best-response iteration, finishes with a Newton solve of the
equilibrium conditions, and certifies every candidate with exact LP-based
certificates.  The demo then perturbs one player and reads the failure off
the certificate, and finishes with the halving-target sequence of
correlated strategies.
"""

import numpy as np

from csgames import (
    StationaryProfile,
    correlated_limit_sequence,
    evaluate_profile,
    resolution_for,
    sample_games,
    search_equilibrium,
    verify_approx_equilibrium,
)


def main():
    game = sample_games.decoupled_pair()
    print("two decoupled trap copies: 4 states, 2 x 2 actions, budgets 0.6")
    print()

    result = search_equilibrium(game, seed=0)
    print(f"search: certified epsilon {result.certificate.epsilon:.3e} after "
          f"{result.iterations} iterations "
          f"({result.restarts_used} restart(s)) and {result.newton_attempts} Newton "
          f"attempt(s), {result.newton_adopted} adopted")
    for i, pc in enumerate(result.certificate.players):
        print(f"  player {i}: J = ({pc.objective:.6f}, {pc.constraint_values[0]:.6f}) "
              f"(closed form (0.4, 0.6))")

    print()
    print("certificate anatomy at q* = 3/4 everywhere:")
    opt = sample_games.trap_profile(0.75, n_states=4).rows[0]
    cert = verify_approx_equilibrium(game, StationaryProfile((opt, opt)), 1e-6)
    for i, pc in enumerate(cert.players):
        print(f"  player {i}: J0 = {pc.objective:.6f}, budget excess = "
              f"{pc.feasibility_excess:.2e}, best response gap = "
              f"{pc.best_response_gap:.2e}")
    print(f"  passed: {cert.passed} at threshold {cert.threshold}")

    print()
    print("perturbing player 0 to q = 0.9:")
    perturbed = StationaryProfile(
        (sample_games.trap_profile(0.9, n_states=4).rows[0], opt))
    cert = verify_approx_equilibrium(game, perturbed, 0.0)
    values = evaluate_profile(game, perturbed).J
    pc = cert.players[0]
    print(f"  player 0 objective drops to {values[0, 0]:.6f} but the budget "
          f"is blown: J1 = {values[0, 1]:.6f} > 0.6")
    print(f"  certified epsilon {cert.epsilon:.6f} = feasibility excess "
          f"{pc.feasibility_excess:.6f}")

    print()
    print("halving-target correlated sequence (eps0 = 0.2, 3 halvings):")
    seq = correlated_limit_sequence(game, 0.2, 3, seed=0)
    for n, level in enumerate(seq.levels):
        target = level.certificate.threshold
        print(f"  n = {n}: target {target:.4f}, "
              f"certified {level.certificate.epsilon:.2e}, partition "
              f"resolution {resolution_for(target, game.discount, game.cost_bound):.4f}")
    final = seq.final_certificate
    print(f"  final product strategy is weak correlated: passed = "
          f"{final.passed}, epsilon = {final.epsilon:.2e}")


if __name__ == "__main__":
    main()
