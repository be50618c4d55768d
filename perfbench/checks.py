"""Output checks, run after the timed passes with tracing removed.

Each check reads the documents an op wrote and returns a list of problems
(empty when the output is correct).  Exact values are recomputed here through
the occupation-measure system (I - a P^T) m = (1 - a) eta, a different linear
system from the value system the program solves.
"""

import json
from pathlib import Path

import numpy as np

from csgames import cli
from csgames.discretization import Partition, check_partition, error_bound, grid_game
from csgames.discretization import verify_approximation_bound
from csgames.equilibrium import GAP_TOL, verify_approx_equilibrium, verify_weak_correlated
from csgames.evaluation import evaluate_policy, induced_mdp
from csgames.game import CorrelatedStrategy, StationaryProfile, product_strategy

VALUE_TOL = 1e-9        # two exact linear solves of the same strategy
LP_VALUE_TOL = 1e-7     # LP layer values vs exact evaluation of the recovered policy
MC_RADII = 6.0          # simulate: estimate within this many standard errors + bias


def joint_table(strategy):
    if isinstance(strategy, CorrelatedStrategy):
        return strategy.table
    s = strategy.n_states
    table = np.ones((s, 1))
    for rows in strategy.rows:
        table = (table[:, :, None] * rows[:, None, :]).reshape(s, -1)
    return table


def exact_values(game, strategy):
    """J[i, l] from the initial distribution, via the occupation measure."""
    table = joint_table(strategy)
    kernel = np.einsum("sp,spt->st", table, game.transitions)
    costs = np.einsum("sp,ilsp->ils", table, game.costs)
    a = game.discount
    mass = np.linalg.solve(np.eye(game.n_states) - a * kernel.T, (1.0 - a) * game.initial)
    return costs @ mass


def _read(path):
    return json.loads(Path(path).read_text())


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


def check_solve(op, rc, problems):
    game, _ = cli.load_game(op.params["game"])
    report = _read(op.out_dir / "solve.report.json")["results"]
    cert_doc = _read(op.out_dir / "solve.certificate.json")
    profile = cli.load_strategy(op.out_dir / "solve.strategy.json")
    target = op.params["target"]
    fresh = verify_approx_equilibrium(game, profile, target)
    if not _close(fresh.epsilon, report["epsilon"], GAP_TOL):
        problems.append(f"re-verified epsilon {fresh.epsilon!r} != reported {report['epsilon']!r}")
    if cert_doc["epsilon"] != report["epsilon"]:
        problems.append("certificate file and report disagree on epsilon")
    if report["achieved"] != (rc == 0):
        problems.append(f"exit {rc} but achieved={report['achieved']}")
    if rc == 0 and not fresh.passed:
        problems.append("exit 0 but the re-verified certificate fails")
    if rc == 1 and fresh.epsilon <= target - GAP_TOL:
        problems.append("exit 1 but the re-verified epsilon meets the target")


def check_verify(op, rc, problems):
    game, _ = cli.load_game(op.params["game"])
    report = _read(op.out_dir / "verify.report.json")["results"]
    cert = _read(op.out_dir / "verify.certificate.json")
    if report["passed"] != (rc == 0) or cert["passed"] != report["passed"]:
        problems.append(f"exit {rc} disagrees with passed={report['passed']}")
    if cert["epsilon"] != report["epsilon"]:
        problems.append("certificate file and report disagree on epsilon")
    threshold = cert["threshold"]
    if op.params["concept"] == "statewise":
        if max(max(row) for row in cert["gaps"]) != cert["epsilon"]:
            problems.append("statewise epsilon is not the largest gap")
        if cert["passed"] != (cert["epsilon"] <= threshold + GAP_TOL):
            problems.append("statewise passed flag disagrees with epsilon")
        return
    profile = cli.load_strategy(op.params["strategy"])
    values = exact_values(game, profile)
    eps = []
    for i, pc in enumerate(cert["players"]):
        if not _close(pc["objective"], values[i, 0], VALUE_TOL):
            problems.append(f"player {i} objective {pc['objective']!r} != exact {values[i, 0]!r}")
        gap = pc["best_response_gap"]
        if gap is not None and not _close(gap, pc["objective"] - pc["best_response_value"], 1e-12):
            problems.append(f"player {i} gap is not objective minus best response")
        parts = [v for v in (pc["feasibility_excess"], pc["best_response_gap"]) if v is not None]
        eps.append(max(parts) if parts else 0.0)
    if max(eps) != cert["epsilon"]:
        problems.append("certified epsilon is not the worst player's epsilon")
    if "solve_out" in op.params:
        solved = _read(Path(op.params["solve_out"]) / "solve.report.json")["results"]
        if not _close(solved["epsilon"], cert["epsilon"], GAP_TOL):
            problems.append("verify epsilon disagrees with the solve certificate")


def _marginals(psi, n_actions):
    """Per-player marginal rows of a product strategy table."""
    s = psi.table.shape[0]
    tensor = psi.table.reshape((s,) + tuple(n_actions))
    rows = []
    for i in range(len(n_actions)):
        axes = tuple(1 + j for j in range(len(n_actions)) if j != i)
        rows.append(tensor.sum(axis=axes))
    return StationaryProfile(tuple(rows))


def check_sequence(op, rc, problems):
    game, _ = cli.load_game(op.params["game"])
    report = _read(op.out_dir / "correlated-sequence.report.json")["results"]
    ok = report["completed"] and report.get("final_passed", False)
    if ok != (rc == 0):
        problems.append(f"exit {rc} disagrees with completed/final_passed")
    if not report["levels"]:
        return
    psi = cli.load_strategy(op.out_dir / "correlated-sequence.strategy.json")
    profile = _marginals(psi, game.n_actions)
    if np.max(np.abs(product_strategy(profile).table - psi.table)) > 1e-12:
        problems.append("sequence strategy is not a product of its marginals")
    last = report["levels"][-1]
    fresh = verify_approx_equilibrium(game, profile, last["epsilon_target"])
    if not _close(fresh.epsilon, last["certified_epsilon"], GAP_TOL):
        problems.append(f"re-verified epsilon {fresh.epsilon!r} != last level "
                        f"{last['certified_epsilon']!r}")
    if fresh.passed != last["passed"]:
        problems.append("re-verified pass flag disagrees with the last level")
    final = verify_weak_correlated(game, psi)
    if not _close(final.epsilon, report["final_epsilon"], GAP_TOL):
        problems.append("weak-correlated epsilon disagrees with the report")
    if final.passed != report["final_passed"]:
        problems.append("weak-correlated pass flag disagrees with the report")


def check_best_respond(op, rc, problems):
    game, _ = cli.load_game(op.params["game"])
    report = _read(op.out_dir / "best-respond.report.json")["results"]
    if rc == 1:
        if report["status"] != "infeasible":
            problems.append("exit 1 without an infeasible status")
        return
    player = op.params["player"]
    profile = cli.load_strategy(op.params["strategy"])
    strategy = cli.load_strategy(op.out_dir / "best-respond.strategy.json").rows[0]
    others = [r for j, r in enumerate(profile.rows) if j != player]
    values, _ = evaluate_policy(induced_mdp(game, player, others), strategy)
    reported = np.array(report["layer_values"])
    if np.max(np.abs(values - reported)) > LP_VALUE_TOL:
        problems.append(f"layer values {reported} != exact {values}")
    if report["value"] != report["layer_values"][0]:
        problems.append("value is not the objective layer value")
    excess = values[1:] - game.constraint_bounds[player]
    if excess.size and np.max(excess) > LP_VALUE_TOL:
        problems.append(f"best response exceeds its budgets by {np.max(excess):.3g}")


def check_evaluate(op, rc, problems):
    game, _ = cli.load_game(op.params["game"])
    report = _read(op.out_dir / "evaluate.report.json")["results"]
    values = exact_values(game, cli.load_strategy(op.params["strategy"]))
    if np.max(np.abs(np.array(report["values"]) - values)) > VALUE_TOL:
        problems.append("evaluated values disagree with the occupation-measure solve")


def check_simulate(op, rc, problems):
    game, _ = cli.load_game(op.params["game"])
    report = _read(op.out_dir / "simulate.report.json")["results"]
    exact = exact_values(game, cli.load_strategy(op.params["strategy"]))
    est = np.array(report["estimates"])
    radii = np.array(report["confidence_radii"])
    slack = MC_RADII * radii + report["truncation_bias_bound"]
    if np.any(np.abs(est - exact) > slack):
        worst = float(np.max(np.abs(est - exact) / np.maximum(slack, 1e-300)))
        problems.append(f"estimate off by {worst:.3g} x ({MC_RADII} radii + bias)")


def check_discretize(op, rc, problems):
    spec, _ = cli.load_spec(op.params["spec"])
    report = _read(op.out_dir / "discretize.report.json")["results"]
    doc = _read(op.out_dir / "discretize.partition.json")
    partition = Partition(resolution=doc["resolution"], cells=doc["cells"],
                          representatives=doc["representatives"])
    try:
        check_partition(spec, partition)
    except ValueError as exc:
        problems.append(f"partition fails check_partition: {exc}")
        return
    if partition.n_cells != report["n_cells"]:
        problems.append("cell count disagrees with the report")
    certified = error_bound(partition.resolution, spec.discount, spec.cost_bound)
    if certified != report["certified_error"]:
        problems.append("certified error disagrees with error_bound")
    surrogate, _ = cli.load_game(op.out_dir / "discretize.game.json")
    if surrogate.n_states != partition.n_cells:
        problems.append("surrogate game size disagrees with the partition")
    full = grid_game(spec)
    rng = np.random.default_rng([op.params["seed"], 4])
    strategies = [StationaryProfile(tuple(rng.dirichlet(np.ones(a), size=spec.n_points)
                                          for a in full.n_actions)) for _ in range(3)]
    approx = verify_approximation_bound(spec, partition, strategies)
    if not approx.within_bound:
        problems.append(f"deviation {approx.max_deviation:.3g} exceeds certified "
                        f"{approx.certified_error:.3g}")


CHECKS = {
    "solve": check_solve,
    "verify": check_verify,
    "correlated-sequence": check_sequence,
    "best-respond": check_best_respond,
    "evaluate": check_evaluate,
    "simulate": check_simulate,
    "discretize": check_discretize,
}


def check_op(op, rc):
    """Problems with one op's outputs; exit codes 2-4 are failures outright."""
    if rc not in (0, 1):
        return [f"exit code {rc}"]
    problems = []
    try:
        CHECKS[op.command](op, rc, problems)
    except Exception as exc:  # a crashing check is a failed output, not a crash
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return problems
