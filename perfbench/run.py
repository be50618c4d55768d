"""csgames benchmark: one closed-loop client driving the public CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` of that checkout and nowhere else.  Set-up is repeated SETUP_REPS
times and `setup_s` is the median: each repetition times a fresh interpreter
importing the program and calling every command once (warmup.py), plus
generating and writing the seeded input documents.  Then whole passes over
the workload's op list run until the next pass would end after `--seconds`
of measured time (at least two passes, so every op is repeated and its
outputs can be compared byte for byte).  Each op is followed by one run of a
fixed reference job (reference.py), which also runs before each pass;
`ops_per_ref` is ops per pass over the pass's cost, median over passes, where
the cost sums each op's time in units of the mean time of the two reference
runs around it, so the machine's speed of the moment cancels.  Output
checks run after the passes.  The last line of standard output is the result
object; the line before it, prefixed `detail:`, carries the op mix, input
sizes, per-command latencies, wall-clock `ops_per_s` (ops per pass over the
sum of each op's median time across passes), the reference job's median
time, failures and the environment.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced passes with passes that wrap the layers' functions (see spans.py),
reports per-layer metrics normalized per traced pass together with the
tracing overhead against the untraced passes of the same run, and writes the
spans to `.perfbench-work/traces/<workload>.jsonl`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import warmup
from harness import ROOT, SetupError, call, cap_threads, import_program
from reference import Reference

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 3
MIN_PASSES = 2
COMMANDS = ("solve", "verify", "best-respond", "evaluate", "correlated-sequence",
            "discretize", "simulate")


def snapshot(out_dir):
    """A digest of every output file, with the report's timing block removed,
    and the report's results."""
    digest = hashlib.sha256()
    results = None
    for path in sorted(Path(out_dir).glob("*")):
        data = path.read_bytes()
        if path.name.endswith(".report.json"):
            doc = json.loads(data)
            doc.pop("timing", None)
            results = doc.get("results")
            data = json.dumps(doc, sort_keys=True).encode()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest(), results


def run_passes(cli, ops, seconds, tracer, reference):
    """Whole passes until the next one would end past `seconds`.  With a
    tracer, passes alternate untraced and traced, at least MIN_PASSES of
    each, so the tracing overhead is measured within one run.  With a
    reference, the reference job runs before a pass's first op and after each
    op, so every op lies between two runs of it, and its time counts towards
    `seconds` too.  Returns the passes, per pass whether it was traced, and
    per pass the reference job's times."""
    passes, traced, refs = [], [], []
    measured = 0.0
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES
    while len(passes) < min_passes or measured + pass_time <= seconds:
        on = tracer is not None and len(passes) % 2 == 1
        if on:
            tracer.install()
        try:
            results = []
            ref_s = [reference.run()] if reference else []
            for op in ops:
                elapsed, rc, error = call(cli, op, tracer if on else None)
                results.append((elapsed, rc, error, *snapshot(op.out_dir)))
                if reference:
                    ref_s.append(reference.run())
        finally:
            if on:
                tracer.restore()
        pass_time = sum(r[0] for r in results) + sum(ref_s)
        measured += pass_time
        passes.append(results)
        traced.append(on)
        refs.append(ref_s)
    return passes, traced, refs


def judge(ops, passes, check_op):
    """Failed attempts and their reasons: bad exit codes, outputs that differ
    from the first pass, and every attempt of an op whose outputs fail their
    check."""
    failed = 0
    reasons = []
    for k, op in enumerate(ops):
        first = passes[0][k]
        bad = 0
        for p, results in enumerate(passes):
            elapsed, rc, error, digest, _ = results[k]
            if rc not in (0, 1):
                reasons.append(f"{op.command} #{k} pass {p}: {error}")
                bad += 1
            elif (rc, digest) != (first[1], first[3]):
                reasons.append(f"{op.command} #{k} pass {p}: outputs differ from pass 0")
                bad += 1
        if not bad:
            problems = check_op(op, first[1])
            reasons.extend(f"{op.command} #{k}: {msg}" for msg in problems)
            bad = len(passes) if problems else 0
        failed += bad
    return failed, reasons


def median_pass_s(passes):
    """Each op's median time over passes, summed over the ops of a pass, so
    one noisy pass moves no op's figure."""
    return sum(statistics.median(results[k][0] for results in passes)
               for k in range(len(passes[0])))


def ops_per_ref(passes, refs):
    """Ops per reference-job time.  A pass's cost is the sum over its ops of
    each op's time over the mean of the two reference runs around it; the
    result is ops per pass over the median cost."""
    costs = [sum(r[0] / ((before + after) / 2)
                 for r, before, after in zip(results, ref_s, ref_s[1:]))
             for results, ref_s in zip(passes, refs)]
    return len(passes[0]) / statistics.median(costs)


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def command_latencies(ops, passes):
    per = {}
    for results in passes:
        for op, (elapsed, *_rest) in zip(ops, results):
            per.setdefault(op.command, []).append(elapsed)
    return per


def simulate_steps(ops, passes):
    steps = elapsed_total = 0.0
    for results in passes:
        for op, (elapsed, rc, _, _, report) in zip(ops, results):
            if op.command == "simulate" and rc == 0:
                steps += report["trajectories"] * report["horizon"]
                elapsed_total += elapsed
    return steps / elapsed_total if elapsed_total else 0.0


def layer_metrics(tracer, ops, passes, untraced):
    """Per-layer metrics per traced pass, and the layers with the most self
    time.  `untraced` are the run's other passes, for the tracing overhead."""
    stats, ancestors = spans.summarize(tracer.spans)
    n = len(passes)

    def get(name, key):
        return stats.get(name, {}).get(key, 0.0) / n

    def attrs(name):
        return stats.get(name, {}).get("attrs", [])

    lp_calls = stats.get("best_response.lp", {}).get("calls", 0)
    infeasible = sum(1 for a in attrs("best_response.lp") if a.get("infeasible"))
    searches = attrs("equilibrium.search")
    iterations = sum(a["iterations"] for a in searches)
    lp_in_search = sum(1 for span, above in zip(tracer.spans, ancestors)
                       if span[0] == "best_response.lp" and "equilibrium.search" in above)
    steps = sum(a["steps"] for a in attrs("evaluation.simulate"))
    sim_s = stats.get("evaluation.simulate", {}).get("s", 0.0)
    # Root spans are the benchmark's own cli.<command> spans around main().
    root_self = sum(get(f"cli.{c}", "self_s") for c in COMMANDS)
    total = sum(r[0] for results in passes for r in results)
    latencies = command_latencies(ops, passes)
    metrics = {
        "trace.ops_per_s": (len(ops) / median_pass_s(passes), "1/s"),
        "trace.overhead_frac": (median_pass_s(passes) / median_pass_s(untraced) - 1.0,
                                "fraction"),
        "cli.self_s": (root_self, "s"),
        "cli.load.s": (get("cli.load", "s"), "s"),
        "cli.write.s": (get("cli.write", "s"), "s"),
        "cli.digest.s": (get("cli.digest", "s"), "s"),
        "game.validate.s": (get("game.validate", "s"), "s"),
        "best_response.lp.calls": (lp_calls / n, "count"),
        "best_response.lp.self_s": (get("best_response.lp", "self_s"), "s"),
        "best_response.lp.infeasible_frac": (infeasible / lp_calls if lp_calls else 0.0,
                                             "fraction"),
        "scipy.linprog.self_s": (get("scipy.linprog", "self_s"), "s"),
        "scipy.highs.s": (get("scipy.highs", "s"), "s"),
        "scipy.highs.run.s": (get("scipy.highs.run", "s"), "s"),
        "best_response.policy_iteration.s": (get("best_response.policy_iteration", "s"), "s"),
        "evaluation.induced_mdp.calls": (get("evaluation.induced_mdp", "calls"), "count"),
        "evaluation.induced_mdp.s": (get("evaluation.induced_mdp", "s"), "s"),
        "evaluation.exact.calls": (get("evaluation.exact", "calls"), "count"),
        "evaluation.exact.s": (get("evaluation.exact", "s"), "s"),
        "equilibrium.search.iterations": (iterations / n, "count"),
        "equilibrium.search.lp_per_iteration": (lp_in_search / iterations if iterations
                                                else 0.0, "count"),
        "equilibrium.search.converged_frac": (
            sum(1 for a in searches if a["converged"]) / len(searches) if searches else 0.0,
            "fraction"),
        "equilibrium.search.self_s": (get("equilibrium.search", "self_s"), "s"),
        "evaluation.simulate.steps": (steps / n, "count"),
        "evaluation.simulate.s": (sim_s / n, "s"),
        "evaluation.simulate.steps_per_s": (steps / sim_s if sim_s else 0.0, "1/s"),
        "discretization.build_partition.s": (get("discretization.build_partition", "s"), "s"),
        "discretization.check_partition.calls": (
            get("discretization.check_partition", "calls"), "count"),
        "discretization.check_partition.s": (get("discretization.check_partition", "s"), "s"),
        "discretization.surrogate_game.s": (get("discretization.surrogate_game", "s"), "s"),
        "discretization.cells": (sum(a["cells"] for a in attrs("discretization.build_partition"))
                                 / n, "count"),
    }
    for command in COMMANDS:
        metrics[f"cli.{command}.s_p50"] = (statistics.median(latencies[command])
                                           if command in latencies else 0.0, "s")
    by_self = sorted(((v["self_s"] / n, k) for k, v in stats.items()), reverse=True)
    dominant = [{"layer": k, "self_s_per_pass": round(s, 6), "share": round(s * n / total, 4)}
                for s, k in by_self[:6]]
    return metrics, dominant


def environment(nproc, caps):
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": caps,
    }


def setup_once(workloads, workload, seed, work, tiny):
    """One set-up repetition: a fresh interpreter imports the program and
    warms every command up (warmup.py), then the inputs are generated and
    written.  Returns (seconds, workload)."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    start = time.perf_counter()
    try:
        probe = subprocess.run([sys.executable, str(BENCH / "warmup.py"), str(work / "probe")],
                               capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        raise SetupError("set-up probe did not finish in 120 s") from exc
    if probe.returncode != 0:
        raise SetupError(f"set-up probe failed: {probe.stderr.strip()[-2000:]}")
    wl = workloads.WORKLOADS[workload](seed, work / "inputs", work / "out", tiny)
    return time.perf_counter() - start, wl


def run(workload, seed, seconds, trace, tiny=False, env=None):
    """One benchmark run; returns (result object, detail object)."""
    import csgames.cli as cli
    import checks
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        rep_s = []
        for _ in range(SETUP_REPS):
            elapsed, wl = setup_once(workloads, workload, seed, work, tiny)
            rep_s.append(elapsed)
        # This process's own first calls, untimed: set-up cost is the probe's.
        error = warmup.warm(cli, workloads, work / "warm")
        if error:
            raise SetupError(error)

        # Traced runs report layer times, not the machine-relative metric,
        # and the tracer would record the reference job's LPs.
        tracer = spans.Tracer() if trace else None
        ref = None if trace else Reference()
        if ref:
            ref.run()  # untimed: the first run pays one-off costs
        passes, traced, refs = run_passes(cli, wl.ops, seconds, tracer, ref)
        failed, failures = judge(wl.ops, passes, checks.check_op)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(wl.ops) * len(passes)
    total = sum(r[0] for results in passes for r in results)
    pass_s = median_pass_s(passes)
    latencies = command_latencies(wl.ops, passes)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "client": "closed loop, 1 client, 1 process",
        "passes": len(passes), "measured_s": total, "ops_per_pass": len(wl.ops),
        "op_mix": wl.op_mix(), "sizes": wl.sizes,
        "setup_reps_s": rep_s, "median_pass_s": pass_s,
        "op_s": [[round(results[k][0], 5) for results in passes] for k in range(len(wl.ops))],
        "per_command": {c: {"p50_s": statistics.median(v), "p90_s": p90(v),
                            "n": len(v)} for c, v in latencies.items()},
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "simulate_steps_per_s": simulate_steps(wl.ops, passes),
        "ops_per_s": len(wl.ops) / pass_s,
        "environment": env or {},
    }
    if trace:
        layer, dominant = layer_metrics(
            tracer, wl.ops, [p for p, on in zip(passes, traced) if on],
            [p for p, on in zip(passes, traced) if not on])
        detail["dominant_self_time"] = dominant
        detail["spans"] = len(tracer.spans)
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "traces" / f"{workload}.jsonl")
        metrics = layer
    else:
        detail["reference_s_p50"] = statistics.median(t for ref_s in refs for t in ref_s)
        metrics = {
            "setup_s": (statistics.median(rep_s), "s"),
            "ops_per_ref": (ops_per_ref(passes, refs), "1/ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    nproc, caps = cap_threads()
    try:
        import_program()
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             env=environment(nproc, caps))
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
