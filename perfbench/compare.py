"""Summarize or compare benchmark result files written by sweep.py.

    python3 perfbench/compare.py RUNS.jsonl
        per workload and end-to-end metric: median, quartiles, and the
        quartile spread as a share of the median against the metric's bound;
        per-layer medians and quartiles of traced runs.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
        per workload and end-to-end metric: both sides' medians and
        quartiles, the fraction of same-seed pairs the change wins, and a
        verdict: REGRESSION when the change's median is worse than the
        parent's by more than the metric's bound in BENCHMARK.json.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault((run["workload"], run["trace"]), []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def values_by_seed(runs, metric):
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]}


def worse_share(base, change, better):
    """How much worse `change` is than `base`, as a share of `base`."""
    diff = change - base if better == "lower" else base - change
    return diff / base if base else 0.0


def fmt(x):
    return f"{x:.4g}"


def summarize(path, spec):
    runs = load(path)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for (workload, trace), group in sorted(runs.items()):
        failed = sum(r["result"]["failed"] for r in group)
        attempted = sum(r["result"]["attempted"] for r in group)
        incorrect = sum(1 for r in group if not r["result"]["correct"])
        print(f"\n{workload} (trace {trace}): {len(group)} runs, failed {failed}/{attempted}"
              f", incorrect runs {incorrect}")
        metrics = group[0]["result"]["metrics"]
        for name, first in metrics.items():
            vals = list(values_by_seed(group, name).values())
            q1, q2, q3 = quartiles(vals)
            line = (f"  {name:40s} median {fmt(q2):>10} {first['unit']:8s}"
                    f" q1 {fmt(q1):>10} q3 {fmt(q3):>10}")
            if name in bounds:
                share = spread(vals)
                bound = bounds[name]["bound"]
                verdict = ("ok" if share < bound / 3 else
                           "within bound" if share <= bound else "OVER BOUND")
                line += f"  spread {share:.3f} (bound {bound}) {verdict}"
            print(line)


def compare(base_path, change_path, spec):
    base_runs, change_runs = load(base_path), load(change_path)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        for side, group in (("parent", base_runs[key]), ("change", change_runs[key])):
            failed = sum(r["result"]["failed"] for r in group)
            print(f"  {side}: {len(group)} runs, failed {failed}/"
                  f"{sum(r['result']['attempted'] for r in group)}")
        for name in base_runs[key][0]["result"]["metrics"]:
            meta = metrics.get(name)
            if meta is None:
                continue
            base = values_by_seed(base_runs[key], name)
            change = values_by_seed(change_runs[key], name)
            seeds = sorted(set(base) & set(change))
            if not seeds:
                continue
            b1, b2, b3 = quartiles(list(base.values()))
            c1, c2, c3 = quartiles(list(change.values()))
            wins = sum(1 for s in seeds if worse_share(base[s], change[s], meta["better"]) < 0)
            worse = worse_share(b2, c2, meta["better"])
            line = (f"  {name:40s} parent {fmt(b2):>10} [{fmt(b1)}, {fmt(b3)}]"
                    f"  change {fmt(c2):>10} [{fmt(c1)}, {fmt(c3)}]"
                    f"  wins {wins}/{len(seeds)}  {worse * 100:+.1f}% worse")
            if "bound" in meta:
                bound = meta["bound"]
                all_better = all(worse_share(b, c, meta["better"]) < 0
                                 for b in base.values() for c in change.values())
                if worse > bound:
                    verdict = "REGRESSION"
                    regressions += 1
                elif spread(list(base.values())) > bound and not all_better:
                    verdict = "unresolved (parent spread exceeds bound)"
                elif wins >= 0.9 * len(seeds) and abs(c2 - b2) > b3 - b1:
                    verdict = "gain"
                else:
                    verdict = "no change beyond bound"
                line += f"  bound {bound}: {verdict}"
            print(line)
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        summarize(argv[0], spec)
        return 0
    return compare(argv[0], argv[1], spec)


if __name__ == "__main__":
    sys.exit(main())
