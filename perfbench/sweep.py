"""Run the benchmark over several seeds and append each result to a JSONL file.

    python3 perfbench/sweep.py --side . runs.jsonl [--seeds 1-10]
        [--workloads search-small,certify-large] [--trace 0] [--seconds S]

`--side DIR FILE` names a source checkout and the file its results go to.
Give it twice (parent first, change second) to measure two commits in
alternating order: for odd seeds the second side runs first.  Each line holds
the checkout, workload, seed, trace flag, the result object, the detail
object and the CPU model.  Summarize or compare the files with compare.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    detail = {}
    if len(lines) > 1 and lines[-2].startswith("detail: "):
        detail = json.loads(lines[-2][len("detail: "):])
    return json.loads(lines[-1]), detail


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", nargs=2, action="append", required=True,
                        metavar=("CHECKOUT", "OUT"))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    cpu = cpu_model()
    for index, seed in enumerate(seed_list(args.seeds)):
        for workload in args.workloads.split(","):
            sides = args.side if index % 2 == 0 else list(reversed(args.side))
            for checkout, out in sides:
                result, detail = run_once(Path(checkout).resolve(), workload, seed,
                                          args.seconds, args.trace)
                line = {"checkout": str(Path(checkout).resolve()), "workload": workload,
                        "seed": seed, "trace": args.trace, "cpu_model": cpu,
                        "result": result, "detail": detail}
                with open(out, "a") as fh:
                    fh.write(json.dumps(line, sort_keys=True) + "\n")
                values = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                          if args.trace == 0}
                print(f"{checkout} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}",
                      file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
