"""The JSON document pipeline, end to end, through the csgames CLI.

Writes a game document, solves it, verifies the solution, discretizes a
gridded spec, and shows the exit-code contract on a broken input.  Every
command writes a report whose bytes are reproducible except for timing.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from csgames import sample_games
from csgames.cli import _dump, game_to_payload, spec_to_payload


def run(args):
    proc = subprocess.run([sys.executable, "-m", "csgames.cli", *args],
                          capture_output=True, text=True)
    print(f"$ csgames {' '.join(args)}")
    for line in (proc.stdout + proc.stderr).strip().splitlines():
        print(f"  {line}")
    print(f"  exit code {proc.returncode}")
    print()
    return proc.returncode


def main():
    with tempfile.TemporaryDirectory(prefix="csgames-demo-") as tmp:
        pipeline(Path(tmp))


def pipeline(workdir):
    print(f"working in {workdir}")
    print()

    game_path = workdir / "pair.game.json"
    game_path.write_text(_dump(game_to_payload(sample_games.decoupled_pair())))
    spec_path = workdir / "linear.spec.json"
    spec_path.write_text(_dump(spec_to_payload(sample_games.linear_cost_grid_spec())))

    run(["solve", str(game_path), "--out-dir", str(workdir)])
    run(["verify", str(game_path), str(workdir / "solve.strategy.json"),
         "--epsilon", "1e-6", "--out-dir", str(workdir)])
    run(["evaluate", str(game_path), str(workdir / "solve.strategy.json"),
         "--out-dir", str(workdir)])
    run(["discretize", str(spec_path), "--epsilon", "0.2",
         "--out-dir", str(workdir)])

    broken = workdir / "broken.game.json"
    doc = json.loads(game_path.read_text())
    doc["transitions"][0][0][0] = 0.9
    broken.write_text(_dump(doc))
    print("a transition row that no longer sums to 1 is a validation error:")
    run(["evaluate", str(broken), str(workdir / "solve.strategy.json"),
         "--out-dir", str(workdir)])

    report = json.loads((workdir / "verify.report.json").read_text())
    print("verify report, minus the timing block:")
    report.pop("timing")
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
