"""Set-up probe: in a fresh interpreter, import the program from the
checkout's `src/` and call every CLI command once on tiny inputs.

    python3 perfbench/warmup.py WORK_DIR

run.py times this as a subprocess in each set-up repetition, so every
repetition pays the same cold import and first-call costs a user's process
pays, and the median over repetitions is a stable set-up time.
"""

import sys
from pathlib import Path

import harness


def warm(cli, workloads, work_dir):
    """Run the warm-up ops; returns the first failure's text, or ''."""
    work_dir = Path(work_dir)
    (work_dir / "inputs").mkdir(parents=True, exist_ok=True)
    for op in workloads.warmup_ops(work_dir / "inputs", work_dir / "out"):
        _, rc, error = harness.call(cli, op, None)
        if rc not in (0, 1):
            return f"warm-up {op.command} failed: {error}"
    return ""


def main(argv):
    harness.cap_threads()
    try:
        harness.import_program()
    except harness.SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    import csgames.cli as cli
    import workloads

    error = warm(cli, workloads, argv[0])
    if error:
        print(error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
