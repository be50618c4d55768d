"""Helpers shared by run.py and warmup.py: thread caps, importing the
program from the checkout, and one timed CLI call."""

import contextlib
import io
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(Exception):
    pass


def cap_threads():
    """Give BLAS/OpenMP pools one thread before numpy loads.

    The benchmark is one client in one process.  With a pool per core,
    OpenBLAS keeps a helper thread spinning through the small solves this
    program makes (process CPU time twice the wall time on 2 cores), and the
    client thread runs slower and less steadily, so one thread per process
    is both the faster and the steadier setting here.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return nproc, {var: 1 for var in THREAD_VARS}


def import_program():
    """Import csgames from this checkout's src/, or raise SetupError."""
    src = ROOT / "src"
    if not (src / "csgames" / "__init__.py").is_file():
        raise SetupError(f"no csgames package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import csgames
    import csgames.cli  # noqa: F401  (every module the CLI commands use)

    if Path(csgames.__file__).resolve().parent != (src / "csgames").resolve():
        raise SetupError(f"csgames imported from {csgames.__file__}, not from {src}")
    return csgames


def call(cli, op, tracer):
    """Run one CLI op; returns (seconds, exit code or None, error text)."""
    argv = op.argv + ["--out-dir", str(op.out_dir)]
    sink = io.StringIO()
    span = tracer.begin(f"cli.{op.command}") if tracer else None
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crashing op is a counted failure, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end(span)
    if rc not in (0, 1) and not error:
        lines = sink.getvalue().strip().splitlines()
        error = lines[-1] if lines else f"exit {rc}"
    return elapsed, rc, error
