"""One pass of a workload in a fresh interpreter: import ``onebit.cli``, call ``main(argv)`` per step.

Usage: python3 child.py PLAN.json RESULT.json SPAWNED_AT

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; the system-wide monotonic clock makes ``import done - SPAWNED_AT``
the set-up time (interpreter start plus ``import onebit.cli``).  The plan is
``{"steps": [argv, ...], "trace": bool}``; an empty step list measures set-up
only.  Each step's exit code, seconds and captured stdout/stderr go to
RESULT.json, with the spans when tracing is on.
"""

import time

import onebit.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (kept out of the set-up measurement)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_step(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = onebit.cli.main(argv)
    except Exception:  # a crash is a failed step; the remaining steps still run
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    plan_path, result_path, spawned_at = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(onebit)
    steps = [run_step(argv) for argv in plan["steps"]]
    result = {
        "module_file": onebit.cli.__file__,
        "setup_s": IMPORTED_AT - spawned_at,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.dump() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
