"""Run one workload of the onebit benchmark and print its metrics.

Usage:
    python3 perfbench/run.py --workload {figure,codes,crosscheck} --seed N --seconds S --trace {0,1} [--tiny]

Every pass of a workload runs its CLI steps through ``onebit.cli.main(argv)``
in a fresh interpreter (``child.py``), one process at a time; the figure's
thread pool is the only parallelism.  After each pass the outputs are checked
against this directory's own reference computations.

``--trace 0`` repeats passes for about ``--seconds`` and reports the
end-to-end metrics over them: ``wall_s`` adds up each step's fastest time,
``setup_s`` and ``peak_rss_mb`` are medians.  On a shared host the time of a
step swings by a fifth or more as neighbours come and go, and its median
follows them; its minimum over a run of short passes moves far less.
``--trace 1`` alternates an untraced and a traced pass (the figure adds a
traced pass at one thread) and reports the per-layer metrics of
``tracer.per_layer``.  The last line of
stdout is the JSON result; the lines above it are a readable summary and the
environment.  ``--tiny`` shrinks every workload for the harness self-test.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
#: The end-to-end passes' BLAS thread count.  numpy's BLAS otherwise starts a
#: thread per core for every matrix product, on top of the figure's pool, and
#: its threads wait on each other: while a neighbour holds a core, a codes
#: pass ran 1.5 to 2 times slower with them and only 1.2 to 1.5 times slower
#: without.  The traced run keeps the inherited setting, so that
#: ``montecarlo.parallel_efficiency`` shows what BLAS threads cost the pool.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Hard limit on one invocation, inside the 180 s every run must end by.
RUN_LIMIT_S = 170.0


class ProgramError(RuntimeError):
    """The program under test could not be run at all (missing, or its interpreter died)."""


def environment(pass_env):
    """What the numbers depend on besides the code: machine, versions, BLAS, thread variables, commit.

    ``thread_env`` is what this process inherited; ``pass_env`` is what the passes were given on top.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                       or (k.startswith("MKL_") and k.endswith("NUM_THREADS"))},
        "pass_env": pass_env,
        "commit": _git_commit(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD's commit read from .git directly; None in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Starts one child interpreter per pass and keeps the tallies of steps attempted and failed."""

    def __init__(self, workload, work: Path, deadline: float, env=None):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._verdicts = {}
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self._env.update(env or {})

    def _child(self, steps, trace):
        plan_path, result_path = self.work / "plan.json", self.work / "result.json"
        plan_path.write_text(json.dumps({"steps": steps, "trace": trace}), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ProgramError("out of time before the pass could start")
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path), repr(spawned_at)],
                env=self._env, cwd=str(self.work), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise ProgramError(f"pass did not finish within {timeout:.0f} s") from None
        if proc.returncode != 0 or not result_path.is_file():
            raise ProgramError(f"child interpreter exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if Path(result["module_file"]).resolve().parent != SRC / "onebit":
            raise ProgramError(f"imported onebit from {result['module_file']}, not from {SRC}")
        return result

    def run_pass(self, trace=False, threads=None):
        """One pass of the workload's steps; its outputs are checked before the next pass overwrites them."""
        steps = self.workload.steps(threads)
        result = self._child([s.argv for s in steps], trace)
        digest = hashlib.sha256()
        for r in result["steps"]:
            digest.update(repr((r["rc"], r["stdout"])).encode())
        result["outputs_digest"] = self._digest_outputs()
        digest.update(result["outputs_digest"].encode())
        key = digest.hexdigest()
        if key not in self._verdicts:  # identical outputs need checking once
            try:
                self._verdicts[key] = self.workload.verify(result["steps"])
            except (ValueError, IndexError, KeyError) as exc:  # output too malformed to parse
                self._verdicts[key] = {i: f"unparseable output: {exc!r}" for i in range(len(steps))}
        failures = self._verdicts[key]
        self.attempted += len(steps)
        self.failed += len(failures)
        for i, reason in sorted(failures.items()):
            self.failures.append(f"step {i} ({steps[i].kind}): {reason}")
        result["wall_s"] = sum(r["seconds"] for r in result["steps"])
        return result

    def _digest_outputs(self):
        digest = hashlib.sha256()
        for path in self.workload.outputs():
            try:
                with open(path, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        digest.update(block)
            except OSError:
                digest.update(b"missing")
        return digest.hexdigest()


def measure_end_to_end(runner, workload, seconds):
    start = time.monotonic()
    passes, durations = [], []
    while True:
        t0 = time.monotonic()
        passes.append(runner.run_pass())
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        ahead = elapsed + statistics.median(durations)
        if ahead > seconds and (len(passes) >= MIN_PASSES or time.monotonic() + durations[-1] > runner.deadline):
            break
    # Each step at its fastest pass: the pass as it runs when no neighbour slows the host.
    best_steps = [dict(step, seconds=min(p["steps"][i]["seconds"] for p in passes))
                  for i, step in enumerate(passes[0]["steps"])]
    walls = [p["wall_s"] for p in passes]
    setups = [p["setup_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    metrics = {
        "wall_s": sum(step["seconds"] for step in best_steps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"  wall_s       {metrics['wall_s']:.4f} s   (sum of {len(best_steps)} step bests over "
          f"{len(passes)} passes; pass wall median {statistics.median(walls):.4g}, worst {max(walls):.4g})")
    print(f"  setup_s      {metrics['setup_s']:.4f} s   (median of {len(setups)}: best {min(setups):.4g}, "
          f"worst {max(setups):.4g})")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  (median of {len(rss)}: {min(rss):.1f} to {max(rss):.1f})")
    for name, (value, unit) in workload.summary(best_steps).items():
        print(f"  {name:<12} {value:.4f} {unit}   (from the step bests)")
    return metrics


def measure_per_layer(runner, workload, seconds):
    start = time.monotonic()
    rounds = []
    while True:
        plain = runner.run_pass()
        traced = runner.run_pass(trace=True)
        threads1 = None
        if workload.threads and workload.threads > 1:
            threads1 = runner.run_pass(trace=True, threads=1)
            if threads1["outputs_digest"] != traced["outputs_digest"]:
                runner.failed += 1
                runner.failures.append(f"outputs differ between --threads {workload.threads} and --threads 1")
        layers = tracer.per_layer(tracer.Trace(traced["trace"]), threads1 and tracer.Trace(threads1["trace"]))
        rounds.append((plain["wall_s"], traced["wall_s"], layers))
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    names = list(rounds[0][2])
    metrics = {name: statistics.median(r[2][name] for r in rounds) for name in names}
    metrics["trace.overhead_s"] = statistics.median(traced - plain for plain, traced, _ in rounds)
    print(f"  {len(rounds)} traced rounds; per-layer values are medians over them")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the workload (harness self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "onebit" / "cli.py").is_file():
        print(f"run.py: no program to benchmark: {SRC / 'onebit' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    pass_env = {} if args.trace else ONE_BLAS_THREAD
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, args.tiny)
        workload.prepare()
        runner = Runner(workload, work, deadline, pass_env)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
        if args.trace:
            metrics = measure_per_layer(runner, workload, args.seconds)
        else:
            metrics = measure_end_to_end(runner, workload, args.seconds)
    except ProgramError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line, count in collections.Counter(runner.failures).items():
        print(f"  FAILED {line}" + (f"  ({count} passes)" if count > 1 else ""))
    print(f"  error_rate   {runner.failed / runner.attempted:.4g}  ({runner.failed} failed of {runner.attempted} steps)")
    print("env " + json.dumps(environment(pass_env), sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
