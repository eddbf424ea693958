"""Repeat the benchmark over several seeds, judge its spread, and optionally record a trajectory entry.

Usage:
    python3 perfbench/trajectory.py [--traced] [--record LABEL]

For every workload of BENCHMARK.json, ``run.py --trace 0`` runs once for each
of the seeds 1 to 10.  For each end-to-end metric the table shows the median
over the runs, the quartile spread (q3 - q1) / median, and the metric's bound
from BENCHMARK.json; every spread but that of ``setup_s`` must stay below a
third of its bound, or the script exits 1.  ``--traced`` adds one
``--trace 1`` run per workload.  ``--record LABEL`` appends the numbers, with
the environment, to ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
SEEDS = range(1, 11)
#: Spread shown but not judged.  ``setup_s`` is the median of a run's process
#: starts, and a start follows the host's load from one minute to the next; the
#: bound on ``setup_s`` guards its median between two sets of runs instead.
UNGATED = {"setup_s"}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().split("\n")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--record", metavar="LABEL", help="append the results to trajectory.json")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"label": args.record, "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "run_seconds": seconds, "runs": len(SEEDS), "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            result, entry["env"] = run_once(workload, seed, seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        record = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = name in UNGATED or spread < bound / 3
            steady &= ok
            record["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3,
                                          "unit": results[0]["metrics"][name]["unit"], "values": values}
            print(f"  {workload:<10} {name:<12} median {median:<10.4g} spread {spread:6.2%}  "
                  f"bound {bound:.0%}  {'not judged' if name in UNGATED else 'ok' if ok else 'TOO WIDE'}", flush=True)
        print(f"  {workload:<10} correct={record['correct']} failed {record['failed']} of {record['attempted']}")
        if args.traced:
            traced, _ = run_once(workload, SEEDS[0], seconds, 1)
            record["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["workloads"][workload] = record

    if args.record:
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.is_file() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
