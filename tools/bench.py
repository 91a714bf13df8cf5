"""Run the benchmark's workloads over a list of seeds and time the tier-1 suite.

Run from the repository root:

    python tools/bench.py --pr 11 --seeds 21 22 23

For every workload and seed this runs ``benchmark/run.py --trace 0`` for
SECONDS seconds in a subprocess on the current checkout and keeps the
metrics from the JSON line it prints last.  It then times one run of the
tier-1 suite (``python -m pytest -q --continue-on-collection-errors`` with
``src`` on the path) and writes ``BENCH_<pr>.json`` at the repository
root: each run's metrics, and per workload and metric the median and the
quartiles over the seeds.  Runs are sequential, so one benchmark process
loads the machine at a time.  The benchmark's own files are only run,
never read or changed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("corner-solve", "beta-sweep", "wiggle-sweep")
# run length per workload and seed
SECONDS = 8.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    return p.parse_args(argv)


def run_workload(workload, seed):
    """Metrics of one benchmark run, as {name: value}, plus its verdict."""
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "units": {name: m["unit"] for name, m in result["metrics"].items()}}


def summarize(runs):
    """Median and quartiles over the runs of one workload, per metric."""
    out = {}
    for name, unit in runs[0]["units"].items():
        values = sorted(r["metrics"][name] for r in runs)
        q1, q3 = ((values[0], values[0]) if len(values) < 2 else
                  statistics.quantiles(values, n=4, method="inclusive")[::2])
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "unit": unit}
    return out


def time_tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip()


def main(argv=None):
    args = parse_args(argv)
    report = {"commit": git("rev-parse", "HEAD") or None,
              "uncommitted_changes": bool(git("status", "--porcelain", "--", "src")),
              "python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(),
              "seconds": SECONDS, "seeds": args.seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            run = run_workload(workload, seed)
            print(f"{workload} seed {seed}: correct {run['correct']}, "
                  f"wall_s {run['metrics'].get('wall_s', float('nan')):.3f}",
                  file=sys.stderr)
            runs.append(run)
        summary = summarize(runs)
        for run in runs:
            del run["units"]  # kept once, in the summary
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    report["tier1"] = time_tier1()
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
