"""leakywire benchmark: one workload, end-to-end metrics or a traced breakdown.

Run from the root of a source checkout (the package need not be installed;
``src`` is put on the path here):

    python3 benchmark/run.py --workload corner-solve --seed 1 --seconds 20 --trace 0

A run writes the seed's inputs under benchmark/out, measures set-up in fresh
interpreters, then repeats whole rounds of the workload through
``leakywire.cli.main`` until ``--seconds`` have passed (at least one round).
Every round's output is checked (checks.py) outside the timed region.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A failed check
makes the exit code 1.  See README.md.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("corner-solve", "beta-sweep", "wiggle-sweep")
# set-up is measured this many times per run, each in a fresh interpreter
SETUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(args):
    """Child process: time imports plus set-up and print the seconds."""
    t0 = time.perf_counter()
    import leakywire.cli

    workloads.setup(args.workload, workloads.make_inputs(args.workload, args.seed),
                    args.probe_setup, leakywire)
    print(repr(time.perf_counter() - t0))


def measure_setup(args, folder):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--probe-setup", folder],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_round(cli, argv, folder):
    """One timed pass of the workload; returns (seconds, output or error)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception as exc:  # a crash fails the round's operations, not the run
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, f"exit code {code}"
    return elapsed, workloads.read_output(folder)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leakywire", "__init__.py")):
        print(f"error: no leakywire sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_setup:
        probe_setup(args)
        return 0

    inputs = workloads.make_inputs(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    folder = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return measure(args, inputs, folder)
    finally:
        shutil.rmtree(folder, ignore_errors=True)


def measure(args, inputs, folder):
    argv = workloads.write_inputs(args.workload, inputs, folder)
    setup_s = measure_setup(args, folder)

    import leakywire.cli
    import checks

    tracer = None
    if args.trace:
        import layers
        import tracer as tracing
        largest = layers.LargestAssembly()
        tracer = tracing.Tracer(leakywire, layers.hooks(largest))
        tracer.install()
    t_origin = time.perf_counter()
    workloads.setup(args.workload, inputs, folder, leakywire)
    setup_spans = tracer.collect() if tracer else []
    if tracer:
        tracer.uninstall()

    # whole rounds until the time is up; the trace run alternates untraced
    # and traced rounds so both see the same machine state
    plain, traced, outputs, round_spans = [], [], [], []
    t_start = time.perf_counter()
    while (not plain or (tracer and not traced)
           or time.perf_counter() - t_start < args.seconds):
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.install()
        elapsed, out = run_round(leakywire.cli, argv, folder)
        if use_trace:
            tracer.uninstall()
            traced.append(elapsed)
            round_spans.append(tracer.collect())
        else:
            plain.append(elapsed)
        outputs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = workloads.ops_per_round(args.workload, inputs)
    failed = 0
    for k, out in enumerate(outputs):
        if isinstance(out, str):
            fails = [(i, out) for i in range(ops)]
        else:
            fails = checks.check(args.workload, inputs, out)
        for op, msg in fails:
            print(f"round {k} operation {op}: {msg}", file=sys.stderr)
        failed += len({op for op, _ in fails})
    attempted = ops * len(outputs)

    if tracer:
        metrics = layers.round_medians(setup_spans, round_spans,
                                       largest.peak_mb(leakywire.bs_core.assemble))
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "setup": tracing.spans_for_file(setup_spans, t_origin),
                       "rounds": [tracing.spans_for_file(s, t_origin)
                                  for s in round_spans]}, fh)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {len(outputs)} rounds, "
          f"round wall times {[round(t, 3) for t in plain + traced]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
