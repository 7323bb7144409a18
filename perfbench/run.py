#!/usr/bin/env python3
"""The chebpint benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload heat-wide --seed 1 --seconds 30 --trace 0

Each run is a closed loop: one client in one process, one solve at a time,
each solver called with workers=2 and BLAS given at most one thread per core.
A seed draws the amplitude of each solve's manufactured solution; the first
solve warms the thread pool and FFT plans and is not timed.  Every solve's
output is checked, and a solve that raises or fails a check is counted in
`failed`, never fatal.

--trace 0 prints the end-to-end metrics.  --trace 1 is a separate run that
records spans around every call into the library's layers, prints the
per-layer metrics and writes the spans to .perfbench-out/.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench-out"
# set-up is timed cold: once in the run's own process, then in fresh
# processes until there are SETUP_SAMPLES or the probes took SETUP_BUDGET_S
SETUP_SAMPLES = 15
SETUP_BUDGET_S = 8.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """Give BLAS no more threads than cores; must run before numpy loads."""
    cores = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def tail(times):
    """(value, percentile, samples beyond): the highest order statistic with
    at least 10 samples above it.  Below 21 samples that statistic would sit
    under the median, so the nearest-rank p90 is reported instead."""
    xs = sorted(times)
    n = len(xs)
    rank = n - 10 if n >= 21 else (9 * n + 9) // 10
    return xs[rank - 1], 100.0 * rank / n, n - rank


def closed_loop(seconds, step):
    """Call step() back to back for about `seconds`: a call starts only if
    the median call so far still fits.  At least one call is made."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def result(outcomes, metrics):
    """The run's last output line; every failed solve is reported on stderr."""
    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print(f"failed solve (a={o.amplitude!r}): {'; '.join(o.problems)}",
              file=sys.stderr)
    return {
        "correct": bool(outcomes) and not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def show(metrics, notes):
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:<14.6g} {unit:<8} {notes.get(name, '')}".rstrip())


def probe_setup(spec):
    """Time one cold set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", spec.name, "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=150, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def timed_setup(workloads, spec):
    t0 = time.perf_counter()
    problem, dec = workloads.setup(spec)
    return time.perf_counter() - t0, workloads.Case(spec, problem, dec)


def environment(workloads, spec, args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workers": workloads.WORKERS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": spec.name,
        "kind": spec.kind,
        "m": spec.m,
        "n": spec.n,
        "T": workloads.T_END,
        "tol": spec.tol,
        "amplitudes": list(workloads.AMPLITUDES),
    }


def end_to_end(workloads, spec, args):
    """Untraced run: set-up several times cold, then time the closed loop."""
    import numpy as np

    setup_s, case = timed_setup(workloads, spec)
    setups = [setup_s]
    probes_start = time.perf_counter()
    while (len(setups) < SETUP_SAMPLES
           and time.perf_counter() - probes_start < SETUP_BUDGET_S):
        setups.append(probe_setup(spec))
    rng = np.random.default_rng(args.seed)
    outcomes = [case.attempt(workloads.draw_amplitude(rng))]  # warm-up
    timed = []

    def step():
        timed.append(case.attempt(workloads.draw_amplitude(rng)))

    closed_loop(args.seconds, step)
    outcomes += timed
    times = [o.seconds for o in timed if o.seconds is not None]
    errors = [o.rel_error for o in outcomes if o.seconds is not None]
    ok = sum(not o.problems for o in outcomes)
    metrics, notes = {}, {}
    metrics["setup_s"] = (statistics.median(setups), "s")
    notes["setup_s"] = f"median of {len(setups)} cold set-ups"
    if times:
        tail_s, pct, beyond = tail(times)
        metrics["solve_s.p50"] = (statistics.median(times), "s")
        metrics["solve_s.tail"] = (tail_s, "s")
        metrics["unknowns_per_s"] = (spec.n * spec.m * len(times) / sum(times), "1/s")
        metrics["rel_error"] = (max(errors), "ratio")
        notes["solve_s.p50"] = f"{len(times)} timed solves"
        notes["solve_s.tail"] = f"p{pct:.1f} of {len(times)}, {beyond} beyond it"
        notes["rel_error"] = f"max over {len(errors)} solves, tolerance {workloads.REL_ERROR_TOL:g}"
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["solved_frac"] = (ok / len(outcomes), "ratio")
    show(metrics, notes)
    # failed_frac is 0 on a correct program, so the JSON carries its
    # complement solved_frac and the failed count
    failed = len(outcomes) - ok
    show({"failed_frac": (failed / len(outcomes), "ratio")},
         {"failed_frac": f"{failed} of {len(outcomes)} solves"})
    return result(outcomes, metrics)


def traced(workloads, spec, args):
    """Traced run: per-layer metrics from spans around every library call."""
    import numpy as np

    import layers
    from tracing import SETUP_POINTS, SOLVE_POINTS, TracingOperator, Tracer, missing, patched

    untraced = missing(SETUP_POINTS + SOLVE_POINTS)
    if untraced:
        print(f"not traced (missing in the library): {', '.join(untraced)}", file=sys.stderr)
    tracer = Tracer()
    tracer.solve = "setup"
    with patched(tracer, SETUP_POINTS), tracer.span("setup"):
        problem, dec = workloads.setup(spec)
    case = workloads.Case(spec, problem, dec)
    rng = np.random.default_rng(args.seed)
    outcomes = [case.attempt(workloads.draw_amplitude(rng))]  # warm-up
    runs = {"traced": [], "workers2": [], "workers1": []}

    def cycle():
        # one amplitude per cycle: traced and untraced at workers=2, and the
        # single-threaded baseline, all on the same inputs
        a = workloads.draw_amplitude(rng)
        tracer.solve = f"solve-{len(runs['traced']) + 1}"
        with patched(tracer, SOLVE_POINTS):
            runs["traced"].append(case.attempt(a, TracingOperator(case.op, tracer)))
        runs["workers2"].append(case.attempt(a))
        runs["workers1"].append(case.attempt(a, workers=1))

    closed_loop(args.seconds, cycle)
    for run in runs.values():
        outcomes += run
    metrics, notes = layers.metrics(spec, case.dec, tracer.spans, runs)
    show(metrics, notes)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{spec.name}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "environment": environment(workloads, spec, args),
        "self_s": layers.self_time_summary(tracer.spans),
        "spans": [vars(s) for s in tracer.spans],
    }))
    print(f"  spans written to {path.relative_to(ROOT)}")
    return result(outcomes, metrics)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one cold set-up and print it (used by the run itself)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    limit_blas_threads()
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import chebpint from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(workloads.chebpint.__file__).resolve().is_relative_to(workloads.SRC):
        print(f"chebpint was imported from {workloads.chebpint.__file__}, "
              f"not from {workloads.SRC}", file=sys.stderr)
        return 2
    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.SPECS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(workloads, spec)[0]}))
        return 0
    print("env " + json.dumps(environment(workloads, spec, args)))
    print(f"{spec.name}: {'traced' if args.trace else 'end-to-end'} run")
    run = traced if args.trace else end_to_end
    print(json.dumps(run(workloads, spec, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
