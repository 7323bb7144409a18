"""Benchmark command-line front end.

Subcommands
-----------
decompose          fast spectral decomposition vs. the dense eigensolver path
convergence        temporal-order study on the heat/wave/semilinear benchmarks
compare-geometric  error/conditioning comparison against the geometric-step
                   trapezoidal baseline on the 1D periodic wave system
bench              wall-clock scaling over worker counts (reported, not judged)

All commands emit machine-readable CSV or JSON (``--out``, ``--format``);
exit code 0 on success, 1 on bad arguments or an output file that cannot be
written, 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np
import scipy.linalg

from . import spectral, timedisc
from .errors import ChebPintError, check_count, check_scale
from .solver import (
    global_error,
    solve_first_order_linear,
    solve_second_order_linear,
    solve_semilinear_sni,
    timestep_trapezoidal,
)
from .spatial import DenseOperator, make_benchmark, make_laplacian_1d_periodic
from .timedisc import BlockVector, geometric_grid, rhs_first_order, rhs_second_order

__all__ = ["main", "build_parser"]

# 17 significant digits: scientific notation that round-trips float64 exactly
_FLOAT_FMT = "{:.16e}"


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the CLI contract wants 1,
    and after the usage the one ``chebpint: invalid arguments: ...`` line
    that `main` prints for any other bad argument.

    Prefix matching is off, so ``--n`` is never read as ``--n-list``.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"chebpint: invalid arguments: {message}", file=sys.stderr)
        sys.exit(1)


def _checked(convert, ok, what):
    """An argparse type: convert(text), rejected unless ok() holds for it.
    argparse also converts string defaults, so a bad CHEBPINT_WORKERS fails
    only the subcommands that read --workers."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


_workers = _checked(int, lambda w: w >= 1,
                    "an integer >= 1 (from --workers or CHEBPINT_WORKERS)")
_int_list = _checked(lambda text: [int(v) for v in text.split(",")],
                     lambda v: True, "comma-separated integers")


def _fmt(value):
    if isinstance(value, float):
        return _FLOAT_FMT.format(value)
    return str(value)


def _emit(rows, config, out_path, fmt):
    if fmt == "json":
        text = json.dumps({"config": config, "rows": rows}, indent=2)
    else:
        # CSV: header is the key union in first-seen order (rows may add
        # failure columns mid-table)
        keys = list(dict.fromkeys(k for row in rows for k in row))
        text = "\n".join([",".join(keys)] + [
            ",".join(_fmt(row.get(k, "")) for k in keys) for row in rows])
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _median_time(fn, reps=3):
    """Median wall time of fn() over `reps` runs; returns (result, seconds)."""
    times = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, float(np.median(times))


def _check_budget(args):
    """--tol and --max-iter, checked under their flag names before the first
    solve, whichever kind reads them."""
    check_scale("--tol", args.tol)
    check_count("--max-iter", args.max_iter)


def _benchmark_side(args, flag, counts):
    """The grid side of --m, once --tol, --max-iter, --T and the time point
    counts given by `flag` are checked under their flag names, before the
    first solve."""
    _check_budget(args)
    check_scale("--T", args.T)
    # the second-order rhs folds the initial velocity into the first two steps
    minimum = 2 if args.kind == "wave" else 1
    for n in counts:
        check_count(f"{flag} of --kind {args.kind}", n, minimum)
    return _square_side(args.m)


def _square_side(m):
    side = math.isqrt(max(m, 0))
    if side * side != m:
        raise ValueError(f"--m must be a perfect square for 2D benchmarks, got {m}")
    if side < 1:
        raise ValueError(f"--m must be >= 1, got {m}")
    return side


# ---------------------------------------------------------------- decompose

def cmd_decompose(args):
    # n is checked before the default dt = 1/n divides by it
    n, tol = check_count("--n", args.n), args.tol
    _check_budget(args)
    dt = 1.0 / n if args.dt is None else check_scale("--dt", args.dt)
    reps = 3 if n <= 1024 else 1

    dec, fast_seconds = _median_time(
        lambda: spectral.decompose(n, dt, tol=tol, max_iter=args.max_iter),
        reps=reps,
    )
    row = {
        "n": n,
        "newton_iters_max": dec.newton_iters_max,
        "cond2": dec.cond2,
        "omega_fast": dec.residual,
        "fast_seconds": fast_seconds,
        # the layers of the last repetition
        **{f"{phase}_seconds": t for phase, t in dec.phase_times.items()},
    }

    if not args.skip_reference:
        B = timedisc.assemble_B(n, dt).toarray()

        def reference_path():
            vals, vecs = scipy.linalg.eig(B)
            return vals, vecs, spectral.build_Vinv_reference(vecs)

        (vals, vecs, vecs_inv), ref_seconds = _median_time(reference_path, reps=1)
        row.update(
            omega_ref=spectral.decomposition_residual(vals, vecs, vecs_inv, B),
            eta=spectral.eigenvalue_agreement(dec.eigenvalues, vals),
            ref_seconds=ref_seconds,
        )

    if args.dump:
        spectral.save_decomposition(dec, args.dump)
        row["dump"] = args.dump

    config = {"command": "decompose", "n": n, "dt": dt, "tol": tol,
              "max_iter": args.max_iter}
    _emit([row], config, args.out, args.format)
    return 0


# -------------------------------------------------------------- convergence

def _solve_benchmark(problem, dec, g, tol, max_iter, workers):
    """Solve the manufactured benchmark problem for the sampled forcing g."""
    dt = problem.grid.dt
    if problem.kind == "heat":
        rhs = rhs_first_order(problem.u0, g, dt)
        return solve_first_order_linear(dec, problem.operator, rhs, workers)
    if problem.kind == "wave":
        rhs = rhs_second_order(problem.u0, problem.u0dot, g, dt)
        return solve_second_order_linear(dec, problem.operator, rhs, workers)
    return solve_semilinear_sni(
        problem.semilinear(), dec, tol=tol, max_iter=max_iter, workers=workers
    )


def _sweep_totals(report):
    """Fixed-point updates and exact fallbacks over all SNI sweeps (0 for the
    linear drivers, which record no sweeps)."""
    return {
        "inner_updates": sum(s["updates_total"] for s in report.sweeps),
        "fallbacks": sum(s["fallbacks"] for s in report.sweeps),
    }


def _bench_once(args, side, n, workers, reps):
    """Decompose and solve the benchmark problem of the CLI arguments at n
    time points; returns the report, the median seconds of `reps` solves
    and the global error against the discrete reference."""
    problem = make_benchmark(args.kind, side, n=n, T=args.T)
    grid = problem.grid
    dec = spectral.decompose(n, grid.dt, with_residual=False)
    g = problem.sample_source(grid.t_points)
    report, seconds = _median_time(
        lambda: _solve_benchmark(problem, dec, g, args.tol, args.max_iter, workers),
        reps=reps,
    )
    ref = BlockVector(problem.discrete_reference(grid.t_points))
    return report, seconds, global_error(report.solution, ref)


def cmd_convergence(args):
    n_list = args.n_list
    side = _benchmark_side(args, "--n-list", n_list)
    workers = args.workers
    rows = []
    prev_err = None
    for n in n_list:
        report, seconds, err = _bench_once(args, side, n, workers, reps=1)
        order = float(np.log2(prev_err / err)) if prev_err else float("nan")
        prev_err = err
        rows.append({
            "kind": args.kind, "n": n, "m": args.m,
            "error": err, "order": order,
            "iterations": report.iterations,
            **_sweep_totals(report),
            "residual": report.residual_history[-1],
            "wall_seconds": seconds, "workers": workers,
        })
    config = {"command": "convergence", "kind": args.kind, "m": args.m,
              "T": args.T, "tol": args.tol, "workers": workers,
              "n_list": n_list}
    _emit(rows, config, args.out, args.format)
    return 0


# -------------------------------------------------------- compare-geometric

def _wave_reference(A, u0, t_points):
    """u(t) = cos(t sqrt(A)) u0 for u'' + A u = 0, u'(0) = 0 (A symmetric)."""
    lam, S = np.linalg.eigh(A)
    lam = np.clip(lam, 0.0, None)
    c0 = S.T @ u0
    return np.stack([S @ (np.cos(t * np.sqrt(lam)) * c0) for t in t_points])


def cmd_compare_geometric(args):
    m = check_count("--m", args.m, 3)
    dx = 2.0 / m
    op = make_laplacian_1d_periodic(m, dx)
    A = op.dense()
    x_pts = np.arange(1, m + 1) * dx
    u0 = np.sin(2.0 * np.pi * x_pts)
    Q = np.zeros((2 * m, 2 * m))
    Q[:m, m:] = -np.eye(m)
    Q[m:, :m] = A
    q_op = DenseOperator(Q)
    w0 = np.concatenate([u0, np.zeros(m)])

    rows = []
    for n in range(4, args.n_max + 1):
        grid = geometric_grid(n, args.tau, args.dt_last)
        t_geo = grid.t_points
        ref_geo = _wave_reference(A, u0, t_geo)
        row = {"n": n, "T": grid.T}
        try:
            gdec = timedisc.geometric_decomposition(grid)
            btilde = np.zeros((n, 2 * m))
            btilde[0] = w0 / grid.steps[0] - (Q @ w0) / 2.0
            b = BlockVector(timedisc.solve_B2(btilde))
            rep = solve_first_order_linear(gdec, q_op, b, args.workers)
            u_geo = rep.solution.values[:, :m]
            row["geo_error"] = float(np.abs(u_geo - ref_geo).max())
            row["geo_cond2"] = gdec.cond2
        except (ChebPintError, FloatingPointError) as exc:
            row["geo_error"] = float("nan")
            row["geo_cond2"] = float("nan")
            row["geo_failure"] = type(exc).__name__

        # sequential trapezoidal rule on the same geometric grid
        w_ts = timestep_trapezoidal(q_op, grid, w0)
        row["timestep_error"] = float(np.abs(w_ts.values[:, :m] - ref_geo).max())

        # uniform-step counterpart covering the same horizon
        dt = grid.T / n
        dec = spectral.decompose(n, dt, with_residual=False)
        g = np.zeros((n, m))
        rhs = rhs_second_order(u0, np.zeros(m), g, dt)
        rep = solve_second_order_linear(dec, op, rhs, args.workers)
        t_uni = np.arange(1, n + 1) * dt
        ref_uni = _wave_reference(A, u0, t_uni)
        row["new_error"] = float(np.abs(rep.solution.values - ref_uni).max())
        row["new_cond2"] = dec.cond2
        rows.append(row)

    config = {"command": "compare-geometric", "tau": args.tau,
              "dt_last": args.dt_last, "n_max": args.n_max, "m": m,
              "workers": args.workers}
    _emit(rows, config, args.out, args.format)
    return 0


# ------------------------------------------------------------------- bench

def cmd_bench(args):
    side = _benchmark_side(args, "--n", [args.n])
    workers_list = args.workers_list
    if workers_list != sorted(workers_list) or workers_list[0] != 1:
        raise ValueError("--workers-list must be ascending and start at 1")
    rows = []
    strong_base = None
    weak_base = None
    prev_speedup = 0.0
    for s in workers_list:
        report, seconds, err = _bench_once(args, side, args.n, s, reps=3)
        if strong_base is None:
            strong_base = seconds
        speedup = strong_base / seconds
        n_weak = 2 * s
        rep_w, sec_w, err_w = _bench_once(args, side, n_weak, s, reps=3)
        if weak_base is None:
            weak_base = sec_w
        rows.append({
            "kind": args.kind, "workers": s, "n": args.n, "m": args.m,
            "error": err, "iterations": report.iterations,
            **_sweep_totals(report),
            "wall_seconds": seconds,
            "speedup": speedup,
            # scaling numbers are hardware-dependent: regressions are flagged
            # in the output, never treated as failures
            "speedup_regression": int(speedup < prev_speedup),
            "strong_eff": 100.0 * speedup / s,
            "weak_n": n_weak, "weak_error": err_w,
            "weak_seconds": sec_w,
            "weak_eff": 100.0 * weak_base / sec_w,
            "step_a_seconds": report.phase_times.get("step_a", 0.0),
            "step_b_seconds": report.phase_times.get("step_b", 0.0),
            "step_c_seconds": report.phase_times.get("step_c", 0.0),
            "assembly_seconds": report.phase_times.get("assembly", 0.0),
        })
        prev_speedup = speedup
    config = {"command": "bench", "kind": args.kind, "m": args.m, "n": args.n,
              "T": args.T, "tol": args.tol, "workers_list": workers_list}
    _emit(rows, config, args.out, args.format)
    return 0


# ------------------------------------------------------------------ parser

def _add_common(p):
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_workers(p):
    p.add_argument("--workers", type=_workers,
                   default=os.environ.get("CHEBPINT_WORKERS") or "1",
                   help="worker threads for step (b) (env CHEBPINT_WORKERS)")


def build_parser():
    parser = _Parser(prog="chebpint",
                     description="time-parallel solver benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="spectral decomposition report")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=50)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dt", type=float, default=None, help="default 1/n")
    p.add_argument("--dump", default=None, help="write a binary decomposition dump")
    p.add_argument("--skip-reference", action="store_true",
                   help="skip the dense eigensolver comparison path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("convergence", help="temporal order study")
    _add_common(p)
    _add_workers(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=50)
    p.add_argument("--kind", choices=("heat", "wave", "semilinear"), required=True)
    p.add_argument("--m", type=int, default=64**2,
                   help="total spatial dimension (perfect square)")
    p.add_argument("--n-list", dest="n_list", type=_int_list,
                   default="16,32,64,128,256",
                   help="comma-separated time point counts")
    p.add_argument("--T", type=float, default=2.0)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("compare-geometric",
                       help="geometric-step baseline comparison (1D wave)")
    _add_common(p)
    _add_workers(p)
    p.add_argument("--tau", default=1.15, type=_checked(
        float, lambda t: np.isfinite(t) and t > 1.0, "finite and > 1"))
    p.add_argument("--dt-last", dest="dt_last", default=1e-2, type=_checked(
        float, lambda d: np.isfinite(d) and d > 0.0, "positive and finite"))
    p.add_argument("--n-max", dest="n_max", default=50,
                   type=_checked(int, lambda k: k >= 4, "an integer >= 4"))
    p.add_argument("--m", type=int, default=128, help="1D periodic grid size")
    p.set_defaults(func=cmd_compare_geometric)

    p = sub.add_parser("bench", help="scaling over worker counts")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=60)
    p.add_argument("--kind", choices=("heat", "wave", "semilinear"), required=True)
    p.add_argument("--m", type=int, default=64**2)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--workers-list", dest="workers_list", type=_int_list,
                   default="1,2,4",
                   help="ascending comma-separated worker counts starting at 1")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:   # OSError: --out, --dump
        print(f"chebpint: invalid arguments: {exc}", file=sys.stderr)
        return 1
    except (ChebPintError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"chebpint: numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # the last resort: sizes no guard counts
        print(f"chebpint: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
