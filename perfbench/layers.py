"""Per-layer metrics of a traced run.

Layer times come from the spans the benchmark records around library calls
and from the `phase_times` the solvers already return.  Operation and byte
counts of steps (a) and (c) are computed from the array sizes, not measured:
each step is one complex n x n by n x m product per sweep, 8*n^2*m flops,
reading V (16*n^2 bytes) and the block array (16*n*m) and writing the result
(16*n*m).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import self_times


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _by_solve(spans):
    """(solve id, span name) -> list of span durations."""
    out = defaultdict(list)
    for s in spans:
        out[s.solve, s.name].append(s.seconds)
    return out


def self_time_summary(spans):
    """Span name -> total self time per solve id."""
    own = self_times(spans)
    out = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s.name][s.solve] += own[s.id]
    return {name: dict(per_solve) for name, per_solve in out.items()}


def metrics(spec, dec, spans, runs):
    """Per-layer metrics, name -> (value, unit), and notes for the printout.

    runs["traced"] holds the traced solves at workers=2; runs["workers2"] and
    runs["workers1"] the untraced solves of the same inputs.
    """
    n, m = spec.n, spec.m
    durations = _by_solve(spans)
    ok = [o for o in runs["traced"] if o.seconds is not None]
    ids = [f"solve-{k + 1}" for k, o in enumerate(runs["traced"]) if o.seconds is not None]

    def per_solve(name, fn=sum):
        return [fn(durations[sid, name]) for sid in ids]

    def phase(key):
        return [o.phase_times.get(key, 0.0) for o in ok]

    def setup_time(name):
        return sum(durations["setup", name])

    iters = [max(o.iterations, 1) for o in ok]
    step_a, step_b, step_c = phase("step_a"), phase("step_b"), phase("step_c")
    flops = [8.0 * n * n * m * k for k in iters]
    busy = [a + b for a, b in zip(per_solve("spatial.shifted_solve"),
                                  per_solve("spatial.shifted_diag_solve"))]
    solver_wall = per_solve("solver.solve")
    w1 = [o.phase_times["step_b"] for o in runs["workers1"] if o.seconds is not None]
    w2 = [o.phase_times["step_b"] for o in runs["workers2"] if o.seconds is not None]
    traced_s = [o.seconds for o in ok]
    plain_s = [o.seconds for o in runs["workers2"] if o.seconds is not None]

    out = {
        "chebroots.find_roots_s": (setup_time("chebroots.find_roots"), "s"),
        "chebroots.newton_iters_max": (float(dec.newton_iters_max), "count"),
        "spectral.build_V_s": (setup_time("spectral.build_V"), "s"),
        "spectral.build_Vinv_fast_s": (setup_time("spectral.build_Vinv_fast"), "s"),
        "spectral.cond2_estimate_s": (setup_time("spectral.cond2_estimate"), "s"),
        "spectral.decomposition_residual_s": (
            setup_time("spectral.decomposition_residual"), "s"),
        "spectral.factor_bytes": (32.0 * n * n, "bytes"),
        "timedisc.rhs_s": (_median(per_solve("timedisc.rhs")), "s"),
        "timedisc.apply_B_s": (_median(per_solve("timedisc.apply_B")), "s"),
        "solver.other_s": (_median([d - sum(o.phase_times.values())
                                    for d, o in zip(solver_wall, ok)]), "s"),
        "spatial.shifted_solve_s.p50": (
            _median([d for sid in ids for d in durations[sid, "spatial.shifted_solve"]]), "s"),
        "spatial.shifted_solve_calls": (_median(per_solve("spatial.shifted_solve", len)), "count"),
        "spatial.shifted_solve_busy_s": (_median(per_solve("spatial.shifted_solve")), "s"),
        "spatial.shifted_diag_solve_s.p50": (
            _median([d for sid in ids for d in durations[sid, "spatial.shifted_diag_solve"]]),
            "s"),
        "spatial.shifted_diag_solve_calls": (
            _median(per_solve("spatial.shifted_diag_solve", len)), "count"),
        "spatial.shifted_diag_solve_busy_s": (
            _median(per_solve("spatial.shifted_diag_solve")), "s"),
        "spatial.apply_s": (_median(per_solve("spatial.apply")), "s"),
        "solver.assembly_s": (_median(phase("assembly")), "s"),
        "solver.step_a_s": (_median(step_a), "s"),
        "solver.step_b_s": (_median(step_b), "s"),
        "solver.step_c_s": (_median(step_c), "s"),
        "solver.step_a_gflops": (_median([f / t / 1e9 for f, t in zip(flops, step_a)]), "GFLOP/s"),
        "solver.step_c_gflops": (_median([f / t / 1e9 for f, t in zip(flops, step_c)]), "GFLOP/s"),
        "solver.step_ac_bytes": (
            _median([2.0 * k * (16.0 * n * n + 32.0 * n * m) for k in iters]), "bytes"),
        "solver.step_b_concurrency": (_median([b / s for b, s in zip(busy, step_b)]), "ratio"),
        "solver.step_b_speedup": (_median(w1) / _median(w2) if w2 else 0.0, "ratio"),
        "solver.sni_iterations": (_median([float(o.iterations) for o in ok]), "count"),
        "solver.step_b_per_iter_s": (_median([b / k for b, k in zip(step_b, iters)]), "s"),
        "solver.imag_residue": (max((o.imag_residue for o in ok), default=0.0), "ratio"),
        "solver.stencil_residual": (max((o.residual for o in ok), default=0.0), "ratio"),
        "trace.overhead_frac": (
            _median(traced_s) / _median(plain_s) - 1.0 if plain_s else 0.0, "ratio"),
    }
    notes = {
        "spectral.factor_bytes": "computed: V and V^-1, complex128",
        "solver.step_a_gflops": "computed 8*n^2*m flops per sweep",
        "solver.step_c_gflops": "computed 8*n^2*m flops per sweep",
        "solver.step_ac_bytes": "computed",
        "solver.step_b_speedup": f"step (b) workers=1 over workers=2, {len(w1)}+{len(w2)} solves",
        "trace.overhead_frac": f"{len(traced_s)} traced vs {len(plain_s)} untraced solves",
    }
    return out, notes
