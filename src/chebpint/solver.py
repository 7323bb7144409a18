"""Time-parallel solve drivers.

Every driver runs one three-step kernel once B = V D V^{-1} is known:

    (a)  g = (V^{-1} (x) I) b          -- one dense n x n by n x m product
    (b)  (sigma_j I + A) w_j = g_j     -- n independent shifted solves
    (c)  u = (V (x) I) w               -- one dense product

Linear first-order systems (B (x) I + I (x) A) u = b use the shifts
sigma_j = lambda_j, second-order systems (B^2 (x) I + I (x) A) u = b the
squared shifts lambda_j^2.  Semilinear problems rerun the kernel on each
sweep of a simplified Newton iteration whose block Jacobian is replaced by
the time-averaged pointwise Jacobian d, which keeps the Kronecker structure
intact; only step (b) changes, to (lambda_j I + A + diag(d)) w_j = g_j.

That step still uses only the spectral shifted solve.  With the midrange
c = (min d + max d)/2 and E = diag(d - c), each shift iterates

    w_j <- ((lambda_j + c) I + A)^{-1} (g_j - E w_j),

starting from the previous sweep's w_j (from ((lambda_j + c) I + A)^{-1} g_j
on the first sweep), until one update moves w_j by at most the sweep's inner
tolerance of its norm.  The shifts of one chunk of rows that are still
moving take each update as one op.shifted_solve_batch call.  A shift whose
update stops shrinking, or that is still moving after _FP_MAX_SWEEPS
updates, is solved exactly by op.shifted_diag_solve instead.

The inner tolerance is an inexact-Newton forcing term
(Dembo-Eisenstat-Steihaug 1982): sweep k > 0 stops at
max(_FP_RTOL, _ETA * rel_k), where rel_k is the exact outer residual the
sweep starts from, since a linear solve far more accurate than the outer
residual buys no outer progress.  Sweep 0 has no outer history and solves
to _FP_RTOL: on an affine f it is the whole solve.  The outer residual is
always computed exactly, so the returned solution meets tol all the same.

Step (b) splits the n shifts into one contiguous slice per worker and
solves each slice by batched shifted solves (op.shifted_solve_batch), the
slices in parallel on a shared-memory thread pool.  Each worker overwrites
its own blocks g_j by w_j in place, each row of a batched solve depends on
that row and its shift alone, every shift's iteration and stop depend on
that shift and the shared rel_k alone, and steps (a)/(c) are single matrix
products, so numerical output is identical for any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    MaxIterationsError,
    NonRealSolutionError,
)
from .spatial import _BATCH_ELEMS, SemilinearProblem, SpatialOperator
from .spectral import SpectralDecomposition
from .timedisc import BlockVector, GeometricGrid, TimeGrid, apply_B

__all__ = [
    "SolveReport",
    "solve_first_order_linear",
    "solve_second_order_linear",
    "recover_velocity",
    "solve_semilinear_sni",
    "timestep_trapezoidal",
    "global_error",
]

#: imaginary residue above this fraction of the solution norm is an error
_IMAG_HARD = 1e-6

#: an SNI shift's fixed point stops once an update moves w_j by at most
#: this fraction of its norm (on sweep 0, and as the floor of later sweeps)
_FP_RTOL = 1e-13
#: forcing term: sweep k > 0 stops its fixed points at _ETA times the outer
#: residual; 0.01 cost 606 instead of 512 spectral solves on sni-semilinear
_ETA = 0.1
#: updates one SNI shift may take before it falls back to the exact solve;
#: on the 63^2 sine Laplacian one sparse LU costs about 40 spectral solves
_FP_MAX_SWEEPS = 30


@dataclass
class SolveReport:
    """Solution plus diagnostics of one driver run."""

    solution: BlockVector
    iterations: int
    residual_history: list
    phase_times: dict
    worker_count: int
    imag_residue: float = 0.0
    #: one dict per SNI sweep: the outer residual it starts from, the inner
    #: tolerance of its fixed points, their updates per shift (max and
    #: total) and its exact fallbacks; empty for the linear drivers
    sweeps: list = field(default_factory=list)


def _check_shapes(decomp: SpectralDecomposition, op: SpatialOperator, rhs: BlockVector):
    if rhs.n != decomp.n:
        raise DimensionMismatchError(
            f"decomposition has n={decomp.n}, rhs has {rhs.n} blocks"
        )
    if rhs.m != op.m:
        raise DimensionMismatchError(
            f"operator dimension {op.m}, rhs block size {rhs.m}"
        )


def _project_real(U):
    unorm = np.linalg.norm(U)
    residue = float(np.linalg.norm(U.imag) / unorm) if unorm > 0 else 0.0
    if residue > _IMAG_HARD:
        raise NonRealSolutionError(
            f"imaginary residue {residue:.3e} of the recovered solution "
            f"exceeds {_IMAG_HARD:.0e}"
        )
    return U.real.copy(), residue


def _three_step(decomp, b, solve_block, workers, times):
    """Steps (a)-(c) for the complex (n, m) blocks b.

    Step (b) splits the n blocks g_j into min(workers, n) contiguous slices
    [n*i/w, n*(i+1)/w) and calls solve_block(lo, hi, G[lo:hi]) once per
    slice, on a thread pool when there is more than one; each call
    overwrites its rows g_j by w_j in place, so one n x m block fewer is
    alive through step (c).  The seconds of each step are added to
    times["step_a"], times["step_b"] and times["step_c"].  Returns the real
    solution blocks and the imaginary residue that the projection onto the
    reals dropped.
    """
    t0 = time.perf_counter()
    G = decomp.Vinv @ b
    times["step_a"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    n = len(G)
    w = min(workers, n)
    bounds = [n * i // w for i in range(w + 1)]
    slices = [(lo, hi, G[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    if w == 1:
        solve_block(*slices[0])
    else:
        with ThreadPoolExecutor(max_workers=w) as pool:
            list(pool.map(lambda sl: solve_block(*sl), slices))
    times["step_b"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    U = decomp.V @ G
    times["step_c"] += time.perf_counter() - t0
    return _project_real(U)


def _solve_linear(decomp, op, rhs, workers, order):
    """Direct solve of (B^order (x) I + I (x) A) u = b, order 1 or 2."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    _check_shapes(decomp, op, rhs)
    if decomp.n < order:
        raise DimensionMismatchError(f"order-{order} solves need n >= {order}")
    shifts = decomp.eigenvalues**order
    times = {"assembly": 0.0, "step_a": 0.0, "step_b": 0.0, "step_c": 0.0}
    t0 = time.perf_counter()
    bmat = np.ascontiguousarray(rhs.values, dtype=complex)
    times["assembly"] = time.perf_counter() - t0

    U, residue = _three_step(
        decomp, bmat, lambda lo, hi, Gs: op.shifted_solve_batch(shifts[lo:hi], Gs),
        workers, times,
    )

    BU = U
    for _ in range(order):
        BU = apply_B(BU, decomp.dt)
    b = rhs.values
    r = BU + op.apply(U) - b
    bnorm = np.linalg.norm(b)
    res = float(np.linalg.norm(r) / bnorm) if bnorm > 0 else float(np.linalg.norm(r))
    return SolveReport(
        solution=BlockVector(U),
        iterations=1,
        residual_history=[res],
        phase_times=times,
        worker_count=workers,
        imag_residue=residue,
    )


def solve_first_order_linear(decomp, op, rhs, workers=1):
    """Direct solve of (B (x) I + I (x) A) u = b via diagonalization of B."""
    return _solve_linear(decomp, op, rhs, workers, order=1)


def solve_second_order_linear(decomp, op, rhs, workers=1):
    """Direct solve of (B^2 (x) I + I (x) A) u = b; shifts are lambda_j^2."""
    return _solve_linear(decomp, op, rhs, workers, order=2)


def recover_velocity(decomp, u_blocks: BlockVector, u0):
    """Velocity blocks v = (B (x) I) u - b1 with b1 = (u0/(2 dt), 0, ..., 0)."""
    u0 = np.atleast_1d(np.asarray(u0))
    if u0.shape != (u_blocks.m,):
        raise DimensionMismatchError("u0 dimension does not match solution blocks")
    if u_blocks.n != decomp.n:
        raise DimensionMismatchError("block count does not match decomposition")
    v = apply_B(u_blocks.values, decomp.dt)
    v[0] -= u0 / (2.0 * decomp.dt)
    return BlockVector(v)


def _fixed_point_chunk(op, sigmas, d, c, G, W, cold, rtol, updates, fell_back):
    """Overwrite each row g_j of G by w_j of (sigma_j I + A + diag(d)) w_j = g_j.

    The rows still active iterate as one batch
    w_j <- P_j^{-1} (g_j - (d - c) w_j) with P_j = (sigma_j + c) I + A, from
    the iterates in W (from P_j^{-1} g_j if cold).  Row j stops once an
    update moves it by at most rtol of its norm, and falls back to
    op.shifted_diag_solve when an update does not shrink (or is not finite)
    or after _FP_MAX_SWEEPS updates.  W ends as the solutions; updates[j]
    and fell_back[j] record each row's count of updates and whether it fell
    back.
    """
    shifts = sigmas + c
    e = d - c
    if cold:
        W[...] = G
        op.shifted_solve_batch(shifts, W)
    fell_back[...] = False
    active = np.arange(len(G))
    last = np.full(len(G), np.inf)
    for count in range(1, _FP_MAX_SWEEPS + 1):
        if not active.size:
            break
        # in place, the update allocates two chunk-sized arrays fewer
        # (1 MB of sni-semilinear's peak RSS)
        W_old = W[active]
        W_new = e * W_old
        np.subtract(G[active], W_new, out=W_new)
        op.shifted_solve_batch(shifts[active], W_new)
        moves = np.subtract(W_new, W_old, out=W_old)
        moving = np.zeros(active.size, dtype=bool)
        for i, j in enumerate(active):
            # per-row norms keep the arithmetic of a single shift's solve
            step = np.linalg.norm(moves[i])
            updates[j] = count
            if step <= rtol * np.linalg.norm(W_new[i]):
                continue
            if not step < last[j]:
                fell_back[j] = True
            else:
                moving[i] = True
                last[j] = step
        W[active] = W_new
        active = active[moving]
    fell_back[active] = True
    for j in np.flatnonzero(fell_back):
        W[j] = op.shifted_diag_solve(sigmas[j], d, G[j])
    G[...] = W


def solve_semilinear_sni(problem: SemilinearProblem, decomp, tol, max_iter,
                         workers=1):
    """Simplified Newton iteration for (B (x) I) u + A u + f(u) = b.

    Each sweep solves the linear system with the averaged pointwise Jacobian
    A_k = mean_j jac_diag(u_j) added to the stiff operator:

        (B (x) I + I (x) (A + A_k)) u^{k+1} = b + (I (x) A_k) u^k - F(u^k),

    via the three-step kernel.  Its step (b), (lambda_j I + A + A_k) w_j = g_j,
    is the fixed point w_j <- ((lambda_j + c) I + A)^{-1} (g_j - (A_k - c) w_j)
    with c the midrange of A_k's diagonal, on op.shifted_solve_batch alone.
    Each shift starts from its w_j of the previous sweep (on the first sweep
    from ((lambda_j + c) I + A)^{-1} g_j) and stops once an update moves w_j
    by at most rtol_k of its norm; a shift whose updates stop shrinking, or
    that is not done after _FP_MAX_SWEEPS updates, falls back to the exact
    op.shifted_diag_solve.

    rtol_0 = _FP_RTOL, and rtol_k = max(_FP_RTOL, _ETA * rel_k) for k > 0,
    with rel_k the relative outer residual that sweep k starts from: the
    inner solves need not be more accurate than the outer iterate they
    correct.  Sweep 0 stays exact because it has no outer residual to trust
    yet and, for an affine f, is the whole solve.  Iteration starts from
    u = 0 and stops once the exact 2-norm residual of the nonlinear system
    drops under tol * ||b||.  report.sweeps holds one record per sweep.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    op = problem.operator
    n, m = decomp.n, op.m
    lam = decomp.eigenvalues
    grid = TimeGrid(n=n, dt=decomp.dt)
    t = grid.t_points
    g = np.stack([problem.source(float(tj)) for tj in t])
    from .timedisc import rhs_first_order

    b = rhs_first_order(problem.u0, g, decomp.dt).values.astype(complex)
    bnorm = np.linalg.norm(b)

    U = np.zeros((n, m))
    warm = np.empty((n, m), dtype=complex)  # each shift's w_j of the last sweep
    rows = max(1, _BATCH_ELEMS // m)
    updates = np.zeros(n, dtype=int)
    fell_back = np.zeros(n, dtype=bool)
    history = []
    sweeps = []
    times = {"assembly": 0.0, "step_a": 0.0, "step_b": 0.0, "step_c": 0.0}
    residue = 0.0
    for k in range(max_iter):
        t0 = time.perf_counter()
        res = apply_B(U, decomp.dt) + op.apply(U) + problem.f(U) - b.real
        rel = float(np.linalg.norm(res) / bnorm)
        history.append(rel)
        if rel <= tol:
            return SolveReport(
                solution=BlockVector(U),
                iterations=k,
                residual_history=history,
                phase_times=times,
                worker_count=workers,
                imag_residue=residue,
                sweeps=sweeps,
            )
        rtol = _FP_RTOL if k == 0 else max(_FP_RTOL, _ETA * rel)
        avg_jac = problem.jac_diag(U).mean(axis=0)
        c = 0.5 * (avg_jac.min() + avg_jac.max())
        rhs_k = b + U * avg_jac[None, :] - problem.f(U)
        times["assembly"] += time.perf_counter() - t0

        def solve_block(lo, hi, Gs):
            # chunks of the spatial batch size keep the fixed point's
            # temporaries in cache; whole 16-row slices of 63^2 cost 1.5x
            for s in range(lo, hi, rows):
                e = min(s + rows, hi)
                _fixed_point_chunk(
                    op, lam[s:e], avg_jac, c, Gs[s - lo:e - lo], warm[s:e],
                    k == 0, rtol, updates[s:e], fell_back[s:e],
                )

        U, residue = _three_step(decomp, rhs_k, solve_block, workers, times)
        sweeps.append({
            "residual": rel,
            "inner_rtol": rtol,
            "updates_max": int(updates.max()),
            "updates_total": int(updates.sum()),
            "fallbacks": int(fell_back.sum()),
        })

    raise MaxIterationsError(max_iter, history[-1], tol)


def timestep_trapezoidal(op, grid, u0, source=None):
    """Sequential trapezoidal stepping for u' + A u = g.

    Each step solves (2/dt_j I + A) u_j = (2/dt_j I - A) u_{j-1} + (g_{j-1}+g_j),
    honoring variable step sizes of a GeometricGrid.
    """
    if isinstance(grid, TimeGrid):
        steps = np.full(grid.n, grid.dt)
    elif isinstance(grid, GeometricGrid):
        steps = grid.steps
    else:
        raise TypeError("grid must be a TimeGrid or GeometricGrid")
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if u0.shape != (op.m,):
        raise DimensionMismatchError("u0 dimension does not match operator")
    t = 0.0
    u = u0.copy()
    out = np.empty((len(steps), op.m))
    g_prev = source(t) if source is not None else None
    for j, dt in enumerate(steps):
        t_next = t + dt
        rhs = (2.0 / dt) * u - op.apply(u)
        if source is not None:
            g_next = source(t_next)
            rhs = rhs + g_prev + g_next
            g_prev = g_next
        w = op.shifted_solve(2.0 / dt, rhs.astype(complex))
        u = w.real if np.iscomplexobj(w) else w
        out[j] = u
        t = t_next
    return BlockVector(out)


def global_error(solution: BlockVector, reference: BlockVector):
    """max over time points of the infinity-norm block difference."""
    if solution.values.shape != reference.values.shape:
        raise DimensionMismatchError(
            f"shape {solution.values.shape} vs {reference.values.shape}"
        )
    return float(np.abs(solution.values - reference.values).max())
