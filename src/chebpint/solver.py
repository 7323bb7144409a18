"""Time-parallel solve drivers.

Every driver runs one three-step kernel once B = V D V^{-1} is known:

    (a)  g = (V^{-1} (x) S) b          -- SpectralDecomposition.apply_Vinv,
                                          then op.to_modes
    (b)  (sigma_j I + S A S^{-1}) w_j = g_j
                                       -- n independent shifted solves
    (c)  u = (V (x) S^{-1}) w          -- SpectralDecomposition.apply_V,
                                          then op.from_modes

S is the operator's modal basis (`SpatialOperator.to_modes`): a real map
that acts on the spatial index alone, so it commutes with both time
products.  The linear drivers take it from the operator, and step (b) is
op.modal_solve_batch; for the sine Laplacian, S is the 2-D DST-I and step
(b) one pointwise division per shift, where the physical basis would take
two transforms per shift.  In the identity basis of the base class step
(b) is one op.shifted_solve per shift.  The simplified Newton iteration
always runs in the physical basis (S = I), because its Jacobian diagonal
acts there: its step (b) is op.shifted_solve_batch.  Step (a) maps only
the h = n - q representative rows g_j and refills the mirrored rows by
conjugation, exact since S is real.

The right-hand side b is real: a nonzero imaginary part raises
NonRealSolutionError before step (a).  Steps (a) and (c) are real products
over the decomposition's conjugate pairs, owned by `spectral`.  Step (c)
returns Re(V w) and ||Im(V w)||, both exact for any w: the imaginary
residue ||Im(V w)||/||V w|| measures how far the n solutions w_j are from
conjugate-symmetric; above _IMAG_HARD it raises NonRealSolutionError, and
the real part, mapped back by S^{-1}, is the solution.  The residue is
taken before that map, which leaves it unchanged: the DST-I is a multiple
of an orthogonal map.

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
on the first sweep).  Where E is exactly 0, as for a Jacobian constant in
space, ((lambda_j + c) I + A)^{-1} g_j is exact and replaces the iteration
on any sweep.  Each shift keeps a
contraction estimate rho_j across sweeps, like its warm start: 1 at first,
then s / last whenever an update's move s is smaller than the shift's
previous move last in the same sweep.  A shift stops once its predicted
error s * rho_j / (1 - rho_j), or s itself while rho_j >= 1/2, is at most
the sweep's inner tolerance of its norm.  So the first warm sweep confirms
each move by a second update, as a stop on the move alone would, and later
sweeps, whose estimate is known, usually stop after one update.  The shifts
of one chunk of rows that are still moving take each update as one
op.shifted_solve_batch call.  A shift whose update stops shrinking, or that
is still moving after _FP_MAX_SWEEPS updates, is solved exactly by
op.shifted_diag_solve instead.

The inner tolerance is an inexact-Newton forcing term
(Dembo-Eisenstat-Steihaug 1982): sweep k > 0 stops at
max(_FP_RTOL, _ETA * rel_k), where rel_k is the exact outer residual the
sweep starts from, since a linear solve far more accurate than the outer
residual buys no outer progress.  Sweep 0 has no outer history and solves
to _FP_RTOL: on an affine f it is the whole solve.  The outer residual is
always computed exactly, so the returned solution meets tol all the same.

For real data the shifts of a conjugate pair give conjugate solutions,
w_{n-1-j} = conj(w_j), so SNI solves only the h = n - q representative
shifts j < h and fills the mirrored rows by conjugation before step (c),
which then sees an exactly mirrored w (imaginary residue 0 for even n);
its warm starts, update counts and fallbacks are kept per representative.
The linear drivers solve all n shifts, and with q = 0 (the geometric
baseline) so does SNI.

Step (b) splits the shifts it solves into one contiguous slice per worker,
the slices in parallel on a shared-memory thread pool, and each slice into
chunks of at most _BATCH_ELEMS elements; each chunk is one batched solve
(op.modal_solve_batch for the linear drivers, one fixed point for SNI).
Each worker overwrites its own blocks g_j by w_j in place, each row of a
batched solve depends on that row and its shift alone, every shift's
iteration, estimate and stop depend on that shift and the shared rel_k
alone (its norms by `_row_norms`, the same arithmetic in any chunk), and
steps (a)/(c) run outside the pool, so numerical output is identical for
any worker count and any chunk size.  The pool has one thread per slice,
but no more than the process has usable cores; a linear solve makes one
pool, and SNI one for all its sweeps.

SNI runs with OpenBLAS at one thread (`blas.single_threaded`).  After a
threaded BLAS call, step (a)'s GEMM or np.linalg.norm of an n x m array,
OpenBLAS's helper thread spins on a core waiting for more work; a sweep's
second worker would find that core taken, and step (b) would take longer
at two workers than at one.  The fixed point's decisions take no BLAS
call and few Python steps per update, so the workers' chunks overlap.
The linear drivers keep BLAS's threads, which their large products at
n = 1024 need.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .errors import (
    DimensionMismatchError,
    MaxIterationsError,
    NonRealSolutionError,
    check_count,
    check_scale,
)
from .spatial import SemilinearProblem, SpatialOperator
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

#: step (b) hands its batched solves chunks of rows of at most this many
#: complex elements (512 KiB), and the stencil residual adds A U by chunks
#: of as many.  The sine Laplacian's denominators are new arrays of a
#: chunk's size, and 4 MiB chunks raised the peak RSS of 1024 shifts on a
#: 31^2 grid by 11%; SNI's fixed-point temporaries stay in cache, where
#: whole 16-row slices of 63^2 cost 1.5x
_BATCH_ELEMS = 1 << 15

#: an SNI shift's fixed point stops once an update moves w_j by at most
#: this fraction of its norm (on sweep 0, and as the floor of later sweeps)
_FP_RTOL = 1e-13
#: forcing term: sweep k > 0 stops its fixed points at _ETA times the outer
#: residual; 0.01 cost 185 instead of 144 spectral solves on sni-semilinear
#: at the same 8 sweeps
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
    imag_residue: float = 0.0
    #: one dict per SNI sweep: the outer residual it starts from, the inner
    #: tolerance of its fixed points, their updates per shift (max and
    #: total) and its exact fallbacks, all over the h = n - q representative
    #: shifts alone; empty for the linear drivers
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


def _real_rhs(values):
    """The right-hand side blocks as a C-contiguous float64 array.

    A complex dtype is accepted if its imaginary part is zero; otherwise
    NonRealSolutionError is raised, since steps (a) and (c) assume real data.
    """
    if np.iscomplexobj(values):
        if np.any(values.imag):
            raise NonRealSolutionError(
                "the right-hand side has a nonzero imaginary part; "
                "the drivers solve real problems only"
            )
        values = values.real
    return np.ascontiguousarray(values, dtype=float)


def _shaped(call, values, shape):
    """values, the result of `call`; DimensionMismatchError, naming the
    call, unless they have the given shape."""
    if np.shape(values) != shape:
        raise DimensionMismatchError(
            f"{call} has shape {np.shape(values)}, expected {shape}"
        )
    return values


def _usable_cores():
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _pool(workers, solved):
    """The thread pool for step (b) of `solved` rows: min(workers, solved,
    usable cores) threads, or None where that is one, and the slices run in
    turn on the calling thread.  More threads than cores cannot run at once,
    so a large workers count starts no more threads than cores."""
    threads = min(workers, solved, _usable_cores())
    if threads == 1:
        yield None
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield pool


def _three_step(decomp, b, solve_block, workers, pool, times, solved=None,
                op=None):
    """Steps (a)-(c) for the real (n, m) blocks b.

    With an operator op, step (a) maps the h = n - q representative rows
    of g into op's modal basis (op.to_modes), the mirrored rows refilled by
    conjugation, and step (c) maps the solution back (op.from_modes) after
    the imaginary residue is taken; with None the kernel stays in the
    physical basis.

    Step (b) solves the first `solved` complex blocks g_j, all n by default,
    and fills the rows G[solved:] by conj(G[:n-solved][::-1]), the mirror
    that conjugate shifts give on real data; `solved` is n or the h = n - q
    representatives.  It splits them into w = min(workers, solved)
    contiguous slices [solved*i/w, solved*(i+1)/w), the tasks of `pool`
    (one after another on this thread when pool is None), and each slice
    from its start into chunks of max(1, _BATCH_ELEMS // m) rows; it calls
    solve_block(lo, hi, G[lo:hi]) once per chunk, which overwrites the rows
    g_j by w_j in place.  The
    seconds of each step are added to times["step_a"], times["step_b"] and
    times["step_c"].
    Returns the real solution blocks Re(V w) and the imaginary residue
    ||Im(V w)||/||V w||; a residue above _IMAG_HARD raises
    NonRealSolutionError.
    """
    t0 = time.perf_counter()
    G = decomp.apply_Vinv(b)
    if op is not None:
        q, h = decomp.q, decomp.n - decomp.q
        op.to_modes(G[:h])
        np.conj(G[:q][::-1], out=G[h:])
    times["step_a"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    n, m = G.shape
    solved = n if solved is None else solved
    rows = max(1, _BATCH_ELEMS // m)

    def solve_slice(lo, hi):
        for s in range(lo, hi, rows):
            e = min(s + rows, hi)
            solve_block(s, e, G[s:e])

    w = min(workers, solved)
    bounds = [solved * i // w for i in range(w + 1)]
    run = map if pool is None else pool.map
    list(run(solve_slice, bounds[:-1], bounds[1:]))
    np.conj(G[:n - solved][::-1], out=G[solved:])
    times["step_b"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    U, im = decomp.apply_V(G)
    unorm = np.hypot(np.linalg.norm(U), im)
    residue = float(im / unorm) if unorm > 0 else 0.0
    if residue > _IMAG_HARD:
        raise NonRealSolutionError(
            f"imaginary residue {residue:.3e} of the recovered solution "
            f"exceeds {_IMAG_HARD:.0e}"
        )
    if op is not None:
        op.from_modes(U)
    times["step_c"] += time.perf_counter() - t0
    return U, residue


def _residual(decomp, op, U, b, order=1, fU=None):
    """||(B^order (x) I) U + (I (x) A) U + f(U) - b|| relative to ||b||, and
    absolute when b = 0; fU is f(U), or None for the linear drivers.

    B is decomp.B when the decomposition carries its matrix (the geometric
    baseline) and the hybrid stencil, applied by apply_B, otherwise.  The
    sum is built in the one (n, m) array that B U takes (B^2 U holds B U
    next to it), term by term in the order written: A U is added by chunks
    of _BATCH_ELEMS elements, each op.apply of a block of rows, so no other
    array of the solution's size is made.  A complex-typed A makes the sum
    complex.
    """
    r = U
    for _ in range(order):
        r = apply_B(r, decomp.dt) if decomp.B is None else decomp.B @ r
    rows = max(1, _BATCH_ELEMS // U.shape[1])
    for lo in range(0, len(U), rows):
        AU = op.apply(U[lo:lo + rows])
        r = r.astype(np.result_type(r, AU), copy=False)
        r[lo:lo + rows] += AU
    if fU is not None:
        r += fU
    r -= b
    rnorm = np.linalg.norm(r)
    bnorm = np.linalg.norm(b)
    return float(rnorm / bnorm) if bnorm > 0 else float(rnorm)


def _solve_linear(decomp, op, rhs, workers, order):
    """Direct solve of (B^order (x) I + I (x) A) u = b, order 1 or 2."""
    workers = check_count("workers", workers)
    _check_shapes(decomp, op, rhs)
    if decomp.n < order:
        raise DimensionMismatchError(f"order-{order} solves need n >= {order}")
    shifts = decomp.eigenvalues**order
    times = {"assembly": 0.0, "step_a": 0.0, "step_b": 0.0, "step_c": 0.0}
    t0 = time.perf_counter()
    b = _real_rhs(rhs.values)
    times["assembly"] = time.perf_counter() - t0

    with _pool(workers, decomp.n) as pool:
        U, residue = _three_step(
            decomp, b,
            lambda lo, hi, Gs: op.modal_solve_batch(shifts[lo:hi], Gs),
            workers, pool, times, op=op,
        )

    return SolveReport(
        solution=BlockVector(U),
        iterations=1,
        residual_history=[_residual(decomp, op, U, b, order)],
        phase_times=times,
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


def _row_norms(X):
    """The 2-norm of each row of the C-contiguous complex array X (of the
    one row when X is 1-D).

    A row's norm takes the same arithmetic however many rows X holds, so a
    chunk's decisions are a single shift's.  It is one reduction for all
    rows, which runs without the interpreter lock and without BLAS, where
    np.linalg.norm row by row would be a Python call and a BLAS dot each.
    """
    F = X.view(float)
    return np.sqrt(np.add.reduce(F * F, axis=-1))


def _fixed_point_chunk(op, sigmas, d, c, G, W, cold, rtol, rho, updates,
                       fell_back):
    """Overwrite each row g_j of G by w_j of (sigma_j I + A + diag(d)) w_j = g_j.

    The rows still active iterate as one batch
    w_j <- P_j^{-1} (g_j - (d - c) w_j) with P_j = (sigma_j + c) I + A, from
    the iterates in W (from P_j^{-1} g_j if cold).  Where d - c is exactly 0,
    P_j^{-1} g_j is exact: W is set to it, cold or not, and no row is
    updated.  After an update that
    moves row j by s, rho[j] becomes s / last when the row's previous move
    last of this call was larger; rho[j] is the row's contraction estimate,
    kept by the caller across calls.  Row j stops once its predicted error
    s * rho[j] / (1 - rho[j]) (s itself while rho[j] >= 1/2) is at most rtol
    of its norm, and falls back to op.shifted_diag_solve when an update does
    not shrink (or is not finite) or after _FP_MAX_SWEEPS updates.  W ends
    as the solutions; updates[j] and fell_back[j] record each row's count of
    updates and whether it fell back.
    """
    shifts = sigmas + c
    e = d - c
    exact = not e.any()
    if cold or exact:
        W[...] = G
        op.shifted_solve_batch(shifts, W)
    updates[...] = 0
    fell_back[...] = False
    active = np.arange(0 if exact else len(G))
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
        steps = _row_norms(np.subtract(W_new, W_old, out=W_old))
        updates[active] = count
        lasts = last[active]
        shrunk = steps < lasts                  # False for a NaN move
        known = shrunk & (lasts < np.inf)
        rho[active[known]] = steps[known] / lasts[known]
        r = rho[active]
        # min(1, rho / (1 - min(rho, 1/2))): the a-posteriori error of a
        # contraction, and the move itself while rho is unknown or large
        factor = np.where(r < 0.5, r / (1.0 - np.minimum(r, 0.5)), 1.0)
        done = steps * factor <= rtol * _row_norms(W_new)
        fell_back[active[~done & ~shrunk]] = True
        moving = ~done & shrunk
        last[active[moving]] = steps[moving]
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
    is solved for the h = n - q representative shifts j < h only; the
    mirrored rows are their conjugates, filled in before step (c).  Each is
    the fixed point w_j <- ((lambda_j + c) I + A)^{-1} (g_j - (A_k - c) w_j)
    with c the midrange of A_k's diagonal, on op.shifted_solve_batch alone.
    Each shift starts from its w_j of the previous sweep (on the first sweep
    from ((lambda_j + c) I + A)^{-1} g_j) and stops once its predicted
    error, an update's move scaled by the contraction estimate the shift
    carries across sweeps (`_fixed_point_chunk`), is at most rtol_k of its
    norm; a shift whose updates stop shrinking, or that is not done after
    _FP_MAX_SWEEPS updates, falls back to the exact op.shifted_diag_solve.
    Wherever A_k - c is 0, ((lambda_j + c) I + A)^{-1} g_j is the exact
    solve and no update is made.  On the sni-semilinear benchmark
    (m = 63^2, n = 32) a solve so takes 144 to 160 spectral solves over its
    16 representative shifts: 16 cold solves, no update on sweep 0, two
    updates each on sweep 1 and one on every later sweep.

    rtol_0 = _FP_RTOL, and rtol_k = max(_FP_RTOL, _ETA * rel_k) for k > 0,
    with rel_k the relative outer residual that sweep k starts from: the
    inner solves need not be more accurate than the outer iterate they
    correct.  Sweep 0 stays exact because it has no outer residual to trust
    yet and, for an affine f, is the whole solve.  Iteration starts from
    u = 0 and stops once the exact 2-norm residual of the nonlinear system
    drops under tol * ||b|| (under tol when b = 0, so zero data return
    u = 0 after no sweep).  Each sweep evaluates f(u) once, for its residual
    and its right-hand side.  report.sweeps holds one record per sweep, its
    update and fallback counts taken over the representative shifts.  The
    sweeps share one thread pool and run with OpenBLAS at one thread, a
    setting of the whole process that is restored when the solve returns
    or raises (`blas.single_threaded`).
    The source, f and jac_diag must be real: an f(u) or a sweep's
    right-hand side with a nonzero imaginary part raises
    NonRealSolutionError.  f(U) and jac_diag(U) must have U's shape (n, m),
    and source(t) the shape (m,) of the operator dimension, or
    DimensionMismatchError names the one that does not.  ValueError
    unless tol is positive and finite and max_iter and workers are integers
    >= 1.
    """
    tol = check_scale("tol", tol)
    max_iter = check_count("max_iter", max_iter)
    workers = check_count("workers", workers)
    op = problem.operator
    n, m = decomp.n, op.m
    lam = decomp.eigenvalues
    grid = TimeGrid(n=n, dt=decomp.dt)
    t = grid.t_points
    g = np.stack([_shaped("source(t)", problem.source(float(tj)), (m,))
                  for tj in t])
    from .timedisc import rhs_first_order

    b = _real_rhs(rhs_first_order(problem.u0, g, decomp.dt).values)

    U = np.zeros((n, m))
    h = n - decomp.q                        # the representative shifts
    warm = np.empty((h, m), dtype=complex)  # each shift's w_j of the last sweep
    rho = np.ones(h)                        # each shift's contraction estimate
    updates = np.zeros(h, dtype=int)
    fell_back = np.zeros(h, dtype=bool)
    history = []
    sweeps = []
    times = {"assembly": 0.0, "step_a": 0.0, "step_b": 0.0, "step_c": 0.0}
    residue = 0.0
    # one pool serves every sweep; BLAS at one thread keeps its helpers off
    # the cores of step (b)'s workers (module docstring)
    with blas.single_threaded(), _pool(workers, h) as pool:
        for k in range(max_iter):
            t0 = time.perf_counter()
            fU = _real_rhs(_shaped("f(U)", problem.f(U), U.shape))
            rel = _residual(decomp, op, U, b, fU=fU)
            history.append(rel)
            if rel <= tol:
                return SolveReport(
                    solution=BlockVector(U),
                    iterations=k,
                    residual_history=history,
                    phase_times=times,
                    imag_residue=residue,
                    sweeps=sweeps,
                )
            rtol = _FP_RTOL if k == 0 else max(_FP_RTOL, _ETA * rel)
            avg_jac = _shaped("jac_diag(U)", problem.jac_diag(U),
                              U.shape).mean(axis=0)
            c = 0.5 * (avg_jac.min() + avg_jac.max())
            rhs_k = _real_rhs(b + U * avg_jac[None, :] - fU)
            times["assembly"] += time.perf_counter() - t0

            def solve_block(lo, hi, Gs):
                _fixed_point_chunk(op, lam[lo:hi], avg_jac, c, Gs, warm[lo:hi],
                                   k == 0, rtol, rho[lo:hi], updates[lo:hi],
                                   fell_back[lo:hi])

            U, residue = _three_step(decomp, rhs_k, solve_block, workers, pool,
                                     times, h)
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
    honoring variable step sizes of a GeometricGrid.  source(t), when
    given, must have the shape (m,) of the operator dimension, or
    DimensionMismatchError names it.
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
    g_prev = None if source is None else _shaped("source(t)", source(t), u0.shape)
    for j, dt in enumerate(steps):
        t_next = t + dt
        rhs = (2.0 / dt) * u - op.apply(u)
        if source is not None:
            g_next = _shaped("source(t)", source(t_next), u0.shape)
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
