"""Tests for the time-parallel solve drivers."""

import dataclasses
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from chebpint import solver
from chebpint.errors import (
    DimensionMismatchError,
    MaxIterationsError,
    NonRealSolutionError,
    SingularShiftError,
    UnsupportedKindError,
)
from chebpint.solver import (
    _BATCH_ELEMS,
    _FP_MAX_SWEEPS,
    _fixed_point_chunk,
    _residual,
    global_error,
    recover_velocity,
    solve_first_order_linear,
    solve_second_order_linear,
    solve_semilinear_sni,
    timestep_trapezoidal,
)
from chebpint.spatial import (
    DenseOperator,
    SemilinearProblem,
    SineLaplacian2D,
    SpatialOperator,
    make_benchmark,
    make_dense_operator,
)
from chebpint.spectral import build_V, build_Vinv_fast, decompose
from chebpint.timedisc import (
    BlockVector,
    TimeGrid,
    assemble_B,
    assemble_TR_system,
    geometric_decomposition,
    geometric_grid,
    rhs_first_order,
    rhs_second_order,
)


def _dense_first_order_oracle(A, u0, g, dt):
    n, m = g.shape
    B = assemble_B(n, dt).toarray()
    M = np.kron(B, np.eye(m)) + np.kron(np.eye(n), A)
    b = rhs_first_order(u0, g, dt)
    return np.linalg.solve(M, b.data).reshape(n, m)


def _doubled_system_oracle(A, u0, u0dot, g, dt):
    """First-order solve of the order-reduced (u, v) system."""
    n, m = g.shape
    Q = np.zeros((2 * m, 2 * m))
    Q[:m, m:] = -np.eye(m)
    Q[m:, :m] = A
    w0 = np.concatenate([u0, u0dot])
    gw = np.concatenate([np.zeros_like(g), g], axis=1)
    w = _dense_first_order_oracle(Q, w0, gw, dt)
    return w[:, :m], w[:, m:]


# ------------------------------------------------------------- linear solves

def test_first_order_constant_solution():
    op = make_dense_operator(np.zeros((1, 1)))
    dec = decompose(8, 0.125)
    rhs = rhs_first_order(np.array([1.0]), np.zeros((8, 1)), 0.125)
    rep = solve_first_order_linear(dec, op, rhs)
    assert np.abs(rep.solution.values - 1.0).max() < 1e-12
    assert rep.iterations == 1
    assert rep.residual_history[0] < 1e-12
    assert set(rep.phase_times) == {"assembly", "step_a", "step_b", "step_c"}


def test_first_order_matches_dense_oracle():
    rng = np.random.default_rng(17)
    for trial in range(5):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        dt = float(rng.uniform(0.05, 0.4))
        M = rng.normal(size=(m, m))
        A = M @ M.T + m * np.eye(m)
        u0 = rng.normal(size=m)
        g = rng.normal(size=(n, m))
        expected = _dense_first_order_oracle(A, u0, g, dt)
        dec = decompose(n, dt)
        rep = solve_first_order_linear(dec, make_dense_operator(A),
                                       rhs_first_order(u0, g, dt))
        err = np.abs(rep.solution.values - expected).max()
        assert err < 1e-9 * max(1.0, np.abs(expected).max())


def test_second_order_linear_ramp():
    # u'' = 0, u(0) = 0, u'(0) = 1 -> u = t, reproduced to roundoff
    op = make_dense_operator(np.zeros((1, 1)))
    dec = decompose(8, 0.125)
    rhs = rhs_second_order(np.array([0.0]), np.array([1.0]), np.zeros((8, 1)), 0.125)
    rep = solve_second_order_linear(dec, op, rhs)
    t = np.arange(1, 9) * 0.125
    assert np.abs(rep.solution.values.ravel() - t).max() < 1e-10


def test_second_order_matches_order_reduction_oracle():
    rng = np.random.default_rng(23)
    for trial in range(5):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        dt = float(rng.uniform(0.05, 0.4))
        M = rng.normal(size=(m, m))
        A = M @ M.T + np.eye(m)
        u0 = rng.normal(size=m)
        u0dot = rng.normal(size=m)
        g = rng.normal(size=(n, m))
        u_ref, v_ref = _doubled_system_oracle(A, u0, u0dot, g, dt)
        dec = decompose(n, dt)
        rep = solve_second_order_linear(dec, make_dense_operator(A),
                                        rhs_second_order(u0, u0dot, g, dt))
        assert np.abs(rep.solution.values - u_ref).max() < 1e-8
        vel = recover_velocity(dec, rep.solution, u0)
        assert np.abs(vel.values - v_ref).max() < 1e-8


def test_solver_dimension_checks():
    op = make_dense_operator(np.zeros((2, 2)))
    dec = decompose(4, 0.1)
    bad_rhs = BlockVector(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatchError):
        solve_first_order_linear(dec, op, bad_rhs)
    bad_rhs = BlockVector(np.zeros((4, 3)))
    with pytest.raises(DimensionMismatchError):
        solve_first_order_linear(dec, op, bad_rhs)


def test_nonreal_solution_rejected():
    op = make_dense_operator(np.zeros((1, 1)))
    dec = decompose(4, 0.25)
    rhs = BlockVector(np.array([[1.0 + 1.0j], [0.0], [0.0], [0.0]]))
    with pytest.raises(NonRealSolutionError):
        solve_first_order_linear(dec, op, rhs)


class _ShiftSpy(SpatialOperator):
    """Delegates to an operator, counts its shifted solves and scales the
    solution of the shift `sigma` by `factor`."""

    def __init__(self, inner, sigma=None, factor=1.0):
        self.inner = inner
        self.m = inner.m
        self.sigma = sigma
        self.factor = factor
        self.calls = 0

    def apply(self, v):
        return self.inner.apply(v)

    def shifted_solve(self, sigma, g):
        self.calls += 1
        w = self.inner.shifted_solve(sigma, g)
        return w * self.factor if sigma == self.sigma else w


def _small_first_order_case(n=12, m=3, seed=61):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(m, m))
    op = make_dense_operator(M @ M.T + m * np.eye(m))
    dec = decompose(n, 0.1)
    rhs = rhs_first_order(rng.normal(size=m), rng.normal(size=(n, m)), 0.1)
    return dec, op, rhs


def test_one_doubled_shift_raises_nonreal():
    # the imaginary residue is still computed over all n shifted solves, so
    # a solve that breaks the conjugate symmetry of one pair is caught
    dec, op, rhs = _small_first_order_case()
    spy = _ShiftSpy(op, sigma=dec.eigenvalues[2], factor=2.0)
    with pytest.raises(NonRealSolutionError, match="imaginary residue"):
        solve_first_order_linear(dec, spy, rhs)
    assert spy.calls == dec.n


def test_complex_rhs_rejected_before_any_shifted_solve():
    dec, op, rhs = _small_first_order_case()
    values = rhs.values.astype(complex)
    values[3, 1] += 1e-30j
    spy = _ShiftSpy(op)
    for solve in (solve_first_order_linear, solve_second_order_linear):
        with pytest.raises(NonRealSolutionError, match="right-hand side"):
            solve(dec, spy, BlockVector(values))
    assert spy.calls == 0


def test_complex_dtype_rhs_with_zero_imaginary_part_is_its_real_part():
    dec, op, rhs = _small_first_order_case()
    real = solve_first_order_linear(dec, op, rhs)
    cplx = solve_first_order_linear(dec, op, BlockVector(rhs.values.astype(complex)))
    assert cplx.solution.values.dtype == np.float64
    assert np.array_equal(cplx.solution.values, real.solution.values)
    assert cplx.residual_history == real.residual_history
    assert cplx.imag_residue == real.imag_residue


def test_complex_typed_real_operator_solves_as_the_real_one():
    # A @ u is complex-typed then: the in-place residual must not cast it
    dec, op, rhs = _small_first_order_case()
    cop = make_dense_operator(op.A.astype(complex))
    for solve in (solve_first_order_linear, solve_second_order_linear):
        real, cplx = solve(dec, op, rhs), solve(dec, cop, rhs)
        assert np.array_equal(cplx.solution.values, real.solution.values)
        assert cplx.residual_history == real.residual_history


def test_residual_builds_its_sum_in_one_array():
    # beyond its inputs, the stencil residual holds one n x m float array
    # (B^2 U holds B U next to it) and A U's chunks of _BATCH_ELEMS elements
    n, side = 32, 64
    m = side**2
    dec = decompose(n, 0.1, with_residual=False)
    op = SineLaplacian2D(side, 1.0 / (side + 1))
    U, b, fU = np.random.default_rng(1).normal(size=(3, n, m))
    array, chunk = n * m * 8, _BATCH_ELEMS * 8
    for order, f, bound in ((1, None, array + 4 * chunk), (1, fU, array + 4 * chunk),
                            (2, None, 2 * array + chunk)):
        _residual(dec, op, U, b, order, f)                  # warm up
        tracemalloc.start()
        try:
            _residual(dec, op, U, b, order, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (order, f is not None, peak)


def test_geometric_baseline_matches_dense_trapezoidal_oracle():
    rng = np.random.default_rng(67)
    n, m = 10, 3
    grid = geometric_grid(n, 1.15, 0.1)
    gdec = geometric_decomposition(grid)
    assert gdec.q == 0 and gdec.n == n
    M = rng.normal(size=(m, m))
    A = M @ M.T + m * np.eye(m)
    b = rng.normal(size=(n, m))
    B = assemble_TR_system(grid)
    expected = np.linalg.solve(np.kron(B, np.eye(m)) + np.kron(np.eye(n), A),
                               b.ravel()).reshape(n, m)
    rep = solve_first_order_linear(gdec, make_dense_operator(A), BlockVector(b))
    err = np.abs(rep.solution.values - expected).max()
    assert err <= 1e-9 * np.abs(expected).max()
    # the residual is taken against the trapezoidal B, not the stencil
    assert rep.residual_history[-1] <= 1e-8


# --------------------------------------------------------- recover_velocity

def test_recover_velocity_constant():
    dec = decompose(5, 0.2)
    u = BlockVector(np.full((5, 1), 3.0))
    v = recover_velocity(dec, u, np.array([3.0]))
    assert np.abs(v.values).max() < 1e-13


def test_recover_velocity_linear_ramp():
    dec = decompose(6, 0.5)
    t = np.arange(1, 7) * 0.5
    u = BlockVector(t[:, None].copy())
    v = recover_velocity(dec, u, np.array([0.0]))
    # centered differences of a linear function are exact in the interior
    assert np.abs(v.values[:-1] - 1.0).max() < 1e-13
    assert v.values[-1, 0] == pytest.approx(1.0)


# ------------------------------------------------------- worker slices

def test_worker_count_does_not_change_results():
    # the dense operator takes the per-shift loop of the base class; the
    # sine Laplacian solves in its modal basis, and behind a delegating
    # wrapper in the physical one, both with uneven slices from odd n = 33
    rng = np.random.default_rng(5)
    m = 6
    M = rng.normal(size=(m, m))
    dense = make_dense_operator(M @ M.T + m * np.eye(m))
    lap = SineLaplacian2D(7, 1.0 / 8.0)
    for op, n, worker_counts in ((dense, 16, (2, 4, 8)), (lap, 33, (2, 3, 5, 8)),
                                 (_CountingOperator(lap), 33, (2, 3, 5))):
        dec = decompose(n, 0.1)
        rhs = rhs_first_order(rng.normal(size=op.m), rng.normal(size=(n, op.m)), 0.1)
        for solve in (solve_first_order_linear, solve_second_order_linear):
            base = solve(dec, op, rhs, workers=1).solution.values
            for workers in worker_counts:
                got = solve(dec, op, rhs, workers=workers).solution.values
                assert np.array_equal(got, base), (type(op), n, workers)


@pytest.mark.parametrize("workers", [0, -3, 2.0, 1.5, 2.5, "2", float("nan")])
def test_linear_drivers_reject_bad_worker_count(workers):
    op = make_dense_operator(np.eye(2))
    dec = decompose(4, 0.1)
    rhs = rhs_first_order(np.ones(2), np.ones((4, 2)), 0.1)
    for solve in (solve_first_order_linear, solve_second_order_linear):
        with pytest.raises(ValueError, match="workers must be >= 1 and an integer"):
            solve(dec, op, rhs, workers=workers)


# ------------------------------------------------------------------- SNI

def _linear_semilinear_problem(A, u0, g_blocks, dt, slope=0.0):
    """SemilinearProblem wrapper with f(u) = slope*u (affine test cases)."""
    op = make_dense_operator(A)
    n = g_blocks.shape[0]
    t_points = np.arange(1, n + 1) * dt
    table = {round(float(t), 12): g_blocks[i] for i, t in enumerate(t_points)}

    def source(t):
        return table[round(float(t), 12)]

    return SemilinearProblem(
        operator=op,
        f=lambda u: slope * u,
        jac_diag=lambda u: np.full_like(u, slope),
        source=source,
        u0=u0,
    )


def test_sni_pure_linear_converges_in_one_sweep():
    rng = np.random.default_rng(31)
    m, n, dt = 3, 6, 0.2
    M = rng.normal(size=(m, m))
    A = M @ M.T + m * np.eye(m)
    u0 = rng.normal(size=m)
    g = rng.normal(size=(n, m))
    dec = decompose(n, dt)
    prob = _linear_semilinear_problem(A, u0, g, dt, slope=0.0)
    rep = solve_semilinear_sni(prob, dec, tol=1e-10, max_iter=10)
    assert rep.iterations == 1
    linear = solve_first_order_linear(dec, make_dense_operator(A),
                                      rhs_first_order(u0, g, dt))
    assert np.abs(rep.solution.values - linear.solution.values).max() < 1e-9


def test_sni_affine_matches_shifted_linear_solve():
    # f(u) = u just shifts the operator by the identity
    rng = np.random.default_rng(37)
    m, n, dt = 2, 5, 0.25
    M = rng.normal(size=(m, m))
    A = M @ M.T + m * np.eye(m)
    u0 = rng.normal(size=m)
    g = rng.normal(size=(n, m))
    dec = decompose(n, dt)
    prob = _linear_semilinear_problem(A, u0, g, dt, slope=1.0)
    rep = solve_semilinear_sni(prob, dec, tol=1e-11, max_iter=10)
    assert rep.iterations <= 2
    shifted = solve_first_order_linear(dec, make_dense_operator(A + np.eye(m)),
                                       rhs_first_order(u0, g, dt))
    assert np.abs(rep.solution.values - shifted.solution.values).max() < 1e-9


def test_sni_residual_history_reaches_tolerance():
    rng = np.random.default_rng(41)
    m, n, dt = 3, 8, 0.15
    M = rng.normal(size=(m, m))
    A = M @ M.T + m * np.eye(m)
    u0 = 0.3 * rng.normal(size=m)
    g = 0.3 * rng.normal(size=(n, m))
    op = make_dense_operator(A)
    n_pts = np.arange(1, n + 1) * dt
    table = {round(float(t), 12): g[i] for i, t in enumerate(n_pts)}
    prob = SemilinearProblem(
        operator=op,
        f=lambda u: u**3,
        jac_diag=lambda u: 3.0 * u**2,
        source=lambda t: table[round(float(t), 12)],
        u0=u0,
    )
    dec = decompose(n, dt)
    rep = solve_semilinear_sni(prob, dec, tol=1e-9, max_iter=25)
    assert rep.residual_history[-1] <= 1e-9
    assert rep.iterations >= 2


def test_sni_budget_exhaustion():
    rng = np.random.default_rng(47)
    m, n, dt = 2, 4, 0.2
    A = np.eye(m)
    u0 = rng.normal(size=m)
    g = rng.normal(size=(n, m))
    dec = decompose(n, dt)
    prob = _linear_semilinear_problem(A, u0, g, dt, slope=1.0)
    with pytest.raises(MaxIterationsError):
        solve_semilinear_sni(prob, dec, tol=1e-300, max_iter=2)


@pytest.mark.parametrize("max_iter", [0, -1, 2.5])
def test_sni_rejects_empty_budget(max_iter):
    m, n, dt = 2, 4, 0.2
    prob = _linear_semilinear_problem(np.eye(m), np.ones(m), np.ones((n, m)), dt)
    with pytest.raises(ValueError, match="max_iter must be >= 1 and an integer"):
        solve_semilinear_sni(prob, decompose(n, dt), tol=1e-8, max_iter=max_iter)


def test_sni_zero_data_return_zero_without_a_sweep():
    # b = 0: the residual is taken absolute instead of as 0/0
    m, n, dt = 2, 4, 0.2
    prob = _linear_semilinear_problem(np.eye(m), np.zeros(m), np.zeros((n, m)),
                                      dt, slope=1.0)
    rep = solve_semilinear_sni(prob, decompose(n, dt), tol=1e-8, max_iter=5)
    assert rep.iterations == 0 and rep.residual_history == [0.0]
    assert np.array_equal(rep.solution.values, np.zeros((n, m)))


def test_sni_rejects_nan_tol():
    m, n, dt = 2, 4, 0.2
    prob = _linear_semilinear_problem(np.eye(m), np.ones(m), np.ones((n, m)), dt)
    for tol in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_semilinear_sni(prob, decompose(n, dt), tol=tol, max_iter=5)


@pytest.mark.parametrize("workers", [0, -3, 2.0, 1.5, 2.5, "2", float("nan")])
def test_sni_rejects_bad_worker_count(workers):
    m, n, dt = 2, 4, 0.2
    prob = _linear_semilinear_problem(np.eye(m), np.ones(m), np.ones((n, m)), dt)
    with pytest.raises(ValueError, match="workers must be >= 1 and an integer"):
        solve_semilinear_sni(prob, decompose(n, dt), tol=1e-8, max_iter=5,
                             workers=workers)


class _CountingOperator(SpatialOperator):
    """Delegates to an operator and counts its exact diagonal solves."""

    def __init__(self, inner):
        self.inner = inner
        self.m = inner.m
        self.diag_solves = 0

    def apply(self, v):
        return self.inner.apply(v)

    def shifted_solve(self, sigma, g):
        return self.inner.shifted_solve(sigma, g)

    def shifted_diag_solve(self, sigma, diag, g):
        self.diag_solves += 1
        return self.inner.shifted_diag_solve(sigma, diag, g)


def test_sni_worker_count_does_not_change_results():
    bench = make_benchmark("semilinear", 15, n=16, T=2.0)
    dec = decompose(16, bench.grid.dt)
    base = solve_semilinear_sni(bench.semilinear(), dec, tol=1e-8, max_iter=40,
                                workers=1)
    for workers in (2, 3):
        got = solve_semilinear_sni(bench.semilinear(), dec, tol=1e-8,
                                   max_iter=40, workers=workers)
        assert np.array_equal(got.solution.values, base.solution.values), workers
        assert got.residual_history == base.residual_history, workers


@pytest.mark.parametrize("workers", [1, 2, 3, 9])
def test_pool_size_is_workers_clamped_to_the_solved_rows(monkeypatch, workers):
    # a recording stand-in for the pool runs the slices inline, so no thread
    # starts: the linear drivers solve all n = 5 rows, SNI its h = 3
    # representatives, and one slice builds no pool
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(solver, "ThreadPoolExecutor", InlinePool)
    n = 5
    bench = make_benchmark("semilinear", 5, n=n, T=2.0)
    dec = decompose(n, bench.grid.dt)
    h = n - dec.q
    assert h == 3
    rhs = BlockVector(np.ones((n, bench.m)))
    for solve in (solve_first_order_linear, solve_second_order_linear):
        sizes.clear()
        solve(dec, bench.operator, rhs, workers=workers)
        w = min(workers, n)
        assert sizes == ([w] if w > 1 else [])
    sizes.clear()
    rep = solve_semilinear_sni(bench.semilinear(), dec, tol=1e-8, max_iter=40,
                               workers=workers)
    w = min(workers, h)
    assert rep.iterations > 0
    assert sizes == ([w] * rep.iterations if w > 1 else [])


@pytest.mark.parametrize("n, order", [(1, 1), (2, 1), (3, 1), (32, 1), (33, 1),
                                      (2, 2), (3, 2), (32, 2), (33, 2)])
def test_modal_basis_matches_the_physical_basis(n, order):
    # SineLaplacian2D solves in its DST basis; a delegating wrapper inherits
    # the identity basis and solves in the physical one, on the stencil
    # halves and on dense q = 0 factors, which map and mirror all n rows
    rng = np.random.default_rng(71)
    lap = SineLaplacian2D(9, 0.1)
    dec = decompose(n, 0.05)
    dense = dataclasses.replace(dec, V_half=build_V(dec.roots),
                                Vinv_half=build_Vinv_fast(dec.roots))
    rhs = BlockVector(rng.normal(size=(n, lap.m)))
    solve = solve_first_order_linear if order == 1 else solve_second_order_linear
    for d in (dec, dense):
        modal = solve(d, lap, rhs, workers=2)
        physical = solve(d, _CountingOperator(lap), rhs, workers=2)
        diff = np.linalg.norm(modal.solution.values - physical.solution.values)
        assert diff <= 1e-13 * np.linalg.norm(physical.solution.values), d.q
        assert modal.residual_history[0] <= 1e-12


def test_modal_solve_names_the_colliding_mode():
    # a dense q = 0 decomposition may carry a real eigenvalue; at -mu_(1,1)
    # step (b)'s division meets a zero denominator, and the modal path
    # raises as the physical one does
    n = 4
    lap = SineLaplacian2D(5, 1.0 / 6.0)
    dec = decompose(n, 0.1)
    lam = dec.eigenvalues.copy()
    lam[1] = -lap.modes2d[0, 0]
    bad = dataclasses.replace(dec, eigenvalues=lam, V_half=build_V(dec.roots),
                              Vinv_half=build_Vinv_fast(dec.roots))
    rhs = BlockVector(np.ones((n, lap.m)))
    for op in (lap, _CountingOperator(lap)):
        with pytest.raises(SingularShiftError, match=r"mode \(1, 1\)"):
            solve_first_order_linear(bad, op, rhs)


def test_modal_solve_holds_no_more_arrays_than_the_physical_one():
    # the modal maps and the mirror refill work in place: the modal solve's
    # peak is the physical one's, G (two n x m float arrays) and U next to
    # it plus one chunk of _BATCH_ELEMS complex elements
    n, side = 32, 64
    m = side**2
    lap = SineLaplacian2D(side, 1.0 / (side + 1))
    dec = decompose(n, 0.1, with_residual=False)
    rhs = BlockVector(np.random.default_rng(2).normal(size=(n, m)))
    peaks = []
    for op in (lap, _CountingOperator(lap)):
        solve_first_order_linear(dec, op, rhs)              # warm up
        tracemalloc.start()
        try:
            solve_first_order_linear(dec, op, rhs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    modal, physical = peaks
    assert modal <= physical, peaks
    assert modal <= 3 * n * m * 8 + _BATCH_ELEMS * 16, peaks


def _varying_jacobian_problem(n, spy=_CountingOperator):
    """f(u) = s*u with s spread over [-3, 8] on a dense m = 2 operator wrapped
    in `spy`: the fixed point around the midrange of s cannot contract for
    the shifts of small modulus, which take the exact diagonal solve.
    Returns the problem, A + diag(s), u0, g and dt."""
    rng = np.random.default_rng(53)
    m, dt = 2, 0.05
    M = rng.normal(size=(m, m))
    A = M @ M.T + np.eye(m)
    s = np.array([-3.0, 8.0])
    u0 = rng.normal(size=m)
    g = rng.normal(size=(n, m))
    prob = _linear_semilinear_problem(A, u0, g, dt)
    prob.operator = spy(prob.operator)
    prob.f = lambda u: s * u
    prob.jac_diag = lambda u: np.broadcast_to(s, u.shape).copy()
    return prob, A + np.diag(s), u0, g, dt


def test_sni_spatially_varying_jacobian_falls_back_exactly():
    # the shifts of small modulus take the exact diagonal solve, the others
    # converge spectrally; only the ceil(n/2) representatives are solved
    n = 8
    prob, A_s, u0, g, dt = _varying_jacobian_problem(n)
    dec = decompose(n, dt)
    rep = solve_semilinear_sni(prob, dec, tol=1e-11, max_iter=10)
    assert 0 < prob.operator.diag_solves < (n + 1) // 2
    expected = solve_first_order_linear(dec, make_dense_operator(A_s),
                                        rhs_first_order(u0, g, dt))
    assert np.abs(rep.solution.values - expected.solution.values).max() < 1e-9


class _RowSpy(_CountingOperator):
    """Also records the shifts of every batched and exact shifted solve; in
    its identity basis both drivers' batches reach modal_solve_batch."""

    def __init__(self, inner):
        super().__init__(inner)
        self.batched = []
        self.exact = []

    def modal_solve_batch(self, sigmas, G):
        self.batched.extend(sigmas)
        self.inner.shifted_solve_batch(sigmas, G)

    def shifted_diag_solve(self, sigma, diag, g):
        self.exact.append(sigma)
        return super().shifted_diag_solve(sigma, diag, g)


@pytest.mark.parametrize("n", [8, 9])
def test_sni_solves_only_the_representative_rows(n):
    # SNI's shifts are lambda_j + c with c real, so Im(sigma) names the row
    # j exactly: the mirrored rows j >= h = n - q have Im(lambda_j) of the
    # other sign (and the self-paired middle row of odd n has 0)
    prob, _, _, _, dt = _varying_jacobian_problem(n, spy=_RowSpy)
    dec = decompose(n, dt)
    h = n - dec.q

    def rows(sigmas):
        found = [np.flatnonzero(dec.eigenvalues.imag == np.imag(s)) for s in sigmas]
        assert all(len(j) == 1 for j in found)
        return {int(j[0]) for j in found}

    solve_semilinear_sni(prob, dec, tol=1e-11, max_iter=10)
    spy = prob.operator
    assert spy.exact and rows(spy.exact) < set(range(h))
    assert rows(spy.batched) == set(range(h))

    # with q = 0 every row is its own representative, and all n are solved
    prob.operator = spy = _RowSpy(spy.inner)
    dense = dataclasses.replace(dec, V_half=build_V(dec.roots),
                                Vinv_half=build_Vinv_fast(dec.roots))
    solve_semilinear_sni(prob, dense, tol=1e-11, max_iter=10)
    assert rows(spy.batched) == set(range(n))


@pytest.mark.parametrize("order", [1, 2])
def test_linear_drivers_solve_every_row(order):
    dec, op, rhs = _small_first_order_case()
    spy = _RowSpy(op)
    solve = solve_first_order_linear if order == 1 else solve_second_order_linear
    solve(dec, spy, rhs, workers=3)
    shifts = dec.eigenvalues**order
    assert np.array_equal(np.sort(spy.batched), np.sort(shifts))
    assert spy.exact == []


@pytest.mark.parametrize("n", [15, 16])
def test_sni_representatives_match_the_all_shift_oracle(n):
    # dense halves (q = 0) make SNI solve all n shifts, the mirrored ones too
    bench = make_benchmark("semilinear", 15, n=n, T=2.0)
    dec = decompose(n, bench.grid.dt)
    got = solve_semilinear_sni(bench.semilinear(), dec, tol=1e-8, max_iter=40)
    unpaired = dataclasses.replace(dec, V_half=build_V(dec.roots),
                                   Vinv_half=build_Vinv_fast(dec.roots))
    oracle = solve_semilinear_sni(bench.semilinear(), unpaired, tol=1e-8, max_iter=40)
    assert got.iterations == oracle.iterations
    diff = np.linalg.norm(got.solution.values - oracle.solution.values)
    assert diff <= 1e-13 * np.linalg.norm(oracle.solution.values)
    if n % 2 == 0:
        # no self-paired row: step (c) sees an exactly mirrored w
        assert got.imag_residue == 0.0


class _MatrixOnlyOperator(SpatialOperator):
    """The smallest operator: m, a sparse matrix() and shifted_solve."""

    def __init__(self, A):
        self.m = len(A)
        self.A = A

    def matrix(self):
        return sparse.csr_matrix(self.A)

    def shifted_solve(self, sigma, g):
        return np.linalg.solve(sigma * np.eye(self.m) + self.A, g)


def test_matrix_and_shifted_solve_run_every_driver():
    # the spread-Jacobian case above forces exact fallbacks, which the base
    # class answers from matrix() alone, as it does the residuals' apply
    rng = np.random.default_rng(53)
    m, n, dt = 2, 8, 0.05
    M = rng.normal(size=(m, m))
    A = M @ M.T + np.eye(m)
    s = np.array([-3.0, 8.0])
    u0 = rng.normal(size=m)
    g = rng.normal(size=(n, m))
    dec = decompose(n, dt)
    first = rhs_first_order(u0, g, dt)
    second = rhs_second_order(u0, rng.normal(size=m), g, dt)
    prob = _linear_semilinear_problem(A, u0, g, dt)
    prob.f = lambda u: s * u
    prob.jac_diag = lambda u: np.broadcast_to(s, u.shape).copy()
    runs = {}
    for op in (_MatrixOnlyOperator(A), make_dense_operator(A)):
        prob.operator = op
        runs[type(op)] = (
            solve_first_order_linear(dec, op, first),
            solve_second_order_linear(dec, op, second),
            solve_semilinear_sni(prob, dec, tol=1e-11, max_iter=10),
        )
    assert sum(sw["fallbacks"] for sw in runs[_MatrixOnlyOperator][2].sweeps) > 0
    for have, want in zip(*runs.values()):
        scale = np.abs(want.solution.values).max()
        assert np.abs(have.solution.values - want.solution.values).max() < 1e-12 * scale
        assert have.residual_history[-1] < 1e-10


@pytest.mark.parametrize("name", ["f", "jac_diag"])
def test_sni_rejects_nonlinearity_of_the_wrong_shape(name):
    m, n, dt = 25, 4, 0.2
    prob = _linear_semilinear_problem(np.eye(m), np.ones(m), np.ones((n, m)), dt,
                                      slope=0.5)
    setattr(prob, name, lambda u: np.ones(3))
    with pytest.raises(DimensionMismatchError, match=rf"^{name}\(U\) has shape \(3,\)"):
        solve_semilinear_sni(prob, decompose(n, dt), tol=1e-8, max_iter=5)


@pytest.mark.parametrize("driver", ["sni", "trapezoidal"])
@pytest.mark.parametrize("shape", [(5,), (2, 4)], ids=["m+1", "2xm"])
def test_source_of_the_wrong_shape_is_named_before_any_solve(driver, shape):
    # numpy would broadcast or fail on either deep in the solve; the drivers
    # name source(t), its shape and the operator dimension m = 4 before
    # their first shifted solve
    m, n, dt = 4, 4, 0.2
    spy = _ShiftSpy(make_dense_operator(np.eye(m)))
    want = rf"^source\(t\) has shape {re.escape(str(shape))}, expected \(4,\)$"
    with pytest.raises(DimensionMismatchError, match=want):
        if driver == "sni":
            prob = _linear_semilinear_problem(np.eye(m), np.ones(m),
                                              np.ones((n, m)), dt)
            prob.operator = spy
            prob.source = lambda t: np.ones(shape)
            solve_semilinear_sni(prob, decompose(n, dt), tol=1e-8, max_iter=5)
        else:
            timestep_trapezoidal(spy, TimeGrid(n, dt), np.ones(m),
                                 source=lambda t: np.ones(shape))
    assert spy.calls == 0


def _per_shift_fixed_point(op, sigma, d, c, g, w, rtol, rho):
    """Reference: one shift's fixed point on the per-shift solve, from the
    contraction estimate rho.  Returns (w, updates, fell_back, rho)."""
    shift, e = sigma + c, d - c
    if w is None:
        w = op.shifted_solve(shift, g)
    last = np.inf
    for updates in range(1, _FP_MAX_SWEEPS + 1):
        w_new = op.shifted_solve(shift, g - e * w)
        step = np.linalg.norm(w_new - w)
        if step < last < np.inf:
            rho = step / last
        predicted = step * min(1.0, rho / (1.0 - min(rho, 0.5)))
        if predicted <= rtol * np.linalg.norm(w_new):
            return w_new, updates, False, rho
        if not step < last:
            break
        w, last = w_new, step
    return op.shifted_diag_solve(sigma, d, g), updates, True, rho


def test_fixed_point_chunk_matches_the_per_shift_loop():
    # Jacobians spread over [-3, 8] and [-20, 8]: rows converge after one or
    # more updates, stall (an update stops shrinking) or hit the update cap;
    # the contraction estimates start at 1, or the next sweep carries them
    # with its warm starts to a right-hand side changed by about rtol
    rng = np.random.default_rng(53)
    m, n = 6, 16
    M = rng.normal(size=(m, m))
    op = make_dense_operator(M @ M.T + np.eye(m))
    sigmas = decompose(n, 0.05).eigenvalues
    G0 = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    W0 = G0[::-1].copy()
    seen = set()
    for low, cold, rtol, carried in ((-3.0, True, 1e-13, False),
                                     (-3.0, False, 1e-8, True),
                                     (-3.0, False, 1e-8, False),
                                     (-20.0, True, 1e-13, False)):
        d = np.linspace(low, 8.0, m)
        c = 0.5 * (d.min() + d.max())
        if carried:
            G_in, W_in, rho_in = G0 * (1 + 2e-8), W.copy(), rho.copy()
        else:
            G_in, W_in, rho_in = G0, W0, np.ones(n)
        G, W, rho = G_in.copy(), W_in.copy(), rho_in.copy()
        updates = np.zeros(n, dtype=int)
        fell_back = np.ones(n, dtype=bool)   # stale flags of a last sweep
        _fixed_point_chunk(op, sigmas, d, c, G, W, cold, rtol, rho, updates,
                           fell_back)
        for j in range(n):
            w, count, fell, r = _per_shift_fixed_point(
                op, sigmas[j], d, c, G_in[j], None if cold else W_in[j], rtol,
                rho_in[j])
            assert np.array_equal(G[j], w) and np.array_equal(W[j], w), (low, cold, j)
            assert (updates[j], fell_back[j], rho[j]) == (count, fell, r), (low, cold, j)
            seen.add("capped" if count == _FP_MAX_SWEEPS else
                     "stalled" if fell else
                     "one update" if count == 1 else "converged")
    assert seen == {"one update", "converged", "stalled", "capped"}


def test_fixed_point_chunk_with_a_constant_jacobian_is_one_solve():
    # d - c = 0: the cold solve is already exact, so no row is updated
    rng = np.random.default_rng(7)
    m, n = 6, 16
    M = rng.normal(size=(m, m))
    op = _RowSpy(make_dense_operator(M @ M.T + np.eye(m)))
    sigmas = decompose(n, 0.05).eigenvalues
    G0 = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    G, W, rho = G0.copy(), np.empty_like(G0), np.full(n, 0.3)
    updates = np.ones(n, dtype=int)
    fell_back = np.ones(n, dtype=bool)
    _fixed_point_chunk(op, sigmas, np.full(m, 2.5), 2.5, G, W, True, 1e-13,
                       rho, updates, fell_back)
    # one batched solve of the n rows: an update would solve rows again
    assert np.array_equal(op.batched, sigmas + 2.5)
    expected = G0.copy()
    op.inner.shifted_solve_batch(sigmas + 2.5, expected)
    assert np.array_equal(G, expected) and np.array_equal(W, expected)
    assert not updates.any() and not fell_back.any() and op.exact == []
    assert np.array_equal(rho, np.full(n, 0.3))


def test_sni_benchmark_needs_no_exact_diagonal_solve():
    # a silent fallback to the sparse LU would be correct but ~40x slower
    bench = make_benchmark("semilinear", 31, n=16, T=2.0)
    prob = bench.semilinear()
    op = _CountingOperator(prob.operator)
    prob.operator = op
    rep = solve_semilinear_sni(prob, decompose(16, bench.grid.dt), tol=1e-8,
                               max_iter=40)
    assert rep.residual_history[-1] <= 1e-8
    assert op.diag_solves == 0


def _dense_newton_oracle(A, u0, g, dt, f, jac_diag):
    """All-at-once full Newton on the dense n*m semilinear system."""
    n, m = g.shape
    B = assemble_B(n, dt).toarray()
    L = np.kron(B, np.eye(m)) + np.kron(np.eye(n), A)
    b = rhs_first_order(u0, g, dt).data
    u = np.zeros(n * m)
    for _ in range(50):
        U = u.reshape(n, m)
        du = np.linalg.solve(L + np.diag(jac_diag(U).ravel()),
                             L @ u + f(U).ravel() - b)
        u = u - du
        if np.linalg.norm(du) <= 1e-15 * np.linalg.norm(u):
            break
    return u.reshape(n, m)


def _dense_cubic_problem(seed):
    """f(u) = s*u + 0.3u^3 with s spread over [-3, 8] on a dense m = 6
    operator, n = 16: returns the problem, A, u0, g and dt."""
    rng = np.random.default_rng(seed)
    m, n, dt = 6, 16, 0.05
    M = rng.normal(size=(m, m))
    A = M @ M.T + np.eye(m)
    s = np.linspace(-3.0, 8.0, m)
    u0 = rng.normal(size=m)
    g = rng.normal(size=(n, m))
    prob = _linear_semilinear_problem(A, u0, g, dt)
    prob.f = lambda u: s * u + 0.3 * u**3
    prob.jac_diag = lambda u: s + 0.9 * u**2
    return prob, A, u0, g, dt


def test_sni_forcing_term_matches_full_newton_oracle():
    # a spatially varying Jacobian: some shifts fall back to the exact solve,
    # and sweeps after the first stop their fixed points at 0.1 * rel_k
    prob, A, u0, g, dt = _dense_cubic_problem(53)
    rep = solve_semilinear_sni(prob, decompose(16, dt), tol=1e-11, max_iter=30)
    expected = _dense_newton_oracle(A, u0, g, dt, prob.f, prob.jac_diag)
    assert np.abs(rep.solution.values - expected).max() < 1e-9
    assert rep.residual_history[-1] <= 1e-11
    sweeps = rep.sweeps
    assert len(sweeps) == rep.iterations
    assert [r["residual"] for r in sweeps] == rep.residual_history[:-1]
    assert sweeps[0]["inner_rtol"] == 1e-13
    assert all(r["inner_rtol"] == max(1e-13, 0.1 * r["residual"])
               for r in sweeps[1:])
    assert sum(r["fallbacks"] for r in sweeps) > 0


@pytest.mark.parametrize("seed, sweeps", [(61, 11), (53, 12)])
def test_sni_dense_problems_keep_their_sweep_counts(seed, sweeps):
    # an inner stop on the predicted error costs these problems at most one
    # sweep over the 10 and 11 that a stop on a confirming update took
    prob, A, u0, g, dt = _dense_cubic_problem(seed)
    rep = solve_semilinear_sni(prob, decompose(16, dt), tol=1e-11, max_iter=30)
    expected = _dense_newton_oracle(A, u0, g, dt, prob.f, prob.jac_diag)
    assert np.abs(rep.solution.values - expected).max() < 1e-9
    assert rep.iterations <= sweeps


def test_sni_benchmark_sweeps_unchanged_by_forcing_term():
    # the sni-semilinear workload: 8 sweeps with or without the forcing term
    bench = make_benchmark("semilinear", 63, n=32, T=2.0)
    rep = solve_semilinear_sni(bench.semilinear(), decompose(32, bench.grid.dt),
                               tol=1e-8, max_iter=50)
    assert rep.residual_history[-1] <= 1e-8
    assert len(rep.sweeps) == rep.iterations == 8
    assert all(r["fallbacks"] == 0 for r in rep.sweeps)
    # jac(0) is constant, so sweep 0's cold solves are exact
    assert rep.sweeps[0]["updates_total"] == 0
    assert all(1 <= r["updates_max"] <= r["updates_total"] for r in rep.sweeps[1:])
    # the 16 representative shifts took 128 updates in all
    assert sum(r["updates_total"] for r in rep.sweeps) <= 144


def _amplitude_problem(bench, a):
    """The benchmark's semilinear problem for the solution a * exp(-t) * P:
    its forcing is made for a = 1, so the linear part scales by a and the
    cubic part by a**3."""
    prob = bench.semilinear()
    base, cube = prob.source, bench.u0**3
    prob.source = lambda t: a * base(t) + (a**3 - a) * np.exp(-3.0 * t) * cube
    prob.u0 = a * bench.u0
    return prob


@pytest.mark.parametrize("a", [0.97, 1.0, 1.08])
def test_sni_benchmark_spectral_solves_per_solve(a):
    # at most one update per representative shift per sweep after the first
    # warm sweep: at most 160 spectral solves, where 256 were taken before
    bench = make_benchmark("semilinear", 63, n=32, T=2.0)
    prob = _amplitude_problem(bench, a)
    prob.operator = spy = _RowSpy(prob.operator)
    rep = solve_semilinear_sni(prob, decompose(32, bench.grid.dt), tol=1e-8,
                               max_iter=50, workers=2)
    assert rep.residual_history[-1] <= 1e-8
    assert len(spy.batched) <= 160
    assert rep.iterations <= 9 and spy.diag_solves == 0
    if a == 1.0:
        assert rep.iterations == 8


def test_sni_sweep_records_do_not_depend_on_worker_count(monkeypatch):
    # each worker writes the counts and contraction estimates of its own
    # shifts; five workers on 16 shifts with frequent thread switches would
    # expose a lost update
    chunk = solver._fixed_point_chunk

    def spy(op, sigmas, d, c, G, W, cold, rtol, rho, *rest):
        chunk(op, sigmas, d, c, G, W, cold, rtol, rho, *rest)
        for sigma, r in zip(sigmas, rho):
            estimates[-1].setdefault(sigma, []).append(r)

    monkeypatch.setattr(solver, "_fixed_point_chunk", spy)
    bench = make_benchmark("semilinear", 15, n=16, T=2.0)
    dec = decompose(16, bench.grid.dt)
    estimates = [{}]
    base = solve_semilinear_sni(bench.semilinear(), dec, tol=1e-8, max_iter=40,
                                workers=1)
    assert any(r < 1.0 for rs in estimates[0].values() for r in rs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 5):
            estimates.append({})
            got = solve_semilinear_sni(bench.semilinear(), dec, tol=1e-8,
                                       max_iter=40, workers=workers)
            assert base.sweeps and got.sweeps == base.sweeps, workers
            assert estimates[-1] == estimates[0], workers
            assert np.array_equal(got.solution.values, base.solution.values)
    finally:
        sys.setswitchinterval(interval)


def test_linear_drivers_record_no_sweeps():
    dec = decompose(4, 0.25)
    op = make_dense_operator(np.eye(2))
    rhs = rhs_first_order(np.ones(2), np.ones((4, 2)), 0.25)
    assert solve_first_order_linear(dec, op, rhs).sweeps == []


# --------------------------------------------------------------- trapezoidal

def test_trapezoidal_scalar_step():
    op = make_dense_operator(np.array([[1.0]]))   # u' = -u
    grid = TimeGrid(1, 0.1)
    out = timestep_trapezoidal(op, grid, np.array([1.0]))
    expected = (1 - 0.05) / (1 + 0.05)
    assert out.values[0, 0] == pytest.approx(expected, rel=1e-14)
    assert abs(expected - np.exp(-0.1)) < 1e-4    # O(dt^3) per step


def test_trapezoidal_norm_preserving_skew():
    rng = np.random.default_rng(3)
    m = 4
    S = rng.normal(size=(m, m))
    A = S - S.T
    op = make_dense_operator(A)
    grid = TimeGrid(40, 0.1)
    u0 = rng.normal(size=m)
    out = timestep_trapezoidal(op, grid, u0)
    norms = np.linalg.norm(out.values, axis=1)
    assert np.abs(norms - np.linalg.norm(u0)).max() < 1e-12


def test_trapezoidal_geometric_steps_and_source():
    # u' + u = 1 + t has exact solution u = t + e^{-t}(u0) for u0 = 0... use
    # the linear-in-t invariant: TR integrates u' = c exactly
    op = make_dense_operator(np.zeros((1, 1)))
    grid = geometric_grid(6, 1.3, 0.1)
    out = timestep_trapezoidal(op, grid, np.array([0.0]),
                               source=lambda t: np.array([2.0]))
    assert np.abs(out.values.ravel() - 2.0 * grid.t_points).max() < 1e-12


# -------------------------------------------------------------- global_error

def test_global_error_identical():
    a = BlockVector(np.ones((3, 2)))
    assert global_error(a, BlockVector(np.ones((3, 2)))) == 0.0


def test_global_error_single_entry():
    a = np.zeros((3, 2))
    b = a.copy()
    b[1, 1] = 1e-3
    assert global_error(BlockVector(a), BlockVector(b)) == pytest.approx(1e-3)


def test_global_error_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        global_error(BlockVector(np.zeros((2, 2))), BlockVector(np.zeros((3, 2))))


def test_trapezoidal_error_insensitive_to_n_for_fixed_last_step():
    # with dt_last fixed the coarsest (dominant) step never changes, so the
    # sequential trapezoidal error stays at the same level as n grows
    m = 64
    dx = 2.0 / m
    from chebpint.spatial import make_laplacian_1d_periodic

    op1d = make_laplacian_1d_periodic(m, dx)
    A = op1d.dense()
    x = np.arange(1, m + 1) * dx
    u0 = np.sin(2 * np.pi * x)
    lam, S = np.linalg.eigh(A)
    lam = np.clip(lam, 0.0, None)
    c0 = S.T @ u0
    Q = np.zeros((2 * m, 2 * m))
    Q[:m, m:] = -np.eye(m)
    Q[m:, :m] = A
    qop = make_dense_operator(Q)
    w0 = np.concatenate([u0, np.zeros(m)])
    errs = {}
    for n in (10, 50):
        grid = geometric_grid(n, 1.15, 1e-2)
        out = timestep_trapezoidal(qop, grid, w0)
        ref = np.stack([S @ (np.cos(t * np.sqrt(lam)) * c0)
                        for t in grid.t_points])
        errs[n] = np.abs(out.values[:, :m] - ref).max()
    assert 0.5 <= errs[50] / errs[10] <= 2.0


_EYE2, _ZERO2 = DenseOperator(np.eye(2)), DenseOperator(np.zeros((2, 2)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: solve_second_order_linear(decompose(1, 0.1), _EYE2,
                                       BlockVector(np.zeros((1, 2)))),
     DimensionMismatchError, "order-2 solves need n >= 2"),
    (lambda: recover_velocity(decompose(2, 0.1), BlockVector(np.zeros((2, 3))),
                              np.zeros(2)),
     DimensionMismatchError, "u0 dimension does not match solution blocks"),
    (lambda: recover_velocity(decompose(2, 0.1), BlockVector(np.zeros((3, 2))),
                              np.zeros(2)),
     DimensionMismatchError, "block count does not match decomposition"),
    (lambda: timestep_trapezoidal(_EYE2, (2, 0.1), np.zeros(2)),
     TypeError, "grid must be a TimeGrid or GeometricGrid"),
    (lambda: timestep_trapezoidal(_EYE2, TimeGrid(n=2, dt=0.1), np.zeros(3)),
     DimensionMismatchError, "u0 dimension does not match operator"),
    (lambda: _ZERO2.shifted_solve(0, np.ones(2)),
     SingularShiftError, "shift 0 makes the shifted operator singular"),
    (lambda: _ZERO2.shifted_diag_solve(0, np.zeros(2), np.ones(2)),
     SingularShiftError, "shift 0 makes the shifted operator singular"),
    (lambda: make_benchmark("heat", 4).semilinear(),
     UnsupportedKindError, "heat has no nonlinear part"),
    (lambda: make_benchmark("heat", 4, n=4),
     ValueError, "T is required when n is given"),
], ids=["order2-n1", "velocity-u0", "velocity-blocks", "trapezoidal-grid",
        "trapezoidal-u0", "dense-shift", "diag-shift", "heat-semilinear",
        "benchmark-no-T"])
def test_refusals_name_their_cause(call, error, message):
    # each refusal raises its own type, with the message that names why
    with pytest.raises(error, match=re.escape(message)):
        call()
