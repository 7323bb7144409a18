"""Tests for stencil assembly, all-at-once right-hand sides, and the
geometric-step trapezoidal baseline."""

import numpy as np
import pytest

from chebpint.errors import (
    DimensionMismatchError,
    GeometricOverflowError,
    InvalidGridError,
)
from chebpint.timedisc import (
    BlockVector,
    GeometricGrid,
    TimeGrid,
    apply_B,
    assemble_B,
    assemble_TR_system,
    geometric_decomposition,
    geometric_grid,
    rhs_first_order,
    rhs_second_order,
    solve_B2,
)


# ---------------------------------------------------------------- assemble_B

def test_assemble_B_n3():
    B = assemble_B(3, 1.0).toarray()
    expected = np.array([
        [0.0, 0.5, 0.0],
        [-0.5, 0.0, 0.5],
        [0.0, -1.0, 1.0],
    ])
    assert np.array_equal(B, expected)


def test_assemble_B_n1():
    assert assemble_B(1, 2.0).toarray() == pytest.approx(np.array([[0.5]]))


def test_assemble_B_eigenvalues_n2():
    lam = np.sort_complex(np.linalg.eigvals(assemble_B(2, 1.0).toarray()))
    expected = np.sort_complex(np.array([(1 + 1j) / 2, (1 - 1j) / 2]))
    assert np.abs(lam - expected).max() < 1e-14


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_assemble_B_dt_scaling_exact(n):
    B1 = assemble_B(n, 1.0).toarray()
    Bdt = assemble_B(n, 0.125).toarray()
    assert np.array_equal(Bdt, B1 / 0.125)


@pytest.mark.parametrize("n", [2, 3, 4, 17, 1024])
@pytest.mark.parametrize("dt", [1.0, 0.1, 3e-7])
def test_assemble_B_equals_the_entrywise_build(n, dt):
    # the row-by-row construction the diagonal build replaced
    half = 1.0 / (2.0 * dt)
    ref = np.zeros((n, n))
    for j in range(n - 1):
        ref[j, j + 1] = half
        if j > 0:
            ref[j, j - 1] = -half
    ref[n - 1, n - 2] = -1.0 / dt
    ref[n - 1, n - 1] = 1.0 / dt
    B = assemble_B(n, dt)
    assert B.format == "csr" and B.nnz == 2 * n - 1
    assert np.array_equal(B.toarray(), ref)


def test_apply_B_matches_matrix():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 9):
        u = rng.normal(size=(n, 4))
        direct = assemble_B(n, 0.3).toarray() @ u
        assert np.abs(apply_B(u, 0.3) - direct).max() < 1e-13


# ---------------------------------------------------------- right-hand sides

def test_rhs_first_order_zero():
    out = rhs_first_order(np.zeros(3), np.zeros((4, 3)), 0.1)
    assert np.all(out.values == 0.0)


def test_rhs_first_order_initial_block():
    out = rhs_first_order(np.array([2.0]), np.zeros((2, 1)), 1.0)
    assert out.values == pytest.approx(np.array([[1.0], [0.0]]))


def test_rhs_first_order_with_source():
    g = np.array([[1.0], [2.0], [3.0]])
    out = rhs_first_order(np.array([1.0]), g, 0.5)
    assert out.values == pytest.approx(np.array([[2.0], [2.0], [3.0]]))


def test_rhs_first_order_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        rhs_first_order(np.zeros(2), np.zeros((3, 5)), 0.1)


def test_rhs_second_order_zero():
    out = rhs_second_order(np.zeros(2), np.zeros(2), np.zeros((5, 2)), 0.1)
    assert np.all(out.values == 0.0)


def test_rhs_second_order_homogeneous_blocks():
    out = rhs_second_order(np.array([4.0]), np.array([2.0]), np.zeros((3, 1)), 1.0)
    assert out.values == pytest.approx(np.array([[1.0], [-1.0], [0.0]]))


def test_rhs_second_order_needs_two_blocks():
    with pytest.raises(InvalidGridError):
        rhs_second_order(np.zeros(1), np.zeros(1), np.zeros((1, 1)), 0.1)


def test_rhs_second_order_n2_consistent_with_stencil():
    # for n = 2 the backward-Euler row acts on block 1, so B @ b1 puts
    # -u0/(2 dt^2) (not -u0/(4 dt^2)) into block 2
    dt = 0.5
    out = rhs_second_order(np.array([1.0]), np.array([0.0]), np.zeros((2, 1)), dt)
    b1 = np.array([[1.0 / (2 * dt)], [0.0]])
    expected = assemble_B(2, dt).toarray() @ b1
    assert out.values == pytest.approx(expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 1024])
def test_rhs_second_order_equals_B_on_all_blocks(n):
    # B is applied to the first min(n, 3) blocks of b1 only; the result
    # equals B applied to all n blocks, bit for bit
    rng = np.random.default_rng(n)
    m, dt = 7, 0.37
    u0, u0dot, g = rng.normal(size=m), rng.normal(size=m), rng.normal(size=(n, m))
    b1 = np.zeros((n, m))
    b1[0] = u0 / (2.0 * dt)
    expected = g.copy()
    expected[0] += u0dot / (2.0 * dt)
    expected += apply_B(b1, dt)
    assert np.array_equal(rhs_second_order(u0, u0dot, g, dt).values, expected)


def test_first_order_all_at_once_reproduces_difference_equations():
    # solving the dense Kronecker system must satisfy the defining stencil
    # rows: centered interior rows plus the backward-Euler closure
    rng = np.random.default_rng(7)
    n, m, dt = 6, 3, 0.2
    A = rng.normal(size=(m, m))
    u0 = rng.normal(size=m)
    g = rng.normal(size=(n, m))
    B = assemble_B(n, dt).toarray()
    M = np.kron(B, np.eye(m)) + np.kron(np.eye(n), A)
    b = rhs_first_order(u0, g, dt)
    u = np.linalg.solve(M, b.data).reshape(n, m)
    full = np.vstack([u0, u])
    for j in range(1, n):
        r = (full[j + 1] - full[j - 1]) / (2 * dt) + A @ full[j] - g[j - 1]
        assert np.abs(r).max() < 1e-12
    r_last = (full[n] - full[n - 1]) / dt + A @ full[n] - g[n - 1]
    assert np.abs(r_last).max() < 1e-12


def test_second_order_rhs_equivalent_to_coupled_system():
    # eliminating v from the coupled first-order pair must give the same u
    # as the squared-stencil system assembled from rhs_second_order
    rng = np.random.default_rng(21)
    n, m, dt = 5, 2, 0.3
    A = rng.normal(size=(m, m))
    u0 = rng.normal(size=m)
    u0dot = rng.normal(size=m)
    g = rng.normal(size=(n, m))
    B = np.kron(assemble_B(n, dt).toarray(), np.eye(m))
    Imat = np.eye(n * m)
    Akr = np.kron(np.eye(n), A)
    b = rhs_second_order(u0, u0dot, g, dt)
    u = np.linalg.solve(B @ B + Akr, b.data)
    # coupled pair: B u - v = b1, B v + A u = b2 + g
    b1 = np.zeros(n * m)
    b1[:m] = u0 / (2 * dt)
    b2 = np.zeros(n * m)
    b2[:m] = u0dot / (2 * dt)
    big = np.block([[B, -Imat], [Akr, B]])
    rhs_big = np.concatenate([b1, b2 + g.reshape(-1)])
    w = np.linalg.solve(big, rhs_big)
    assert np.abs(w[: n * m] - u).max() < 1e-9
    v = B @ u - b1
    assert np.abs(w[n * m:] - v).max() < 1e-9


# ------------------------------------------------------------ geometric grid

def test_geometric_grid_single_step():
    grid = geometric_grid(1, 2.0, 0.25)
    assert grid.steps == pytest.approx([0.25])
    assert grid.T == pytest.approx(0.25)


def test_geometric_grid_two_steps():
    grid = geometric_grid(2, 2.0, 1.0)
    assert grid.steps == pytest.approx([0.5, 1.0])
    assert grid.T == pytest.approx(1.5)


def test_geometric_grid_closed_form_T():
    grid = geometric_grid(17, 1.3, 0.05)
    tau = 1.3
    closed = 0.05 * (1 - tau**-17) / (1 - 1 / tau)
    assert grid.T == pytest.approx(closed, rel=1e-13)
    assert (np.diff(grid.steps) > 0).all()


def test_geometric_grid_mean_step_reference_scale():
    grid = geometric_grid(40, 1.15, 1e-2)
    assert abs(grid.T - 0.0766) < 3e-4        # mean step ~ 0.0766/40


def test_geometric_grid_validation():
    with pytest.raises(InvalidGridError):
        geometric_grid(3, 1.0, 0.1)
    with pytest.raises(InvalidGridError):
        geometric_grid(3, 1.2, -0.1)
    with pytest.raises(InvalidGridError, match="n must be >= 1 and an integer, got 3.7"):
        geometric_grid(3.7, 1.2, 0.1)
    with pytest.raises(InvalidGridError, match="n must be >= 1 and an integer, got 3.5"):
        GeometricGrid(n=3.5, tau=1.2, dt_last=0.1)


# ----------------------------------------------------------------- TR system

def _tr_factors(grid):
    """The trapezoidal rule's B1 (rows -1/dt_j, 1/dt_j) and averaging B2
    (one-halves on the diagonal and the subdiagonal), dense, built here
    as the oracle of B = B2^{-1} B1."""
    n, inv = grid.n, 1.0 / grid.steps
    B1 = np.diag(inv)
    B2 = 0.5 * np.eye(n)
    for j in range(1, n):
        B1[j, j - 1] = -inv[j]
        B2[j, j - 1] = 0.5
    return B1, B2


def test_assemble_TR_n1():
    grid = geometric_grid(1, 1.5, 0.2)
    B1, B2 = _tr_factors(grid)
    assert B1 == pytest.approx(np.array([[5.0]]))
    assert B2 == pytest.approx(np.array([[0.5]]))
    assert assemble_TR_system(grid) == pytest.approx(np.array([[10.0]]))


def test_assemble_TR_defining_identity():
    grid = geometric_grid(9, 1.15, 0.01)
    B = assemble_TR_system(grid)
    B1, B2 = _tr_factors(grid)
    assert np.abs(B2 @ B - B1).max() < 1e-12
    # solve_B2 is B2^{-1} on any (n, m) array, as the geometric CLI's
    # right-hand side uses it
    X = np.random.default_rng(5).normal(size=(9, 4))
    assert np.abs(B2 @ solve_B2(X) - X).max() < 1e-12


def test_assemble_TR_eigenvalues():
    grid = geometric_grid(8, 1.15, 0.01)
    B = assemble_TR_system(grid)
    lam = np.sort(np.linalg.eigvals(B).real)
    assert np.abs(np.linalg.eigvals(B).imag).max() < 1e-9
    assert lam == pytest.approx(np.sort(2.0 / grid.steps), rel=1e-9)


# ------------------------------------------------- geometric decomposition

def test_geometric_decomposition_n1():
    dec = geometric_decomposition(geometric_grid(1, 1.2, 0.5))
    assert np.abs(dec.V_half - 1.0).max() < 1e-14
    assert dec.eigenvalues[0] == pytest.approx(4.0)


def test_geometric_toeplitz_first_entry():
    from chebpint.timedisc import _toeplitz_column

    p = _toeplitz_column(geometric_grid(4, 1.15, 0.1))
    assert p[1] == pytest.approx(2.15 / (-0.15), rel=1e-12)


def test_geometric_decomposition_residual_small_n():
    eps = np.finfo(float).eps
    for n in (2, 7, 20):
        grid = geometric_grid(n, 1.15, 0.01)
        dec = geometric_decomposition(grid)
        B = assemble_TR_system(grid)
        V, Vinv = dec.V_half, dec.Vinv_half      # q = 0: the whole matrices
        rel = (np.linalg.norm(B @ V - V * dec.eigenvalues[None, :])
               / np.linalg.norm(B))
        assert rel < 1e-8
        # inversion error of the baseline is governed by its (huge) condition
        # number; that conditioning blowup is exactly what the comparison
        # experiment demonstrates
        ident_err = np.linalg.norm(V @ Vinv - np.eye(n))
        assert ident_err < 100.0 * eps * dec.cond2 + 1e-12


def test_geometric_decomposition_overflow():
    # p_l overflows first at tau = 1.001; at tau = 10, tau^l does, as a
    # float power or as an int power converted to a float
    for grid in (geometric_grid(420, 1.001, 0.01), GeometricGrid(400, 10.0, 0.1),
                 GeometricGrid(400, 10, 0.1)):
        with pytest.raises(GeometricOverflowError):
            geometric_decomposition(grid)


# ---------------------------------------------------------------- grids misc

def test_time_grid_points():
    grid = TimeGrid(4, 0.25)
    assert grid.T == pytest.approx(1.0)
    assert grid.t_points == pytest.approx([0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("bad", [0.0, -0.5, float("nan"), float("inf"), "0.1", None])
def test_grids_reject_bad_steps(bad):
    with pytest.raises(InvalidGridError, match="dt must be positive and finite"):
        TimeGrid(4, bad)
    with pytest.raises(InvalidGridError, match="dt must be positive and finite"):
        assemble_B(4, bad)
    with pytest.raises(InvalidGridError, match="dt_last must be positive and finite"):
        geometric_grid(4, 1.2, bad)
    blocks = np.ones((3, 2))
    for build in (lambda: apply_B(blocks, bad),
                  lambda: rhs_first_order(np.ones(2), blocks, bad),
                  lambda: rhs_second_order(np.ones(2), np.ones(2), blocks, bad)):
        with pytest.raises(InvalidGridError, match="dt must be positive and finite"):
            build()


@pytest.mark.parametrize("make", [TimeGrid, assemble_B])
def test_uniform_grids_reject_non_integer_n(make):
    with pytest.raises(InvalidGridError, match="n must be >= 1 and an integer, got 2.5"):
        make(2.5, 0.1)


@pytest.mark.parametrize("tau", [1.0, float("nan"), float("inf"), "1.2", None])
def test_geometric_grid_rejects_bad_ratio(tau):
    with pytest.raises(InvalidGridError, match="tau must be > 1 and finite"):
        GeometricGrid(4, tau, 0.1)
    with pytest.raises(InvalidGridError, match="tau must be > 1 and finite"):
        geometric_grid(4, tau, 0.1)


def test_block_vector_shape_and_flat_view():
    bv = BlockVector(np.arange(6.0).reshape(3, 2))
    assert bv.n == 3 and bv.m == 2
    assert bv.data == pytest.approx(np.arange(6.0))
