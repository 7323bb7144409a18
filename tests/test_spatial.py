"""Tests for spatial operators and the manufactured benchmark problems."""

import numpy as np
import pytest

from chebpint.errors import (
    DimensionMismatchError,
    SingularShiftError,
    UnsupportedKindError,
)
from chebpint.spatial import (
    SineLaplacian2D,
    make_benchmark,
    make_dense_operator,
    make_laplacian_1d_periodic,
)


# ------------------------------------------------------------ dense operator

def test_dense_scalar_zero():
    op = make_dense_operator(np.zeros((1, 1)))
    assert op.shifted_solve(2.0, np.array([6.0]))[0] == pytest.approx(3.0)


def test_dense_identity():
    op = make_dense_operator(np.eye(3))
    g = np.array([1.0, 2.0, 3.0])
    sigma = 0.5 + 0.5j
    assert np.abs(op.shifted_solve(sigma, g) - g / (sigma + 1)).max() < 1e-14


def test_dense_random_spd_residual():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(8, 8))
    A = M @ M.T + 8 * np.eye(8)
    op = make_dense_operator(A)
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    sigma = 0.7 - 1.3j
    w = op.shifted_solve(sigma, g)
    assert np.linalg.norm((sigma * np.eye(8) + A) @ w - g) < 1e-11


def test_dense_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        make_dense_operator(np.zeros((2, 3)))


# --------------------------------------------------------- 2D sine Laplacian

def test_laplacian2d_single_point():
    h = 0.25
    op = SineLaplacian2D(1, h)
    assert op.m == 1
    sigma = 1.0 + 2.0j
    g = np.array([3.0 + 0j])
    expected = g / (sigma + 4.0 / h**2)
    assert np.abs(op.shifted_solve(sigma, g) - expected).max() < 1e-12


def test_laplacian2d_sine_mode_eigenpair():
    p = 12
    L = np.pi
    h = L / (p + 1)
    op = SineLaplacian2D(p, h)
    X, Y = op.grid()
    for ki, kj in ((1, 1), (2, 3)):
        v = (np.sin(ki * X) * np.sin(kj * Y)).ravel()
        mu = (4 / h**2) * (np.sin(ki * h / 2) ** 2 + np.sin(kj * h / 2) ** 2)
        r = op.apply(v) - mu * v
        assert np.abs(r).max() < 1e-10 * mu


def test_laplacian2d_shifted_solve_vs_dense():
    p = 8
    h = 1.0 / (p + 1)
    op = SineLaplacian2D(p, h)
    rng = np.random.default_rng(4)
    g = rng.normal(size=p * p) + 1j * rng.normal(size=p * p)
    sigma = 1.0 + 1.0j
    w = op.shifted_solve(sigma, g)
    A = op.matrix().toarray()
    expected = np.linalg.solve(sigma * np.eye(p * p) + A, g)
    assert np.abs(w - expected).max() < 1e-10


def test_laplacian2d_singular_shift():
    p = 4
    h = 1.0 / (p + 1)
    op = SineLaplacian2D(p, h)
    mu_min = op.modes2d.min()
    with pytest.raises(SingularShiftError):
        op.shifted_solve(-mu_min, np.ones(p * p, dtype=complex))
    # the batched solve raises too, rather than writing inf or nan rows
    G = np.ones((3, p * p), dtype=complex)
    with pytest.raises(SingularShiftError, match=r"mode \(1, 1\)"):
        op.shifted_solve_batch(np.array([1.0, -mu_min, 2.0j]), G)


# ------------------------------------------------------- periodic Laplacian

def test_periodic_constant_in_kernel():
    op = make_laplacian_1d_periodic(16, 0.1)
    assert np.abs(op.apply(np.ones(16))).max() < 1e-12


def test_periodic_sine_mode_eigenvalue():
    m, h = 64, 2.0 / 64
    op = make_laplacian_1d_periodic(m, h)
    x = np.arange(1, m + 1) * h
    v = np.sin(2 * np.pi * x)           # circulant mode index 2 on period 2
    mu = (4 / h**2) * np.sin(np.pi * 2 / m) ** 2
    assert np.abs(op.apply(v) - mu * v).max() < 1e-10 * mu


def test_periodic_shifted_solve_vs_dense():
    m, h = 16, 0.2
    op = make_laplacian_1d_periodic(m, h)
    rng = np.random.default_rng(6)
    g = rng.normal(size=m)
    w = op.shifted_solve(1.0, g)
    expected = np.linalg.solve(np.eye(m) + op.dense(), g)
    assert np.abs(w - expected).max() < 1e-10


def test_periodic_zero_shift_hits_constant_mode():
    op = make_laplacian_1d_periodic(8, 0.3)
    with pytest.raises(SingularShiftError):
        op.shifted_solve(0.0, np.ones(8))


# --------------------------------------------------------- shared invariants

@pytest.fixture(params=["dense", "lap2d", "periodic"])
def any_operator(request):
    rng = np.random.default_rng(13)
    if request.param == "dense":
        M = rng.normal(size=(6, 6))
        return make_dense_operator(M @ M.T + 6 * np.eye(6))
    if request.param == "lap2d":
        return SineLaplacian2D(5, 1.0 / 6.0)
    return make_laplacian_1d_periodic(9, 0.25)


def _dense_matrix(op):
    A = op.matrix()
    return A if isinstance(A, np.ndarray) else A.toarray()


def test_shifted_diag_solve_matches_dense(any_operator):
    m = any_operator.m
    rng = np.random.default_rng(9)
    d = rng.normal(size=m)
    g = rng.normal(size=m) + 1j * rng.normal(size=m)
    sigma = 0.4 + 2.2j
    w = any_operator.shifted_diag_solve(sigma, d, g)
    M = sigma * np.eye(m) + _dense_matrix(any_operator) + np.diag(d)
    assert np.abs(w - np.linalg.solve(M, g)).max() < 1e-10


def test_shifted_diag_solve_on_the_spectrum_raises(any_operator):
    # a real shift that puts an eigenvalue of A + diag(d) at zero: the LU
    # pivots fall to roundoff, and the solve must not return their garbage
    m = any_operator.m
    d = np.linspace(-1.0, 2.0, m)
    sigma = -np.linalg.eigvalsh(_dense_matrix(any_operator) + np.diag(d)).min()
    with pytest.raises(SingularShiftError):
        any_operator.shifted_diag_solve(sigma, d, np.ones(m))


def test_apply_is_linear(any_operator):
    rng = np.random.default_rng(1)
    x = rng.normal(size=any_operator.m)
    y = rng.normal(size=any_operator.m)
    lhs = any_operator.apply(2.5 * x - 1.25 * y)
    rhs = 2.5 * any_operator.apply(x) - 1.25 * any_operator.apply(y)
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() / scale < 1e-12


def test_shifted_solve_round_trip(any_operator):
    rng = np.random.default_rng(8)
    w = rng.normal(size=any_operator.m) + 1j * rng.normal(size=any_operator.m)
    sigma = 1.5 + 0.7j
    g = any_operator.apply(w) + sigma * w
    back = any_operator.shifted_solve(sigma, g)
    assert np.abs(back - w).max() / np.abs(w).max() < 1e-9


def test_shifted_solve_dimension_check(any_operator):
    with pytest.raises(DimensionMismatchError):
        any_operator.shifted_solve(1.0, np.ones(any_operator.m + 1))


def test_shifted_solve_batch_is_the_per_row_solve_in_place(any_operator):
    rng = np.random.default_rng(21)
    k, m = 7, any_operator.m
    sigmas = rng.uniform(0.5, 3.0, size=k) + 1j * rng.normal(size=k)
    G0 = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    # the rows are a view into a larger array, whose other rows stay zero
    buffer = np.zeros((k + 2, m), dtype=complex)
    buffer[1:-1] = G0
    assert any_operator.shifted_solve_batch(sigmas, buffer[1:-1]) is None
    assert not buffer[0].any() and not buffer[-1].any()
    for j in range(k):
        w = any_operator.shifted_solve(sigmas[j], G0[j])
        assert np.array_equal(buffer[1 + j], w), j


def test_shifted_solve_batch_rejects_bad_rows(any_operator):
    m = any_operator.m
    sigmas = np.array([1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        any_operator.shifted_solve_batch(sigmas, np.ones((2, m + 1), dtype=complex))
    with pytest.raises(DimensionMismatchError):
        any_operator.shifted_solve_batch(sigmas, np.ones((3, m), dtype=complex))
    with pytest.raises(ValueError, match="complex128"):
        any_operator.shifted_solve_batch(sigmas, np.ones((2, m)))
    with pytest.raises(ValueError, match="C-contiguous"):
        any_operator.shifted_solve_batch(sigmas, np.ones((m, 2), dtype=complex).T)


def test_modal_hooks_compose_to_the_batched_solve(any_operator):
    # to_modes, modal_solve_batch and from_modes, each in place, are
    # shifted_solve_batch: bitwise for the sine Laplacian, whose batch is
    # written as those three calls, and trivially for the identity basis
    rng = np.random.default_rng(22)
    k, m = 5, any_operator.m
    sigmas = rng.uniform(0.5, 3.0, size=k) + 1j * rng.normal(size=k)
    G = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    expected = G.copy()
    any_operator.shifted_solve_batch(sigmas, expected)
    assert any_operator.to_modes(G) is None
    assert any_operator.modal_solve_batch(sigmas, G) is None
    assert any_operator.from_modes(G) is None
    assert np.array_equal(G, expected)


def test_modal_maps_are_real_and_inverse(any_operator):
    # real maps commute with conjugation bitwise, which the drivers' mirror
    # of the conjugate rows relies on
    rng = np.random.default_rng(23)
    X = rng.normal(size=(3, any_operator.m)) + 1j * rng.normal(size=(3, any_operator.m))
    Y, Z, R = X.copy(), X.conj(), X.real.copy()
    any_operator.to_modes(Y)
    any_operator.to_modes(Z)
    any_operator.to_modes(R)
    assert np.array_equal(Z, Y.conj()) and np.array_equal(R, Y.real)
    any_operator.from_modes(Y)
    assert np.abs(Y - X).max() <= 1e-14 * np.abs(X).max()


def test_laplacian2d_modal_maps_reject_rows_they_cannot_map_in_place():
    op = SineLaplacian2D(4, 0.2)
    for X in (np.ones((2, 16), dtype=np.float32), np.ones((16, 2)).T,
              np.ones((2, 15)), np.ones(16), [[1.0] * 16]):
        for method in (op.to_modes, op.from_modes):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                method(X)


def test_identity_basis_is_the_default():
    # the dense and periodic operators define no modal basis: the FFT
    # diagonalizes the periodic one, but it is not a real map
    for op in (make_dense_operator(np.eye(3)), make_laplacian_1d_periodic(5, 0.2)):
        X = np.arange(2.0 * op.m).reshape(2, op.m) + 0j
        before = X.copy()
        op.to_modes(X)
        op.from_modes(X)
        assert np.array_equal(X, before)


def test_laplacian2d_modal_solve_is_a_division():
    p = 6
    op = SineLaplacian2D(p, 1.0 / (p + 1))
    rng = np.random.default_rng(24)
    sigmas = np.array([0.5 + 1j, 2.0, -3j])
    G = rng.normal(size=(3, op.m)) + 1j * rng.normal(size=(3, op.m))
    expected = G / (sigmas[:, None] + op.modes2d.ravel())
    op.modal_solve_batch(sigmas, G)
    assert np.array_equal(G, expected)
    with pytest.raises(SingularShiftError, match=r"mode \(2, 2\)"):
        op.modal_solve_batch(np.array([1.0, -op.modes2d[1, 1]]), G[:2].copy())


# -------------------------------------------------------------- benchmarks

def test_heat_benchmark_initial_data():
    prob = make_benchmark("heat", 10)
    X, Y = prob.operator.grid()
    assert np.abs(prob.u0 - (np.sin(X) * np.sin(Y)).ravel()).max() < 1e-14
    assert np.abs(prob.discrete_reference([0.0])[0] - prob.u0).max() < 1e-14


def test_wave_benchmark_initial_velocity():
    prob = make_benchmark("wave", 10)
    X, Y = prob.operator.grid()
    expected = 2 * np.pi * (X * (X - 1) * Y * (Y - 1)).ravel()
    assert np.abs(prob.u0dot - expected).max() < 1e-14
    assert np.abs(prob.u0).max() == 0.0


def _fd_source_oracle(prob, pde_kind, u_xy, pts, t):
    """Forcing from high-order finite differences of the closed-form solution."""
    h = 1e-4
    out = []
    for (x, y) in pts:
        ut = (u_xy(x, y, t + h) - u_xy(x, y, t - h)) / (2 * h)
        utt = (u_xy(x, y, t + h) - 2 * u_xy(x, y, t) + u_xy(x, y, t - h)) / h**2
        uxx = (u_xy(x + h, y, t) - 2 * u_xy(x, y, t) + u_xy(x - h, y, t)) / h**2
        uyy = (u_xy(x, y + h, t) - 2 * u_xy(x, y, t) + u_xy(x, y - h, t)) / h**2
        u = u_xy(x, y, t)
        if pde_kind == "heat":
            out.append(ut - uxx - uyy)
        elif pde_kind == "wave":
            out.append(utt - uxx - uyy)
        else:
            out.append(ut - uxx - uyy + u**3 - u)
    return np.array(out)


@pytest.mark.parametrize("kind,u_xy", [
    ("heat", lambda x, y, t: np.sin(x) * np.sin(y) * np.exp(-t)),
    ("wave", lambda x, y, t: x * (x - 1) * y * (y - 1) * np.sin(2 * np.pi * t)),
    ("semilinear", lambda x, y, t: (x**2 - 1) * (y**2 - 1) * np.exp(-t)),
])
def test_benchmark_source_matches_fd_oracle(kind, u_xy):
    prob = make_benchmark(kind, 7)
    if kind == "semilinear":
        pts_1d = -1.0 + np.arange(1, 8) * (2.0 / 8)
    else:
        X, Y = prob.operator.grid()
        pts_1d = None
    for t in (0.0, 0.4, 1.3):
        sampled = prob.source(t)
        if pts_1d is not None:
            Xg, Yg = np.meshgrid(pts_1d, pts_1d, indexing="ij")
            pts = list(zip(Xg.ravel(), Yg.ravel()))
        else:
            pts = list(zip(X.ravel(), Y.ravel()))
        oracle = _fd_source_oracle(prob, kind, u_xy, pts, t)
        scale = max(1.0, np.abs(oracle).max())
        assert np.abs(sampled - oracle).max() / scale < 1e-6


def test_semilinear_source_value_at_origin():
    # hand evaluation at (x, y, t) = (0, 0, 0): u = 1, u_t = -1,
    # Lap u = -4, f(u) = 0, so r = -1 + 4 + 0 = 3
    prob = make_benchmark("semilinear", 7)   # odd count puts a node at 0
    r0 = prob.source(0.0).reshape(7, 7)[3, 3]
    assert r0 == pytest.approx(3.0, abs=1e-12)


def test_semilinear_jacobian_matches_fd():
    prob = make_benchmark("semilinear", 5)
    rng = np.random.default_rng(3)
    u = rng.normal(size=prob.m)
    h = 1e-6
    fd = (prob.f(u + h) - prob.f(u - h)) / (2 * h)
    assert np.abs(prob.jac_diag(u) - fd).max() < 1e-6


def test_heat_discrete_residual_is_second_order():
    # residual of the sampled exact solution in the semi-discrete system
    # shrinks by ~4x per halving of h
    def residual(p):
        prob = make_benchmark("heat", p)
        t = 0.5
        X, Y = prob.operator.grid()
        u = np.exp(-t) * (np.sin(X) * np.sin(Y)).ravel()
        ut = -u
        r = ut + prob.operator.apply(u) - prob.source(t)
        return np.abs(r).max()

    r1, r2 = residual(15), residual(31)
    assert 3.5 < r1 / r2 < 4.5


@pytest.mark.parametrize("kind", ["wave", "semilinear"])
def test_polynomial_solutions_have_zero_spatial_residual(kind):
    # products of per-direction quadratics are differentiated exactly by the
    # 5-point stencil, so the sampled solution, which discrete_reference
    # returns, solves the semi-discrete system
    prob = make_benchmark(kind, 9)
    t = 0.7
    u = prob.discrete_reference([t])[0]
    if kind == "wave":
        utt = -(2 * np.pi) ** 2 * u
        r = utt + prob.operator.apply(u) - prob.source(t)
    else:
        ut = -u
        r = ut + prob.operator.apply(u) + prob.f(u) - prob.source(t)
    assert np.abs(r).max() < 1e-9


def test_discrete_reference_solves_semidiscrete_heat():
    prob = make_benchmark("heat", 9)
    t = np.array([0.3, 0.6])
    ref = prob.discrete_reference(t)
    h = 1e-6
    dudt = (prob.discrete_reference(t + h) - prob.discrete_reference(t - h)) / (2 * h)
    for i, ti in enumerate(t):
        r = dudt[i] + prob.operator.apply(ref[i]) - prob.source(ti)
        assert np.abs(r).max() < 1e-7


def test_unknown_benchmark_kind():
    with pytest.raises(UnsupportedKindError):
        make_benchmark("advection", 8)


def test_benchmark_grid_attachment():
    prob = make_benchmark("heat", 4, n=10, T=2.0)
    assert prob.grid.n == 10
    assert prob.grid.dt == pytest.approx(0.2)
    g = prob.sample_source(prob.grid.t_points)
    assert g.shape == (10, 16)


def test_benchmark_rejects_empty_grid():
    with pytest.raises(ValueError, match="n must be >= 1"):
        make_benchmark("heat", 4, n=0, T=2.0)
    with pytest.raises(ValueError, match="n must be >= 1 and an integer, got 2.5"):
        make_benchmark("heat", 4, n=2.5, T=2.0)


@pytest.mark.parametrize("make, args, message", [
    (SineLaplacian2D, (2.5, 0.1), "points_per_dim must be >= 1 and an integer"),
    (make_benchmark, ("heat", 4.5), "points_per_dim must be >= 1 and an integer"),
    (make_laplacian_1d_periodic, (4.5, 0.1), "m must be >= 3 and an integer"),
    (SineLaplacian2D, (3, float("nan")), "h must be positive and finite"),
    (SineLaplacian2D, (3, float("inf")), "h must be positive and finite"),
    (SineLaplacian2D, (3, 0.0), "h must be positive and finite"),
    (make_laplacian_1d_periodic, (4, float("nan")), "h must be positive and finite"),
    (make_laplacian_1d_periodic, (4, float("inf")), "h must be positive and finite"),
    (make_laplacian_1d_periodic, (4, 0.0), "h must be positive and finite"),
], ids=["lap2d-2.5", "benchmark-4.5", "periodic-4.5", "lap2d-nan", "lap2d-inf",
        "lap2d-0", "periodic-nan", "periodic-inf", "periodic-0"])
def test_operators_reject_bad_sizes_and_spacings(make, args, message):
    with pytest.raises(ValueError, match=message):
        make(*args)


@pytest.mark.parametrize("T", [0.0, -2.0, float("nan"), float("inf")])
def test_benchmark_rejects_bad_horizon(T):
    with pytest.raises(ValueError, match="T must be positive and finite"):
        make_benchmark("heat", 4, n=4, T=T)
