"""Tests for Chebyshev evaluation and the characteristic-equation roots."""

import numpy as np
import pytest

from chebpint import chebroots
from chebpint.chebroots import (
    cheb_eval,
    characteristic_residuals,
    find_roots,
    mirror_roots,
    p_prime,
    refined_guesses,
    rho_and_derivative,
)
from chebpint.errors import (
    DegenerateRootError,
    DuplicateRootsError,
    NonConvergenceError,
)


# ------------------------------------------------------------- cheb_eval

def test_cheb_eval_known_values():
    assert cheb_eval("first", 2, 0.0) == pytest.approx(-1.0)
    assert cheb_eval("second", 3, 1.0) == pytest.approx(4.0)   # U_k(1) = k+1
    assert cheb_eval("first", 2, 1j) == pytest.approx(-3.0)    # 2*(i)^2 - 1


def test_cheb_eval_degree_zero_and_one():
    assert cheb_eval("first", 0, 0.3 + 0.1j) == pytest.approx(1.0)
    assert cheb_eval("first", 1, 0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)
    assert cheb_eval("second", 0, -2.0) == pytest.approx(1.0)
    assert cheb_eval("second", 1, -2.0) == pytest.approx(-4.0)


def test_cheb_eval_rejects_bad_input():
    with pytest.raises(ValueError):
        cheb_eval("third", 1, 0.0)
    with pytest.raises(ValueError):
        cheb_eval("first", -1, 0.0)
    with pytest.raises(ValueError):
        cheb_eval("first", 2, np.nan)
    with pytest.raises(ValueError, match="k must be >= 0 and an integer, got 2.7"):
        cheb_eval("first", 2.7, 0.0)


def test_pythagorean_identity_random_complex():
    # T_n(x)^2 + (1 - x^2) U_{n-1}(x)^2 = 1 for all complex x; the terms grow
    # exponentially off [-1, 1], so the defect is measured relative to them
    rng = np.random.default_rng(42)
    x = (rng.uniform(-1, 1, size=100) + 1j * rng.uniform(-1, 1, size=100)) * np.sqrt(2)
    for n in (1, 2, 3, 8, 17, 64):
        t = cheb_eval("first", n, x)
        u = cheb_eval("second", n - 1, x) if n > 1 else np.ones_like(x)
        term = (1 - x**2) * u**2
        scale = np.maximum(1.0, np.maximum(np.abs(t) ** 2, np.abs(term)))
        assert (np.abs(t**2 + term - 1) / scale).max() < 1e-9


# ------------------------------------------------- rho and its derivative

def test_rho_known_value():
    # rho(pi/2, n=2) = sin(pi) - i cos(pi) sin(pi/2) = i
    r, _ = rho_and_derivative(np.pi / 2, 2)
    assert r == pytest.approx(1j, abs=1e-15)


def test_rho_prime_matches_finite_difference():
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.2, 2.9, size=10) + 1j * rng.uniform(0.05, 0.8, size=10)
    h = 1e-6
    for n in (1, 3, 9, 21):
        _, dr = rho_and_derivative(theta, n)
        rp, _ = rho_and_derivative(theta + h, n)
        rm, _ = rho_and_derivative(theta - h, n)
        fd = (rp - rm) / (2 * h)
        assert np.abs(fd - dr).max() / np.abs(dr).max() < 1e-6


def test_rho_small_at_converged_roots():
    roots = find_roots(48, tol=1e-11)
    r, _ = rho_and_derivative(roots.thetas, 48)
    assert np.abs(r).max() <= 1e-10


# --------------------------------------------------------- initial guesses

def test_refined_guesses_sit_on_roots():
    for n in (1, 2, 7, 40, 129):
        seeds = refined_guesses(n)
        r, _ = rho_and_derivative(seeds, n)
        assert np.abs(np.atleast_1d(r) / np.sin(seeds)).max() < 1e-6


def _fixed_count_guesses(n):
    """refined_guesses with its bisections run the full 80 and 90 times."""
    lo, hi = 0.0, float(np.arcsinh(float(n))) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.sinh(mid) * np.sinh(mid / n) < 1.0:
            lo = mid
        else:
            hi = mid
    b_max = 0.5 * (lo + hi)
    half = (n + 1) // 2
    target = np.arange(1, half + 1) * np.pi
    blo, bhi = np.zeros(half), np.full(half, b_max)
    for _ in range(90):
        mid = 0.5 * (blo + bhi)
        u = np.clip(np.tanh(mid) * np.cosh(mid / n), 0.0, 1.0)
        v = np.clip(np.tanh(mid / n) * np.cosh(mid), 0.0, 1.0)
        below = n * np.arcsin(u) + np.arcsin(v) < target
        blo, bhi = np.where(below, mid, blo), np.where(below, bhi, mid)
    b = 0.5 * (blo + bhi)
    alpha = np.arcsin(np.clip(np.tanh(b) * np.cosh(b / n), 0.0, 1.0))
    theta = np.empty(n, dtype=complex)
    theta[:half] = alpha + 1j * (b / n)
    theta[n - half:] = (np.pi - alpha[::-1]) + 1j * (b / n)[::-1]
    return theta


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 17, 32, 63, 100, 257, 511, 1024, 4096])
def test_refined_guesses_stop_where_the_full_bisection_ends(n):
    # the bisections stop once the bracket stops moving, at the full count's seeds
    assert np.array_equal(refined_guesses(n), _fixed_count_guesses(n))


# --------------------------------------------------------------- find_roots

def test_find_roots_n1_analytic():
    rs = find_roots(1, tol=1e-12)
    assert rs.n == 1
    assert rs.xs[0] == pytest.approx(-1j, abs=1e-12)
    assert rs.lambdas_unit[0] == pytest.approx(1.0, abs=1e-12)


def test_find_roots_n2_analytic_and_dense_eigensolve():
    rs = find_roots(2, tol=1e-12)
    xs = rs.xs
    expected = np.array([(1 - 1j) / 2, (-1 - 1j) / 2])
    assert np.abs(xs - expected).max() < 1e-12
    # cross-check against a dense eigensolve of the unit-step stencil
    B = np.array([[0.0, 0.5], [-1.0, 1.0]])
    lam = np.sort_complex(np.linalg.eigvals(B))
    got = np.sort_complex(rs.lambdas_unit)
    assert np.abs(lam - got).max() < 1e-12


def test_find_roots_matches_dense_eigensolve_moderate_n():
    for n in (5, 16, 33):
        B = np.zeros((n, n))
        for j in range(n - 1):
            B[j, j + 1] = 0.5
            B[j + 1, j] = -0.5
        B[n - 1, n - 2] = -1.0
        B[n - 1, n - 1] = 1.0
        lam_true = np.linalg.eigvals(B)
        lam = find_roots(n, tol=1e-12).lambdas_unit
        dist = np.abs(lam[:, None] - lam_true[None, :]).min(axis=1)
        assert dist.max() < 1e-10


def test_find_roots_iteration_counts_table_scale():
    rs = find_roots(64, tol=1e-10)
    assert rs.newton_iters.max() <= 7


def test_find_roots_iteration_counts_bounded_large_n():
    for n in (256, 1024, 8192):
        rs = find_roots(n, tol=1e-10)
        assert rs.newton_iters.max() <= 12


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64, 257])
def test_rootset_structure(n):
    rs = find_roots(n, tol=1e-11)
    x = rs.xs
    for arr in (rs.thetas, x, rs.newton_iters, rs.residuals):
        assert arr.shape == (n,)
    # all strictly in the lower half plane, modulus below 1 + 1/sqrt(2n)
    assert (x.imag < 0).all()
    assert np.abs(x).max() < 1 + 1 / np.sqrt(2 * n)
    # mirror symmetry x_{n+1-j} = -conj(x_j)
    assert np.abs(x[::-1] + np.conj(x)).max() < 1e-9
    # eigenvalues of the scaled stencil have positive real part
    assert (rs.lambdas_unit.real > 0).all()
    # |x T_n(x)| = 1 at every root
    t = cheb_eval("first", n, x)
    assert np.abs(np.abs(x * t) - 1).max() < 1e-9
    # angle brackets for the first half
    m = n // 2
    if m:
        j = np.arange(1, m + 1)
        th = rs.thetas[:m]
        assert (th.real > j * np.pi / (n + 1)).all()
        assert (th.real < j * np.pi / n).all()
        assert (th.imag > 1.0 / n**2).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 1024])
def test_find_roots_mirrors_bitwise(n):
    # Newton runs on the first ceil(n/2) indices; the rest are exact mirrors
    rs = find_roots(n)
    for arr in (rs.thetas, rs.xs, rs.newton_iters, rs.residuals):
        assert arr.shape == (n,)
    q = n // 2
    assert np.array_equal(rs.xs[n - q:][::-1], -np.conj(rs.xs[:q]))
    assert np.array_equal(rs.thetas[n - q:][::-1], np.pi - np.conj(rs.thetas[:q]))
    assert np.array_equal(rs.newton_iters[::-1], rs.newton_iters)
    assert np.array_equal(rs.residuals[::-1], rs.residuals)
    lam = rs.lambdas_unit
    assert np.array_equal(lam[::-1], np.conj(lam))
    if n % 2:
        assert rs.xs[q].real == 0.0 and rs.thetas[q].real == np.pi / 2


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
def test_mirror_roots_reads_only_the_representatives(n):
    # find_roots' arrays are mirror_roots of themselves, bitwise; the values
    # past h = ceil(n/2) are not read, and the middle root of odd n is put
    # on the axis
    rs = find_roots(n)
    names = ("thetas", "xs", "newton_iters", "residuals")
    arrays = [getattr(rs, k).copy() for k in names]
    for a in arrays:
        a[n - n // 2:] = 7
    h = n - n // 2
    if n % 2:
        arrays[0][h - 1] += 0.25
        arrays[1][h - 1] += 0.25
    got = mirror_roots(n, *arrays)
    assert got.n == n
    for k in names:
        assert getattr(got, k).tobytes() == getattr(rs, k).tobytes(), k


def test_eigenvalue_conjugate_pairing():
    for n in (6, 7, 33):
        lam = find_roots(n, tol=1e-11).lambdas_unit
        # multiset closed under conjugation
        dist = np.abs(np.conj(lam)[:, None] - lam[None, :]).min(axis=1)
        assert dist.max() < 1e-9
        n_real = int((np.abs(lam.imag) < 1e-9).sum())
        assert n_real == (1 if n % 2 == 1 else 0)


def test_rootset_cardinality_sweep():
    for n in list(range(1, 24)) + [100, 500, 2048, 4096]:
        rs = find_roots(n, tol=1e-9)
        assert rs.n == n and rs.xs.shape == (n,)
        if n > 1:
            xs = np.sort_complex(rs.xs)
            assert np.abs(np.diff(xs)).min() > 1e-12


def test_duplicate_roots_reported(monkeypatch):
    # two indices seeded in the same basin converge to the same root,
    # which surfaces as colliding x values
    def colliding_guesses(n):
        seeds = refined_guesses(n)
        seeds[1] = seeds[0]
        return seeds

    monkeypatch.setattr(chebroots, "refined_guesses", colliding_guesses)
    with pytest.raises(DuplicateRootsError):
        find_roots(8, tol=1e-10)


def test_nonconvergence_reported():
    with pytest.raises(NonConvergenceError):
        find_roots(64, tol=1e-300, max_iter=1)


def test_find_roots_rejects_bad_args():
    with pytest.raises(ValueError):
        find_roots(0)
    with pytest.raises(ValueError):
        find_roots(4, tol=-1.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        find_roots(4, tol=float("nan"))
    with pytest.raises(ValueError):
        find_roots(4, max_iter=0)
    for n in (2.5, 8.0, "8"):
        with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
            find_roots(n)
    assert find_roots(np.int64(8)).n == 8
    for tol in (np.inf, 0.0):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            find_roots(4, tol=tol)
    with pytest.raises(ValueError, match="max_iter must be >= 1 and an integer"):
        find_roots(4, max_iter=2.5)


@pytest.mark.parametrize("func", [
    lambda n: rho_and_derivative(0.3, n), refined_guesses,
], ids=["rho_and_derivative", "refined_guesses"])
def test_root_helpers_reject_non_integer_n(func):
    with pytest.raises(ValueError, match="n must be >= 1 and an integer, got 2.5"):
        func(2.5)


# ------------------------------------------------------------------- p_prime

def test_p_prime_n1_exact():
    rs = find_roots(1, tol=1e-13)
    # p_1(x) = 1 - i x has constant derivative -i
    assert p_prime(rs.thetas, 1)[0] == pytest.approx(-1j, abs=1e-12)


def test_p_prime_matches_finite_difference():
    rs = find_roots(12, tol=1e-12)
    h = 1e-6
    x = rs.xs[::3]
    got = p_prime(rs.thetas[::3], 12)

    def p(x):
        return cheb_eval("second", 11, x) - 1j * cheb_eval("first", 12, x)

    fd_re = (p(x + h) - p(x - h)) / (2 * h)
    fd_im = (p(x + 1j * h) - p(x - 1j * h)) / (2j * h)
    assert (np.abs(fd_re - got) / np.abs(got)).max() < 1e-6
    assert (np.abs(fd_im - got) / np.abs(got)).max() < 1e-6


def test_p_prime_matches_derivative_recurrence():
    # independent route: p_n'(x) = U'_{n-1}(x) - i n U_{n-1}(x)
    n = 32
    rs = find_roots(n, tol=1e-12)
    x = rs.xs

    # derivative recurrence: U'_{k+1} = 2 U_k + 2x U'_k - U'_{k-1}
    u_prev = np.ones_like(x)      # U_0
    u_cur = 2 * x                 # U_1
    du_prev = np.zeros_like(x)    # U_0'
    du_cur = 2 * np.ones_like(x)  # U_1'
    for _ in range(n - 2):
        u_prev, u_cur = u_cur, 2 * x * u_cur - u_prev
        du_prev, du_cur = du_cur, 2 * u_prev + 2 * x * du_cur - du_prev
    expected = du_cur - 1j * n * u_cur
    got = p_prime(rs.thetas, n)
    assert (np.abs(got - expected) / np.abs(expected)).max() < 1e-10


def test_p_prime_degenerate_root_raises():
    theta = np.array([1.0 + 0.1j, 1e-16 + 0j])
    with pytest.raises(DegenerateRootError, match="index 2"):
        p_prime(theta, 4)


def test_characteristic_residuals_two_routes_agree():
    rs = find_roots(128, tol=1e-11)
    trig = characteristic_residuals(rs, method="trig")
    rec = characteristic_residuals(rs, method="recurrence")
    assert trig.max() < 1e-9
    assert rec.max() < 1e-9
