"""Tests for the eigenvector matrix, its fast inverse, and decompositions."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sparse

from chebpint.chebroots import find_roots
from chebpint import spectral
from chebpint.errors import ChebPintError, SingularMatrixError, ZeroPivotError
from chebpint.spectral import (
    build_V,
    build_Vinv_fast,
    build_Vinv_reference,
    cond2_estimate,
    decompose,
    eigenvalue_agreement,
    load_decomposition,
    save_decomposition,
    solve_pentadiagonal_S,
    thomas_tridiagonal,
)
from chebpint.solver import solve_first_order_linear
from chebpint.spatial import make_dense_operator
from chebpint.timedisc import (
    assemble_B,
    geometric_decomposition,
    geometric_grid,
    rhs_first_order,
)


# ----------------------------------------------------------------- build_V

def test_build_V_first_rows():
    roots = find_roots(9, tol=1e-12)
    V = build_V(roots)
    assert np.abs(V[0] - 1.0).max() < 1e-15          # U_0 = 1, i^0 = 1
    assert np.abs(V[1] - 2j * roots.xs).max() < 1e-14  # i * U_1 = 2 i x


def test_build_V_columns_are_eigenvectors_n2():
    roots = find_roots(2, tol=1e-13)
    V = build_V(roots)
    B = np.array([[0.0, 0.5], [-1.0, 1.0]])
    Sig = np.diag(roots.lambdas_unit)
    assert np.linalg.norm(B @ V - V @ Sig) < 1e-12


def test_build_V_eigen_residual_moderate_n():
    for n in (16, 63):
        roots = find_roots(n, tol=1e-12)
        V = build_V(roots)
        B = assemble_B(n, 1.0).toarray()
        Sig = np.diag(roots.lambdas_unit)
        rel = np.linalg.norm(B @ V - V @ Sig) / np.linalg.norm(B @ V)
        assert rel < 1e-11


# ------------------------------------------------------ thomas_tridiagonal

def test_thomas_identity():
    rhs = np.array([1.0, 2.0, 3.0], dtype=complex)
    out = thomas_tridiagonal(np.zeros(3), np.ones(3), np.zeros(3), rhs)
    assert np.abs(out - rhs).max() < 1e-15


def test_thomas_manufactured_solution():
    # Tridiag{1, -2, 1} applied to a known quadratic sequence
    k = np.arange(1, 9, dtype=float)
    psi = k**2
    n = len(k)
    rhs = np.empty(n)
    rhs[0] = -2 * psi[0] + psi[1]
    rhs[1:-1] = psi[:-2] - 2 * psi[1:-1] + psi[2:]
    rhs[-1] = psi[-2] - 2 * psi[-1]
    out = thomas_tridiagonal(np.ones(n), np.full(n, -2.0), np.ones(n), rhs)
    assert np.abs(out - psi).max() < 1e-10


def test_thomas_random_complex_vs_dense():
    rng = np.random.default_rng(11)
    n = 8
    lo = rng.normal(size=n) + 1j * rng.normal(size=n)
    d = rng.normal(size=n) + 1j * rng.normal(size=n) + 4.0  # diag dominant
    up = rng.normal(size=n) + 1j * rng.normal(size=n)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    A = np.diag(d) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
    expected = np.linalg.solve(A, rhs)
    got = thomas_tridiagonal(lo, d, up, rhs)
    assert np.abs(got - expected).max() / np.abs(expected).max() < 1e-12


def test_thomas_zero_pivot():
    with pytest.raises(ZeroPivotError):
        thomas_tridiagonal(np.ones(3), np.zeros(3), np.ones(3), np.ones(3))


# --------------------------------------------------------- pentadiagonal S

def _S_matrix(n):
    diag = np.full(n, 2.0)
    diag[0] = 3.0
    diag[-1] = 3.0
    S = sparse.diags([diag], [0], format="lil")
    for k in range(n - 2):
        S[k, k + 2] = -1.0
        S[k + 2, k] = -1.0
    return S.tocsr()


def test_penta_n3_hand_solution():
    b = solve_pentadiagonal_S(3)
    assert np.abs(b - np.array([0.25, 0.5j, 0.75])).max() < 1e-14


def test_penta_residual_n512():
    n = 512
    b = solve_pentadiagonal_S(n)
    rhs = np.zeros(n, dtype=complex)
    rhs[-1] = 2.0
    rhs[-2] = 1j
    assert np.linalg.norm(_S_matrix(n) @ b - rhs) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 5, 6, 33])
def test_penta_parity_structure(n):
    # the stencil (-1, 0, 2, 0, -1) decouples parities: entries sharing the
    # parity of the last index are real, the others purely imaginary
    b = solve_pentadiagonal_S(n)
    idx = np.arange(1, n + 1)
    same = (idx % 2) == (n % 2)
    assert np.abs(b[same].imag).max() == 0.0
    if n >= 2:
        assert np.abs(b[~same].real).max() == 0.0


# ----------------------------------------------------------- fast inverse

def test_vinv_fast_n1():
    roots = find_roots(1, tol=1e-13)
    V = build_V(roots)
    Vinv = build_Vinv_fast(roots)
    assert V.shape == (1, 1) and np.abs(V[0, 0] - 1) < 1e-14
    assert np.abs(Vinv[0, 0] - 1) < 1e-12


def test_vinv_fast_identity_and_reference_agreement():
    roots = find_roots(64, tol=1e-12)
    V = build_V(roots)
    Vinv = build_Vinv_fast(roots)
    assert np.linalg.norm(V @ Vinv - np.eye(64)) <= 1e-10
    ref = build_Vinv_reference(V)
    assert np.abs(Vinv - ref).max() <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 17, 96, 256, 512])
def test_vinv_fast_vs_reference_sweep(n):
    roots = find_roots(n, tol=1e-11)
    V = build_V(roots)
    fast = build_Vinv_fast(roots)
    ref = build_Vinv_reference(V)
    assert np.abs(fast - ref).max() <= 1e-6


def test_vinv_fast_decomposition_residual_n256():
    dec = decompose(256, 1.0, tol=1e-11)
    assert dec.residual <= 1e-9    # reported magnitude is ~1e-11


# ------------------------------------------------------- reference inverse

def test_reference_inverse_basics():
    assert np.abs(build_Vinv_reference(np.eye(3)) - np.eye(3)).max() < 1e-14
    got = build_Vinv_reference(np.diag([2.0, 4.0]))
    assert np.abs(got - np.diag([0.5, 0.25])).max() < 1e-14


def test_reference_inverse_residual_random():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)) + 8 * np.eye(16)
    inv = build_Vinv_reference(A)
    assert np.linalg.norm(A @ inv - np.eye(16)) < 1e-12


def test_reference_inverse_singular():
    with pytest.raises(SingularMatrixError):
        build_Vinv_reference(np.zeros((3, 3)))


# ------------------------------------------------------------------- cond2

def test_cond2_known_values():
    assert cond2_estimate(np.eye(4), np.eye(4)) == pytest.approx(1.0)
    assert cond2_estimate(np.diag([1.0, 10.0]),
                          np.diag([1.0, 0.1])) == pytest.approx(10.0)


def test_cond2_power_iteration_matches_svd():
    roots = find_roots(160, tol=1e-11)
    V = build_V(roots)
    Vinv = build_Vinv_fast(roots)
    s = np.linalg.svd(V, compute_uv=False)
    exact = s[0] / s[-1]
    estimated = cond2_estimate(V, Vinv)
    assert abs(estimated - exact) / exact < 0.01


def test_cond2_singular():
    # a zero V or a non-finite V^{-1} raises, and warns of nothing
    cases = [(np.zeros((4, 4)), np.eye(4)),
             (np.eye(4), np.full((4, 4), np.nan)),
             (np.eye(4), np.full((4, 4), np.inf))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for V, Vinv in cases:
            with pytest.raises(SingularMatrixError):
                cond2_estimate(V, Vinv)


# --------------------------------------------------------------- decompose

def test_decompose_n1():
    dec = decompose(1, 1.0)
    assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(dec.V - 1).max() < 1e-13
    assert dec.cond2 == pytest.approx(1.0)
    assert dec.residual < 1e-14


def test_decompose_n2_characteristic_polynomial():
    # eigenvalues must satisfy lambda^2 - lambda + 1/2 = 0 (trace/det of B)
    dec = decompose(2, 1.0)
    lam = dec.eigenvalues
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    assert lam.prod() == pytest.approx(0.5, abs=1e-12)


def test_decompose_scales_with_dt():
    d1 = decompose(16, 1.0)
    d2 = decompose(16, 0.25)
    assert np.abs(d2.eigenvalues - d1.eigenvalues / 0.25).max() < 1e-10
    assert d2.residual < 1e-10


@pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
def test_decompose_rejects_bad_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        decompose(4, dt)


@pytest.mark.parametrize("dt", [1e-160, 1e-200, 1e300])
def test_decompose_residual_finite_at_extreme_dt(dt):
    # unscaled, ||B||_F overflows or underflows here: a false 0.0 or a nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = decompose(8, dt).residual
    assert np.isfinite(residual)
    assert residual <= 1e-12


def test_decompose_rejects_n_beyond_physical_memory(monkeypatch):
    # the guard must fire before anything is computed or allocated
    def no_roots(*args, **kwargs):
        raise AssertionError("find_roots reached")

    monkeypatch.setattr(spectral, "find_roots", no_roots)
    n = 2**20
    with pytest.raises(ChebPintError, match=f"n={n} needs {48 * n * n} bytes"):
        decompose(n, 1.0)


@pytest.mark.parametrize("with_residual, per_n2", [(False, 48), (True, 48)])
def test_memory_guard_counts_the_peak_of_decompose(with_residual, per_n2):
    n = 512
    decompose(n, 1.0 / n, with_residual=with_residual)    # warm up the imports
    tracemalloc.start()
    try:
        decompose(n, 1.0 / n, with_residual=with_residual)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_n2 * n * n + 2**20


def test_memory_guard_counts_the_residual_of_an_odd_n():
    # the self-paired middle index must not add an n x n/2 complex block
    n = 511
    decompose(n, 1.0 / n)
    tracemalloc.start()
    try:
        decompose(n, 1.0 / n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * n * n + 2**20


def test_memory_guard_counts_both_modes_alike(monkeypatch):
    # the chunked residual stays under the build's peak: one count, 48 n^2
    n = 64
    physical = [48 * n * n]
    real_sysconf = os.sysconf

    def sysconf(name):
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": physical[0]}
        return pages.get(name) or real_sysconf(name)

    monkeypatch.setattr(spectral.os, "sysconf", sysconf)
    for with_residual in (False, True):
        assert decompose(n, 1.0, with_residual=with_residual).n == n

    def no_roots(*args, **kwargs):
        raise AssertionError("find_roots reached")

    monkeypatch.setattr(spectral, "find_roots", no_roots)
    physical[0] -= 1
    for with_residual in (False, True):
        with pytest.raises(ChebPintError, match=f"n={n} needs {48 * n * n} bytes"):
            decompose(n, 1.0, with_residual=with_residual)


def test_decompose_reports_layer_times():
    phases = {"find_roots", "build_V", "build_Vinv_fast", "cond2"}
    dec = decompose(16, 0.1)
    assert set(dec.phase_times) == phases | {"residual"}
    assert all(t >= 0.0 for t in dec.phase_times.values())
    assert set(decompose(16, 0.1, with_residual=False).phase_times) == phases


@pytest.mark.parametrize("n", [1, 2, 7, 8, 64, 257])
def test_decompose_mirrors_bitwise(n):
    dec = decompose(n, 0.1, with_residual=False)
    q = n // 2
    assert dec.q == q
    assert np.array_equal(dec.eigenvalues[n - q:][::-1], np.conj(dec.eigenvalues[:q]))
    assert np.array_equal(dec.V[:, n - q:][:, ::-1], np.conj(dec.V[:, :q]))
    assert np.array_equal(dec.Vinv[n - q:][::-1], np.conj(dec.Vinv[:q]))


def _full_residual(dec, B):
    M = dec.V @ np.diag(dec.eigenvalues) @ dec.Vinv
    return np.linalg.norm(M - B) / np.linalg.norm(B)


@pytest.mark.parametrize("n", [64, 1024])
def test_paired_residual_is_the_full_product(n):
    # the pairs' real product against the complex n x n x n product
    dec = decompose(n, 0.1)
    full = _full_residual(dec, assemble_B(n, 0.1).toarray())
    assert abs(dec.residual - full) <= 1e-6 * full + 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 300])
def test_paired_residual_over_chunks_and_pair_counts(n, monkeypatch):
    # 7-column chunks cross the stencil's diagonals; every q <= n//2 is valid
    monkeypatch.setattr(spectral, "_RESIDUAL_COLUMNS", 7)
    dec = decompose(n, 0.1, with_residual=False)
    B = assemble_B(n, 0.1)
    full = _full_residual(dec, B.toarray())
    for q in sorted({0, 1, n // 3, n // 2}):
        if q <= n // 2:
            got = spectral.decomposition_residual(dec.eigenvalues, dec.V, dec.Vinv, B, q=q)
            assert abs(got - full) <= 1e-6 * full + 4 * np.finfo(float).eps, q


def test_fold_factors_are_exact():
    # (-i)^k from a table: (-1j) ** k leaves the axes past k = 100
    k = np.arange(1024)
    fold = 0.5 * spectral._powers_of_minus_i(len(k))
    assert set(fold.tolist()) <= {0.5, -0.5j, -0.5, 0.5j}
    assert np.array_equal(fold[k % 4 == 0], np.full(256, 0.5 + 0j))
    assert np.array_equal(fold[2:], -fold[:-2])       # exactly -1 from k to k+2


def test_decompose_eigen_residual_against_independent_B():
    for n in (8, 120):
        dec = decompose(n, 0.1)
        B = assemble_B(n, 0.1).toarray()
        rel = (np.linalg.norm(B @ dec.V - dec.V * dec.eigenvalues[None, :])
               / np.linalg.norm(B))
        assert rel <= 1e-9


def test_eigenvalue_agreement_metric():
    a = np.array([1.0 + 1j, 2.0 - 1j])
    assert eigenvalue_agreement(a, a[::-1]) == 0.0
    b = a + 1e-8
    assert eigenvalue_agreement(b, a) < 1e-7


def test_decompose_agrees_with_dense_eigensolver():
    n = 48
    dec = decompose(n, 1.0)
    lam = np.linalg.eigvals(assemble_B(n, 1.0).toarray())
    assert eigenvalue_agreement(dec.eigenvalues, lam) < 1e-11


# -------------------------------------------------------------- round trip

def test_save_load_round_trip(tmp_path):
    dec = decompose(13, 0.5)
    path = tmp_path / "dec.bin"
    save_decomposition(dec, path)
    back = load_decomposition(path)
    assert back.n == dec.n
    assert back.dt == dec.dt
    assert back.cond2 == dec.cond2
    assert back.residual == dec.residual
    assert np.array_equal(back.eigenvalues, dec.eigenvalues)
    assert np.array_equal(back.V, dec.V)
    assert np.array_equal(back.Vinv, dec.Vinv)


def test_load_uses_pairs_only_where_the_dump_mirrors(tmp_path):
    # a V column off its mirror by one ulp, as the recurrence alone leaves
    # it, loads with q = 0: every index then pairs with itself
    dec = decompose(13, 0.5)
    dec.V[4, 2] = np.nextafter(dec.V[4, 2].real, 2.0) + 1j * dec.V[4, 2].imag
    path = tmp_path / "dec.bin"
    save_decomposition(dec, path)
    back = load_decomposition(path)
    assert (dec.q, back.q) == (6, 0)
    # q = 0 runs every index through the self-paired rows of steps (a)/(c)
    rng = np.random.default_rng(3)
    m = 4
    M = rng.normal(size=(m, m))
    op = make_dense_operator(M @ M.T + m * np.eye(m))
    rhs = rhs_first_order(rng.normal(size=m), rng.normal(size=(13, m)), 0.5)
    want = solve_first_order_linear(dec, op, rhs).solution.values
    have = solve_first_order_linear(back, op, rhs).solution.values
    assert np.abs(have - want).max() <= 1e-13 * np.abs(want).max()


def test_load_pairs_only_mirrored_eigenvalues(tmp_path):
    # one eigenvalue off its mirror by one ulp: the dump loads with q = 0,
    # and the residual over it is the full product
    n = 13
    dec = decompose(n, 0.5)
    dec.eigenvalues.real[2] = np.nextafter(dec.eigenvalues[2].real, 2.0)
    path = tmp_path / "dec.bin"
    save_decomposition(dec, path)
    back = load_decomposition(path)
    assert back.q == 0
    B = assemble_B(n, 0.5)
    got = spectral.decomposition_residual(back.eigenvalues, back.V, back.Vinv, B, q=back.q)
    full = _full_residual(back, B.toarray())
    assert abs(got - full) <= 1e-6 * full + 4 * np.finfo(float).eps


def test_vinv_is_stored_fortran_ordered(tmp_path):
    dec = decompose(13, 0.5)
    path = tmp_path / "dec.bin"
    save_decomposition(dec, path)
    for d in (dec, load_decomposition(path),
              geometric_decomposition(geometric_grid(9, 1.15, 1e-2)),
              dataclasses.replace(dec, q=0)):
        assert d.Vinv.flags.f_contiguous
        assert d.V.flags.c_contiguous


@pytest.mark.parametrize("field, shape", [
    ("eigenvalues", (3,)), ("V", (3, 3)), ("Vinv", (4, 3)),
])
def test_decomposition_rejects_bad_shapes(field, shape):
    dec = decompose(4, 0.5)
    with pytest.raises(ValueError, match=f"{field} has shape"):
        dataclasses.replace(dec, **{field: np.zeros(shape, dtype=complex)})


@pytest.mark.parametrize("q", [-1, 7])
def test_decomposition_rejects_pair_count_out_of_range(q):
    dec = decompose(13, 0.5)
    with pytest.raises(ValueError, match="pair count"):
        dataclasses.replace(dec, q=q)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a dump\n123")
    with pytest.raises(ValueError):
        load_decomposition(path)


@pytest.mark.parametrize("dump, message", [
    (b"", "not a chebpint decomposition dump"),
    (b"chebpint-decomp 1 dt=0.5 cond2=1.0 residual=0.0\n", "lacks the field"),
    # one complex value matches the payload size n + 2n^2 = 1 of n = -1
    (b"chebpint-decomp 1 n=-1 dt=0.5 cond2=1.0 residual=0.0\n" + bytes(16),
     "n must be >= 1"),
    (b"chebpint-decomp 1 n=1 dt=0.5 cond2=1.0 residual=\xff\n", "not ASCII"),
    # complete n = 1 payloads (3 complex values): only dt is wrong
    (b"chebpint-decomp 1 n=1 dt=-1.0 cond2=1.0 residual=0.0\n" + bytes(48),
     "dt must be positive"),
    (b"chebpint-decomp 1 n=1 dt=0.0 cond2=1.0 residual=0.0\n" + bytes(48),
     "dt must be positive"),
    (b"chebpint-decomp 1 n=1 dt=nan cond2=1.0 residual=0.0\n" + bytes(48),
     "dt must be positive"),
], ids=["empty", "no-n", "negative-n", "non-ascii", "negative-dt", "zero-dt",
        "nan-dt"])
def test_load_rejects_malformed_dump(tmp_path, dump, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(dump)
    with pytest.raises(ValueError, match=message) as exc:
        load_decomposition(path)
    assert type(exc.value) is ValueError


# ------------------------------------------------- exhaustive invariant sweeps

def test_eigen_residual_sweep_every_n_to_129():
    # B V = V D row-for-row at every size (sparse action keeps this O(n^2))
    for n in range(1, 130):
        roots = find_roots(n, tol=1e-10)
        V = build_V(roots)
        B = assemble_B(n, 1.0)
        rel = (np.linalg.norm(B @ V - V * roots.lambdas_unit[None, :])
               / max(1.0, np.linalg.norm(B.toarray())))
        assert rel <= 1e-9, f"n={n}: {rel:.2e}"


def test_eigen_residual_sampled_to_512():
    for n in (192, 384, 512):
        roots = find_roots(n, tol=1e-10)
        V = build_V(roots)
        B = assemble_B(n, 1.0)
        rel = (np.linalg.norm(B @ V - V * roots.lambdas_unit[None, :])
               / np.linalg.norm(B.toarray()))
        assert rel <= 1e-9, f"n={n}: {rel:.2e}"


def test_fast_inverse_agreement_sweep_small_n():
    for n in range(2, 65):
        roots = find_roots(n, tol=1e-11)
        fast = build_Vinv_fast(roots)
        ref = build_Vinv_reference(build_V(roots))
        assert np.abs(fast - ref).max() <= 1e-6, f"n={n}"


def test_inverse_identity_norm_scales_with_n():
    for n in (256, 1024):
        dec = decompose(n, 1.0, with_residual=False)
        err = np.linalg.norm(dec.V @ dec.Vinv - np.eye(n))
        assert err <= 1e-8 * n, f"n={n}: {err:.2e}"


def test_cond2_dominates_geometric_baseline():
    from chebpint.timedisc import geometric_decomposition, geometric_grid

    for n in (30, 40, 50):
        grid = geometric_grid(n, 1.15, 1e-2)
        geo = geometric_decomposition(grid).cond2
        new = decompose(n, grid.T / n, with_residual=False).cond2
        assert new < geo, f"n={n}"
