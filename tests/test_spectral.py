"""Tests for the eigenvector matrix, its fast inverse, and decompositions."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from chebpint.chebroots import find_roots
from chebpint import spectral
from chebpint.errors import ChebPintError, DegenerateRootError, SingularMatrixError
from chebpint.spectral import (
    build_V,
    build_Vinv_fast,
    build_Vinv_reference,
    cond2_estimate,
    decompose,
    eigenvalue_agreement,
)
from chebpint.solver import solve_first_order_linear
from chebpint.spatial import make_dense_operator
from chebpint.timedisc import (
    BlockVector,
    apply_B,
    assemble_B,
    geometric_decomposition,
    geometric_grid,
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


@pytest.mark.parametrize("n", [1, 2, 3, 17, 96, 256, 512, 1023])
def test_vinv_fast_vs_reference_sweep(n):
    roots = find_roots(n, tol=1e-11)
    V = build_V(roots)
    fast = build_Vinv_fast(roots)
    ref = build_Vinv_reference(V)
    assert np.abs(fast - ref).max() <= 1e-6


def test_vinv_fast_decomposition_residual_n256():
    dec = decompose(256, 1.0, tol=1e-11)
    assert dec.residual <= 1e-9    # reported magnitude is ~1e-11


def test_vinv_fast_refuses_a_root_on_a_spurious_zero():
    # a representative theta on the spurious zero theta = 0, and its mirror
    # on pi, each with x = cos(theta), so that only the spurious zero is wrong
    roots = find_roots(13)
    thetas, xs = roots.thetas.copy(), roots.xs.copy()
    thetas[3], thetas[9] = 0.0, np.pi
    xs[3], xs[9] = 1.0, -1.0
    with pytest.raises(DegenerateRootError, match="index 4"):
        build_Vinv_fast(dataclasses.replace(roots, thetas=thetas, xs=xs))


def test_first_order_solves_meet_the_roundoff_model_at_every_seed():
    # criterion 10's procedure at 20 seeds: err <= 100 eps cond2(V) ||u||.
    # V^{-1} normalised by the chain-rule value -rho'(theta_j)/sin^2 theta_j
    # of p_n'(x_j) missed it at 9 of these seeds, all at n = 1024 (worst
    # ratio 1.82)
    eps = np.finfo(float).eps
    rngs = [np.random.default_rng(seed) for seed in range(20)]
    worst = np.zeros(len(rngs))
    for n in (64, 128, 256, 512, 1024):
        dec = decompose(n, 1.0, tol=1e-10)
        for s, rng in enumerate(rngs):
            M = rng.normal(size=(2, 2))
            op = make_dense_operator(M @ M.T + np.eye(2))
            u = rng.normal(size=(n, 2))
            b = apply_B(u, dec.dt) + op.apply(u)
            rep = solve_first_order_linear(dec, op, BlockVector(b))
            err = np.linalg.norm(rep.solution.values - u)
            bound = 100.0 * eps * dec.cond2 * np.linalg.norm(u)
            worst[s] = max(worst[s], err / bound)
    assert worst.max() <= 1.0, np.flatnonzero(worst > 1.0)


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
    # a zero V or a non-finite V^{-1} raises, and warns of nothing, whether
    # they are dense or the halves V[:, :h] and V^{-1}[:h]
    dec = decompose(5, 0.5, with_residual=False)
    V, Vinv = dec.V_half, dec.Vinv_half
    cases = [(np.zeros((4, 4)), np.eye(4)),
             (np.eye(4), np.full((4, 4), np.nan)),
             (np.eye(4), np.full((4, 4), np.inf)),
             (np.zeros_like(V), Vinv),
             (V, np.full_like(Vinv, np.nan)),
             (V, np.full_like(Vinv, np.inf))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for V, Vinv in cases:
            with pytest.raises(SingularMatrixError):
                cond2_estimate(V, Vinv)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 257, 512])
def test_cond2_of_the_halves_is_the_dense_cond2(n):
    # the halves (q = n//2) and the dense mirrored pair (q = 0) weight
    # different columns of the float views, and both estimate the SVD's
    dec = decompose(n, 1.0 / n, with_residual=False)
    V = build_V(dec.roots)
    dense = cond2_estimate(V, build_Vinv_fast(dec.roots))
    s = np.linalg.svd(V, compute_uv=False)
    exact = s[0] / s[-1]
    assert dec.cond2 == cond2_estimate(dec.V_half, dec.Vinv_half)
    assert abs(dec.cond2 - dense) <= 1e-4 * dense
    assert abs(dec.cond2 - exact) <= 1e-4 * exact
    assert abs(dense - exact) <= 1e-4 * exact


def test_cond2_refuses_a_complex_V_with_no_mirror():
    # the float views give the norm of Re(V V^H), which is V V^H only when
    # the self-paired columns are real or mirrored among themselves: a
    # general complex V read 4.10 where its SVD gives 5.30
    rng = np.random.default_rng(0)
    V = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    with pytest.raises(ValueError, match="neither real nor mirrored"):
        cond2_estimate(V, np.linalg.inv(V))
    # a mirrored half whose self-paired middle column is not real
    dec = decompose(7, 1.0 / 7, with_residual=False)
    V = dec.V_half.copy()
    V[1, 3] += 1e-3j
    with pytest.raises(ValueError, match=r"V\[:, 3:4\]"):
        cond2_estimate(V, dec.Vinv_half)


def test_cond2_of_the_geometric_baseline_is_the_svd():
    # real dense factors: every index its own representative, no weights
    dec = geometric_decomposition(geometric_grid(20, 1.15, 1e-2))
    s = np.linalg.svd(dec.V_half, compute_uv=False)
    exact = s[0] / s[-1]
    assert dec.q == 0
    assert abs(dec.cond2 - exact) <= 1e-4 * exact


@pytest.mark.parametrize("pair", ["dense-half", "half-dense"])
def test_cond2_refuses_a_dense_factor_with_a_half(pair):
    # q comes from V's shape, so a mixed pair would give the norm of a half
    dec = decompose(8, 0.125, with_residual=False)
    V, Vinv = build_V(dec.roots), build_Vinv_fast(dec.roots)
    V, Vinv = (V, dec.Vinv_half) if pair == "dense-half" else (dec.V_half, Vinv)
    with pytest.raises(ValueError, match="Vinv has shape"):
        cond2_estimate(V, Vinv)


@pytest.mark.parametrize("n", [1023, 1024])
def test_cond2_reads_the_halves_in_place(n):
    # beyond its inputs, only vectors: no half is mirrored, copied or
    # reversed (a dense factor would be 16 n^2 bytes)
    dec = decompose(n, 1.0 / n, with_residual=False)
    cond2_estimate(dec.V_half, dec.Vinv_half)               # warm up
    tracemalloc.start()
    try:
        cond2_estimate(dec.V_half, dec.Vinv_half)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * n * n


# --------------------------------------------------------------- decompose

def test_decompose_n1():
    dec = decompose(1, 1.0)
    assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(build_V(dec.roots) - 1).max() < 1e-13
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


def _guard_count(n):
    """The bytes `_check_memory` counts for n points: the halves, and the
    residual's chunk of _COLUMNS columns."""
    return 16 * n * n + 27 * spectral._COLUMNS * n


def test_decompose_rejects_n_beyond_physical_memory(monkeypatch):
    # the guard must fire before anything is computed or allocated
    def no_roots(*args, **kwargs):
        raise AssertionError("find_roots reached")

    monkeypatch.setattr(spectral, "find_roots", no_roots)
    n = 2**20
    with pytest.raises(ChebPintError, match=f"n={n} needs {_guard_count(n)} bytes"):
        decompose(n, 1.0)


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("with_residual", [False, True])
def test_memory_guard_counts_the_peak_of_decompose(n, with_residual):
    # without the residual, the halves (16 n^2) and O(n) beside them: cond2
    # holds no dense factor
    decompose(n, 1.0 / n, with_residual=with_residual)    # warm up the imports
    tracemalloc.start()
    try:
        decompose(n, 1.0 / n, with_residual=with_residual)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _guard_count(n) + 2**20
    assert with_residual or peak <= 18 * n * n + 2**20


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
    assert peak <= _guard_count(n) + 2**20


def test_fast_inverse_holds_one_sweep_array_next_to_its_result():
    # V^{-1} (16 n^2) next to its representative rows (8 n^2), the
    # (n+1) x n/2 recurrence array freed before: 25 n^2 measured
    n = 512
    roots = find_roots(n)
    build_Vinv_fast(roots)
    tracemalloc.start()
    try:
        build_Vinv_fast(roots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * n * n


def test_apply_V_holds_no_conjugate_half():
    # beyond W, step (c) on mirrored solves holds Re(V w) and one chunk's
    # rows: the conjugated half of the mirror check is freed before the
    # product (held through it, it would add another n x m float array)
    n, m = 64, 4096
    dec = decompose(n, 0.1, with_residual=False)
    q, h = dec.q, n - dec.q
    rng = np.random.default_rng(5)
    W = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    W[h:] = np.conj(W[:q][::-1])
    dec.apply_V(W[:, :8])                                   # warm up
    tracemalloc.start()
    try:
        U, im = dec.apply_V(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert im == 0.0 and U.shape == (n, m)
    assert peak <= 1.25 * n * m * 8 + 2 * h * spectral._COLUMNS * 8


def test_memory_guard_counts_both_modes_alike(monkeypatch):
    # one count, whether or not the residual is computed
    n = 64
    physical = [_guard_count(n)]
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
        with pytest.raises(ChebPintError, match=f"n={n} needs {_guard_count(n)} bytes"):
            decompose(n, 1.0, with_residual=with_residual)


def test_decomposition_holds_only_the_representative_halves():
    # V[:, :h] and V^{-1}[:h], 16 n^2 bytes, and O(n) beside them
    n = 512
    decompose(n, 0.1)                                       # warm up
    tracemalloc.start()
    try:
        dec = decompose(n, 0.1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dec.q == n // 2
    assert held <= 16 * n * n + 128 * n


def test_decompose_runs_the_chebyshev_recurrence_once(monkeypatch):
    # V[:, :h] and V^{-1}[:h] both come from one (n+1) x h recurrence
    calls = []
    real = spectral._chebyshev_rows

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, "_chebyshev_rows", spy)
    for with_residual in (False, True):
        calls.clear()
        decompose(9, 0.5, with_residual=with_residual)
        assert len(calls) == 1


def test_decompose_reports_layer_times():
    phases = {"find_roots", "build_V", "build_Vinv_fast", "cond2"}
    dec = decompose(16, 0.1)
    assert set(dec.phase_times) == phases | {"residual"}
    assert all(t >= 0.0 for t in dec.phase_times.values())
    assert set(decompose(16, 0.1, with_residual=False).phase_times) == phases
    assert dec.newton_iters_max >= 1


@pytest.mark.parametrize("n", [1, 2, 7, 8, 64, 257])
def test_decompose_mirrors_bitwise(n):
    dec = decompose(n, 0.1, with_residual=False)
    q = n // 2
    assert dec.q == q
    assert np.array_equal(dec.eigenvalues[n - q:][::-1], np.conj(dec.eigenvalues[:q]))
    V, Vinv = build_V(dec.roots), build_Vinv_fast(dec.roots)
    assert np.array_equal(V[:, n - q:][:, ::-1], np.conj(V[:, :q]))
    assert np.array_equal(Vinv[n - q:][::-1], np.conj(Vinv[:q]))


def _full_residual(dec, B):
    M = build_V(dec.roots) @ np.diag(dec.eigenvalues) @ build_Vinv_fast(dec.roots)
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
    monkeypatch.setattr(spectral, "_COLUMNS", 7)
    dec = decompose(n, 0.1, with_residual=False)
    B = assemble_B(n, 0.1)
    full = _full_residual(dec, B.toarray())
    V, Vinv = build_V(dec.roots), build_Vinv_fast(dec.roots)
    for q in sorted({0, 1, n // 3, n // 2}):
        if q <= n // 2:
            got = spectral.decomposition_residual(
                dec.eigenvalues, V[:, :n - q], Vinv[:n - q], B)
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
        V = build_V(dec.roots)
        rel = (np.linalg.norm(B @ V - V * dec.eigenvalues[None, :])
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

@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_factors_read_back_bitwise_as_given(n):
    # the constructor keeps the halves it is given, in C and Fortran order,
    # and n and q follow from their shapes
    roots = find_roots(n)
    V, Vinv = build_V(roots), build_Vinv_fast(roots)
    h = n - n // 2
    dec = spectral.SpectralDecomposition(
        dt=0.1, eigenvalues=roots.lambdas_unit / 0.1, V_half=V[:, :h],
        Vinv_half=Vinv[:h], cond2=1.0, residual=0.0)
    assert (dec.n, dec.q) == (n, n // 2)
    assert dec.V_half.tobytes() == V[:, :h].tobytes()
    assert dec.Vinv_half.tobytes(order="F") == Vinv[:h].tobytes(order="F")
    for name in ("n", "q"):
        with pytest.raises(AttributeError):
            setattr(dec, name, 1)


def test_decomposition_arrays_are_read_only_views():
    # an in-place write would break the mirror the constructor checked; the
    # stored arrays are views, so the caller's own arrays stay writable
    roots = find_roots(8)
    V, Vinv = build_V(roots), build_Vinv_fast(roots)
    given = {"eigenvalues": roots.lambdas_unit / 0.1,
             "V_half": V[:, :4].copy(),
             "Vinv_half": np.asfortranarray(Vinv[:4])}
    dec = spectral.SpectralDecomposition(dt=0.1, cond2=1.0, residual=0.0,
                                         **given)
    built = decompose(8, 0.1, with_residual=False)
    for name, array in given.items():
        stored = getattr(dec, name)
        assert np.shares_memory(stored, array), name
        for read_only in (stored, getattr(built, name)):
            with pytest.raises(ValueError, match="read-only"):
                read_only[0] = 0.0
        assert array.flags.writeable, name
        array[0] = 0.0
        assert np.all(stored[0] == 0.0), name


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_dense_halves_pair_nothing(n):
    # the whole matrices are halves of width n: q = 0, every index its own
    # representative, and the dense factors read back as given
    dec = decompose(n, 0.1, with_residual=False)
    V, Vinv = build_V(dec.roots), build_Vinv_fast(dec.roots)
    dense = dataclasses.replace(dec, V_half=V, Vinv_half=Vinv)
    assert (dense.n, dense.q, dec.q) == (n, 0, n // 2)
    assert dense.V_half.tobytes() == V.tobytes()
    assert dense.Vinv_half.tobytes(order="F") == Vinv.tobytes(order="F")


@pytest.mark.parametrize("field", ["eigenvalues"])
def test_decomposition_rejects_pairs_off_the_mirror(field):
    # the solves read the representatives alone, so a mirrored eigenvalue
    # that is not their conjugate would be dropped silently; the halves of
    # V and V^{-1} have no mirrored part to check
    dec = decompose(13, 0.5)
    M = getattr(dec, field).copy()
    M[10] = complex(np.nextafter(M[10].real, np.inf), M[10].imag)
    with pytest.raises(ValueError, match=f"^{field} do not mirror"):
        dataclasses.replace(dec, **{field: M})
    unpaired = dataclasses.replace(dec, V_half=build_V(dec.roots),
                                   Vinv_half=build_Vinv_fast(dec.roots),
                                   **{field: M})
    assert np.array_equal(getattr(unpaired, field), M)


@pytest.mark.parametrize("n", [2.5, 8.0, "8", True])
def test_decompose_rejects_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
        decompose(n, 0.1)


def test_vinv_is_stored_fortran_ordered():
    dec = decompose(13, 0.5)
    for d in (dec, geometric_decomposition(geometric_grid(9, 1.15, 1e-2)),
              dataclasses.replace(dec, V_half=build_V(dec.roots),
                                  Vinv_half=build_Vinv_fast(dec.roots))):
        assert d.Vinv_half.flags.f_contiguous and d.V_half.flags.c_contiguous


@pytest.mark.parametrize("field, shape, named", [
    ("eigenvalues", (4, 1), "eigenvalues"), ("V", (3, 2), "V_half"),
    ("Vinv", (3, 4), "Vinv_half"), ("V", (4, 4), "Vinv_half"),
], ids=["eigenvalues-shape0", "V-shape1", "Vinv-shape2", "V-dense"])
def test_decomposition_rejects_bad_shapes(field, shape, named):
    # the factors are given as their halves, V_half (n x h) and Vinv_half
    # (h x n), n = len(eigenvalues); with n = 4 a dense V sets h = 4, so
    # the half V^{-1} (2 x 4) is refused with it
    dec = decompose(4, 0.5)
    name = field if field == "eigenvalues" else f"{field}_half"
    with pytest.raises(ValueError, match=f"^{named} has shape"):
        dataclasses.replace(dec, **{name: np.zeros(shape, dtype=complex)})


@pytest.mark.parametrize("q", [-1, 7])
def test_decomposition_rejects_pair_count_out_of_range(q):
    # q = n - h: a V_half wider than n, or narrower than ceil(n/2), has no
    # pair count in [0, n//2]
    dec = decompose(13, 0.5)
    h = 13 - q
    with pytest.raises(ValueError, match=r"^V_half has shape .* 7 <= h <= n = 13"):
        dataclasses.replace(dec, V_half=np.zeros((13, h), dtype=complex),
                            Vinv_half=np.zeros((h, 13), dtype=complex))


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
        roots = find_roots(n)
        err = np.linalg.norm(build_V(roots) @ build_Vinv_fast(roots) - np.eye(n))
        assert err <= 1e-8 * n, f"n={n}: {err:.2e}"


def test_cond2_dominates_geometric_baseline():
    from chebpint.timedisc import geometric_decomposition, geometric_grid

    for n in (30, 40, 50):
        grid = geometric_grid(n, 1.15, 1e-2)
        geo = geometric_decomposition(grid).cond2
        new = decompose(n, grid.T / n, with_residual=False).cond2
        assert new < geo, f"n={n}"
