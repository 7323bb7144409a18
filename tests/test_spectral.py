"""Tests for the eigenvector matrix, its fast inverse, and decompositions."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from chebpint.chebroots import find_roots
from chebpint import spectral
from chebpint.errors import ChebPintError, SingularMatrixError
from chebpint.spectral import (
    build_V,
    build_Vinv_fast,
    build_Vinv_reference,
    cond2_estimate,
    decompose,
    eigenvalue_agreement,
    load_decomposition,
    save_decomposition,
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
    with pytest.raises(ChebPintError, match=f"n={n} needs {34 * n * n} bytes"):
        decompose(n, 1.0)


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("with_residual, per_n2", [(False, 34), (True, 34)])
def test_memory_guard_counts_the_peak_of_decompose(n, with_residual, per_n2):
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
    assert peak <= 34 * n * n + 2**20


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
    # one count, 34 n^2, whether or not the residual is computed
    n = 64
    physical = [34 * n * n]
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
        with pytest.raises(ChebPintError, match=f"n={n} needs {34 * n * n} bytes"):
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
    monkeypatch.setattr(spectral, "_COLUMNS", 7)
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

@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_factors_read_back_bitwise_as_given(n):
    # the constructor keeps the halves it is given, and a read of V or Vinv
    # mirrors them: the dense builders' bytes come back, in C and Fortran
    # order
    roots = find_roots(n)
    V, Vinv = build_V(roots), build_Vinv_fast(roots)
    h = n - n // 2
    dec = spectral.SpectralDecomposition(
        n=n, dt=0.1, eigenvalues=roots.lambdas_unit / 0.1, V_half=V[:, :h],
        Vinv_half=Vinv[:h], cond2=1.0, residual=0.0, q=n // 2)
    assert dec.V.flags.c_contiguous and dec.Vinv.flags.f_contiguous
    assert dec.V.tobytes() == V.tobytes()
    assert dec.Vinv.tobytes(order="F") == Vinv.tobytes(order="F")
    for name in ("V", "Vinv"):
        with pytest.raises(AttributeError):
            setattr(dec, name, V)


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
    unpaired = dataclasses.replace(dec, q=0, V_half=dec.V, Vinv_half=dec.Vinv,
                                   **{field: M})
    assert np.array_equal(getattr(unpaired, field), M)


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


def _save_with_roots(dec, path, **arrays):
    """Dump `dec` with the RootSet arrays given in place of its own."""
    roots = dataclasses.replace(dec.roots, **arrays)
    save_decomposition(dataclasses.replace(dec, roots=roots), path)


def _one_ulp_up(xs, j):
    """A copy of the complex array xs with Re xs[j] one ulp larger."""
    xs = xs.copy()
    xs[j] = complex(np.nextafter(xs[j].real, np.inf), xs[j].imag)
    return xs


def test_load_uses_pairs_only_where_the_dump_mirrors(tmp_path):
    # a dump of decompose loads with its n//2 pairs and solves bitwise as
    # the decomposition it came from; the rebuild never reads a mirrored
    # root, so one moved by one ulp is refused by the eigenvalue check
    n = 13
    dec = decompose(n, 0.5)
    path = tmp_path / "dec.bin"
    save_decomposition(dec, path)
    back = load_decomposition(path)
    assert back.q == dec.q == 6
    rng = np.random.default_rng(3)
    m = 4
    M = rng.normal(size=(m, m))
    op = make_dense_operator(M @ M.T + m * np.eye(m))
    rhs = rhs_first_order(rng.normal(size=m), rng.normal(size=(n, m)), 0.5)
    want = solve_first_order_linear(dec, op, rhs).solution.values
    have = solve_first_order_linear(back, op, rhs).solution.values
    assert np.array_equal(have, want)
    _save_with_roots(dec, path, xs=_one_ulp_up(dec.roots.xs, n - 1 - 2))
    with pytest.raises(ValueError, match="eigenvalues do not mirror"):
        load_decomposition(path)


def test_load_pairs_only_mirrored_eigenvalues(tmp_path):
    # a representative root one ulp off: the rebuild reads it, and the
    # eigenvalues it gives no longer mirror, so the dump is refused
    dec = decompose(13, 0.5)
    path = tmp_path / "dec.bin"
    _save_with_roots(dec, path, xs=_one_ulp_up(dec.roots.xs, 2))
    with pytest.raises(ValueError, match="eigenvalues do not mirror") as exc:
        load_decomposition(path)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("kind", ["nan-theta", "inf-x", "nan-residual",
                                  "theta-on-zero"])
def test_load_rejects_corrupt_roots(tmp_path, kind):
    dec = decompose(13, 0.5)
    arrays = {k: getattr(dec.roots, k).copy() for k in ("thetas", "xs", "residuals")}
    if kind == "nan-theta":
        arrays["thetas"][1] = complex(1.0, np.nan)
    elif kind == "inf-x":
        arrays["xs"][12] = np.inf
    elif kind == "nan-residual":
        arrays["residuals"][6] = np.nan
    else:
        arrays["thetas"][3] = 0.0               # a representative index
    path = tmp_path / "dec.bin"
    _save_with_roots(dec, path, **arrays)
    message = "spurious zero" if kind == "theta-on-zero" else "not all finite"
    with pytest.raises(ValueError, match=message) as exc:
        load_decomposition(path)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("n", [1, 8, 13])
def test_save_writes_the_header_and_the_roots(tmp_path, n):
    dec = decompose(n, 0.5)
    path = tmp_path / "dec.bin"
    save_decomposition(dec, path)
    header = (f"chebpint-decomp 2 n={n} dt={dec.dt!r} cond2={dec.cond2!r} "
              f"residual={dec.residual!r}\n").encode("ascii")
    r = dec.roots
    payload = b"".join(np.asarray(a, dtype=t).tobytes() for a, t in (
        (r.thetas, "<c16"), (r.xs, "<c16"), (r.newton_iters, "<i8"),
        (r.residuals, "<f8")))
    assert len(payload) == 48 * n
    assert path.read_bytes() == header + payload


def test_load_holds_no_more_than_the_rebuild(tmp_path):
    # the roots, then the (n+1) x h recurrence and V^{-1}[:h], as in
    # decompose without its diagnostics: 17.6 n^2 measured at n = 512
    n = 512
    path = tmp_path / "dec.bin"
    save_decomposition(decompose(n, 0.1, with_residual=False), path)
    load_decomposition(path)                                # warm up
    tracemalloc.start()
    try:
        load_decomposition(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * n * n + 2**20


def test_load_rejects_n_beyond_physical_memory(monkeypatch, tmp_path):
    # the guard must fire before the payload is read or anything is built
    def no_rows(*args, **kwargs):
        raise AssertionError("_chebyshev_rows reached")

    monkeypatch.setattr(spectral, "_chebyshev_rows", no_rows)
    n = 2**20
    path = tmp_path / "big.bin"
    path.write_bytes(f"chebpint-decomp 2 n={n} dt=1.0 cond2=1.0 "
                     f"residual=0.0\n".encode("ascii"))
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size + 48 * n)           # zeros, sparse
    tracemalloc.start()
    try:
        with pytest.raises(ChebPintError, match=f"n={n} needs {34 * n * n} bytes"):
            load_decomposition(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_load_refuses_trailing_bytes_without_reading_them(tmp_path):
    path = tmp_path / "dec.bin"
    save_decomposition(decompose(4, 0.5), path)
    tail = 50 * 2**20
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size + tail)             # zeros, sparse
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"dump has {tail} trailing bytes "
                                             f"after its 192 payload bytes"):
            load_decomposition(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_save_refuses_a_decomposition_with_its_own_B(tmp_path):
    # the dump stores the roots, and the geometric baseline, which carries
    # its own trapezoidal matrix B, has none
    path = tmp_path / "geo.bin"
    with pytest.raises(ValueError, match="without roots"):
        save_decomposition(geometric_decomposition(geometric_grid(10, 1.15, 1e-2)), path)
    assert not path.exists()


@pytest.mark.parametrize("n", [2.5, 8.0, "8", True])
def test_decompose_rejects_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be >= 1 and an integer"):
        decompose(n, 0.1)


def test_vinv_is_stored_fortran_ordered(tmp_path):
    dec = decompose(13, 0.5)
    path = tmp_path / "dec.bin"
    save_decomposition(dec, path)
    for d in (dec, load_decomposition(path),
              geometric_decomposition(geometric_grid(9, 1.15, 1e-2)),
              dataclasses.replace(dec, q=0, V_half=dec.V, Vinv_half=dec.Vinv)):
        assert d.Vinv_half.flags.f_contiguous and d.Vinv.flags.f_contiguous
        assert d.V_half.flags.c_contiguous and d.V.flags.c_contiguous


@pytest.mark.parametrize("field, shape", [
    ("eigenvalues", (3,)), ("V", (4, 4)), ("Vinv", (3, 4)),
])
def test_decomposition_rejects_bad_shapes(field, shape):
    # the factors are given as their halves, V_half (n x h) and Vinv_half
    # (h x n); with n = 4 and h = 2 a dense V is refused too
    dec = decompose(4, 0.5)
    name = field if field == "eigenvalues" else f"{field}_half"
    with pytest.raises(ValueError, match=f"{name} has shape"):
        dataclasses.replace(dec, **{name: np.zeros(shape, dtype=complex)})


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
    (b"chebpint-decomp 2 dt=0.5 cond2=1.0 residual=0.0\n", "lacks the field"),
    (b"chebpint-decomp 2 n=-1 dt=0.5 cond2=1.0 residual=0.0\n" + bytes(16),
     "n must be >= 1"),
    (b"chebpint-decomp 2 n=1 dt=0.5 cond2=1.0 residual=\xff\n", "not ASCII"),
    # complete n = 1 payloads (48 bytes): only the header is wrong
    (b"chebpint-decomp 2 n=1 dt=-1.0 cond2=1.0 residual=0.0\n" + bytes(48),
     "dt must be positive"),
    (b"chebpint-decomp 2 n=1 dt=0.0 cond2=1.0 residual=0.0\n" + bytes(48),
     "dt must be positive"),
    (b"chebpint-decomp 2 n=1 dt=nan cond2=1.0 residual=0.0\n" + bytes(48),
     "dt must be positive"),
    # a complete n = 4 dump holds 192 payload bytes; these are cut short
    # by one complex value and by half of one
    (b"chebpint-decomp 2 n=4 dt=0.5 cond2=1.0 residual=0.0\n" + bytes(176),
     "truncated dump"),
    (b"chebpint-decomp 2 n=4 dt=0.5 cond2=1.0 residual=0.0\n" + bytes(184),
     "truncated dump"),
    (b"chebpint-decomp 2 n=2.5 dt=0.5 cond2=1.0 residual=0.0\n" + bytes(48),
     "n must be >= 1 and an integer, got '2.5'"),
    (b"chebpint-decomp 2 n=abc dt=0.5 cond2=1.0 residual=0.0\n" + bytes(48),
     "n must be >= 1 and an integer, got 'abc'"),
    (b"chebpint-decomp 2 n=1 dt=abc cond2=1.0 residual=0.0\n" + bytes(48),
     "dump header dt is not a number: 'abc'"),
    (b"chebpint-decomp 2 n=1 dt=0.5 cond2=abc residual=0.0\n" + bytes(48),
     "dump header cond2 is not a number: 'abc'"),
    (b"chebpint-decomp 2 n=1 dt=0.5 cond2=1.0 residual=abc\n" + bytes(48),
     "dump header residual is not a number: 'abc'"),
    # values decompose never writes: its cond2 is positive and finite, its
    # residual >= 0, or nan when skipped
    (b"chebpint-decomp 2 n=1 dt=0.5 cond2=-1.0 residual=0.0\n" + bytes(48),
     "cond2 must be positive and finite"),
    (b"chebpint-decomp 2 n=1 dt=0.5 cond2=0.0 residual=0.0\n" + bytes(48),
     "cond2 must be positive and finite"),
    (b"chebpint-decomp 2 n=1 dt=0.5 cond2=nan residual=0.0\n" + bytes(48),
     "cond2 must be positive and finite"),
    (b"chebpint-decomp 2 n=1 dt=0.5 cond2=inf residual=0.0\n" + bytes(48),
     "cond2 must be positive and finite"),
    (b"chebpint-decomp 2 n=1 dt=0.5 cond2=1.0 residual=-5.0\n" + bytes(48),
     "residual must be >= 0 or nan"),
    # a complete n = 1 header over zeros: theta = 0 is no root
    (b"chebpint-decomp 2 n=1 dt=0.5 cond2=1.0 residual=0.0\n" + bytes(48),
     "spurious zero"),
    # version 1 stored the dense factors (16 (n + 2n^2) bytes)
    (b"chebpint-decomp 1 n=1 dt=0.5 cond2=1.0 residual=0.0\n" + bytes(48),
     "dump version 1 is not read.*re-run `chebpint decompose --dump`"),
], ids=["empty", "no-n", "negative-n", "non-ascii", "negative-dt", "zero-dt",
        "nan-dt", "truncated", "truncated-mid-value", "fractional-n", "text-n",
        "text-dt", "text-cond2", "text-residual", "negative-cond2", "zero-cond2",
        "nan-cond2", "inf-cond2", "negative-residual", "zero-payload", "version-1"])
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
