"""Property tests of the decomposition: dump round-trip, the refusal of
malformed dumps with ValueError alone, the mirror symmetry of V and V^{-1},
the bitwise agreement of `decompose`'s stored halves with the dense
builders, and the cond2 estimate against the SVD; of the real steps (a) and (c),
SpectralDecomposition.apply_Vinv and apply_V, against the complex products,
and of step (c)'s skip of the imaginary rows that mirrored solves make
exactly 0; of the solvers' one-array stencil residual against the sum of
its terms; of step (b)'s chunks of rows, which change no driver's result;
and of the batched sine Laplacian solve against its per-row solve, and of
its shift check against the scan of every denominator.

Examples are derandomized and few, so the suite stays deterministic and
adds only a few seconds.
"""

import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chebpint import solver, spatial, spectral
from chebpint.chebroots import find_roots
from chebpint.errors import SingularShiftError
from chebpint.spectral import (
    build_V,
    build_Vinv_fast,
    cond2_estimate,
    decompose,
    load_decomposition,
    save_decomposition,
)
from chebpint.timedisc import (
    BlockVector,
    apply_B,
    geometric_decomposition,
    geometric_grid,
    rhs_first_order,
)

_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

_DT = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False,
                allow_infinity=False)


def _bits(dec):
    """Every field of `dec` but phase_times, the roots' arrays one by one:
    an array as its dtype, shape, memory order and bytes, a float as its
    IEEE bits (so two nan residuals compare equal)."""
    def bits(x):
        if isinstance(x, np.ndarray):
            return (x.dtype.str, x.shape, x.flags.c_contiguous,
                    x.flags.f_contiguous, x.tobytes(order="A"))
        return np.float64(x).tobytes() if isinstance(x, float) else x

    out = {f.name: bits(getattr(dec, f.name)) for f in dataclasses.fields(dec)
           if f.name not in ("phase_times", "roots")}
    out.update({f"roots.{f.name}": bits(getattr(dec.roots, f.name))
                for f in dataclasses.fields(dec.roots)})
    return out


@_SETTINGS
@given(n=st.integers(1, 300), dt=_DT, with_residual=st.booleans())
def test_dump_round_trip_is_exact(n, dt, with_residual):
    # the halves are rebuilt from the roots, as decompose builds them
    dec = decompose(n, dt, with_residual=with_residual)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dec.bin")
        save_decomposition(dec, path)
        got = load_decomposition(path)
    assert _bits(got) == _bits(dec)
    assert got.newton_iters_max == dec.newton_iters_max >= 1


@_SETTINGS
@given(n=st.integers(1, 300))
def test_vinv_rows_mirror_exactly(n):
    Vinv = build_Vinv_fast(find_roots(n))
    for j in range(n // 2):
        assert np.array_equal(Vinv[n - 1 - j], np.conj(Vinv[j])), j


@_SETTINGS
@given(n=st.integers(1, 300))
def test_v_columns_mirror_exactly(n):
    V = build_V(find_roots(n))
    for j in range(n // 2):
        assert np.array_equal(V[:, n - 1 - j], np.conj(V[:, j])), j
    if n % 2:
        assert not V[:, n // 2].imag.any()


@_SETTINGS
@given(n=st.integers(1, 300))
def test_decompose_factors_are_the_dense_builders_bitwise(n):
    # decompose's one recurrence gives the halves that build_V and
    # build_Vinv_fast mirror; tobytes compares the bits, signed zeros too
    roots = find_roots(n)
    V, Vinv = build_V(roots), build_Vinv_fast(roots)
    dec = decompose(n, 0.5, with_residual=False)
    h = n - n // 2
    for got, want in ((dec.V_half, V[:, :h]), (dec.Vinv_half, Vinv[:h]),
                      (build_V(dec.roots), V), (build_Vinv_fast(dec.roots), Vinv)):
        assert got.tobytes() == want.tobytes()


@_SETTINGS
@given(n=st.integers(1, 70), m=st.integers(1, 5), paired=st.booleans(),
       cols=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_real_steps_are_the_complex_products(n, m, paired, cols, seed):
    dec = decompose(n, 0.1, with_residual=False)
    V, Vinv = build_V(dec.roots), build_Vinv_fast(dec.roots)
    if not paired:
        dec = dataclasses.replace(dec, V_half=V, Vinv_half=Vinv)
    assert dec.q == (n // 2 if paired else 0)
    rng = np.random.default_rng(seed)
    # W is not mirrored: step (c) must give both parts of V W for any W
    W = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    W0 = W.copy()
    VW = V @ W
    scale = np.abs(VW).max()
    # chunks of `cols` columns, so most blocks cross chunk boundaries
    with mock.patch.object(spectral, "_COLUMNS", cols):
        U, im = dec.apply_V(W)
        # Re(V (-i W)) = Im(V W)
        U_imag, _ = dec.apply_V(-1j * W)
    assert np.array_equal(W, W0)                   # the input is not changed
    assert np.abs(U - VW.real).max() <= 1e-13 * scale
    assert np.abs(U_imag - VW.imag).max() <= 1e-13 * scale
    assert abs(im - np.linalg.norm(VW.imag)) <= 1e-13 * np.linalg.norm(VW)
    b = rng.normal(size=(n, m))
    G = dec.apply_Vinv(b)
    assert (np.abs(G - Vinv @ b) <= 1e-13 * (np.abs(Vinv) @ np.abs(b))).all()


@_SETTINGS
@given(n=st.integers(2, 70), m=st.integers(1, 5), cols=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_step_c_skips_only_exact_zeros(n, m, cols, seed):
    dec = decompose(n, 0.1, with_residual=False)
    V = build_V(dec.roots)
    q, h = dec.q, n - dec.q
    rng = np.random.default_rng(seed)
    # mirrored, as the solves of mirrored shifts give: w_{n-1-j} = conj(w_j)
    # and the self-paired row real
    W = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    W[q:h] = W[q:h].real
    W[h:] = np.conj(W[:q][::-1])
    with mock.patch.object(spectral, "_COLUMNS", cols):
        U, im = dec.apply_V(W)
        VW = V @ W
        assert im == 0.0
        assert np.abs(U - VW.real).max() <= 1e-13 * np.abs(VW).max()
        # one ulp in one entry of one mirrored row breaks the mirror, and
        # the imaginary part is computed in full again
        r = rng.choice(np.r_[0:q, h:n])
        c = rng.integers(m)
        re, imag = W[r, c].real, W[r, c].imag
        if rng.integers(2):
            W[r, c] = complex(np.nextafter(re, np.inf), imag)
        else:
            W[r, c] = complex(re, np.nextafter(imag, np.inf))
        _, im = dec.apply_V(W)
    VW = V @ W
    assert abs(im - np.linalg.norm(VW.imag)) <= 1e-13 * np.linalg.norm(VW)
    assert im > 0.0


@_SETTINGS
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_dump_keeps_pairs_and_solve(n, seed):
    dec = decompose(n, 0.1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dec.bin")
        save_decomposition(dec, path)
        got = load_decomposition(path)
    assert got.q == dec.q == n // 2
    rng = np.random.default_rng(seed)
    m = 3
    M = rng.normal(size=(m, m))
    op = spatial.make_dense_operator(M @ M.T + m * np.eye(m))
    rhs = rhs_first_order(rng.normal(size=m), rng.normal(size=(n, m)), 0.1)
    want = solver.solve_first_order_linear(dec, op, rhs)
    have = solver.solve_first_order_linear(got, op, rhs)
    assert np.array_equal(have.solution.values, want.solution.values)


_DUMP_FIELDS = ("n", "dt", "cond2", "residual")

#: one header token each: no space, separator or control character
_TOKEN = st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc")),
                 min_size=1, max_size=8)
#: a printable ASCII token, so that most dumps get past the ASCII check
_ASCII_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                       min_size=1, max_size=8)
_ANY_TOKEN = st.one_of(_ASCII_TOKEN, _TOKEN)


def _field_is_bad(key, value):
    """Whether `load_decomposition` must refuse `value` for the header field
    `key`: not ASCII, an n that is not an integer >= 1, a dt or cond2 that
    is not positive and finite, or a residual that is not a number >= 0 or
    nan."""
    if not value.isascii():
        return True
    if key == "n":
        return not (value.isdigit() and int(value) >= 1)
    try:
        x = float(value)
    except ValueError:
        return True
    return x < 0 if key == "residual" else not 0.0 < x < np.inf


#: numbers `decompose` never writes to the header, next to random tokens
_BAD_NUMBERS = st.sampled_from(["-1", "0", "-0.0", "nan", "inf", "-inf", "-5"])

#: what a broken payload may hold in its roots
_CORRUPTIONS = ("non-finite", "mirror", "negative", "spurious-zero",
                "middle-theta", "x-off-cos")


def _payload(draw, n, corrupt):
    """The roots of `find_roots(n)` as a dump payload, and, if `corrupt`,
    one of them broken: a value of thetas, xs or residuals made nan or
    infinite, a mirrored value of any array moved by one ulp (one count
    for newton_iters), newton_iters or residuals all negative (so that
    they still mirror), a representative theta put on the spurious zero
    theta = 0, the middle theta of an odd n moved off Re theta = pi/2 by
    one ulp, or a representative x moved off cos(theta) by 1e-6 (with its
    mirror, so that the mirror holds)."""
    roots = find_roots(n)
    arrays = {k: np.array(getattr(roots, k), dtype=t)
              for k, t in spectral._DUMP_ARRAYS.items()}
    # n = 1 has no pair, an even n no middle root
    kinds = [k for k in _CORRUPTIONS if (n > 1 or k != "mirror")
             and (n % 2 or k != "middle-theta")]
    kind = draw(st.sampled_from(kinds)) if corrupt else None
    h = n - n // 2
    if kind == "non-finite":
        flat = arrays[draw(st.sampled_from(["thetas", "xs", "residuals"]))].view(float)
        flat[draw(st.integers(0, len(flat) - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "mirror":
        name = draw(st.sampled_from(list(arrays)))
        flat = arrays[name][h:]
        flat = flat if name == "newton_iters" else flat.view(float)
        k = draw(st.integers(0, len(flat) - 1))
        step = draw(st.sampled_from([-1, 1]))
        flat[k] = (flat[k] + step if name == "newton_iters"
                   else np.nextafter(flat[k], step * np.inf))
    elif kind == "negative":
        arrays[draw(st.sampled_from(["newton_iters", "residuals"]))][:] = -draw(
            st.integers(1, 9))
    elif kind == "spurious-zero":
        arrays["thetas"][draw(st.integers(0, h - 1))] = 0.0
    elif kind == "middle-theta":
        theta = arrays["thetas"][h - 1]
        arrays["thetas"][h - 1] = complex(
            np.nextafter(theta.real, draw(st.sampled_from([-np.inf, np.inf]))),
            theta.imag)
    elif kind == "x-off-cos":
        j = draw(st.integers(0, h - 1))
        arrays["xs"][j] += draw(st.sampled_from([1e-6, -1e-6j]))
        if j < n // 2:
            arrays["xs"][n - 1 - j] = -np.conj(arrays["xs"][j])
    return b"".join(a.tobytes() for a in arrays.values())


@st.composite
def _malformed_dumps(draw):
    """A complete version-2 dump of n <= 3 with at least one part broken:
    the roots it holds (`_payload`), or up to three of the magic, the
    version, a field (dropped or given a bad value) and the payload length
    (off by up to 20 bytes), or both; its fields shuffled among random
    extra header tokens."""
    n = draw(st.integers(1, 3))
    corrupt = draw(st.booleans())
    # at most three parts besides the roots, so that many examples reach
    # the checks past the header
    parts = ("magic", "version", "length") + _DUMP_FIELDS
    broken = draw(st.sets(st.sampled_from(parts), min_size=1 - corrupt, max_size=3))
    magic, version = "chebpint-decomp", "2"
    if "magic" in broken:
        magic = draw(_ANY_TOKEN.filter(lambda t: t != "chebpint-decomp"))
    if "version" in broken:
        version = draw(_ANY_TOKEN.filter(lambda t: t != "2"))
    fields = {"n": str(n), "dt": "0.5", "cond2": "1.0", "residual": "0.0"}
    for key in broken.intersection(_DUMP_FIELDS):
        if draw(st.booleans()):
            del fields[key]
        else:
            fields[key] = draw(st.one_of(_ANY_TOKEN, _BAD_NUMBERS).filter(
                lambda t, k=key: _field_is_bad(k, t)))
    extra = draw(st.lists(
        _ASCII_TOKEN.filter(lambda t: t.partition("=")[0] not in _DUMP_FIELDS),
        max_size=3))
    tokens = draw(st.permutations([f"{k}={v}" for k, v in fields.items()] + extra))
    payload = _payload(draw, n, corrupt)
    if "length" in broken:
        delta = draw(st.integers(-20, 20).filter(bool))
        payload = payload[:delta] if delta < 0 else payload + bytes(delta)
    header = " ".join([magic, version] + tokens)
    return header.encode() + b"\n" + payload


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dump=_malformed_dumps())
def test_malformed_dump_raises_only_value_error(dump):
    # exactly ValueError: not IndexError, KeyError, TypeError or
    # UnicodeDecodeError (a ValueError subclass)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.bin")
        with open(path, "wb") as fh:
            fh.write(dump)
        try:
            load_decomposition(path)
        except Exception as exc:
            assert type(exc) is ValueError, repr(exc)
        else:
            raise AssertionError(f"loaded a malformed dump: {dump[:80]!r}")


@_SETTINGS
@given(n=st.integers(1, 400))
def test_cond2_estimate_matches_svd(n):
    roots = find_roots(n, tol=1e-11)
    V = build_V(roots)
    s = np.linalg.svd(V, compute_uv=False)
    exact = s[0] / s[-1]
    assert abs(cond2_estimate(V, build_Vinv_fast(roots)) - exact) <= 1e-2 * exact


@_SETTINGS
@given(side=st.integers(1, 40), k=st.integers(1, 70),
       seed=st.integers(0, 2**32 - 1))
def test_batched_sine_solve_is_the_per_row_solve(side, k, seed):
    # the batch maps and divides all k rows at once, each row bitwise as
    # its own one-row batch
    op = spatial.SineLaplacian2D(side, 1.0 / (side + 1))
    rng = np.random.default_rng(seed)
    sigmas = rng.uniform(0.1, 1e3, size=k) + 1j * rng.normal(scale=1e3, size=k)
    G0 = rng.normal(size=(k, op.m)) + 1j * rng.normal(size=(k, op.m))
    G = G0.copy()
    op.shifted_solve_batch(sigmas, G)
    for j in range(k):
        assert np.array_equal(G[j], op.shifted_solve(sigmas[j], G0[j])), j


class _IdentityWrapper(spatial.SpatialOperator):
    """Delegates to an operator in the identity basis and records the shifts
    of each modal batch."""

    def __init__(self, inner):
        self.inner = inner
        self.m = inner.m
        self.batches = []

    def apply(self, v):
        return self.inner.apply(v)

    def shifted_solve(self, sigma, g):
        return self.inner.shifted_solve(sigma, g)

    def modal_solve_batch(self, sigmas, G):
        self.batches.append(np.array(sigmas))
        super().modal_solve_batch(sigmas, G)


@_SETTINGS
@given(rows=st.integers(1, 9), workers=st.integers(1, 3), n=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
def test_step_b_chunks_do_not_change_results(rows, workers, n, seed):
    # step (b) in chunks of `rows` rows, where the default chunk holds all
    # n rows of a 4^2 grid: the linear drivers in the sine basis and in the
    # identity one, and SNI, bitwise as by default; every chunk the kernel
    # hands to its solves has at most `rows` rows, and each solved row is
    # in exactly one chunk per kernel run
    bench = spatial.make_benchmark("semilinear", 4, n=n, T=2.0)
    lap, m = bench.operator, bench.m
    dec = decompose(n, bench.grid.dt)
    rhs = BlockVector(np.random.default_rng(seed).normal(size=(n, m)))

    def solve_all():
        wrapper = _IdentityWrapper(lap)
        reports = [solver.solve_first_order_linear(dec, op, rhs, workers)
                   for op in (lap, wrapper)]
        if n >= 2:
            reports.append(solver.solve_second_order_linear(dec, lap, rhs, workers))
        reports.append(solver.solve_semilinear_sni(
            bench.semilinear(), dec, tol=1e-8, max_iter=40, workers=workers))
        return reports, wrapper

    runs = []
    kernel = solver._three_step

    def spy(decomp, b, solve_block, *args, **kwargs):
        chunks = []

        def block(lo, hi, Gs):
            chunks.append((lo, hi, len(Gs)))
            solve_block(lo, hi, Gs)

        U, residue = kernel(decomp, b, block, *args, **kwargs)
        runs.append(chunks)
        return U, residue

    default, _ = solve_all()
    with mock.patch.object(solver, "_BATCH_ELEMS", rows * m), \
            mock.patch.object(solver, "_three_step", spy):
        chunked, wrapper = solve_all()
    for want, got in zip(default, chunked):
        assert got.solution.values.tobytes() == want.solution.values.tobytes()
        assert got.residual_history == want.residual_history
        assert got.imag_residue == want.imag_residue
    h = n - dec.q
    linear = 3 if n >= 2 else 2
    assert len(runs) == linear + chunked[-1].iterations
    for k, chunks in enumerate(runs):
        assert all(hi - lo == size <= rows for lo, hi, size in chunks)
        solved = sorted(j for lo, hi, _ in chunks for j in range(lo, hi))
        assert solved == list(range(n if k < linear else h))
    assert all(len(sigmas) <= rows for sigmas in wrapper.batches)
    assert np.array_equal(np.sort_complex(np.concatenate(wrapper.batches)),
                          np.sort_complex(dec.eigenvalues))


@_SETTINGS
@given(n=st.integers(1, 12), side=st.integers(1, 5), order=st.sampled_from([1, 2]),
       with_f=st.booleans(), kind=st.sampled_from(["stencil", "geometric", "complex"]),
       batch=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_residual_is_the_unfused_sum(n, side, order, with_f, kind, batch, seed):
    # chunks of batch // m rows of A U, so most sums cross chunk boundaries
    rng = np.random.default_rng(seed)
    m = side**2
    if kind == "geometric":                 # B set: the trapezoidal matrix
        dec = geometric_decomposition(geometric_grid(n, 1.15, 0.01))
    else:
        dec = decompose(n, 0.1, with_residual=False)
    if kind == "complex":                   # A U, and with it r, complex
        op = spatial.DenseOperator(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    else:
        op = spatial.SineLaplacian2D(side, 1.0 / (side + 1))
    U, b = rng.normal(size=(n, m)), rng.normal(size=(n, m))
    fU = rng.normal(size=(n, m)) if with_f else None
    r = U
    for _ in range(order):
        r = apply_B(r, dec.dt) if dec.B is None else dec.B @ r
    r = r + op.apply(U)
    if with_f:
        r = r + fU
    want = np.linalg.norm(r - b) / np.linalg.norm(b)
    with mock.patch.object(solver, "_BATCH_ELEMS", batch):
        got = solver._residual(dec, op, U, b, order, fU)
    if kind == "complex":                   # a dense product in row chunks
        assert abs(got - want) <= 1e-14 * want
    else:                                   # sparse: the same sums, bitwise
        assert got == want


#: offsets from a mode -mu of the sine Laplacian: on it, next to it on the
#: real axis and 1e-13 off it, all rejected; 2e-12 and more away, accepted
_NEAR_MODE = (0.0, 1e-13, -1e-13, 1e-13j, -1e-13j, 1e-13 + 1e-13j, 2e-12,
              1e-11j, -0.5j, 3.0)


def _full_scan(op, sigma):
    """The message of the shift check that scans every denominator, or None."""
    small = np.abs(sigma + op.modes2d)
    if not small.min() < spatial._SHIFT_FLOOR:
        return None
    k = np.unravel_index(np.argmin(small), small.shape)
    return str(SingularShiftError(
        sigma, f"collides with mode {tuple(int(i) + 1 for i in k)}"))


@_SETTINGS
@given(side=st.integers(1, 6), real=st.booleans(),
       picks=st.lists(st.tuples(st.integers(0, 35), st.sampled_from(_NEAR_MODE)),
                      min_size=1, max_size=6))
def test_shift_check_rejects_what_the_full_scan_rejects(side, real, picks):
    op = spatial.SineLaplacian2D(side, 1.0 / (side + 1))
    modes = op.modes2d.ravel()
    sigmas = np.array([-modes[i % modes.size] + d for i, d in picks])
    if real:
        sigmas = sigmas.real
    want = [_full_scan(op, sigma) for sigma in sigmas]
    for sigma, msg in zip(sigmas, want):
        try:
            op.shifted_solve(sigma, np.ones(op.m))
            got = None
        except SingularShiftError as e:
            got = str(e)
        assert got == msg
    G = np.ones((len(sigmas), op.m), dtype=complex)
    try:
        op.shifted_solve_batch(sigmas, G)
        got = None
    except SingularShiftError as e:
        got = str(e)
    # the batch raises for its first rejected shift
    assert got == next((msg for msg in want if msg), None)
