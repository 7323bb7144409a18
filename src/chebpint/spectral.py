"""Spectral decomposition of the time stencil: V, V^{-1}, D and diagnostics.

The unit-step stencil matrix has eigenvector columns p_j with entries
``p_{j,k} = i^k U_k(x_j)`` (k = 0..n-1), so V factors as ``V = I_diag @ Phi``
with ``I_diag = diag(i^0..i^{n-1})`` and ``Phi`` a Vandermonde-like matrix of
second-kind Chebyshev values at the roots x_j.

``build_Vinv_fast`` computes V^{-1} in O(n^2) through the structure of Phi:

1. one sparse pentadiagonal solve S_n b = (0,..,0,i,2)^T, which decouples by
   index parity into two tridiagonal systems (O(n));
2. for each root, a tridiagonal solve Tridiag{1, -2*x_j, 1} psi_j = 2*b/p_n'(x_j)
   with zero closure on both ends (O(n) apiece, O(n^2) total);
3. W = 0.5 * Psi @ S_n and V^{-1} = W @ diag((-i)^k).

Step 2 is vectorized across roots; the mirror symmetry x_{n+1-j} = -conj(x_j)
implies psi_{n+1-j,k} = (-1)^(k+1) * conj(psi_{j,k}), so only ceil(n/2) sweeps
are actually run.  An O(n^3) dense inversion (`build_Vinv_reference`) is kept
as the independent cross-check path.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .chebroots import RootSet, find_roots, p_prime
from .errors import ChebPintError, SingularMatrixError, ZeroPivotError

__all__ = [
    "SpectralDecomposition",
    "build_V",
    "thomas_tridiagonal",
    "solve_pentadiagonal_S",
    "build_Vinv_fast",
    "build_Vinv_reference",
    "cond2_estimate",
    "eigenvalue_agreement",
    "decompose",
    "save_decomposition",
    "load_decomposition",
]

_PIVOT_FLOOR = 1e-300


def build_V(roots: RootSet):
    """Dense eigenvector matrix V[k, j] = i^k U_k(x_j), columns mirrored
    exactly.

    Times i^k, the recurrence U_k = 2x U_{k-1} - U_{k-2} reads
    P_k = 2ix P_{k-1} + P_{k-2}, which gives i^k U_k with no scaling pass.
    It runs on the h = ceil(n/2) representative columns only: `find_roots`
    makes x_{n-1-j} = -conj(x_j) bitwise, so v_{n-1-j} = conj(v_j) exactly,
    and the other columns are filled as those conjugates.  For odd n the
    middle root has Re x = 0, so 2ix and its column are real.  The real
    steps (a)/(c) of the solver rely on V[:, n-1-j] == conj(V[:, j]).
    """
    n = roots.n
    q = n // 2
    V = np.empty((n, n), dtype=complex)
    P = V[:, :n - q]
    P[0] = 1.0
    x2i = 2j * roots.xs[:n - q]
    if n > 1:
        P[1] = x2i
    for k in range(2, n):
        np.multiply(x2i, P[k - 1], out=P[k])
        P[k] += P[k - 2]
    np.conj(V[:, :q][:, ::-1], out=V[:, n - q:])
    return V


def thomas_tridiagonal(lower, diag, upper, rhs):
    """Solve a single tridiagonal system by the Thomas sweep.

    ``lower[k]`` multiplies x[k-1] in row k (lower[0] ignored), ``upper[k]``
    multiplies x[k+1] (upper[-1] ignored).  No pivoting; raises
    ZeroPivotError when an elimination pivot underflows.
    """
    d = np.asarray(diag, dtype=complex)
    lo = np.asarray(lower, dtype=complex)
    up = np.asarray(upper, dtype=complex)
    b = np.asarray(rhs, dtype=complex)
    k = d.shape[0]
    if not (lo.shape[0] == up.shape[0] == b.shape[0] == k):
        raise ValueError("lower, diag, upper, rhs must have equal length")
    cp = np.empty(k, dtype=complex)
    dp = np.empty(k, dtype=complex)
    piv = d[0]
    if abs(piv) < _PIVOT_FLOOR:
        raise ZeroPivotError(0)
    cp[0] = up[0] / piv
    dp[0] = b[0] / piv
    for i in range(1, k):
        piv = d[i] - lo[i] * cp[i - 1]
        if abs(piv) < _PIVOT_FLOOR:
            raise ZeroPivotError(i)
        cp[i] = up[i] / piv
        dp[i] = (b[i] - lo[i] * dp[i - 1]) / piv
    x = np.empty(k, dtype=complex)
    x[-1] = dp[-1]
    for i in range(k - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def solve_pentadiagonal_S(n):
    """Solve S_n b = (0,...,0,i,2)^T in O(n).

    S_n has diagonal (3,2,...,2,3), zeros on the first off-diagonals and -1
    on the second off-diagonals, so even and odd indices decouple into two
    independent tridiagonal systems handled by the Thomas sweep.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    rhs = np.zeros(n, dtype=complex)
    rhs[-1] = 2.0
    if n >= 2:
        rhs[-2] = 1j
    b = np.empty(n, dtype=complex)
    for parity in (0, 1):
        idx = np.arange(parity, n, 2)
        k = idx.size
        if k == 0:
            continue
        diag = np.full(k, 2.0, dtype=complex)
        if idx[0] == 0:
            diag[0] = 3.0
        if idx[-1] == n - 1:
            diag[-1] = 3.0
        off = np.full(k, -1.0, dtype=complex)
        b[idx] = thomas_tridiagonal(off, diag, off, rhs[idx])
    return b


def _vectorized_thomas_constant(x_vals, rhs, check_pivots=False):
    """Solve Tridiag{1, -2*x_j, 1} phi_j = rhs for many x_j at once.

    All systems share the rhs and the unit off-diagonals; only the constant
    diagonal -2*x_j differs, so the forward/backward sweeps run as length-n
    vector operations across the systems.  Returns phi with phi[k, j] the
    k-th component of system j.

    The happy path skips per-step pivot tests (a vanishing pivot surfaces as
    non-finite output); on failure the sweep reruns with checks enabled to
    report which elimination step broke.
    """
    n = rhs.shape[0]
    nsys = x_vals.shape[0]
    d = -2.0 * x_vals
    cp = np.empty((n, nsys), dtype=complex)
    phi = np.empty((n, nsys), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if check_pivots and np.abs(d).min() < _PIVOT_FLOOR:
            raise ZeroPivotError(0)
        inv = 1.0 / d
        cp[0] = inv
        phi[0] = rhs[0] * inv
        for k in range(1, n):
            den = d - cp[k - 1]
            if check_pivots and np.abs(den).min() < _PIVOT_FLOOR:
                raise ZeroPivotError(k)
            inv = 1.0 / den
            cp[k] = inv
            phi[k] = (rhs[k] - phi[k - 1]) * inv
        for k in range(n - 2, -1, -1):
            phi[k] -= cp[k] * phi[k + 1]
    if not check_pivots and not np.isfinite(phi).all():
        return _vectorized_thomas_constant(x_vals, rhs, check_pivots=True)
    return phi


def _powers_of_minus_i(n):
    """(-i)^k for k = 0..n-1, exactly on the axes.  `(-1j) ** k` is not
    exact past k = 100 (off by up to 1.7e-13 at n = 1024)."""
    return np.array([1, -1j, -1, 1j])[np.arange(n) % 4]


def build_Vinv_fast(roots: RootSet):
    """V^{-1} in O(n^2) via the pentadiagonal/tridiagonal factor structure.

    The result is Fortran-ordered, the layout SpectralDecomposition stores
    V^{-1} in, so `decompose` hands it over without a copy.
    """
    n = roots.n
    x = roots.xs
    b = solve_pentadiagonal_S(n)
    dp = p_prime(roots.thetas, n)
    nhalf = (n + 1) // 2

    phi = _vectorized_thomas_constant(x[:nhalf], b)      # phi[k, j], j < nhalf
    phi *= (2.0 / dp[:nhalf])[None, :]
    # Fold 0.5 * I^{-1} = 0.5 diag((-i)^k) into the rows up front.  S_n only
    # couples k with k +- 2, where (-i)^k differs by exactly -1, so its -1
    # off-band entries become +1 after the fold, and the mirror relation
    # psi_{n+1-j,k} = (-1)^(k+1) conj(psi_{j,k}) collapses to a plain
    # conjugation of whole rows of the result.
    phi *= (0.5 * _powers_of_minus_i(n))[:, None]
    dcoef = np.full(n, 2.0)
    dcoef[0] = 3.0
    dcoef[-1] = 3.0
    Y = phi * dcoef[:, None]
    if n > 2:
        Y[:-2] += phi[2:]
        Y[2:] += phi[:-2]

    W = np.empty((n, n), dtype=complex, order="F")       # rows indexed by j
    W[:nhalf] = Y.T
    if n > nhalf:
        np.conj(W[: n - nhalf][::-1], out=W[nhalf:])    # no n x n/2 temporary
    return W


def build_Vinv_reference(V):
    """Dense O(n^3) inverse (LU with partial pivoting): the cross-check path."""
    V = np.asarray(V)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("V must be square")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(V)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularMatrixError(str(exc)) from exc
    if np.abs(np.diag(lu)).min() < _PIVOT_FLOOR:
        raise SingularMatrixError("LU pivot underflow")
    return scipy.linalg.lu_solve((lu, piv), np.eye(V.shape[0], dtype=V.dtype))


def _norm2(M, iters=200, rtol=5e-5, seed=7):
    """||M||_2 by power iteration on M^H M from a seeded random start.

    Both half-steps are normalized, so no intermediate exceeds ||M||_2 and a
    finite M gives a finite norm.  Stops once consecutive estimates agree to
    rtol (5e-5 on the norm is 1e-4 on its square).  Returns a zero or
    non-finite value, silently, for a zero or non-finite M.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=M.shape[1]) + 1j * rng.normal(size=M.shape[1])
    z /= np.linalg.norm(z)
    prev = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(iters):
            y = M @ z
            a = np.linalg.norm(y)
            if not 0.0 < a < np.inf:
                return a
            w = np.conj(np.conj(y / a) @ M)      # M^H M z / a without forming M^H
            b = np.linalg.norm(w)
            est = np.sqrt(a) * np.sqrt(b)
            z = w / b
            if abs(est - prev) <= rtol * est:
                break
            prev = est
    return est


def cond2_estimate(V, Vinv):
    """2-norm condition number ||V||_2 ||V^{-1}||_2 from V and its inverse.

    Power iteration on V^H V gives sigma_max(V) and on V^{-H} V^{-1} gives
    1/sigma_min(V): O(n^2) per iteration, no factorization.  The estimate
    approaches each norm from below; against the full SVD it is within 1e-2
    relative for every n up to 400 and within 1e-4 at the n of the
    growth-law diagnostics.
    Raises SingularMatrixError for a zero V or a non-finite V^{-1}.
    """
    smax = _norm2(np.asarray(V))
    smax_inv = _norm2(np.asarray(Vinv))
    if not (0.0 < smax < np.inf and 0.0 < smax_inv < np.inf):
        raise SingularMatrixError("V or V^{-1} is zero or not finite")
    return float(smax * smax_inv)


def eigenvalue_agreement(computed, reference):
    """Relative nearest-neighbor distance between two eigenvalue multisets.

    Complex spectra have no canonical order, so each computed eigenvalue is
    matched to its nearest reference partner:
    sqrt(sum_j min_k |c_j - r_k|^2) / ||r||_2.
    """
    c = np.asarray(computed).ravel()
    r = np.asarray(reference).ravel()
    dists = np.abs(c[:, None] - r[None, :]).min(axis=1)
    return float(np.linalg.norm(dists) / np.linalg.norm(r))


@dataclass(eq=False)
class SpectralDecomposition:
    """B = V D V^{-1} for the n-point stencil with step dt.

    eigenvalues[j] = i*x_j/dt; V and Vinv are dense complex matrices;
    cond2 estimates Cond_2(V); residual is ||B - V D V^{-1}||_F / ||B||_F.

    q counts the conjugate pairs: for j < q, eigenvalue n-1-j, column n-1-j
    of V and row n-1-j of Vinv are bitwise the conjugates of eigenvalue j,
    column j and row j; every other index pairs with itself.  `decompose`
    has q = n//2, the real geometric baseline q = 0 (always valid, it just
    saves nothing).  The solver's steps (a)/(c) and `decomposition_residual`
    use the pairs.

    phase_times holds the seconds of each layer of `decompose` (find_roots,
    build_V, build_Vinv_fast, cond2 and, when computed, residual); it is
    empty for a loaded or geometric decomposition.

    V and Vinv are the only copy of the factors: the solver's real steps
    (a) and (c) read them through float views.  V is C-ordered, so
    V[:, :h].view(float) interleaves Re V_k and Im V_k as columns; Vinv is
    stored Fortran-ordered, so Vinv[:h].T.view(float).T interleaves
    Re Vinv[k] and Im Vinv[k] as rows of a strided BLAS operand.  Neither
    view copies.  Instances are treated as immutable and may be shared
    across workers.
    """

    n: int
    dt: float
    eigenvalues: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    cond2: float
    residual: float
    roots: RootSet | None = None
    q: int = 0
    phase_times: dict = field(default_factory=dict)

    def __post_init__(self):
        n, q = self.n, self.q
        for name, shape in (("eigenvalues", (n,)), ("V", (n, n)), ("Vinv", (n, n))):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape} for n={n}")
        if not 0 <= q <= n // 2:
            raise ValueError(f"pair count q={q} is not in [0, n//2] for n={n}")
        self.V = np.ascontiguousarray(self.V, dtype=complex)
        self.Vinv = np.asfortranarray(self.Vinv, dtype=complex)

    @property
    def newton_iters_max(self):
        return int(self.roots.newton_iters.max()) if self.roots is not None else -1


#: Columns of V^{-1} per chunk of the paired residual product.
_RESIDUAL_COLUMNS = 256


def decomposition_residual(eigenvalues, V, Vinv, B, q=0):
    """||B - V diag(eigenvalues) V^{-1}||_F / ||B||_F for the real stencil
    matrix B, sparse or dense; only its nonzero entries are touched.

    B and the eigenvalues are divided by s = max|B| first: the ratio does
    not change, and the norms neither overflow nor underflow for any dt.

    q is the pair count of `SpectralDecomposition`.  With q = 0 (the
    default, which assumes no structure) V D V^{-1} is the full complex
    product.  Otherwise, with h = n - q, column v_k of V, row w_k of V^{-1}
    and y_k = lambda_k w_k, each pair j < q adds 2 Re(v_j y_j) and each
    self-paired index k in [q, h) adds v_k y_k.  As in the solver's step
    (c), the float view Vf = V[:, :h].view(float) has the columns Re v_k and
    Im v_k, so the real part of V D V^{-1} is the real product Vf @ X with
    the rows X[2k] = c_k Re y_k and X[2k+1] = -c_k Im y_k (c_k = 2 for a
    pair, 1 otherwise): 2n^3 flops instead of 8n^3.  The imaginary part
    comes from the self-paired indices alone, Vf[:, 2q:] @ Z with the rows
    Z[2(k-q)] = Im y_k and Z[2(k-q)+1] = Re y_k (rank n % 2 for
    `decompose`).  V must be C-ordered.  The product runs in chunks of _RESIDUAL_COLUMNS
    columns of V^{-1}, each minus the entries of B (in CSC form) in its
    columns, so no n x n temporary is formed.
    """
    B = scipy.sparse.csc_array(B) if q else scipy.sparse.coo_array(B)
    s = np.abs(B.data).max()
    data = B.data / s
    lam = np.asarray(eigenvalues) / s
    if q == 0:
        M = (V * lam[None, :]) @ Vinv
        M[B.row, B.col] -= data
        return float(np.linalg.norm(M) / np.linalg.norm(data))
    n = len(lam)
    h = n - q
    Vf = V[:, :h].view(float)
    c_lam = lam[:h, None].copy()
    c_lam[:q] *= 2.0
    ptr = B.indptr
    sq = 0.0
    for lo in range(0, n, _RESIDUAL_COLUMNS):
        hi = min(lo + _RESIDUAL_COLUMNS, n)
        Y = c_lam * Vinv[:h, lo:hi]
        X = np.empty((2 * h, hi - lo))
        X[0::2] = Y.real
        np.negative(Y.imag, out=X[1::2])
        Z = np.empty((2 * (h - q), hi - lo))
        Z[0::2] = Y.imag[q:]
        Z[1::2] = Y.real[q:]
        # at most two n x chunk arrays live at a time within a chunk
        del Y
        M = Vf @ X
        del X
        if h > q:
            T = Vf[:, 2 * q:] @ Z
            sq += np.vdot(T, T)
            del T
        a, b = ptr[lo], ptr[hi]
        cols = np.repeat(np.arange(hi - lo), np.diff(ptr[lo:hi + 1]))
        M[B.indices[a:b], cols] -= data[a:b]
        sq += np.vdot(M, M)
    return float(np.sqrt(sq) / np.linalg.norm(data))


def _check_memory(n):
    """Raise ChebPintError when the peak of `decompose` exceeds physical
    memory (skipped where os.sysconf cannot tell).

    The peak is measured (tracemalloc, n = 512 and 1024): 48 n^2 bytes
    while `build_Vinv_fast` runs next to V (V and V^{-1} at 16 n^2 each,
    two n x n/2 work arrays).  The residual stays within it: next to V and
    V^{-1}, a chunk of c columns holds at most two n x c float arrays, plus
    the previous chunk's product while the next one starts.  With c = 256
    that is 16 n^2 for the single chunk of an n <= 256 and 12 n^2 at
    n = 512.  Afterwards the decomposition holds 32 n^2.
    """
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    need = 48 * int(n) ** 2
    physical = page * pages
    if page > 0 and pages > 0 and need > physical:
        raise ChebPintError(
            f"n={n} needs {need} bytes at the peak of decompose, more than the "
            f"{physical} bytes of physical memory"
        )


def _timed(times, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), its seconds stored as times[name]."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    times[name] = time.perf_counter() - t0
    return out


def decompose(n, dt, tol=1e-10, max_iter=50, with_residual=True):
    """Full spectral decomposition of the n-point stencil matrix B.

    Roots come from `find_roots`, V from the Chebyshev column formula, V^{-1}
    from the fast O(n^2) path, cond2 from `cond2_estimate`.  The roots,
    and with them the eigenvalues and both factors, mirror exactly, so all
    n//2 conjugate pairs are used (q = n//2), by the residual against
    `assemble_B(n, dt)` too.  The residual is skipped (nan) with
    `with_residual=False`.  The seconds of each layer are kept in
    `phase_times`.  An n whose peak memory (`_check_memory`) cannot fit in
    physical memory raises ChebPintError before anything is allocated.
    """
    from .timedisc import assemble_B

    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    _check_memory(n)
    times = {}
    q = n // 2
    roots = _timed(times, "find_roots", find_roots, n, tol=tol, max_iter=max_iter)
    V = _timed(times, "build_V", build_V, roots)
    Vinv = _timed(times, "build_Vinv_fast", build_Vinv_fast, roots)
    eigenvalues = roots.lambdas_unit / dt
    cond2 = _timed(times, "cond2", cond2_estimate, V, Vinv)
    residual = float("nan")
    if with_residual:
        residual = _timed(times, "residual", decomposition_residual,
                          eigenvalues, V, Vinv, assemble_B(n, dt), q=q)
    return SpectralDecomposition(
        n=n,
        dt=float(dt),
        eigenvalues=eigenvalues,
        V=V,
        Vinv=Vinv,
        cond2=cond2,
        residual=residual,
        roots=roots,
        q=q,
        phase_times=times,
    )


_DUMP_MAGIC = "chebpint-decomp"
_DUMP_VERSION = 1


def save_decomposition(dec, path):
    """Dump (n, dt, eigenvalues, V, V^{-1}) to a versioned binary file.

    One ASCII header line, then IEEE-754 little-endian doubles: eigenvalues,
    V, V^{-1}, each as row-major (re, im) pairs.  The pair count q is not
    stored: `load_decomposition` derives it from V and V^{-1}.
    """
    header = (
        f"{_DUMP_MAGIC} {_DUMP_VERSION} n={dec.n} dt={dec.dt!r} "
        f"cond2={dec.cond2!r} residual={dec.residual!r}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for arr in (dec.eigenvalues, dec.V, dec.Vinv):
            fh.write(np.ascontiguousarray(arr, dtype=np.complex128)
                     .astype("<c16", copy=False).tobytes())


def load_decomposition(path):
    """Read a decomposition dump written by `save_decomposition`.

    q is n//2 if the pairs of eigenvalues, V columns and V^{-1} rows are
    bitwise conjugate, and 0 otherwise.  Raises ValueError for anything
    that is not a complete dump.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = line.decode("ascii").strip()
        except UnicodeDecodeError:
            raise ValueError(f"dump header is not ASCII: {line[:80]!r}") from None
        parts = header.split()
        if (len(parts) < 2 or parts[0] != _DUMP_MAGIC
                or parts[1] != str(_DUMP_VERSION)):
            raise ValueError(f"not a chebpint decomposition dump: {header!r}")
        fields = dict(p.partition("=")[::2] for p in parts[2:])
        missing = [k for k in ("n", "dt", "cond2", "residual") if k not in fields]
        if missing:
            raise ValueError(
                f"dump header lacks the field(s) {', '.join(missing)}: {header!r}"
            )
        n = int(fields["n"])
        if n < 1:
            raise ValueError(f"dump header has n={n}, but n must be >= 1")
        dt = float(fields["dt"])
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(
                f"dump header has dt={dt!r}, but dt must be positive and finite"
            )
        cond2 = float(fields["cond2"])
        residual = float(fields["residual"])
        payload = np.frombuffer(fh.read(), dtype="<c16")
    expected = n + 2 * n * n
    if payload.size != expected:
        raise ValueError(
            f"truncated dump: expected {expected} complex values, got {payload.size}"
        )
    eigenvalues = payload[:n].copy()
    V = payload[n:n + n * n].reshape(n, n).copy()
    Vinv = np.array(payload[n + n * n:].reshape(n, n), order="F")
    # the pairs are used only where the data mirror exactly, so a dump of
    # any V (an older build_V, the geometric baseline) still loads exactly
    q = n // 2
    mirrored = (np.array_equal(eigenvalues[n - q:][::-1], np.conj(eigenvalues[:q]))
                and np.array_equal(V[:, n - q:][:, ::-1], np.conj(V[:, :q]))
                and np.array_equal(Vinv[n - q:][::-1], np.conj(Vinv[:q])))
    return SpectralDecomposition(
        n=n, dt=dt, eigenvalues=eigenvalues, V=V, Vinv=Vinv,
        cond2=cond2, residual=residual, roots=None, q=q if mirrored else 0,
    )
