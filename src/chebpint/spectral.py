"""Spectral decomposition of the time stencil: V, V^{-1}, D and diagnostics.

The unit-step stencil matrix has eigenvector columns p_j with entries
``p_{j,k} = i^k U_k(x_j)`` (k = 0..n-1), so V factors as ``V = I_diag @ Phi``
with ``I_diag = diag(i^0..i^{n-1})`` and ``Phi`` a Vandermonde-like matrix of
second-kind Chebyshev values at the roots x_j.

``build_Vinv_fast`` computes V^{-1} in O(n^2) by the paper's explicit
formula, from the same Chebyshev values.  The paper's algorithm is a
pentadiagonal solve S_n b = e with e = (0,..,0,i,2)^T, one tridiagonal
solve T_j psi_j = 2*b/p_n'(x_j) per root, and W = 0.5 * Psi @ S_n,
V^{-1} = W @ diag((-i)^k).  With J = Tridiag{1, 0, 1}, S_n = 4I - J^2 and
T_j = J - 2*x_j*I (zero closure on both ends) commute, so the first and
last steps cancel: row j of V^{-1} is (-i)^k phi_k / p_n'(x_j) with
T_j phi = e.  That system has a closed-form solution.  Its rows 0..n-3 are
the recurrence U_{k+1} = 2x U_k - U_{k-1} with U_{-1} = 0, so
phi_k = alpha_j U_k(x_j) for k <= n-2; row n-2 gives
phi_{n-1} = alpha_j U_{n-1}(x_j) + i, and the last row fixes
alpha_j = -2(1 + i x_j) / U_n(x_j).  With (-i)^k U_k = (-1)^k i^k U_k,

    V^{-1}[j, k] = gamma_j (-1)^k i^k U_k(x_j) + [k = n-1] c_j,
    gamma_j = alpha_j / p_n'(x_j),   c_j = i (-i)^{n-1} / p_n'(x_j),

the Christoffel-Darboux structure of the stencil (Gautschi 2004): V^{-1}
is a diagonal scaling of V's transpose with alternating signs, plus one
column.  The identity holds for any x_j, not only an exact root, so it
solves T_j phi = e exactly (up to roundoff) even for roots met only to
`tol`; the shortcut alpha_j = -2/T_n(x_j) would assume p_n(x_j) = 0.
Nothing is pivoted, and U_n(x_j) never vanishes: at a root
U_{n-1} = i T_n, so U_n = x U_{n-1} + T_n = T_n (1 + i x_j), where T_n and
U_{n-1} have no common zero and 1 + i x_j = 0 would need x_j = i, while
Im x_j < 0.  (A non-finite V^{-1} would still stop `decompose`, in
`cond2_estimate`.)

Only the h = ceil(n/2) representative roots are evaluated: `find_roots`
mirrors x_{n-1-j} = -conj(x_j) bitwise, so column n-1-j of V and row
n-1-j of V^{-1} are the conjugates of column and row j.  The
representative halves V[:, :h] and V^{-1}[:h] are the one stored form
(`SpectralDecomposition.V_half`, `Vinv_half`); `_mirror` alone expands a
half to the dense matrix.  `decompose` runs the recurrence once, to k = n:
its first n rows are V[:, :h] as they are, and V^{-1}[:h] is those rows
scaled, so both factors cost one (n+1) x h array and one h x n array,
8 n^2 bytes each.  The diagnostics hold at most one dense factor next to
them, for cond2's norm: a measured peak of 33.2 n^2 at n = 512 and
32.3 n^2 at n = 1024 (`_check_memory`).  A dump stores the roots, 48 n
bytes, and its load reruns the same recurrence.  The dense `build_V` and
`build_Vinv_fast` are the same halves mirrored.  An O(n^3) dense
inversion (`build_Vinv_reference`) is kept as the independent
cross-check path.
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
from .errors import (
    ChebPintError,
    DegenerateRootError,
    SingularMatrixError,
    check_count,
    check_scale,
)

__all__ = [
    "SpectralDecomposition",
    "build_V",
    "build_Vinv_fast",
    "build_Vinv_reference",
    "cond2_estimate",
    "eigenvalue_agreement",
    "decompose",
    "save_decomposition",
    "load_decomposition",
]

_PIVOT_FLOOR = 1e-300


def _chebyshev_rows(roots: RootSet, rows):
    """The (rows, h) array P[k, j] = i^k U_k(x_j), k < rows, over the
    h = ceil(n/2) representative roots x_j.

    Times i^k, the recurrence U_k = 2x U_{k-1} - U_{k-2} reads
    P_k = 2ix P_{k-1} + P_{k-2}, which gives i^k U_k with no scaling pass.
    """
    xs = roots.xs[:roots.n - roots.n // 2]
    P = np.empty((rows, len(xs)), dtype=complex)
    x2i = 2j * xs
    P[0] = 1.0
    P[1:2] = x2i                        # no row 1 when rows = 1
    for k in range(2, rows):
        np.multiply(x2i, P[k - 1], out=P[k])
        P[k] += P[k - 2]
    return P


def _mirror(half, n):
    """The dense n x n matrix whose first h columns are the n x h `half`
    and whose column n-1-j is conj(half[:, j]) for j < n - h, C-ordered.
    A factor mirrored by rows, V^{-1}, is `_mirror(rows.T, n).T`
    (Fortran-ordered).  With h = n it is a copy of `half`."""
    h = half.shape[1]
    M = np.empty((n, n), dtype=complex)
    M[:, :h] = half
    np.conj(half[:, :n - h][:, ::-1], out=M[:, h:])
    return M


def build_V(roots: RootSet):
    """Dense eigenvector matrix V[k, j] = i^k U_k(x_j), columns mirrored
    exactly.

    The recurrence runs on the h = ceil(n/2) representative columns only:
    `find_roots` makes x_{n-1-j} = -conj(x_j) bitwise, so
    v_{n-1-j} = conj(v_j) exactly, and `_mirror` fills the other columns as
    those conjugates.  For odd n the middle root has Re x = 0, so 2ix and
    its column are real.  The real steps (a)/(c) of the solver rely on
    V[:, n-1-j] == conj(V[:, j]).
    """
    return _mirror(_chebyshev_rows(roots, roots.n), roots.n)


def _powers_of_minus_i(n):
    """(-i)^k for k = 0..n-1, exactly on the axes.  `(-1j) ** k` is not
    exact past k = 100 (off by up to 1.7e-13 at n = 1024)."""
    return np.array([1, -1j, -1, 1j])[np.arange(n) % 4]


def _inverse_rows(roots: RootSet, P):
    """The representative rows V^{-1}[:h], Fortran-ordered, from the
    (n+1, h) Chebyshev rows P of `_chebyshev_rows`: row j is
    gamma_j (-1)^k P[k, j] (k < n), plus i(-i)^{n-1}/p_n'(x_j) at k = n-1
    (module docstring).  Row n of P is U_n's, for gamma_j."""
    n = roots.n
    h = P.shape[1]
    minus_i = _powers_of_minus_i(n + 1)
    dp = p_prime(roots.thetas[:h], n)
    # alpha_j / p_n'(x_j), with U_n(x_j) = (-i)^n P[n, j]
    gamma = -2.0 * (1.0 + 1j * roots.xs[:h]) / (minus_i[n] * P[n] * dp)
    rows = np.empty((n, h), dtype=complex)          # V^{-1}[:h].T
    np.multiply(P[0:n:2], gamma, out=rows[0::2])
    np.multiply(P[1:n:2], -gamma, out=rows[1::2])   # (-1)^k
    rows[n - 1] += 1j * minus_i[n - 1] / dp
    return rows.T


def build_Vinv_fast(roots: RootSet):
    """Dense V^{-1} in O(n^2) by the explicit formula (module docstring),
    Fortran-ordered: `_inverse_rows` over a recurrence one row longer than
    `build_V`'s, the other rows mirrored as conjugates."""
    rows = _inverse_rows(roots, _chebyshev_rows(roots, roots.n + 1))
    return _mirror(rows.T, roots.n).T


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
    V and Vinv are dense, or the representative halves V[:, :h] and
    Vinv[:h] of a mirrored pair; `_mirror` expands a half only while its
    own norm is taken, so one dense factor is held at a time.
    Raises SingularMatrixError for a zero V or a non-finite V^{-1}.
    """
    V, Vinv = np.asarray(V), np.asarray(Vinv)
    n = len(V)
    smax = _norm2(V if V.shape[1] == n else _mirror(V, n))
    smax_inv = _norm2(Vinv if len(Vinv) == n else _mirror(Vinv.T, n).T)
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


#: columns of y per chunk of `_paired_product`, each chunk one real GEMM
_COLUMNS = 256


def _paired_product(V, q, Y):
    """Re(V y) as a real (n, m) array, for the y whose h = len(Y)
    representative rows are Y: y_j = Y[j] and y_{n-1-j} = conj(Y[j]) for
    each pair j < q, y_k = Y[k] for each self-paired k in [q, h).

    Only V[:, :h] is read, through its float view (SpectralDecomposition):
    one real GEMM with the rows 2 Re y_j, -2 Im y_j and Re y_k, -Im y_k per
    chunk of _COLUMNS columns.  V[:, :h] must have a contiguous last axis.
    """
    h, m = Y.shape
    Vf = V[:, :h].view(float)
    out = np.empty((len(V), m))
    for lo in range(0, m, _COLUMNS):
        hi = min(lo + _COLUMNS, m)
        Yc = Y[:, lo:hi]
        X = np.empty((2 * h, hi - lo))
        np.multiply(Yc.real[:q], 2.0, out=X[0:2 * q:2])
        np.multiply(Yc.imag[:q], -2.0, out=X[1:2 * q:2])
        X[2 * q::2] = Yc.real[q:]
        # np.multiply by -1.0, not np.negative: numpy 2.4.6 on AVX-512
        # miscomputes np.negative(a, out=o) for one column a with a 64-byte
        # row stride into an o with a 16-byte row stride
        np.multiply(Yc.imag[q:], -1.0, out=X[2 * q + 1::2])
        np.matmul(Vf, X, out=out[:, lo:hi])
    return out


@dataclass(eq=False)
class SpectralDecomposition:
    """B = V D V^{-1} for the n-point stencil with step dt.

    eigenvalues[j] = i*x_j/dt; V and Vinv are the complex eigenvector matrix
    and its inverse; cond2 estimates Cond_2(V); residual is
    ||B - V D V^{-1}||_F / ||B||_F.

    q counts the conjugate pairs: for j < q, eigenvalue n-1-j, column n-1-j
    of V and row n-1-j of Vinv are bitwise the conjugates of eigenvalue j,
    column j and row j; every other index pairs with itself.  `decompose`
    has q = n//2, the real geometric baseline q = 0 (always valid, it just
    saves nothing).  With h = n - q, the rows j < h are the representatives.
    A q > 0 whose eigenvalue pairs do not mirror raises ValueError.

    phase_times holds the seconds of each layer of `decompose` (find_roots,
    build_V, build_Vinv_fast, cond2 and, when computed, residual); it is
    empty for a loaded or geometric decomposition.

    B is the dense time matrix that V D V^{-1} factors, when it is not the
    hybrid stencil `assemble_B(n, dt)`: the geometric baseline sets its
    trapezoidal matrix, and the solvers' residuals apply it.  None means the
    stencil.

    Only the representative halves are stored, as nothing else is read:
    V_half = V[:, :h] (n x h, C order) and Vinv_half = Vinv[:h] (h x n,
    Fortran order), 16 n^2 bytes for q = n//2; with q = 0 the halves are
    the whole matrices.  A half has no mirrored part, so it is not checked
    against one.  The read-only properties V and Vinv build the dense
    matrix (C and Fortran order) from its half by `_mirror`, on every read.
    Every product with the factors is real, read through float views of the
    halves that do not copy: Vf = V_half.view(float) has the columns
    Re v_k, Im v_k at 2k, 2k+1, and Vinv_half.T.view(float).T the rows Re,
    Im of Vinv[k].

    - `apply_Vinv` (step (a)): for a real b, the real product of the latter
      view with b holds Re g_k, Im g_k of g = V^{-1} b for k < h, and
      g_{n-1-j} = conj(g_j): 2n^2 m flops instead of 8n^2 m.
    - `_paired_product`, the one kernel behind step (c) and
      `decomposition_residual`: if y_{n-1-j} = conj(y_j), a pair adds
      v_j y_j + conj(v_j y_j) = 2 Re(v_j y_j), so Re(V y) = Vf @ X with
      the real rows X[2k] = c_k Re y_k, X[2k+1] = -c_k Im y_k (c_k = 2 for
      a pair, 1 for a self-paired index): 2n^2 m flops instead of 8n^2 m.
    - `apply_V` (step (c)): any w is s + i r with s and r mirrored,
      s_j = (w_j + conj w_p)/2 and r_j = -i(w_j - conj w_p)/2 for a pair
      (p = n-1-j), s_k = w_k and r_k = -i w_k for a self-paired k.  V s and
      V r are real, so Re(V w) and Im(V w) are each one kernel call.  When
      w mirrors, as the solves of mirrored shifts give, r is 0 on the pairs
      and Im(V w) comes from the self-paired columns alone (none for even
      n from `decompose`); both parts stay exact for any w.

    Instances are treated as immutable and may be shared across workers.
    """

    n: int
    dt: float
    eigenvalues: np.ndarray
    V_half: np.ndarray
    Vinv_half: np.ndarray
    cond2: float
    residual: float
    roots: RootSet | None = None
    q: int = 0
    phase_times: dict = field(default_factory=dict)
    B: np.ndarray | None = None

    def __post_init__(self):
        n, q = self.n, self.q
        if not 0 <= q <= n // 2:
            raise ValueError(f"pair count q={q} is not in [0, n//2] for n={n}")
        h = n - q
        for name, shape in (("eigenvalues", (n,)), ("V_half", (n, h)),
                            ("Vinv_half", (h, n))):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(
                    f"{name} has shape {got}, expected {shape} for n={n}, q={q}")
        lam = np.asarray(self.eigenvalues)
        if not np.array_equal(lam[h:][::-1], np.conj(lam[:q])):
            raise ValueError(
                f"eigenvalues do not mirror: with q={q}, the pairs j, n-1-j "
                f"(j < q) must be bitwise conjugate")
        self.V_half = np.ascontiguousarray(self.V_half, dtype=complex)
        self.Vinv_half = np.asfortranarray(self.Vinv_half, dtype=complex)

    @property
    def V(self):
        return _mirror(self.V_half, self.n)

    @property
    def Vinv(self):
        return _mirror(self.Vinv_half.T, self.n).T

    @property
    def newton_iters_max(self):
        return int(self.roots.newton_iters.max()) if self.roots is not None else -1

    def apply_Vinv(self, b):
        """g = V^{-1} b for the real (n, m) blocks b, by one real product;
        a C-contiguous complex (n, m) array."""
        q, h = self.q, self.n - self.q
        P = self.Vinv_half.T.view(float).T @ b
        G = np.empty((self.n, b.shape[1]), dtype=complex)
        G.real[:h] = P[0::2]
        G.imag[:h] = P[1::2]
        np.conj(G[:q][::-1], out=G[h:])
        return G

    def apply_V(self, W):
        """(Re(V w), ||Im(V w)||_F) for the complex (n, m) blocks w in W,
        which is not changed."""
        q, h = self.q, self.n - self.q
        # only the boolean is kept: a held conjugate half costs an n/2 x m
        # complex array through the product (7% of heat-wide's peak RSS)
        if np.array_equal(W[:q], np.conj(W[h:][::-1])):
            U = _paired_product(self.V_half, q, W[:h])
            if h == q:
                return U, 0.0
            Im = _paired_product(self.V_half[:, q:h], 0, -1j * W[q:h])
        else:
            wp = np.conj(W[h:][::-1])
            S = np.concatenate([(W[:q] + wp) * 0.5, W[q:h]])
            R = np.concatenate([(W[:q] - wp) * -0.5j, -1j * W[q:h]])
            del wp
            U = _paired_product(self.V_half, q, S)
            Im = _paired_product(self.V_half, q, R)
        return U, float(np.linalg.norm(Im))


def decomposition_residual(eigenvalues, V, Vinv, B, q=0):
    """||B - V diag(eigenvalues) V^{-1}||_F / ||B||_F for the real stencil
    matrix B, sparse or dense; only its nonzero entries are touched.

    B and the eigenvalues are divided by s = max|B| first: the ratio does
    not change, and the norms neither overflow nor underflow for any dt.

    q is the pair count of `SpectralDecomposition` (the default 0 assumes
    no structure).  With w_k the rows of V^{-1}, the rows y_k = lambda_k w_k
    of D V^{-1} mirror as the w_k do, so the real part of V D V^{-1} is
    `_paired_product` over the representative rows y_k, k < h: 2n^3 flops
    instead of 8n^3 for q = n//2.  The imaginary part comes from the
    self-paired indices alone, the kernel over V[:, q:h] with the rows
    -i y_k (rank n % 2 for `decompose`).  Both run in chunks of _COLUMNS
    columns of V^{-1}, each minus the entries of B (in CSC form) in its
    columns, so no n x n temporary is formed.
    """
    B = scipy.sparse.csc_array(B)
    s = np.abs(B.data).max()
    data = B.data / s
    lam = np.asarray(eigenvalues) / s
    V = np.ascontiguousarray(V, dtype=complex)     # eig's vectors are F-ordered
    n = len(lam)
    h = n - q
    ptr = B.indptr
    sq = 0.0
    for lo in range(0, n, _COLUMNS):
        hi = min(lo + _COLUMNS, n)
        Y = lam[:h, None] * Vinv[:h, lo:hi]
        if h > q:
            T = _paired_product(V[:, q:h], 0, -1j * Y[q:])
            sq += np.vdot(T, T)
            del T
        M = _paired_product(V, q, Y)
        del Y
        a, b = ptr[lo], ptr[hi]
        cols = np.repeat(np.arange(hi - lo), np.diff(ptr[lo:hi + 1]))
        M[B.indices[a:b], cols] -= data[a:b]
        sq += np.vdot(M, M)
        del M
    return float(np.sqrt(sq) / np.linalg.norm(data))


def _check_memory(n):
    """Raise ChebPintError when the peak of `decompose` exceeds physical
    memory (skipped where os.sysconf cannot tell).  `load_decomposition`
    calls it too, before it reads the roots: its rebuild holds the
    recurrence array and V^{-1}[:h] alone, measured 17.6 n^2 at n = 512,
    within the same count, so any dump that `decompose` could write loads.

    The peak is measured (tracemalloc, n = 511 to 2048).  The build holds
    the (n+1) x h Chebyshev rows, whose first n are V[:, :h], and
    V^{-1}[:h], 8 n^2 bytes each (h = ceil(n/2)).  cond2 adds one transient
    dense factor at a time (16 n^2): 32 n^2, measured 33.2 n^2 at n = 511
    and 512, 32.3 n^2 at 1024 and 32.1 n^2 at 2048.  The residual holds,
    next to the halves, a chunk of c = 256 columns of three n x c float
    arrays (the scaled rows of V^{-1}, the kernel's rows and the product):
    12 n^2 at n = 512, 6 n^2 at n = 1024, below cond2's peak.  So one count
    of 34 n^2 covers both modes for n >= 511.  The single chunk and the
    O(n) arrays of an n <= 256 take it up to 60 n^2, at most 2.7 MB.
    Afterwards the decomposition holds 16 n^2: V[:, :h] and V^{-1}[:h].
    """
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    need = 34 * n**2
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

    Roots come from `find_roots`; one Chebyshev recurrence over the
    representative roots gives V[:, :h] (phase "build_V") and its scaling
    V^{-1}[:h] (phase "build_Vinv_fast"); cond2 comes from `cond2_estimate`
    on these halves.  The roots, and with them the eigenvalues and both
    factors, mirror exactly, so all n//2 conjugate pairs are used
    (q = n//2), by the residual against `assemble_B(n, dt)` too.  The
    residual is skipped (nan) with `with_residual=False`.  The seconds of
    each layer are kept in `phase_times`.  ValueError unless n is an
    integer >= 1 and dt is positive and finite; an n whose peak memory
    (`_check_memory`) cannot fit in physical memory raises ChebPintError
    before anything is allocated.
    """
    from .timedisc import assemble_B

    n = check_count("n", n)
    dt = check_scale("dt", dt)
    _check_memory(n)
    times = {}
    roots = _timed(times, "find_roots", find_roots, n, tol=tol, max_iter=max_iter)
    q = n // 2
    # the one recurrence: its first n rows are V[:, :h] as they are
    P = _timed(times, "build_V", _chebyshev_rows, roots, n + 1)
    Vinv = _timed(times, "build_Vinv_fast", _inverse_rows, roots, P)
    V = P[:n]
    eigenvalues = roots.lambdas_unit / dt
    cond2 = _timed(times, "cond2", cond2_estimate, V, Vinv)
    residual = float("nan")
    if with_residual:
        residual = _timed(times, "residual", decomposition_residual,
                          eigenvalues, V, Vinv, assemble_B(n, dt), q=q)
    return SpectralDecomposition(
        n=n,
        dt=dt,
        eigenvalues=eigenvalues,
        V_half=V,
        Vinv_half=Vinv,
        cond2=cond2,
        residual=residual,
        roots=roots,
        q=q,
        phase_times=times,
    )


_DUMP_MAGIC = "chebpint-decomp"
_DUMP_VERSION = 2
#: the RootSet arrays of a dump, n values each, in file order
_DUMP_ARRAYS = {"thetas": "<c16", "xs": "<c16", "newton_iters": "<i8",
                "residuals": "<f8"}


def save_decomposition(dec, path):
    """Dump a `decompose` result to a versioned binary file: its roots.

    One ASCII header line, "chebpint-decomp 2 n=... dt=... cond2=...
    residual=...", then the n values of each RootSet array, little-endian:
    thetas and xs as complex doubles, newton_iters as int64 and residuals
    as doubles, 48 n bytes.  The factors are not stored: they are a
    function of the roots, which `load_decomposition` rebuilds as
    `decompose` builds them.  A decomposition without roots (the geometric
    baseline) raises ValueError before the file is opened.
    """
    if dec.roots is None:
        raise ValueError(
            "cannot dump a decomposition without roots (the geometric "
            "baseline): the dump stores the roots, not the factors"
        )
    header = (
        f"{_DUMP_MAGIC} {_DUMP_VERSION} n={dec.n} dt={dec.dt!r} "
        f"cond2={dec.cond2!r} residual={dec.residual!r}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for name, dtype in _DUMP_ARRAYS.items():
            fh.write(np.asarray(getattr(dec.roots, name), dtype=dtype).tobytes())


def _header_float(fields, key):
    """The dump header's field `key` as a float, or ValueError naming it."""
    try:
        return float(fields[key])
    except ValueError:
        raise ValueError(
            f"dump header {key} is not a number: {fields[key]!r}") from None


def load_decomposition(path):
    """Read a decomposition dump written by `save_decomposition`.

    The halves are rebuilt from the stored roots by `_chebyshev_rows` and
    `_inverse_rows`, as in `decompose`, so they, the eigenvalues and q =
    n//2 come back bitwise; cond2 and the residual are read, not
    recomputed.  Raises ValueError for anything that is not a complete
    version-2 dump: a bad header (an older version names itself), a payload
    shorter or longer than the 48 n bytes the header announces (checked
    before anything is read), roots that are not finite, xs off their
    mirror x_{n-1-j} = -conj(x_j) (the constructor's eigenvalue check), or
    a theta on a spurious zero.  An n whose rebuild cannot fit in memory
    raises ChebPintError (`_check_memory`) before the payload is read.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = line.decode("ascii").strip()
        except UnicodeDecodeError:
            raise ValueError(f"dump header is not ASCII: {line[:80]!r}") from None
        parts = header.split()
        if len(parts) < 2 or parts[0] != _DUMP_MAGIC:
            raise ValueError(f"not a chebpint decomposition dump: {header!r}")
        if parts[1] != str(_DUMP_VERSION):
            raise ValueError(
                f"dump version {parts[1]} is not read, only version "
                f"{_DUMP_VERSION}: re-run `chebpint decompose --dump`")
        fields = dict(p.partition("=")[::2] for p in parts[2:])
        missing = [k for k in ("n", "dt", "cond2", "residual") if k not in fields]
        if missing:
            raise ValueError(
                f"dump header lacks the field(s) {', '.join(missing)}: {header!r}"
            )
        n = fields["n"]
        n = check_count("dump header n", int(n) if n.isdigit() else n)
        dt = check_scale("dump header dt", _header_float(fields, "dt"))
        cond2 = check_scale("dump header cond2", _header_float(fields, "cond2"))
        residual = _header_float(fields, "residual")
        if residual < 0:      # nan is what with_residual=False writes
            raise ValueError(
                f"dump header residual must be >= 0 or nan, got {residual!r}")
        expected = 48 * n
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size < expected:
            raise ValueError(
                f"truncated dump: expected {expected} payload bytes, got {size}")
        if size > expected:
            raise ValueError(
                f"dump has {size - expected} trailing bytes after its "
                f"{expected} payload bytes")
        _check_memory(n)
        roots = RootSet(n=n, **{
            name: np.frombuffer(fh.read(n * np.dtype(t).itemsize), t).copy()
            for name, t in _DUMP_ARRAYS.items()})
    if not all(np.isfinite(getattr(roots, name)).all() for name in _DUMP_ARRAYS):
        raise ValueError("dump roots are not all finite")
    P = _chebyshev_rows(roots, n + 1)
    try:
        Vinv = _inverse_rows(roots, P)
    except DegenerateRootError as exc:
        raise ValueError(f"dump roots: {exc}") from None
    return SpectralDecomposition(
        n=n, dt=dt, eigenvalues=roots.lambdas_unit / dt, V_half=P[:n],
        Vinv_half=Vinv, cond2=cond2, residual=residual, roots=roots, q=n // 2,
    )
