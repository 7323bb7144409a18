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
n-1-j of V^{-1} are the conjugates of column and row j.

The stored form.  A decomposition stores the representative halves
V_half = V[:, :h] (n x h, C order) and Vinv_half = V^{-1}[:h] (h x n,
Fortran order), and nothing else of the factors.  With the pair count
q = n - h, column n-1-j of V and row n-1-j of V^{-1} are
conj(V_half[:, j]) and conj(Vinv_half[j]) for j < q, and every index in
[q, h) pairs with itself.  `decompose` stores h = ceil(n/2) (q = n//2);
dense factors are the halves with h = n (q = 0), as the real geometric
baseline stores them.  Every reader of the factors is real, through two
float views of the halves that do not copy:

    Vf = V_half.view(float)            n x 2h, columns Re v_k, Im v_k
    Wf = Vinv_half.T.view(float).T     2h x n, rows Re w_k, Im w_k

where v_k is column k of V and w_k row k of V^{-1}.  A pair j adds
v_j y_j + conj(v_j y_j) = 2 Re(v_j y_j) to V y for a mirrored y, and
2 (Re v_j Re v_j^T + Im v_j Im v_j^T) to V V^H, so the readers that sum
over the pairs weight their 2q entries:

- `apply_Vinv` (step (a)): for a real b, Wf b holds Re g_k, Im g_k of
  g = V^{-1} b for k < h, and g_{n-1-j} = conj(g_j): 2n^2 m flops instead
  of 8n^2 m.
- `_paired_product`, the one kernel behind step (c) and
  `decomposition_residual`: for a mirrored y, Re(V y) = Vf X with the real
  rows X[2k] = c_k Re y_k, X[2k+1] = -c_k Im y_k (c_k = 2 for a pair, 1
  for a self-paired index): 2n^2 m flops instead of 8n^2 m.
- `apply_V` (step (c)): any w is s + i r with s and r mirrored,
  s_j = (w_j + conj w_p)/2 and r_j = -i(w_j - conj w_p)/2 for a pair
  (p = n-1-j), s_k = w_k and r_k = -i w_k for a self-paired k.  V s and
  V r are real, so Re(V w) and Im(V w) are each one kernel call.  When w
  mirrors, as the solves of mirrored shifts give, r is 0 on the pairs and
  Im(V w) comes from the self-paired columns alone (none for even n from
  `decompose`); both parts stay exact for any w.
- `cond2_estimate`: ||V||_2 is the largest singular value of Vf with its
  2q pair columns scaled by sqrt(2), and ||V^{-1}||_2 that of Wf with its
  2q pair rows scaled, when V V^H is real: the self-paired columns
  V[:, q:h] must be real, as `decompose`'s middle column of odd n is
  exactly, or mirrored among themselves, as a dense mirrored `build_V` is.

`_mirror` alone expands a half to the dense matrix, for the dense builders
`build_V` and `build_Vinv_fast`.  `decompose` runs the recurrence once,
to k = n: its first n rows are V[:, :h] as they are, and V^{-1}[:h] is
those rows scaled, so both factors cost one (n+1) x h array and one
h x n array, 8 n^2 bytes each.  The diagnostics read the halves in place
and form no dense factor: without the residual `decompose` peaks at
17.7 n^2 at n = 512 and 16.5 n^2 at n = 1024, and the residual's chunk of
columns adds about 24 n _COLUMNS bytes (`_check_memory`).  An
O(n^3) dense inversion (`build_Vinv_reference`) is kept as the
independent cross-check path.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .chebroots import RootSet, find_roots
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
]

_PIVOT_FLOOR = 1e-300

#: |sin(theta)| below this is treated as a degenerate (spurious) root.
_SIN_FLOOR = 1e-14


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
    (module docstring).  Row n of P is U_n's, for gamma_j.

    At a root U_{n-1} = i T_n, so p_n'(x) = x U_{n-1}(x) (1 + i n x)/(1 - x^2),
    with 1 - x_j^2 = sin^2 theta_j: a form without cancellation, read from
    the rows P[n-1] that V is built of.  The chain-rule form
    -rho'(theta)/sin^2 theta, taken at theta_j, differs from p_n' at the
    stored x_j = cos theta_j by up to 1e-11 relative at n = 1024, enough to
    break the solves' roundoff model at some seeds.  A theta_j on a
    spurious zero of rho (|sin theta_j| < _SIN_FLOOR) raises
    DegenerateRootError."""
    n = roots.n
    h = P.shape[1]
    minus_i = _powers_of_minus_i(n + 1)
    thetas, xs = roots.thetas[:h], roots.xs[:h]
    s = np.sin(thetas)
    j = int(np.argmin(np.abs(s)))
    if abs(s[j]) < _SIN_FLOOR:
        raise DegenerateRootError(
            f"|sin(theta)| = {abs(s[j]):.2e} at index {j + 1}: "
            "theta sits on a spurious zero of rho"
        )
    U = minus_i[n - 1] * P[n - 1]                   # U_{n-1}(x_j)
    dp = xs * U * (1.0 + 1j * n * xs) / s**2
    # alpha_j / p_n'(x_j), with U_n(x_j) = (-i)^n P[n, j]
    gamma = -2.0 * (1.0 + 1j * xs) / (minus_i[n] * P[n] * dp)
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


def _norm(x):
    """np.linalg.norm(x) of a real vector by the same arithmetic, as a
    Python float, without that function's call overhead, which is large
    next to a product with the halves at small n."""
    return math.sqrt(x.dot(x))


def _norm2(z, mul, rmul, iters=200, rtol=5e-5):
    """||M||_2 by power iteration on M^T M from the vector z, where mul and
    rmul apply the real M and M^T.

    Both half-steps are normalized, so no intermediate exceeds ||M||_2 and a
    finite M gives a finite norm.  Stops once consecutive estimates agree to
    rtol (5e-5 on the norm is 1e-4 on its square).  Returns a zero or
    non-finite value, silently, for a zero or non-finite M.
    """
    prev = 0.0
    z = z / _norm(z)
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(iters):
            y = mul(z)
            a = _norm(y)
            if not 0.0 < a < math.inf:
                return a
            w = rmul(y / a)
            b = _norm(w)
            est = math.sqrt(a) * math.sqrt(b)
            z = w / b
            if abs(est - prev) <= rtol * est:
                break
            prev = est
    return est


def cond2_estimate(V, Vinv):
    """2-norm condition number ||V||_2 ||V^{-1}||_2 from the halves V[:, :h]
    and V^{-1}[:h] of a mirrored pair, or from dense factors (h = n).

    ||V||_2 and ||V^{-1}||_2 are the largest singular values of the float
    views Vf and Wf with their 2q pair columns and rows scaled by sqrt(2)
    (module docstring), each by power iteration from a seeded random start:
    one real product each way per iteration, with the weights applied to
    the vector, so no factor is copied.  The estimate approaches each norm
    from below; against the full SVD it is within 1e-2 relative for every n
    up to 400 and within 1e-4 at the n of the growth-law diagnostics.

    Raises ValueError unless Vinv is h x n and V's self-paired columns
    V[:, q:h] are real or mirrored among themselves (the norms would be
    wrong, silently), and SingularMatrixError for a zero V or a non-finite
    V^{-1}.
    """
    V = np.ascontiguousarray(V, dtype=complex)
    Vinv = np.asfortranarray(Vinv, dtype=complex)
    n, h = V.shape
    if Vinv.shape != (h, n):            # the halves of one pair, or both dense
        raise ValueError(f"Vinv has shape {Vinv.shape}, expected {(h, n)} for V")
    q = n - h
    S = V[:, q:h]
    if S.imag.any() and not np.array_equal(S[:, ::-1], np.conj(S)):
        raise ValueError(f"V's self-paired columns V[:, {q}:{h}] are neither "
                         f"real nor mirrored among themselves")
    Vf, Wf = V.view(float), Vinv.T.view(float).T
    weight = np.where(np.arange(2 * h) < 2 * q, math.sqrt(2.0), 1.0)
    rng = np.random.default_rng(7)
    smax = _norm2(rng.normal(size=2 * h), lambda u: Vf.dot(weight * u),
                  lambda y: weight * y.dot(Vf))
    smax_inv = _norm2(rng.normal(size=n), lambda x: weight * Wf.dot(x),
                      lambda y: (weight * y).dot(Wf))
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

    Only V[:, :h] is read, through its float view Vf (module docstring):
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

    eigenvalues[j] = i*x_j/dt; V is the complex eigenvector matrix; cond2
    estimates Cond_2(V); residual is ||B - V D V^{-1}||_F / ||B||_F.

    The fields are dt, eigenvalues, the halves V_half and Vinv_half of the
    stored form (module docstring), cond2, residual, roots, phase_times and
    B.  Two read-only properties follow from the arrays: n =
    len(eigenvalues), and the pair count q = n - h, where h is the width of
    V_half.  For j < q, eigenvalue n-1-j is bitwise the conjugate of
    eigenvalue j.  The constructor raises ValueError unless V_half is n x h
    with ceil(n/2) <= h <= n, Vinv_half is h x n and the q eigenvalue pairs
    mirror; a half has no mirrored part, so it is not checked against one.
    The dense factors of a decomposition with roots are
    `build_V(dec.roots)` and `build_Vinv_fast(dec.roots)`.

    phase_times holds the seconds of each layer of `decompose` (find_roots,
    build_V, build_Vinv_fast, cond2 and, when computed, residual); it is
    empty for a geometric decomposition.

    B is the dense time matrix that V D V^{-1} factors, when it is not the
    hybrid stencil `assemble_B(n, dt)`: the geometric baseline sets its
    trapezoidal matrix, and the solvers' residuals apply it.  None means the
    stencil.

    Instances are treated as immutable and may be shared across workers.
    eigenvalues, V_half and Vinv_half are read-only views, so an in-place
    write raises ValueError instead of breaking the mirror the constructor
    checked, and the arrays a caller passed in stay writable.
    """

    dt: float
    eigenvalues: np.ndarray
    V_half: np.ndarray
    Vinv_half: np.ndarray
    cond2: float
    residual: float
    roots: RootSet | None = None
    phase_times: dict = field(default_factory=dict)
    B: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues)
        shape = np.shape(self.V_half)
        n, h = lam.size, shape[1] if len(shape) == 2 else 0
        if not n - n // 2 <= h <= n:
            raise ValueError(f"V_half has shape {shape}, expected (n, h) with "
                             f"{n - n // 2} <= h <= n = {n}")
        for name, shape in (("eigenvalues", (n,)), ("V_half", (n, h)),
                            ("Vinv_half", (h, n))):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")
        q = n - h
        if not np.array_equal(lam[h:][::-1], np.conj(lam[:q])):
            raise ValueError(
                f"eigenvalues do not mirror: with q={q}, the pairs j, n-1-j "
                f"(j < q) must be bitwise conjugate")
        for name, array in (
                ("eigenvalues", lam),
                ("V_half", np.ascontiguousarray(self.V_half, dtype=complex)),
                ("Vinv_half", np.asfortranarray(self.Vinv_half, dtype=complex))):
            view = array.view()
            view.flags.writeable = False
            setattr(self, name, view)

    @property
    def n(self):
        return len(self.eigenvalues)

    @property
    def q(self):
        return self.n - self.V_half.shape[1]

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


def decomposition_residual(eigenvalues, V, Vinv, B):
    """||B - V diag(eigenvalues) V^{-1}||_F / ||B||_F for the real stencil
    matrix B, sparse or dense; only its nonzero entries are touched.

    B and the eigenvalues are divided by s = max|B| first: the ratio does
    not change, and the norms neither overflow nor underflow for any dt.

    V and Vinv are the halves V[:, :h] and V^{-1}[:h] of the stored form
    (module docstring), the pair count q = n - h read from V's shape, so
    dense factors have q = 0 and no structure is assumed of them.  With w_k
    the rows of V^{-1}, the rows y_k = lambda_k w_k of D V^{-1} mirror as
    the w_k do, so the real part of V D V^{-1} is `_paired_product` over the
    representative rows y_k, k < h: 2n^3 flops instead of 8n^3 for
    q = n//2.  The imaginary part comes from the self-paired indices alone,
    the kernel over V[:, q:h] with the rows -i y_k (rank n % 2 for
    `decompose`).  Both run in chunks of _COLUMNS columns of V^{-1}, each
    minus the entries of B (in CSC form) in its columns, so no n x n
    temporary is formed.
    """
    B = scipy.sparse.csc_array(B)
    s = np.abs(B.data).max()
    data = B.data / s
    lam = np.asarray(eigenvalues) / s
    V = np.ascontiguousarray(V, dtype=complex)     # eig's vectors are F-ordered
    n, h = V.shape
    q = n - h
    ptr = B.indptr
    sq = 0.0
    for lo in range(0, n, _COLUMNS):
        hi = min(lo + _COLUMNS, n)
        Y = lam[:h, None] * Vinv[:, lo:hi]
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
    """Raise ChebPintError when building the decomposition of n points can
    exceed physical memory (skipped where os.sysconf cannot tell).
    `decompose` uses this one count in both modes.

    It builds the (n+1) x h Chebyshev rows, whose first n are V[:, :h],
    and V^{-1}[:h], 16 n^2 bytes together (h = ceil(n/2)), and keeps them:
    cond2 reads them in place.  The residual adds, next to them, a chunk of
    c = _COLUMNS columns of three n x c float arrays (the scaled rows of
    V^{-1}, the kernel's rows and the product), 24 n c bytes.  The count,
    16 n^2 + 27 n c, covers the peaks measured by tracemalloc from n = 64 to
    4096: 17.70 n^2 at n = 512 and 16.14 n^2 at 2048 without the residual,
    28.88 n^2 and 19.12 n^2 with it, and at most 16 n^2 + 26.9 n c (at
    n = 257).
    """
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    need = 16 * n**2 + 27 * _COLUMNS * n
    physical = page * pages
    if page > 0 and pages > 0 and need > physical:
        raise ChebPintError(
            f"n={n} needs {need} bytes to build its decomposition, more than "
            f"the {physical} bytes of physical memory"
        )


def _timed(times, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), its seconds stored as times[name]."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    times[name] = time.perf_counter() - t0
    return out


def _halves(roots: RootSet, dt, times):
    """V[:, :h], V^{-1}[:h] and the eigenvalues i x_j / dt from one
    recurrence over the representative roots, to k = n: its first n rows
    are V[:, :h] as they are (phase "build_V" of `times`), and
    `_inverse_rows` scales them (phase "build_Vinv_fast")."""
    P = _timed(times, "build_V", _chebyshev_rows, roots, roots.n + 1)
    Vinv = _timed(times, "build_Vinv_fast", _inverse_rows, roots, P)
    return P[:roots.n], Vinv, roots.lambdas_unit / dt


def decompose(n, dt, tol=1e-10, max_iter=50, with_residual=True):
    """Full spectral decomposition of the n-point stencil matrix B.

    Roots come from `find_roots`; `_halves` gives V[:, :h] and V^{-1}[:h]
    from one Chebyshev recurrence over the representative roots; cond2
    comes from `cond2_estimate` on these halves.  The roots, and with them
    the eigenvalues and both factors, mirror exactly, so all n//2 conjugate
    pairs are used (q = n//2), by the residual against `assemble_B(n, dt)`
    too.  The
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
    V, Vinv, eigenvalues = _halves(roots, dt, times)
    cond2 = _timed(times, "cond2", cond2_estimate, V, Vinv)
    residual = float("nan")
    if with_residual:
        residual = _timed(times, "residual", decomposition_residual,
                          eigenvalues, V, Vinv, assemble_B(n, dt))
    return SpectralDecomposition(
        dt=dt,
        eigenvalues=eigenvalues,
        V_half=V,
        Vinv_half=Vinv,
        cond2=cond2,
        residual=residual,
        roots=roots,
        phase_times=times,
    )
