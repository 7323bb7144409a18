"""Time discretization: stencil assembly, all-at-once right-hand sides,
and the geometric-step trapezoidal baseline with its closed-form
diagonalization.

The primary scheme couples centered differences at the interior time points
with one backward-Euler row at the end:

    (u_{j+1} - u_{j-1}) / (2 dt) + A u_j = g_j,   j = 1..n-1
    (u_n   - u_{n-1})   /  dt    + A u_n = g_n,

giving the n x n stencil matrix assembled by `assemble_B`.  The baseline
scheme is the trapezoidal rule on geometrically growing steps
dt_j = dt_last * tau^(j-n), whose eigenvector matrix has a known
lower-triangular Toeplitz closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import toeplitz

from .errors import (
    DimensionMismatchError,
    GeometricOverflowError,
    InvalidGridError,
    check_count,
    check_scale,
)
from .spectral import SpectralDecomposition, cond2_estimate, decomposition_residual

__all__ = [
    "TimeGrid",
    "GeometricGrid",
    "BlockVector",
    "assemble_B",
    "apply_B",
    "rhs_first_order",
    "rhs_second_order",
    "geometric_grid",
    "assemble_TR_system",
    "geometric_decomposition",
]

_P_OVERFLOW = 1e150


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*dt, j = 1..n.

    n is an integer >= 1 and dt is positive and finite, or InvalidGridError
    names the one that is not.
    """

    n: int
    dt: float

    def __post_init__(self):
        check_count("n", self.n, error=InvalidGridError)
        check_scale("dt", self.dt, error=InvalidGridError)

    @property
    def T(self):
        return self.n * self.dt

    @property
    def t_points(self):
        return np.arange(1, self.n + 1) * self.dt


@dataclass(frozen=True)
class GeometricGrid:
    """Steps dt_j = dt_last * tau^(j-n), strictly increasing toward dt_last.

    n is an integer >= 1, tau is finite and > 1 and dt_last is positive and
    finite, or InvalidGridError names the one that is not.
    """

    n: int
    tau: float
    dt_last: float

    def __post_init__(self):
        check_count("n", self.n, error=InvalidGridError)
        if not (isinstance(self.tau, numbers.Real) and 1.0 < self.tau < math.inf):
            raise InvalidGridError(f"tau must be > 1 and finite, got {self.tau!r}")
        check_scale("dt_last", self.dt_last, error=InvalidGridError)

    @property
    def steps(self):
        j = np.arange(1, self.n + 1)
        return self.dt_last * self.tau ** (j - self.n).astype(float)

    @property
    def T(self):
        return float(self.steps.sum())

    @property
    def t_points(self):
        return np.cumsum(self.steps)


@dataclass
class BlockVector:
    """n space vectors of dimension m stacked in time order (shape (n, m))."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values))
        if self.values.ndim != 2:
            raise DimensionMismatchError("BlockVector needs a (n, m) array")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def m(self):
        return self.values.shape[1]

    @property
    def data(self):
        """Flat length-n*m view, block j holding the vector at t_j."""
        return self.values.reshape(-1)


def assemble_B(n, dt):
    """Sparse stencil matrix: superdiagonal 1/(2dt), subdiagonal -1/(2dt),
    zero diagonal, except the last row (..., -1/dt, 1/dt).

    InvalidGridError unless n is an integer >= 1 and dt positive and finite.
    """
    n = check_count("n", n, error=InvalidGridError)
    check_scale("dt", dt, error=InvalidGridError)
    if n == 1:
        return sparse.csr_matrix(np.array([[1.0 / dt]]))
    half = 1.0 / (2.0 * dt)
    sub = np.full(n - 1, -half)
    sub[-1] = -1.0 / dt
    diag = np.zeros(n)
    diag[-1] = 1.0 / dt
    return sparse.diags([sub, diag, np.full(n - 1, half)], [-1, 0, 1], format="csr")


def apply_B(values, dt):
    """Apply the stencil matrix to an (n, m) block array without assembling
    it; InvalidGridError unless dt is positive and finite.

    Every row is written into the result in place, so nothing of the
    result's size is allocated beside it.
    """
    dt = check_scale("dt", dt, error=InvalidGridError)
    u = np.atleast_2d(values)
    n = u.shape[0]
    if n == 1:
        return u / dt
    out = np.empty(u.shape, dtype=np.result_type(u, 1.0))   # as u / dt
    np.divide(u[1], 2.0 * dt, out=out[0])
    np.subtract(u[2:], u[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dt
    np.subtract(u[-1], u[-2], out=out[-1])
    out[-1] /= dt
    return out


def rhs_first_order(u0, g, dt):
    """All-at-once right-hand side for u' + A u = g: block 1 is
    u0/(2dt) + g_1, block j is g_j for j >= 2.  InvalidGridError unless dt
    is positive and finite."""
    dt = check_scale("dt", dt, error=InvalidGridError)
    u0 = np.atleast_1d(np.asarray(u0))
    g = np.atleast_2d(np.asarray(g))
    n, m = g.shape
    if u0.shape != (m,):
        raise DimensionMismatchError(
            f"u0 has dimension {u0.shape}, source blocks have m={m}"
        )
    out = np.array(g, dtype=np.result_type(g, u0, float))
    out[0] += u0 / (2.0 * dt)
    return BlockVector(out)


def rhs_second_order(u0, u0dot, g, dt):
    """All-at-once right-hand side for u'' + A u = g.

    Eliminating the velocity blocks v = B u - b1 (b1 = (u0/(2dt), 0, ...))
    from the order-reduced system leaves (B^2 (x) I) u + F(u) = b2 + g + B b1,
    i.e. blocks (u0dot/(2dt) + g_1, -u0/(4dt^2) + g_2, g_3, ..., g_n) for
    n >= 3.  The B b1 term is applied through the actual stencil action so
    the n = 2 case (where the backward-Euler row touches block 1) stays
    consistent with the order-reduction derivation.  InvalidGridError unless
    dt is positive and finite.
    """
    dt = check_scale("dt", dt, error=InvalidGridError)
    u0 = np.atleast_1d(np.asarray(u0))
    u0dot = np.atleast_1d(np.asarray(u0dot))
    g = np.atleast_2d(np.asarray(g))
    n, m = g.shape
    if n < 2:
        raise InvalidGridError("second-order rhs needs n >= 2")
    if u0.shape != (m,) or u0dot.shape != (m,):
        raise DimensionMismatchError("u0 / u0dot dimensions do not match source")
    out = np.array(g, dtype=np.result_type(g, u0, u0dot, float))
    out[0] += u0dot / (2.0 * dt)
    # b1 is zero past block 1 and each row of B reaches one block to either
    # side, so B b1 is zero past block 2; B applied to the first min(n, 3)
    # blocks still gives block 2 its centred row, and blocks 1 and 2 exactly
    k = min(n, 3)
    b1 = np.zeros((k, m))
    b1[0] = u0 / (2.0 * dt)
    out[:k] += apply_B(b1, dt)
    return BlockVector(out)


def geometric_grid(n, tau, dt_last):
    """GeometricGrid factory: n an integer >= 1, tau > 1 and dt_last > 0,
    both finite, or InvalidGridError."""
    return GeometricGrid(n=n, tau=tau, dt_last=dt_last)


def assemble_TR_system(grid: GeometricGrid):
    """Trapezoidal-rule all-at-once factors on a geometric grid.

    B1 is bidiagonal with rows (-1/dt_j, 1/dt_j), B2 is the lower bidiagonal
    averaging matrix of one-halves, and B = B2^{-1} B1 (dense).
    """
    steps = grid.steps
    n = grid.n
    inv = 1.0 / steps
    B1 = sparse.diags([inv], [0], shape=(n, n), format="lil")
    for j in range(1, n):
        B1[j, j - 1] = -inv[j]
    B1 = B1.tocsr()
    B2 = sparse.diags([np.full(n, 0.5), np.full(n - 1, 0.5)], [0, -1]).tocsr()
    # forward substitution for B2^{-1} B1 (B2 is lower bidiagonal)
    B1d = B1.toarray()
    B = np.empty((n, n))
    B[0] = 2.0 * B1d[0]
    for j in range(1, n):
        B[j] = 2.0 * B1d[j] - B[j - 1]
    return B, B1, B2


def _toeplitz_column(grid: GeometricGrid):
    """Entries p_0 = 1, p_j = prod_{l<=j} (1+tau^l)/(1-tau^l)."""
    n, tau = grid.n, grid.tau
    p = np.ones(n)
    for l in range(1, n):
        try:
            p[l] = p[l - 1] * (1.0 + tau**l) / (1.0 - tau**l)
        except OverflowError:       # a float tau^l, or an int one as a float
            raise GeometricOverflowError(
                f"tau^{l} exceeds the floating-point range for tau={tau}, n={n}"
            ) from None
        if abs(p[l]) > _P_OVERFLOW:
            raise GeometricOverflowError(
                f"|p_{l}| = {abs(p[l]):.3e} exceeds the representable range "
                f"for tau={tau}, n={n}"
            )
    return p


def geometric_decomposition(grid: GeometricGrid):
    """Closed-form diagonalization of the trapezoidal geometric-step system.

    Eigenvalues are 2/dt_j.  The eigenvector matrix is the unit
    lower-triangular Toeplitz of the p_j products, column-normalized by
    D_scale = 1/sqrt(1 + sum |p_l|^2); its inverse comes from forward
    substitution on the Toeplitz factor (exact, O(n^2)) rather than any
    closed-form coefficient formula.  cond2 and the residual against the
    trapezoidal-rule B come from the same diagnostics as `decompose`.  The
    factors are real and every index pairs with itself (q = 0).  The
    decomposition carries B, so the solvers' residuals are taken against
    it and not against the hybrid stencil.
    """
    n = grid.n
    p = _toeplitz_column(grid)
    csum = np.cumsum(p**2)
    scale = 1.0 / np.sqrt(csum[::-1])          # column norms of the Toeplitz factor
    # lower-triangular Toeplitz factors: the first row is zero past p_0, q_0
    V = (toeplitz(p, np.zeros(n)) * scale[None, :]).astype(complex)
    # inverse Toeplitz coefficients: q_0 = 1, q_k = -sum_{l=1..k} p_l q_{k-l}
    q = np.zeros(n)
    q[0] = 1.0
    for k in range(1, n):
        q[k] = -np.dot(p[1:k + 1], q[k - 1::-1])
        if not np.isfinite(q[k]) or abs(q[k]) > _P_OVERFLOW:
            raise GeometricOverflowError(f"|q_{k}| overflow for tau={grid.tau}")
    Vinv = ((1.0 / scale)[:, None] * toeplitz(q, np.zeros(n))).astype(complex)
    eigenvalues = (2.0 / grid.steps).astype(complex)

    B, _, _ = assemble_TR_system(grid)
    return SpectralDecomposition(
        n=n,
        dt=float(grid.steps[-1]),
        eigenvalues=eigenvalues,
        V_half=V,
        Vinv_half=Vinv,
        cond2=cond2_estimate(V, Vinv),
        residual=decomposition_residual(eigenvalues, V, Vinv, B),
        roots=None,
        q=0,
        B=B,
    )
