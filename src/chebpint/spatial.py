"""Spatial operators (matrix, apply, complex-shifted solves) and benchmark problems.

An operator defines two methods, ``matrix()`` and its fast shifted solve;
the base class supplies the rest of the contract the time-parallel drivers
use:

- ``matrix()``: A itself, as a dense array or a scipy sparse matrix;
- ``shifted_solve(sigma, g)``: solve (sigma*I + A) w = g for complex sigma,
  by the operator's fast structure-exploiting method;
- ``shifted_solve_batch(sigmas, G)``: overwrite each row G[j] of a
  C-contiguous complex128 array by the solution of
  (sigmas[j]*I + A) w = G[j], bitwise equal to ``shifted_solve`` of that
  row whatever else the batch holds.  The base class loops over
  ``shifted_solve``, so an operator that defines only the per-shift solve
  works unchanged; ``SineLaplacian2D`` transforms chunks of rows in place,
  and its ``shifted_solve`` is the one-row batch.  An operator defines
  ``shifted_solve`` or ``shifted_solve_batch``, or both.
- ``apply(v)``: the matrix action A @ v (batched over a leading axis),
  written once in the base class from ``matrix()``;
- ``shifted_diag_solve(sigma, diag, g)``: solve (sigma*I + A + diag(d)) w = g
  exactly, written once in the base class as a sparse LU of ``matrix()``.
  The simplified Newton iteration, where an averaged pointwise Jacobian
  rides on top of the stiff linear part, solves these systems by a fixed
  point on ``shifted_solve_batch`` and calls this method only as the exact
  fallback for a shift whose fixed point does not contract.

``shifted_solve_batch`` must be reentrant: the driver invokes it
concurrently on disjoint row blocks of one array, so no method mutates
shared scratch state.

The discrete Laplacians avoid external sparse solvers in their shifted
solves: the Dirichlet operator on a square is diagonalized exactly by the
type-I discrete sine transform and the periodic one by the FFT, giving
O(m log m) shifted solves.  A dense operator wrapper covers small ODE
systems and oracle tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.fft
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from .errors import (
    DimensionMismatchError,
    SingularShiftError,
    UnsupportedKindError,
    check_count,
    check_scale,
)

__all__ = [
    "SpatialOperator",
    "DenseOperator",
    "SineLaplacian2D",
    "PeriodicLaplacian1D",
    "make_dense_operator",
    "make_laplacian_1d_periodic",
    "SemilinearProblem",
    "BenchmarkProblem",
    "make_benchmark",
]

_SHIFT_FLOOR = 1e-12
#: SineLaplacian2D.shifted_solve_batch, and the SNI fixed point above it,
#: work through their rows in chunks of at most this many complex elements
#: (512 KiB): the DSTs run in place, but each chunk's denominators are new
#: arrays of its size, and 4 MiB chunks raised the peak RSS of 1024 shifts
#: on a 31^2 grid by 11%
_BATCH_ELEMS = 1 << 15


class SpatialOperator:
    """Contract: A as a matrix, its action and complex-shifted solves of
    dimension m.

    A subclass defines `matrix` and a fast `shifted_solve` (or
    `shifted_solve_batch`); `apply` and the exact `shifted_diag_solve` are
    written here once, from `matrix`.  An operator without a matrix (a
    delegating wrapper) overrides `apply` and `shifted_diag_solve` instead.
    """

    m: int

    def matrix(self):
        """A as a dense array or a scipy sparse matrix."""
        raise NotImplementedError

    def apply(self, v):
        v = self._check_dim(v)
        return (self.matrix() @ np.atleast_2d(v).T).T.reshape(v.shape)

    def shifted_solve(self, sigma, g):
        raise NotImplementedError

    def shifted_solve_batch(self, sigmas, G):
        """Overwrite each row G[j] by the solution of (sigmas[j] I + A) w = G[j].

        G is a C-contiguous complex128 array of shape (len(sigmas), m).
        """
        for j, sigma in enumerate(self._check_batch(sigmas, G)):
            G[j] = self.shifted_solve(sigma, G[j])

    def shifted_diag_solve(self, sigma, diag, g):
        """Solve (sigma I + A + diag(d)) w = g by a sparse LU of `matrix`.

        Raises SingularShiftError when the LU finds the matrix exactly
        singular, or when its smallest pivot falls under _SHIFT_FLOOR times
        the largest entry of the matrix.
        """
        g = self._check_dim(g)
        M = (sparse.csc_matrix(self.matrix(), dtype=complex)
             + sparse.diags(np.asarray(diag) + sigma)).tocsc()
        # the stencils plus a diagonal have symmetric patterns; the AT+A
        # ordering cuts the factor fill roughly in half versus the default
        try:
            lu = sparse_linalg.splu(M, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SingularShiftError(sigma, str(exc)) from exc
        pivot = np.abs(lu.U.diagonal()).min() / np.abs(M.data).max()
        if pivot < _SHIFT_FLOOR:
            raise SingularShiftError(sigma, f"relative LU pivot {pivot:.1e}")
        return lu.solve(g.astype(complex))

    def _check_dim(self, v):
        v = np.asarray(v)
        if v.shape[-1] != self.m:
            raise DimensionMismatchError(
                f"operator dimension {self.m}, got vector with {v.shape[-1]}"
            )
        return v

    def _check_batch(self, sigmas, G):
        """The shifts as a 1-D array once G can be overwritten row by row."""
        if not (isinstance(G, np.ndarray) and G.dtype == np.complex128
                and G.flags.c_contiguous):
            raise ValueError("G must be a C-contiguous complex128 array")
        sigmas = np.asarray(sigmas)
        if G.ndim != 2 or G.shape[1] != self.m or sigmas.shape != G.shape[:1]:
            raise DimensionMismatchError(
                f"{np.shape(sigmas)} shifts of operator dimension {self.m}, "
                f"got rows of shape {G.shape}"
            )
        return sigmas


class DenseOperator(SpatialOperator):
    """Any square matrix; shifted solves factorize per shift by LAPACK."""

    def __init__(self, A):
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatchError("A must be square")
        self.A = A
        self.m = A.shape[0]

    def matrix(self):
        return self.A

    def shifted_solve(self, sigma, g):
        g = self._check_dim(g)
        M = self.A.astype(complex) + sigma * np.eye(self.m)
        try:
            return np.linalg.solve(M, g)
        except np.linalg.LinAlgError as exc:
            raise SingularShiftError(sigma, str(exc)) from exc


class SineLaplacian2D(SpatialOperator):
    """Minus the 5-point Laplacian on the interior of a square, Dirichlet BC.

    Grid: points_per_dim interior points per direction with spacing h, domain
    side L = (points_per_dim + 1) * h.  Eigenvectors are the sampled sine
    modes; eigenvalues (4/h^2)(sin^2(k*pi*h/(2L)) + sin^2(l*pi*h/(2L))).
    Shifted solves go through the type-I DST diagonalization; `matrix` gives
    the equivalent sparse stencil, which `apply` and the Jacobian-perturbed
    solves use.  ValueError unless points_per_dim is an integer >= 1 and h
    is positive and finite.
    """

    def __init__(self, points_per_dim, h):
        self.points_per_dim = p = check_count("points_per_dim", points_per_dim)
        self.h = h = check_scale("h", h)
        self.L = (p + 1) * h
        self.m = p**2
        k = np.arange(1, p + 1)
        mu1 = (4.0 / h**2) * np.sin(k * np.pi * h / (2.0 * self.L)) ** 2
        self.modes2d = mu1[:, None] + mu1[None, :]
        self._dst_scale = 1.0 / (2.0 * (p + 1)) ** 2
        self._matrix = None

    def matrix(self):
        """Sparse CSR form of the stencil (cached)."""
        if self._matrix is None:
            p = self.points_per_dim
            main = np.full(p, 2.0)
            off = np.full(p - 1, -1.0)
            T1 = sparse.diags([off, main, off], [-1, 0, 1]) / self.h**2
            eye = sparse.identity(p)
            self._matrix = (sparse.kron(T1, eye) + sparse.kron(eye, T1)).tocsr()
        return self._matrix

    def grid(self):
        """Interior points (X, Y), 'ij' indexing, raveled C-order."""
        pts = np.arange(1, self.points_per_dim + 1) * self.h
        return np.meshgrid(pts, pts, indexing="ij")

    def _check_shifts(self, sigmas, denom):
        """Raise SingularShiftError for the first sigmas[r] whose denominators
        denom[r] = sigmas[r] + modes2d come within _SHIFT_FLOOR of zero.

        The modes are real, so |denom[r]| >= |Im sigmas[r]|: only the shifts
        within _SHIFT_FLOOR of the real axis are scanned."""
        near = np.flatnonzero(np.abs(np.imag(sigmas)) < _SHIFT_FLOOR)
        if not near.size:
            return
        small = np.abs(denom[near]).reshape(near.size, -1)
        hits = np.flatnonzero(small.min(axis=1) < _SHIFT_FLOOR)
        if hits.size:
            r = hits[0]
            k = np.unravel_index(np.argmin(small[r]), self.modes2d.shape)
            raise SingularShiftError(
                sigmas[near[r]],
                f"collides with mode {tuple(int(i) + 1 for i in k)}",
            )

    def shifted_solve(self, sigma, g):
        """The one-row `shifted_solve_batch`: a complex128 result for any g."""
        g = self._check_dim(g)
        G = np.array(g, dtype=complex).reshape(1, self.m)
        self.shifted_solve_batch(np.array([sigma]), G)
        return G.reshape(g.shape)

    def shifted_solve_batch(self, sigmas, G):
        sigmas = self._check_batch(sigmas, G)
        p = self.points_per_dim
        rows = max(1, _BATCH_ELEMS // self.m)
        for s in range(0, len(G), rows):
            e = min(s + rows, len(G))
            denom = sigmas[s:e, None, None] + self.modes2d
            self._check_shifts(sigmas[s:e], denom)
            W = G[s:e].reshape(e - s, p, p)
            # overwrite_x makes dstn transform the real and imaginary parts
            # of W in place, one line at a time
            scipy.fft.dstn(W, type=1, axes=(1, 2), overwrite_x=True)
            W /= denom
            scipy.fft.dstn(W, type=1, axes=(1, 2), overwrite_x=True)
            W *= self._dst_scale


class PeriodicLaplacian1D(SpatialOperator):
    """Circulant second-difference operator (periodic second derivative).

    m grid points with spacing h covering one period; diagonalized by the
    FFT with eigenvalues (4/h^2) sin^2(pi*k/m).  sigma = 0 collides with the
    constant mode.  ValueError unless m is an integer >= 3 and h is positive
    and finite.
    """

    def __init__(self, m, h):
        self.m = m = check_count("m", m, minimum=3)
        self.h = h = check_scale("h", h)
        k = np.arange(m)
        self.modes = (4.0 / h**2) * np.sin(np.pi * k / m) ** 2
        self._matrix = None

    def matrix(self):
        """Sparse CSR form of the circulant (cached)."""
        if self._matrix is None:
            m = self.m
            self._matrix = sparse.diags(
                [-1.0, -1.0, 2.0, -1.0, -1.0], [1 - m, -1, 0, 1, m - 1],
                shape=(m, m), format="csr",
            ) / self.h**2
        return self._matrix

    def dense(self):
        return self.matrix().toarray()

    def shifted_solve(self, sigma, g):
        g = self._check_dim(g)
        denom = sigma + self.modes
        small = np.abs(denom).min()
        if small < _SHIFT_FLOOR:
            k = int(np.argmin(np.abs(denom)))
            raise SingularShiftError(sigma, f"collides with Fourier mode {k}")
        out = scipy.fft.ifft(scipy.fft.fft(g) / denom)
        if not np.iscomplexobj(g) and not np.iscomplexobj(np.asarray(sigma)):
            return out.real
        return out


def make_dense_operator(A):
    return DenseOperator(A)


def make_laplacian_1d_periodic(m, h):
    return PeriodicLaplacian1D(m, h)


@dataclass
class SemilinearProblem:
    """First-order problem u' + A u + f(u) = source(t) with pointwise f."""

    operator: SpatialOperator
    f: Callable
    jac_diag: Callable
    source: Callable
    u0: np.ndarray


@dataclass
class BenchmarkProblem:
    """A manufactured problem on the unit-square-like domains.

    ``source(t)`` samples the closed-form forcing on the grid;
    ``discrete_reference(t_points)`` evaluates the exact solution of the
    *semi-discretized* system (the quantity the time stepper actually
    approaches), which for the wave and semilinear problems coincides with
    the sampled closed-form solution because their solutions are
    per-direction polynomials of degree <= 3 that the 5-point stencil
    differentiates exactly.
    """

    kind: str
    operator: SpatialOperator
    u0: np.ndarray
    source: Callable
    discrete_reference: Callable
    u0dot: np.ndarray | None = None
    f: Callable | None = None
    jac_diag: Callable | None = None
    grid: "TimeGrid | None" = None

    @property
    def m(self):
        return self.operator.m

    def sample_source(self, t_points):
        """Stack source(t_j) into an (n, m) block array."""
        return np.stack([self.source(float(t)) for t in np.asarray(t_points)])

    def semilinear(self):
        if self.kind != "semilinear":
            raise UnsupportedKindError(f"{self.kind} has no nonlinear part")
        return SemilinearProblem(
            operator=self.operator, f=self.f, jac_diag=self.jac_diag,
            source=self.source, u0=self.u0,
        )


def _heat_benchmark(points_per_dim):
    L = np.pi
    h = L / (points_per_dim + 1)
    op = SineLaplacian2D(points_per_dim, h)
    X, Y = op.grid()
    R = (np.sin(X) * np.sin(Y)).ravel()
    # sampled sin*sin is an exact eigenvector of the stencil
    mu = 2.0 * (4.0 / h**2) * np.sin(h / 2.0) ** 2

    def source(t):
        return np.exp(-t) * R

    def discrete_reference(t_points):
        # modal solution of u' + mu*u = e^{-t}, u(0) = 1
        t = np.asarray(t_points)
        c = 1.0 / (mu - 1.0)
        coef = c * np.exp(-t) + (1.0 - c) * np.exp(-mu * t)
        return coef[:, None] * R[None, :]

    return BenchmarkProblem(
        kind="heat", operator=op, u0=R.copy(),
        source=source, discrete_reference=discrete_reference,
    )


def _wave_benchmark(points_per_dim):
    L = 1.0
    h = L / (points_per_dim + 1)
    op = SineLaplacian2D(points_per_dim, h)
    X, Y = op.grid()
    P = (X * (X - 1.0) * Y * (Y - 1.0)).ravel()
    S = (X * (X - 1.0) + Y * (Y - 1.0)).ravel()

    def source(t):
        return np.sin(2.0 * np.pi * t) * (-4.0 * np.pi**2 * P - 2.0 * S)

    def discrete_reference(t_points):
        t = np.asarray(t_points)
        return np.sin(2.0 * np.pi * t)[:, None] * P[None, :]

    return BenchmarkProblem(
        kind="wave", operator=op, u0=np.zeros(op.m),
        u0dot=2.0 * np.pi * P, source=source,
        discrete_reference=discrete_reference,
    )


def _semilinear_benchmark(points_per_dim):
    # domain (-1, 1)^2
    h = 2.0 / (points_per_dim + 1)
    op = SineLaplacian2D(points_per_dim, h)
    pts = -1.0 + np.arange(1, points_per_dim + 1) * h
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    P = ((X**2 - 1.0) * (Y**2 - 1.0)).ravel()
    S = ((X**2 - 1.0) + (Y**2 - 1.0)).ravel()

    # products, not powers: u**3 goes through the general power, 0.63 ms
    # against 0.18 ms for u*u*u on a 32 x 63^2 solution, and each SNI
    # sweep evaluates f and the Jacobian once
    def f(u):
        return u * u * u - u

    def jac_diag(u):
        return 3.0 * (u * u) - 1.0

    def source(t):
        return (-2.0 * np.exp(-t) * P
                + np.exp(-3.0 * t) * P**3
                - 2.0 * np.exp(-t) * S)

    def discrete_reference(t_points):
        t = np.asarray(t_points)
        return np.exp(-t)[:, None] * P[None, :]

    return BenchmarkProblem(
        kind="semilinear", operator=op, u0=P.copy(),
        source=source, discrete_reference=discrete_reference, f=f,
        jac_diag=jac_diag,
    )


def make_benchmark(kind, points_per_dim, n=None, T=None):
    """Assemble one of the three manufactured benchmark problems.

    kind="heat":       u_t - Lap u = r on (0, pi)^2, u = sin(x)sin(y)e^{-t}
    kind="wave":       u_tt - Lap u = r on (0, 1)^2, u = x(x-1)y(y-1)sin(2 pi t)
    kind="semilinear": u_t - Lap u + u^3 - u = r on (-1, 1)^2,
                       u = (x^2-1)(y^2-1)e^{-t}

    all with homogeneous Dirichlet boundaries and the forcing r manufactured
    from the stated solution.  When n and T are given, a uniform TimeGrid
    with dt = T/n is attached for the drivers.  ValueError unless
    points_per_dim and n are integers >= 1 and T is positive and finite.
    """
    builders = {
        "heat": _heat_benchmark,
        "wave": _wave_benchmark,
        "semilinear": _semilinear_benchmark,
    }
    if kind not in builders:
        raise UnsupportedKindError(
            f"unknown benchmark {kind!r}; expected one of {sorted(builders)}"
        )
    problem = builders[kind](points_per_dim)
    if n is not None:
        if T is None:
            raise ValueError("T is required when n is given")
        n = check_count("n", n)
        T = check_scale("T", T)
        from .timedisc import TimeGrid

        problem.grid = TimeGrid(n=n, dt=T / n)
    return problem
