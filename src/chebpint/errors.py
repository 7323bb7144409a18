"""Exception types shared across the package."""


class ChebPintError(Exception):
    """Base class for all numerical failures raised by this package."""


class NonConvergenceError(ChebPintError):
    """Newton iteration for one or more roots exceeded the iteration budget."""

    def __init__(self, indices, residuals, max_iter):
        self.indices = list(indices)
        self.residuals = list(residuals)
        self.max_iter = max_iter
        worst = max(self.residuals) if self.residuals else float("nan")
        super().__init__(
            f"{len(self.indices)} root(s) failed to converge within "
            f"{max_iter} iterations (indices {self.indices[:8]}..., "
            f"worst residual {worst:.3e})"
        )


class DuplicateRootsError(ChebPintError):
    """Two Newton iterates collapsed onto the same root (wrong basins)."""

    def __init__(self, pair, distance):
        self.pair = pair
        self.distance = distance
        super().__init__(
            f"roots {pair[0]} and {pair[1]} coincide (|dx| = {distance:.3e})"
        )


class DegenerateRootError(ChebPintError):
    """A root sits too close to sin(theta) = 0 for derivative evaluation."""


class ZeroPivotError(ChebPintError):
    """Tridiagonal elimination hit a vanishing pivot."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"zero pivot at elimination step {k}")


class SingularMatrixError(ChebPintError):
    """Dense factorization failed, or cond2 met a zero or non-finite matrix."""


class DimensionMismatchError(ChebPintError):
    """Incompatible block-vector / operator / decomposition dimensions."""


class InvalidGridError(ChebPintError):
    """Time grid does not satisfy the preconditions of the requested scheme."""


class SingularShiftError(ChebPintError):
    """A complex shift collided with the spectrum of the spatial operator."""

    def __init__(self, sigma, detail=""):
        self.sigma = sigma
        msg = f"shift {sigma} makes the shifted operator singular"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonRealSolutionError(ChebPintError):
    """Recovered solution carries an implausibly large imaginary residue."""


class MaxIterationsError(ChebPintError):
    """Simplified Newton iteration did not reach the requested tolerance."""

    def __init__(self, iterations, residual, tol):
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e}, tol {tol:.1e})"
        )


class UnsupportedKindError(ChebPintError):
    """Unknown benchmark or polynomial kind."""


class GeometricOverflowError(ChebPintError):
    """Closed-form eigenvector entries of the geometric-step system overflow."""
