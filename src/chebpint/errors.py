"""Exception types shared across the package, and the two argument checks
every module applies to its counts and scales."""

import math
import numbers
import operator


def check_count(name, value, minimum=1, error=ValueError):
    """value as an int; `error`, naming it, unless it is an integer >= minimum.

    An integer is what `operator.index` takes, bool aside: an int or a numpy
    integer, not True, a float (2.0 neither) or a string.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool) or count < minimum:
        raise error(f"{name} must be >= {minimum} and an integer, got {value!r}")
    return count


def check_scale(name, value, error=ValueError):
    """value as a float; `error`, naming it, unless it is a positive and
    finite real number (an int, a float or a numpy real, not a bool or a
    string)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value < math.inf):
        raise error(f"{name} must be positive and finite, got {value!r}")
    return float(value)


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
    """A right-hand side is not real, or the recovered solution carries an
    implausibly large imaginary residue."""


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
