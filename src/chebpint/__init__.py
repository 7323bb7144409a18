"""chebpint: direct parallel-in-time solves through Chebyshev diagonalization.

The package solves first- and second-order evolution systems all-at-once:
the hybrid time stencil (centered interior rows, backward-Euler closure) is
diagonalized in closed form through the Chebyshev structure of its
characteristic equation, after which all time points decouple into
independent complex-shifted spatial solves.

The package namespace holds the documented API; building blocks such as the
root finder (``chebpint.chebroots``), the factor builders
(``chebpint.spectral``) and the stencil assembly (``chebpint.timedisc``) are
imported from their submodules.
"""

from .errors import (
    ChebPintError,
    DegenerateRootError,
    DimensionMismatchError,
    DuplicateRootsError,
    GeometricOverflowError,
    InvalidGridError,
    MaxIterationsError,
    NonConvergenceError,
    NonRealSolutionError,
    SingularMatrixError,
    SingularShiftError,
    UnsupportedKindError,
)
from .solver import (
    SolveReport,
    global_error,
    recover_velocity,
    solve_first_order_linear,
    solve_second_order_linear,
    solve_semilinear_sni,
    timestep_trapezoidal,
)
from .spatial import (
    BenchmarkProblem,
    DenseOperator,
    PeriodicLaplacian1D,
    SemilinearProblem,
    SineLaplacian2D,
    SpatialOperator,
    make_benchmark,
)
from .spectral import (
    SpectralDecomposition,
    decompose,
    load_decomposition,
    save_decomposition,
)
from .timedisc import (
    BlockVector,
    TimeGrid,
    rhs_first_order,
    rhs_second_order,
)

__version__ = "0.1.0"
