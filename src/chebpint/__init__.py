"""chebpint: direct parallel-in-time solves through Chebyshev diagonalization.

The package solves first- and second-order evolution systems all-at-once:
the hybrid time stencil (centered interior rows, backward-Euler closure) is
diagonalized in closed form through the Chebyshev structure of its
characteristic equation, after which all time points decouple into
independent complex-shifted spatial solves.
"""

from .chebroots import (
    Root,
    RootSet,
    cheb_eval,
    characteristic_residuals,
    find_roots,
    initial_guesses,
    p_prime_at_root,
    refined_guesses,
    rho_and_derivative,
)
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
    ZeroPivotError,
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
    make_dense_operator,
    make_laplacian_1d_periodic,
    make_laplacian_2d_dirichlet,
)
from .spectral import (
    SpectralDecomposition,
    build_V,
    build_Vinv_fast,
    build_Vinv_reference,
    cond2_estimate,
    decompose,
    eigenvalue_agreement,
    load_decomposition,
    save_decomposition,
    solve_pentadiagonal_S,
    thomas_tridiagonal,
)
from .timedisc import (
    BlockVector,
    GeometricGrid,
    TimeGrid,
    apply_B,
    assemble_B,
    assemble_TR_system,
    geometric_decomposition,
    geometric_grid,
    rhs_first_order,
    rhs_second_order,
)

__version__ = "0.1.0"
