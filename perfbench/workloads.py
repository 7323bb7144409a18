"""The benchmark's workloads: set-up, generated inputs, the timed solve and
the output check.

Every solve draws an amplitude ``a`` of the manufactured solution, so its
reference is known in closed form: heat and wave scale ``u0``, ``u0dot`` and
the forcing by ``a``; the semilinear problem gets a forcing manufactured for
``a * exp(-t) * P``, so the cubic term changes what Newton sees.  The library
receives only these generated inputs.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import chebpint  # noqa: E402
from chebpint import solver, spectral, timedisc  # noqa: E402
from chebpint.spatial import SemilinearProblem  # noqa: E402

T_END = 2.0
WORKERS = 2
SNI_MAX_ITER = 50

# Across this amplitude range the semilinear workload's simplified Newton
# iteration takes the same number of sweeps (8), so a solve's cost does not
# depend on which amplitude the seed drew.
AMPLITUDES = (0.97, 1.08)

# Output checks.  Observed on the seed code: linear stencil residuals up to
# 4e-11, imaginary residues up to 5e-12, relative errors 1.7e-4 to 3.2e-4
# (time discretization).  SNI stops at its own tolerance.
LINEAR_RESIDUAL_BOUND = 1e-9
IMAG_RESIDUE_BOUND = 1e-9
REL_ERROR_TOL = 1e-3


@dataclass(frozen=True)
class Spec:
    """Fixed sizes of one workload: a side x side grid, n time points."""

    name: str
    kind: str
    side: int
    n: int
    tol: float | None = None

    @property
    def m(self):
        return self.side**2


SPECS = {
    spec.name: spec
    for spec in (
        Spec("heat-wide", "heat", side=255, n=32),
        Spec("wave-long", "wave", side=31, n=1024),
        Spec("sni-semilinear", "semilinear", side=63, n=32, tol=1e-8),
    )
}


def draw_amplitude(rng):
    return float(rng.uniform(*AMPLITUDES))


def setup(spec):
    """What a user pays before the first solve: problem build plus
    `decompose` with the library defaults (cond2 and the residual included)."""
    problem = chebpint.make_benchmark(spec.kind, spec.side, n=spec.n, T=T_END)
    dec = spectral.decompose(spec.n, problem.grid.dt)
    return problem, dec


@dataclass
class Outcome:
    """One attempted solve, reduced to scalars so that a run's memory does
    not grow with its solve count.  `seconds` is None if the solve raised;
    `problems` lists the failed checks and is empty when the output is
    correct."""

    amplitude: float
    seconds: float | None
    rel_error: float
    problems: list
    phase_times: dict = field(default_factory=dict)
    iterations: int = 0
    imag_residue: float = 0.0
    residual: float = 0.0


class Case:
    """A set-up workload: base inputs and reference, ready to solve."""

    def __init__(self, spec, problem, dec):
        self.spec = spec
        self.problem = problem
        self.dec = dec
        self.op = problem.operator
        t = problem.grid.t_points
        self.reference = problem.discrete_reference(t)
        if spec.kind != "semilinear":
            self.source = problem.sample_source(t)

    def inputs(self, a):
        """Generated inputs for amplitude a (not timed)."""
        p = self.problem
        if self.spec.kind == "heat":
            return a * p.u0, a * self.source
        if self.spec.kind == "wave":
            return a * p.u0, a * p.u0dot, a * self.source
        base, cube = p.source, p.u0**3

        def source(t):
            # the library's forcing is manufactured for a = 1: rescale its
            # linear part by a and its cubic part by a**3
            return a * base(t) + (a**3 - a) * np.exp(-3.0 * t) * cube

        return (a * p.u0, source)

    def solve(self, inputs, op, workers):
        """The timed work: right-hand side assembly plus the solver call.

        Calls go through the library's module attributes, so a traced run
        sees them.
        """
        dt = self.problem.grid.dt
        if self.spec.kind == "heat":
            rhs = timedisc.rhs_first_order(*inputs, dt)
            return solver.solve_first_order_linear(self.dec, op, rhs, workers)
        if self.spec.kind == "wave":
            rhs = timedisc.rhs_second_order(*inputs, dt)
            return solver.solve_second_order_linear(self.dec, op, rhs, workers)
        u0, source = inputs
        p = self.problem
        problem = SemilinearProblem(
            operator=op, f=p.f, jac_diag=p.jac_diag, source=source, u0=u0
        )
        return solver.solve_semilinear_sni(
            problem, self.dec, tol=self.spec.tol, max_iter=SNI_MAX_ITER,
            workers=workers,
        )

    def check(self, report, a):
        """Relative max-norm error and the list of failed output checks."""
        problems = []
        U = report.solution.values
        ref = a * self.reference
        if U.shape != ref.shape or not np.all(np.isfinite(U)):
            return float("inf"), [f"solution shape {U.shape} or non-finite values"]
        rel_error = float(np.abs(U - ref).max() / np.abs(ref).max())
        residual = report.residual_history[-1]
        bound = self.spec.tol if self.spec.kind == "semilinear" else LINEAR_RESIDUAL_BOUND
        if not residual <= bound:
            problems.append(f"stencil residual {residual:.3e} > {bound:.0e}")
        if not report.imag_residue <= IMAG_RESIDUE_BOUND:
            problems.append(
                f"imaginary residue {report.imag_residue:.3e} > {IMAG_RESIDUE_BOUND:.0e}"
            )
        if not rel_error <= REL_ERROR_TOL:
            problems.append(f"relative error {rel_error:.3e} > {REL_ERROR_TOL:.0e}")
        return rel_error, problems

    def attempt(self, a, op=None, workers=WORKERS):
        """Generate inputs, time the solve, check it.  A solve that raises or
        fails a check is returned as a failed Outcome, never re-raised."""
        inputs = self.inputs(a)
        try:
            t0 = time.perf_counter()
            report = self.solve(inputs, self.op if op is None else op, workers)
            seconds = time.perf_counter() - t0
            rel_error, problems = self.check(report, a)
        except Exception as exc:  # counted as a failed solve; the run goes on
            traceback.print_exc(file=sys.stderr)
            return Outcome(a, None, float("inf"), [f"raised {exc!r}"])
        return Outcome(a, seconds, rel_error, problems, dict(report.phase_times),
                       report.iterations, report.imag_residue,
                       report.residual_history[-1])
