"""Chebyshev evaluation and the roots of the characteristic equation.

The time stencil used by this package (centered differences closed by one
backward-Euler row) has, after rescaling by the step size, the eigenvalues
``lambda_j = i * x_j`` where the ``x_j`` are the n complex roots of

    U_{n-1}(x) - i * T_n(x) = 0,

with ``T`` / ``U`` the Chebyshev polynomials of the first and second kind.
Substituting ``x = cos(theta)`` turns this into the trigonometric equation

    rho(theta) = sin(n*theta) - i * cos(n*theta) * sin(theta) = 0,

which is solved root-by-root with Newton's method in the single complex
variable ``theta``.  All n roots live in the strip ``Re theta in (0, pi)``,
``Im theta > 0``; they are simple, have ``Im x_j < 0``, and come in the
mirror pairs ``x_{n+1-j} = -conj(x_j)``.

Note that ``rho`` factors as ``sin(theta) * p_n(cos(theta))`` with
``p_n(x) = U_{n-1}(x) - i*T_n(x)``, so ``rho`` has spurious zeros at
``theta = 0, pi`` that do not correspond to roots of ``p_n``.  Newton is
therefore run on the deflated residual ``rho(theta)/sin(theta)``, which
removes those traps.

Only the first ceil(n/2) roots are iterated; the others are set to their
mirrors, so ``x_{n+1-j} = -conj(x_j)`` holds bitwise rather than to the
Newton tolerance.  `spectral` builds V and V^{-1} from that symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRootError,
    DuplicateRootsError,
    NonConvergenceError,
    check_count,
    check_scale,
)

__all__ = [
    "RootSet",
    "cheb_eval",
    "rho_and_derivative",
    "refined_guesses",
    "find_roots",
    "mirror_roots",
    "p_prime",
    "characteristic_residuals",
]

#: |sin(theta)| below this is treated as a degenerate (spurious) root.
_SIN_FLOOR = 1e-14

#: Two converged x values closer than this signal colliding Newton basins.
_DUPLICATE_TOL = 1e-12


def _require_finite(name, value):
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        ok = np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))
    else:
        ok = np.all(np.isfinite(arr))
    if not ok:
        raise ValueError(f"{name} must be finite, got {value!r}")


def cheb_eval(kind, k, x):
    """Evaluate T_k(x) (kind="first") or U_k(x) (kind="second").

    Uses the three-term recurrence, which stays valid for complex ``x``
    off the interval [-1, 1] where the cos/arccos definitions break down.
    Accepts scalars or arrays; the degree k is an integer >= 0.
    """
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    k = check_count("k", k, minimum=0)
    _require_finite("x", x)
    x = np.asarray(x, dtype=complex)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.ndim else complex(prev)
    cur = x.copy() if kind == "first" else 2.0 * x
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else complex(cur)


def rho_and_derivative(theta, n):
    """Return rho(theta) and rho'(theta) for the characteristic equation.

    rho(theta)  = sin(n*theta) - i*cos(n*theta)*sin(theta)
    rho'(theta) = n*cos(n*theta) + i*n*sin(n*theta)*sin(theta)
                  - i*cos(n*theta)*cos(theta)

    Vectorized over ``theta``; n is an integer >= 1.
    """
    n = check_count("n", n)
    _require_finite("theta", theta)
    theta = np.asarray(theta, dtype=complex)
    s, c = np.sin(theta), np.cos(theta)
    sn, cn = np.sin(n * theta), np.cos(n * theta)
    rho = sn - 1j * cn * s
    rho_p = n * cn + 1j * n * sn * s - 1j * cn * c
    if rho.ndim == 0:
        return complex(rho), complex(rho_p)
    return rho, rho_p


def refined_guesses(n):
    """Near-exact seeds from the scalar characterization of the roots.

    Writing theta_j = alpha_j + i*b_j/n, the roots with j <= (n+1)/2 are
    parameterized by the unique solution b_j of the monotone real equation

        n*arcsin(tanh(b)*cosh(b/n)) + arcsin(tanh(b/n)*cosh(b)) = j*pi

    on (0, b_max], where b_max solves sinh(b)*sinh(b/n) = 1; then
    alpha_j = arcsin(tanh(b_j)*cosh(b_j/n)).  The remaining indices follow
    from the mirror symmetry alpha_{n+1-j} = pi - alpha_j, b_{n+1-j} = b_j.
    Bisection on the monotone equation makes every seed land in the right
    Newton basin regardless of n, an integer >= 1.
    """
    n = check_count("n", n)

    # each bisection stops once a halving leaves its bracket unchanged: the
    # state is then a fixed point, so the seeds are those of the full count
    lo, hi = 0.0, float(np.arcsinh(float(n))) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        state = (mid, hi) if np.sinh(mid) * np.sinh(mid / n) < 1.0 else (lo, mid)
        if state == (lo, hi):
            break
        lo, hi = state
    b_max = 0.5 * (lo + hi)

    half = (n + 1) // 2
    target = np.arange(1, half + 1) * np.pi

    def angle_sum(b):
        u = np.clip(np.tanh(b) * np.cosh(b / n), 0.0, 1.0)
        v = np.clip(np.tanh(b / n) * np.cosh(b), 0.0, 1.0)
        return n * np.arcsin(u) + np.arcsin(v)

    blo = np.zeros(half)
    bhi = np.full(half, b_max)
    for _ in range(90):
        mid = 0.5 * (blo + bhi)
        below = angle_sum(mid) < target
        nlo, nhi = np.where(below, mid, blo), np.where(below, bhi, mid)
        if np.array_equal(nlo, blo) and np.array_equal(nhi, bhi):
            break
        blo, bhi = nlo, nhi
    b = 0.5 * (blo + bhi)

    beta = b / n
    alpha = np.arcsin(np.clip(np.tanh(b) * np.cosh(b / n), 0.0, 1.0))

    alpha_all = np.empty(n)
    beta_all = np.empty(n)
    alpha_all[:half] = alpha
    beta_all[:half] = beta
    alpha_all[n - half:] = np.pi - alpha[::-1]
    beta_all[n - half:] = beta[::-1]
    return alpha_all + 1j * beta_all


@dataclass(frozen=True, eq=False)
class RootSet:
    """All n roots in index order: theta_j, x_j = cos(theta_j) and the
    Newton diagnostics (iteration count, final |rho|) per index."""

    n: int
    thetas: np.ndarray
    xs: np.ndarray
    newton_iters: np.ndarray
    residuals: np.ndarray

    @property
    def lambdas_unit(self):
        """Unit-step eigenvalues lambda_j = i*x_j."""
        return 1j * self.xs


def find_roots(n, tol=1e-10, max_iter=50):
    """Compute all n roots of U_{n-1}(x) - i*T_n(x) = 0 by Newton iteration.

    Newton runs simultaneously on the h = ceil(n/2) representatives
    j < h in the theta variable, on the deflated residual
    rho(theta)/sin(theta).  `mirror_roots` fills the other indices from
    them, theta_{n-1-j} = pi - conj(theta_j) and x_{n-1-j} = -conj(x_j),
    with the Newton counts and residuals copied, so the symmetry holds
    bitwise; for odd n the middle root has Re theta = pi/2 and Re x = 0
    exactly.  The eigenvalues i*x_j then satisfy
    lambda_{n-1-j} = conj(lambda_j) bitwise.

    A root is accepted once |rho| <= tol and the last update satisfied
    |dtheta| <= tol*max(1,|theta|), or once updates stagnate at the
    floating-point floor (for large n the evaluated residual cannot reach
    arbitrarily small tolerances even at the correctly rounded root;
    stagnation detection keeps such roots instead of mislabeling them
    divergent).  Seeds come from :func:`refined_guesses`.

    Parameters
    ----------
    n : number of roots (time points), an integer >= 1
    tol : residual tolerance on |rho(theta)|, positive and finite
    max_iter : Newton iteration budget per root, an integer >= 1

    Raises
    ------
    ValueError : n, tol or max_iter is not as stated above
    NonConvergenceError : some root neither met the tolerance nor stagnated
    DuplicateRootsError : two converged x values coincide (wrong basins)
    """
    n = check_count("n", n)
    tol = check_scale("tol", tol)
    max_iter = check_count("max_iter", max_iter)

    h = (n + 1) // 2
    theta = refined_guesses(n)[:h].astype(complex)

    iters = np.zeros(h, dtype=int)
    active = np.ones(h, dtype=bool)
    last_step = np.full(h, np.inf)
    stag_count = np.zeros(h, dtype=int)

    for sweep in range(max_iter + 1):
        rho, rho_p = rho_and_derivative(theta, n)
        rho = np.atleast_1d(rho)
        rho_p = np.atleast_1d(rho_p)
        s = np.sin(theta)
        c = np.cos(theta)
        scale = tol * np.maximum(1.0, np.abs(theta))
        converged = (np.abs(rho) <= tol) & (last_step <= scale)
        stagnated = stag_count >= 2
        active &= ~(converged | stagnated)
        if not active.any() or sweep == max_iter:
            break
        # Newton step for q = rho/sin: q/q' = rho*s / (rho'*s - rho*c)
        step = rho * s / (rho_p * s - rho * c)
        step = np.where(active, step, 0.0)
        theta = theta - step
        mag = np.abs(step)
        stag_count = np.where(
            mag <= 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(theta)),
            stag_count + 1,
            0,
        )
        last_step = np.where(active, mag, last_step)
        iters[active] += 1

    if n % 2:       # mirror_roots' middle rule, before rho and cos read it
        theta.real[-1] = 0.5 * np.pi
    rho, _ = rho_and_derivative(theta, n)
    rho = np.atleast_1d(rho)
    resid = np.abs(rho)
    still_bad = active & (resid > tol) & (stag_count < 2)
    if still_bad.any():
        idx = np.flatnonzero(still_bad) + 1
        raise NonConvergenceError(idx.tolist(), resid[still_bad].tolist(), max_iter)

    roots = mirror_roots(n, theta, np.cos(theta), iters, resid)
    if n > 1:
        x = roots.xs
        order = np.lexsort((x.imag, x.real))
        gaps = np.abs(np.diff(x[order]))
        k = int(np.argmin(gaps))
        if gaps[k] < _DUPLICATE_TOL:
            pair = (int(order[k]) + 1, int(order[k + 1]) + 1)
            raise DuplicateRootsError(pair, float(gaps[k]))
    return roots


def mirror_roots(n, thetas, xs, newton_iters, residuals):
    """The RootSet of all n roots from the values of the h = ceil(n/2)
    representatives: the first h entries of each array, the rest ignored.

    Index n-1-j is the mirror of j < n//2: theta_{n-1-j} = pi - conj(theta_j),
    x_{n-1-j} = -conj(x_j), and the same Newton count and residual.  For odd
    n the middle root pairs with itself and is put on the axis exactly,
    Re theta = pi/2 and Re x = 0.  This is the one writer of the mirror:
    `find_roots` builds its roots with it, and `load_decomposition` refuses
    stored roots that differ from it.
    """
    h, q = n - n // 2, n // 2
    thetas, xs = np.array(thetas[:h], dtype=complex), np.array(xs[:h], dtype=complex)
    if n % 2:
        thetas.real[-1], xs.real[-1] = 0.5 * np.pi, 0.0
    iters, resid = np.asarray(newton_iters[:h]), np.asarray(residuals[:h])
    return RootSet(n, *(np.concatenate([a, mirror[::-1]]) for a, mirror in (
        (thetas, np.pi - np.conj(thetas[:q])), (xs, -np.conj(xs[:q])),
        (iters, iters[:q]), (resid, resid[:q]))))


def p_prime(theta, n):
    """Derivative p_n'(x_j) of p_n(x) = U_{n-1}(x) - i*T_n(x) at the roots.

    Evaluated for the array of root angles ``theta`` through the chain-rule
    identity p_n'(x) = -rho'(theta)/sin^2(theta) at x = cos(theta), which
    follows from rho(theta) = sin(theta)*p_n(cos(theta)) and rho(theta_j) = 0.
    This avoids running a degree-n derivative recurrence per root.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=complex))
    s = np.sin(theta)
    if np.any(np.abs(s) < _SIN_FLOOR):
        j = int(np.argmin(np.abs(s)))
        raise DegenerateRootError(
            f"|sin(theta)| = {abs(s[j]):.2e} at index {j + 1}: "
            "theta sits on a spurious zero of rho"
        )
    _, rho_p = rho_and_derivative(theta, n)
    return -rho_p / s**2


def characteristic_residuals(root_set, method="trig"):
    """|U_{n-1}(x_j) - i*T_n(x_j)| for every root.

    method="trig" evaluates rho(theta_j)/sin(theta_j) (cheap, accurate for
    all n); method="recurrence" re-evaluates the polynomials by their
    three-term recurrences, an independent route whose own rounding grows
    with n but which provides a genuine cross-check at moderate sizes.
    """
    theta = root_set.thetas
    n = root_set.n
    if method == "trig":
        rho, _ = rho_and_derivative(theta, n)
        return np.abs(np.atleast_1d(rho) / np.sin(theta))
    if method == "recurrence":
        x = root_set.xs
        t = cheb_eval("first", n, x)
        u = cheb_eval("second", n - 1, x) if n >= 1 else np.ones_like(x)
        return np.abs(np.atleast_1d(u - 1j * t))
    raise ValueError(f"unknown method {method!r}")
