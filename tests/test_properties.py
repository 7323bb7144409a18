"""Property tests of the decomposition: dump round-trip, the mirror symmetry
of V^{-1}, and the cond2 estimate against the SVD; and of the batched sine
Laplacian solve against its per-row solve.

Examples are derandomized and few, so the suite stays deterministic and
adds only a few seconds.
"""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chebpint import spatial
from chebpint.chebroots import find_roots
from chebpint.spectral import (
    build_V,
    build_Vinv_fast,
    cond2_estimate,
    decompose,
    load_decomposition,
    save_decomposition,
)

_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

_DT = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False,
                allow_infinity=False)


@_SETTINGS
@given(n=st.integers(1, 64), dt=_DT)
def test_dump_round_trip_is_exact(n, dt):
    dec = decompose(n, dt)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dec.bin")
        save_decomposition(dec, path)
        got = load_decomposition(path)
    assert (got.n, got.dt, got.cond2, got.residual) == (
        dec.n, dec.dt, dec.cond2, dec.residual)
    for name in ("eigenvalues", "V", "Vinv"):
        assert np.array_equal(getattr(got, name), getattr(dec, name)), name


@_SETTINGS
@given(n=st.integers(1, 300))
def test_vinv_rows_mirror_exactly(n):
    Vinv = build_Vinv_fast(find_roots(n))
    for j in range(n // 2):
        assert np.array_equal(Vinv[n - 1 - j], np.conj(Vinv[j])), j


@_SETTINGS
@given(n=st.integers(1, 400))
def test_cond2_estimate_matches_svd(n):
    roots = find_roots(n, tol=1e-11)
    V = build_V(roots)
    s = np.linalg.svd(V, compute_uv=False)
    exact = s[0] / s[-1]
    assert abs(cond2_estimate(V, build_Vinv_fast(roots)) - exact) <= 1e-2 * exact


@_SETTINGS
@given(side=st.integers(1, 40), k=st.integers(1, 70), rows=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_batched_sine_solve_is_the_per_row_solve(side, k, rows, seed):
    # chunks of `rows` rows, so most batches cross chunk boundaries
    op = spatial.SineLaplacian2D(side, 1.0 / (side + 1))
    rng = np.random.default_rng(seed)
    sigmas = rng.uniform(0.1, 1e3, size=k) + 1j * rng.normal(scale=1e3, size=k)
    G0 = rng.normal(size=(k, op.m)) + 1j * rng.normal(size=(k, op.m))
    G = G0.copy()
    with mock.patch.object(spatial, "_BATCH_ELEMS", rows * op.m):
        op.shifted_solve_batch(sigmas, G)
    for j in range(k):
        assert np.array_equal(G[j], op.shifted_solve(sigmas[j], G0[j])), j
