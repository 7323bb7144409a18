"""Property tests of the decomposition: dump round-trip, the mirror symmetry
of V^{-1}, and the cond2 estimate against the SVD.

Examples are derandomized and few, so the suite stays deterministic and
adds only a few seconds.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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

# outside about [1e-150, 1e150] the squared stencil entries that the
# residual's norm sums overflow or underflow
_DT = st.floats(min_value=1e-100, max_value=1e100, allow_nan=False,
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
