"""OpenBLAS held at one thread for the length of a scope.

OpenBLAS runs a large enough product (numpy's matmul and dot, and so
np.linalg.norm of a large real array) on helper threads of its own, and
after each such call a helper keeps spinning on its core for a while in
wait for more work.  A solve that runs worker threads of its own between
such calls, as each simplified Newton sweep does in step (b), so finds one
of its cores taken.  `single_threaded()` sets the thread count of every
OpenBLAS the process has loaded to 1, and gives back the counts it found
on exit, also when the scope ends by an exception.

The thread count is a property of the process, not of a thread or a call:
while a scope is open, every BLAS call of the process runs on one thread.
So the scopes share one depth count under a lock: the first scope to enter
saves the counts and sets them to 1, and the last to leave restores them,
however scopes on different threads overlap.  The libraries are looked up
once, on first use, among the shared objects mapped into the process
(/proc/self/maps); where there is no such file, or no mapped OpenBLAS
exports a thread-count setter, a scope changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

__all__ = ["single_threaded"]

#: (getter, setter) of the thread count: the symbol-suffixed builds that
#: the numpy (64-bit integers) and scipy wheels ship, then plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()
_depth = 0          # scopes open in the process
_saved = ()         # the counts the first open scope found


def _mapped_openblas():
    """Paths of the mapped shared objects whose file name names OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    # an anonymous mapping has no sixth field, the path
    paths = {f[5].strip() for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


@functools.cache
def _libraries():
    """((get, set), ...): the thread-count functions of each mapped OpenBLAS
    that exports them."""
    found = []
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


@contextmanager
def single_threaded():
    """OpenBLAS at one thread inside the scope, the caller's counts after it."""
    global _depth, _saved
    libs = _libraries()
    with _lock:
        if _depth == 0:
            _saved = tuple(get() for get, _ in libs)
            for _, set_ in libs:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, set_), count in zip(libs, _saved):
                    set_(count)
