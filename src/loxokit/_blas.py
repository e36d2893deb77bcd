"""Run numpy's and scipy's OpenBLAS on one thread, for the whole process.

numpy and scipy each bundle their own OpenBLAS: numpy's (64-bit integer
interface) carries numpy's matrix products, scipy's carries scipy.linalg.
At this package's sizes two threads were measured no faster than one (the
damped wave's 384 x 384 generator ran slower on two), and their dgeev and
products differ in the last bits from one thread's. pin_single_thread(),
called once when loxokit is imported, sets both pools to one thread, so
results do not depend on OPENBLAS_NUM_THREADS. The earlier counts are not
restored: after `import loxokit` the process runs both pools on one
thread, and a caller that raises the count afterwards gets no guarantee
that results are thread-independent. The damped wave's thread pool over
angular modes runs each mode's BLAS calls on the worker that made them:
the modes, not the BLAS, are what runs in parallel.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy
import scipy

# (package, library glob in <package>.libs, names of its thread-count API)
_BUNDLES = (
    (numpy, "libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
    (scipy, "libscipy_openblas*.so", "scipy_openblas_{}_num_threads"),
)


@functools.cache
def _pools():
    """(get, set) thread-count functions of each bundled OpenBLAS found;
    empty when there is none, as with a system BLAS."""
    pools = []
    for package, pattern, symbol in _BUNDLES:
        site = os.path.dirname(os.path.dirname(package.__file__))
        libs = f"{package.__name__}.libs"
        for path in sorted(glob.glob(os.path.join(site, libs, pattern))):
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, symbol.format("get"))
                set_ = getattr(lib, symbol.format("set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pools.append((get, set_))
    return tuple(pools)


def pin_single_thread():
    """Set every bundled OpenBLAS found to one thread; without one, do
    nothing."""
    for _, set_ in _pools():
        set_(1)
