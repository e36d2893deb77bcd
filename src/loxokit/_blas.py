"""Run dense kernels on one OpenBLAS thread.

numpy and scipy each bundle their own OpenBLAS: numpy's (64-bit integer
interface) carries numpy's matrix products, scipy's carries scipy.linalg.
At the damped wave's sizes (a 384 x 384 generator) two threads were
measured slower than one, and their dgeev and products differ in the last
bits from one thread's. one_thread() pins both pools to one thread while
a kernel runs, so its results do not depend on OPENBLAS_NUM_THREADS, and
puts the caller's counts back afterwards. The damped wave's thread pool
over angular modes runs inside one such scope, which its worker threads
share: each mode's BLAS calls run on the worker that made them, and the
modes, not the BLAS, are what runs in parallel.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

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


# one_thread scopes open in this process, and the (set, count) pairs
# that the outermost one saved; _LOCK guards both
_LOCK = threading.Lock()
_open = 0
_saved = ()


@contextlib.contextmanager
def one_thread():
    """Context manager, also usable as a decorator: every bundled
    OpenBLAS runs on one thread inside it, and gets back the count it
    had before the outermost open scope when the last scope closes,
    also when the body raises.

    The setting is process-wide while a scope is open: BLAS calls from
    other Python threads, such as the workers of a pool started inside
    the scope, run on one thread too. Scopes may nest and overlap across
    threads. Without a bundled OpenBLAS this does nothing.
    """
    global _open, _saved
    with _LOCK:
        if _open == 0:
            _saved = tuple((set_, get()) for get, set_ in _pools())
            for set_, _ in _saved:
                set_(1)
        _open += 1
    try:
        yield
    finally:
        with _LOCK:
            _open -= 1
            if _open == 0:
                for set_, count in _saved:
                    set_(count)
