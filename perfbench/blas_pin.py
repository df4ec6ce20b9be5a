"""Pins BLAS to one thread for the benchmark and every process it starts.

Importing this module sets the thread variables.  OpenBLAS reads them once,
when numpy first loads it, so the benchmark imports this module before
anything can import numpy; the CLI children inherit the variables.
Standard library only.
"""
import ctypes
import glob
import os
import sys

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

# the names numpy's bundled OpenBLAS exports, numpy 2 first, then numpy 1
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")


def effective_threads():
    """The thread count numpy's bundled OpenBLAS runs with in this process,
    or None when numpy is not loaded or bundles no OpenBLAS."""
    numpy = sys.modules.get("numpy")
    if numpy is None:
        return None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)      # already loaded: the same handle
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                return int(getter())
    return None
