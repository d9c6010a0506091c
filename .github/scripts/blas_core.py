"""Print the OpenBLAS core name of numpy's and of scipy's bundled library.

The golden bytes depend on OpenBLAS's kernel family (SkylakeX and Haswell
differ), so CI prints it before the tests.  Each name is read through
ctypes, and is "unknown" when a library or its symbol is missing.
OPENBLAS_CORETYPE, when set, chooses the kernels and so the name printed.

    python .github/scripts/blas_core.py
"""

import ctypes
import glob
import os

import numpy
import scipy


def corename(package, symbol):
    site = os.path.dirname(os.path.dirname(package.__file__))
    for path in glob.glob(os.path.join(site, package.__name__ + ".libs", "*openblas*")):
        try:
            get = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_char_p
        return get().decode()
    return "unknown"


if __name__ == "__main__":
    print("numpy OpenBLAS core:", corename(numpy, "scipy_openblas_get_corename64_"))
    print("scipy OpenBLAS core:", corename(scipy, "scipy_openblas_get_corename"))
