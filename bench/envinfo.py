"""The run's environment, and the fixed reference kernel that measures the machine's speed."""
from __future__ import annotations

import ctypes
import glob
import os
import platform
import time

import numpy as np

# Seconds one reference() is scaled to: scaled times read as if the machine
# ran the reference kernel in exactly this long.
REFERENCE_S = 1e-3
REFERENCE_REPEATS = 3

_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(8, 8))
_SPD = (lambda m: m @ m.T)(_rng.normal(size=(40, 40)))
_VECTOR = _rng.normal(size=100_000)


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy's wheel bundles, asked from the library itself."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def collect() -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ},
        "loadavg": os.getloadavg(),
    }


def _kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    a = _SMALL
    for _ in range(40):
        a = np.tanh(a @ a.T / 8)
    np.linalg.eigh(_SPD)
    _VECTOR.copy().sum()


def reference() -> float:
    """Seconds of the fastest of a few back-to-back runs of a fixed kernel (under 1 ms each).

    The kernel mixes the kinds of work gptw does: interpreter loops, small NumPy
    calls, a LAPACK call and a memory copy.  It shares no code with gptw, so a
    change to gptw leaves it alone while a change in the machine's speed moves it.
    """
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)
