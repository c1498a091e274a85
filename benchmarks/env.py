"""The benchmark's thread pinning and the environment record of every result.

This module imports no numpy at load time: the thread variables must be set
before numpy (and OpenBLAS) first loads in a process.
"""

from __future__ import annotations

import os
import platform

# BLAS/OpenMP threads, no higher than any machine's core count. One thread
# keeps timings steady on a shared machine and fixes the weights
# fingerprint, which differs between one and two OpenBLAS threads.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pinned(environ) -> dict:
    """A copy of environ with every thread variable set to THREADS."""
    return {**environ, **{var: str(THREADS) for var in THREAD_VARS}}


def describe() -> dict:
    """Python, numpy, BLAS, thread settings, usable cores and CPU model."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 cannot return its build config
        blas_name = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }
