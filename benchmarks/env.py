"""Process set-up shared by the benchmark's scripts; import before numpy.

Caps BLAS at the CPUs this process may run on, and puts the checkout's
``src/`` first on ``sys.path`` so the benchmark measures the program next to
it and never an installed copy.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def allowed_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_blas_threads(limit: int | None = None) -> int:
    """Set every BLAS thread variable to min(its value, limit or nproc)."""
    limit = limit or allowed_cpus()
    for name in BLAS_ENV:
        try:
            current = int(os.environ.get(name, limit))
        except ValueError:
            current = limit
        os.environ[name] = str(max(1, min(current, limit)))
    return int(os.environ[BLAS_ENV[0]])


def use_checkout_src():
    """Import protorecon from this checkout's src/; exit with a message if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "protorecon", "__init__.py")):
        sys.exit(f"benchmark: no program source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import protorecon

    if os.path.dirname(os.path.dirname(os.path.abspath(protorecon.__file__))) != SRC:
        sys.exit(f"benchmark: protorecon imported from {protorecon.__file__}, not {SRC}")
