"""Kernel backend selection.

The hot kernels (matching counts, matching enumeration, forcing-set scans)
exist twice: a pure-Python implementation in :mod:`.pure` and a compiled
Cython twin in ``_speedups``.  The compiled module is used when it imported
cleanly and the graph fits in 64-bit rows; set ``MATCHFORCE_PURE_KERNELS=1``
to force the pure path.  Compare the two by running
``python3 perfbench/run.py --workload all --seed N --seconds 30 --trace 0|1``
once under each backend.
"""

import os

from . import cycles, pure

if os.environ.get("MATCHFORCE_PURE_KERNELS"):
    _speedups = None
else:
    try:
        from . import _speedups  # type: ignore[attr-defined]
    except ImportError:
        _speedups = None

COMPILED_AVAILABLE = _speedups is not None


def kernel_backend() -> str:
    """Name of the backend that `make_kernel` will normally pick."""
    return "compiled" if COMPILED_AVAILABLE else "pure"


def make_kernel(rows):
    """Kernel instance for the given adjacency rows."""
    if _speedups is not None and len(rows) <= 64:
        return _speedups.Kernel(rows)
    return pure.Kernel(rows)


__all__ = [
    "COMPILED_AVAILABLE",
    "cycles",
    "kernel_backend",
    "make_kernel",
    "pure",
]
