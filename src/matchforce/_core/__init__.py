"""Matching kernels.

The hot kernels (matching counts, matching enumeration, forcing-set scans
and the forcing numbers of a graph's matchings) live in :mod:`.pure`.
Time them with
``python3 perfbench/run.py --workload all --seed N --seconds 30 --trace 0|1``.
"""

from . import cycles, pure


def kernel_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark results."""
    return "pure"


def make_kernel(rows):
    """Kernel instance for the given adjacency rows."""
    return pure.Kernel(rows)


__all__ = [
    "cycles",
    "kernel_backend",
    "make_kernel",
    "pure",
]
